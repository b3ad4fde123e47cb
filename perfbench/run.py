"""approxcount benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Steps, each in its own fresh process and
never two at once:

1. generate the workload's operations from the seed (``workloads.py``) and
   write one one-instance JSONL file per operation plus the workload file;
2. with ``--trace 0``, time set-up (``import approxcount`` plus
   ``cli.load_instances`` of the workload file) in several fresh processes;
3. measure (``measure.py``): a closed loop, one client, for S seconds;
4. compute the exact count of every instance that ran (``reference.py``),
   outside the timed loop, and check each answer against its band.

Times are reported at a reference machine speed (see ``measure.REF_KERNEL_S``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A band miss, a wrong ``exact`` field from ``verify``, or a traced count that
differs from the untraced one makes ``correct`` false and the exit code 1.
Everything a run writes stays in ``perfbench/_runs/<workload>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from bootstrap import ROOT, MissingProgram, require_program
from measure import REF_KERNEL_S
from reference import in_band
from tracer import layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
POOL = 512  # distinct instances per run; the loop wraps round only past this
SETUP_PROBES = 9  # fresh processes timed for setup_s, after one untimed warm-up
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "instance_s.p50": "s",
    "instance_s.p90": "s",
    "instances_per_s": "1/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.load_s": "s/op",
    "cli.self_s": "s/op",
    "knapsack.self_s": "s/op",
    "mtuples.self_s": "s/op",
    "contingency.self_s": "s/op",
    "contingency.compress_s": "s/op",
    "contingency.compressions": "count/op",
    "contingency.chain_length": "count/op",
    "incpoints.build_s": "s/op",
    "incpoints.convert_self_s": "s/op",
    "incpoints.pad_s": "s/op",
    "incpoints.candidates": "count/op",
    "incpoints.pad_ratio": "ratio",
    "stepfunc.eval_s": "s/op",
    "stepfunc.search_self_s": "s/op",
    "stepfunc.induce_s": "s/op",
    "stepfunc.compressions": "count/op",
    "stepfunc.oracle_calls": "count/op",
    "stepfunc.breakpoints": "count/op",
    "stepfunc.calls_per_breakpoint": "ratio",
    "oracles.dp_s": "s/op",
    "oracles.dp_calls": "count/op",
    "knapsack.eps_used.p50": "ratio",
    "mtuples.eps_used.p50": "ratio",
    "contingency.eps_used.p50": "ratio",
    "trace.overhead": "ratio",
}
PROBLEM_PREFIX = {"knapsack": "knapsack", "mtuples": "mtuples", "contingency2": "contingency"}


class Clock:
    """Time left before the run must have ended."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.end - time.monotonic(), 1.0)


def _python(args: list[str], clock: Clock) -> str:
    """Run a perfbench script in a fresh interpreter; its standard output."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=clock.left(),
        check=True,
    )
    return proc.stdout


def write_inputs(work: Path, ops) -> None:
    """One file per operation, the workload file, and the plan for measure.py."""
    (work / "in").mkdir(parents=True)
    lines = [json.dumps({"problem": shape.problem, "payload": payload}) + "\n" for shape, payload in ops]
    paths = []
    for i, line in enumerate(lines):
        path = work / "in" / f"{i}.jsonl"
        path.write_text(line, encoding="utf-8")
        paths.append(str(path))
    (work / "workload.jsonl").write_text("".join(lines[:-1]), encoding="utf-8")
    out = str(work / "out.jsonl")
    argvs = [workloads.cli_argv(shape, path, out) for (shape, _), path in zip(ops, paths)]
    plan = {"warmup": argvs[-1], "ops": argvs[:-1], "out": out}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def exact_counts(work: Path, ops, indices: list[int], clock: Clock) -> dict[int, int]:
    src = work / "reference_in.jsonl"
    with open(src, "w", encoding="utf-8") as handle:
        for i in indices:
            shape, payload = ops[i]
            handle.write(json.dumps({"command": shape.command, "problem": shape.problem, "payload": payload}))
            handle.write("\n")
    dst = work / "reference_out.json"
    _python([str(HERE / "reference.py"), str(src), str(dst)], clock)
    counts = json.loads(dst.read_text(encoding="utf-8"))
    return {i: int(c) for i, c in zip(indices, counts)}


def judge(ops, exact: dict[int, int], results) -> tuple[list[bool], int]:
    """Per operation whether it succeeded, and how many answers were wrong.

    A failure is an exception, a nonzero exit, a missing record or a wrong
    answer; a wrong answer is a count outside its band or, for verify, an
    ``exact`` field other than the reference.
    """
    ok, wrong = [], 0
    for index, _, rc, error, record, _ in results:
        shape = ops[index][0]
        good = bool(record) and "count" in record
        if good:
            # Checked whatever the exit code: verify exits 1 on its own band
            # miss but still writes the record.
            good = in_band(int(record["count"]), exact[index], shape.epsilon)
            if shape.command == "verify":
                good = good and int(record.get("exact", -1)) == exact[index] and record.get("ok") is True
            wrong += not good
        ok.append(good and error is None and rc == 0)
    return ok, wrong


def scaled(row) -> float:
    """An operation's seconds at the reference machine speed."""
    return row[1] * REF_KERNEL_S / row[5]


def end_to_end(results, ok: list[bool], setup_s: float, peak_rss_kb: int) -> dict[str, float]:
    times = [scaled(r) for r, good in zip(results, ok) if good]
    if len(times) < 2:  # nothing to rank; such a run reports its failures anyway
        times = [scaled(r) for r in results]
    return {
        "setup_s": setup_s,
        "instance_s.p50": statistics.median(times),
        "instance_s.p90": statistics.quantiles(times, n=10)[-1],
        "instances_per_s": sum(ok) / sum(scaled(r) for r in results),
        "ok_share": sum(ok) / len(ok),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def raw_times(phase, ok: list[bool], probes) -> dict[str, float]:
    """The same times as measured, before speed normalisation."""
    times = [r[1] for r, good in zip(phase["results"], ok) if good]
    return {
        "setup_s": statistics.median(p[0] for p in probes) if probes else None,
        "instance_s.p50": statistics.median(times) if times else None,
        "instances_per_s": sum(ok) / phase["wall"],
        "kernel_s.p50": statistics.median(r[5] for r in phase["results"]),
    }


def eps_used(ops, exact: dict[int, int], results, ok: list[bool]) -> dict[str, float]:
    """Median share of the error budget used, (c - exact) / (eps * exact), per problem."""
    used: dict[str, list[Fraction]] = {p: [] for p in PROBLEM_PREFIX.values()}
    for (index, _, _, _, record, _), good in zip(results, ok):
        shape = ops[index][0]
        e = exact[index]
        if good and e:
            used[PROBLEM_PREFIX[shape.problem]].append(
                Fraction(int(record["count"]) - e) / (Fraction(shape.epsilon) * e)
            )
    return {f"{p}.eps_used.p50": float(statistics.median(v)) if v else 0.0 for p, v in used.items()}


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    clock = Clock(DEADLINE_S)

    work = HERE / "_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.generate(args.workload, args.seed, POOL + 1)  # the last one is the warm-up
    write_inputs(work, ops)

    probes = []
    if not args.trace:
        probe = [str(HERE / "measure.py"), "setup", str(work / "workload.jsonl")]
        _python(probe, clock)  # writes bytecode caches; not timed
        probes = [json.loads(_python(probe, clock)) for _ in range(SETUP_PROBES)]

    _python([str(HERE / "measure.py"), "loop", str(work), repr(args.seconds), str(args.trace)], clock)
    measured = json.loads((work / "measured.json").read_text(encoding="utf-8"))
    untraced = measured["untraced"]
    used = sorted({r[0] for r in untraced["results"]})
    exact = exact_counts(work, ops, used, clock)
    ok, wrong = judge(ops, exact, untraced["results"])

    if not args.trace:
        phase, phase_ok = untraced, ok
        setup_s = statistics.median(elapsed * REF_KERNEL_S / kernel for elapsed, kernel in probes)
        metrics = end_to_end(untraced["results"], ok, setup_s, measured["peak_rss_kb"])
        units = END_TO_END_UNITS
    else:
        phase = measured["traced"]
        phase_ok, traced_wrong = judge(ops, exact, phase["results"])
        wrong += traced_wrong
        # Tracing must not change any answer.
        wrong += sum(a[4] != b[4] for a, b in zip(untraced["results"], phase["results"]))
        scale = {j: REF_KERNEL_S / r[5] for j, r in enumerate(phase["results"])}
        metrics = layer_metrics(read_spans(work / "spans.jsonl"), len(phase["results"]), scale)
        metrics.update(eps_used(ops, exact, phase["results"], phase_ok))
        # Both phases ran the same operations, so the ratio of their times is
        # the ratio of their rates.
        metrics["trace.overhead"] = sum(map(scaled, phase["results"])) / sum(map(scaled, untraced["results"]))
        units = PER_LAYER_UNITS

    attempted = len(phase["results"])
    failed = attempted - sum(phase_ok)
    env = environment()
    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "run.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": env, "raw": raw_times(phase, phase_ok, probes),
                    **summary}, indent=1),
        encoding="utf-8",
    )
    if not args.trace and attempted < 100:
        print(f"warning: only {attempted} operations; p90 rests on fewer than 10 samples", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: python {env['python']}, "
          f"nproc {env['nproc']}, commit {env['commit'] or 'unknown'}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps(summary))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
