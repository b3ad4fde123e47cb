"""The measuring process: a closed loop with one client, one operation at a time.

    python3 perfbench/measure.py setup POOL_FILE
    python3 perfbench/measure.py loop WORK_DIR SECONDS TRACE

``setup`` times, in a fresh process, ``import approxcount`` plus
``cli.load_instances`` of the workload file and prints the seconds and the
machine's speed around it.

``loop`` reads ``WORK_DIR/plan.json``, runs one untimed warm-up operation,
then operations in plan order (wrapping round if the plan runs out) until
SECONDS have passed. One operation is one in-process
``approxcount.cli.main([...])`` call on a one-instance file, timed from
outside: parse, count or verify, write the record. Between operations, and
outside their time, garbage is collected, the record is read back and the
machine's speed is measured (see :func:`kernel_s`). With TRACE 1 the loop
runs untraced for 40% of SECONDS, then runs the same operations again under
:class:`tracer.Tracer` and writes the spans to ``WORK_DIR/spans.jsonl``.
Results go to ``WORK_DIR/measured.json`` with this process's peak RSS.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import traceback
from bisect import bisect_left
from time import perf_counter

from bootstrap import import_approxcount
from tracer import Tracer

TRACE_SHARE = 0.4

# The speed of this machine's cores drifts by up to 2x over seconds, as other
# tenants load the host. A fixed kernel of interpreter work timed next to each
# operation tracks that drift, so operation time divided by kernel time stays
# steady. Times are reported at the reference speed: REF_KERNEL_S is the
# kernel's usual time on the 2-CPU machine the benchmark's bounds were set on.
REF_KERNEL_S = 0.0007
_KERNEL_KEYS = list(range(0, 6000, 3))


def _kernel() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(1500):
        total += _KERNEL_KEYS[bisect_left(_KERNEL_KEYS, i)] * i // 7
        table[i % 97] = table.get(i % 97, 0) + total % 5
    return total


def kernel_s() -> float:
    """Seconds the kernel takes now: the fastest of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def run_ops(cli, plan: list[list[str]], out_path: str, *, seconds=None, count=None, tracer=None):
    """Run operations until ``seconds`` pass or ``count`` have run.

    Returns (wall seconds of the loop, one [plan index, seconds, exit code,
    error, record, kernel seconds] per operation), where kernel seconds is the
    mean of the kernel times measured just before and just after it.
    """
    results = []
    start = perf_counter()
    before = kernel_s()
    j = 0
    while (count is None or j < count) and (seconds is None or perf_counter() - start < seconds):
        index = j % len(plan)
        if os.path.exists(out_path):
            os.remove(out_path)
        # The previous operation's cyclic garbage (the counters' closures form
        # cycles) goes now, as it would at the exit of a one-shot CLI process,
        # so no operation pays for another's and peak RSS is one operation's.
        gc.collect()
        if tracer is not None:
            tracer.op = j
        error = None
        rc = None
        t0 = perf_counter()
        try:
            rc = cli.main(plan[index])
        except (Exception, SystemExit) as exc:  # RecursionError included; keep measuring
            error = "".join(traceback.format_exception_only(exc)).strip()[:300]
        elapsed = perf_counter() - t0
        after = kernel_s()
        results.append([index, elapsed, rc, error, _read_record(out_path), (before + after) / 2])
        before = after
        j += 1
    return perf_counter() - start, results


def _read_record(path: str):
    """The first record of an output file, or None when there is none."""
    try:
        with open(path, encoding="utf-8") as handle:
            line = handle.readline()
    except OSError:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    return {k: record[k] for k in ("count", "exact", "ok") if k in record}


def setup(pool_file: str) -> int:
    before = kernel_s()
    t0 = perf_counter()
    package = import_approxcount()
    list(package.cli.load_instances(pool_file, None))
    elapsed = perf_counter() - t0
    print(json.dumps([elapsed, (before + kernel_s()) / 2]))
    return 0


def loop(work_dir: str, seconds: float, trace: bool) -> int:
    package = import_approxcount()
    with open(os.path.join(work_dir, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    out_path = plan["out"]
    run_ops(package.cli, [plan["warmup"]], out_path, count=1)
    measured = {}
    if not trace:
        wall, results = run_ops(package.cli, plan["ops"], out_path, seconds=seconds)
        measured["untraced"] = {"wall": wall, "results": results}
    else:
        wall, results = run_ops(package.cli, plan["ops"], out_path, seconds=seconds * TRACE_SHARE)
        measured["untraced"] = {"wall": wall, "results": results}
        with Tracer(package) as tracer:
            wall, results = run_ops(package.cli, plan["ops"], out_path, count=len(results), tracer=tracer)
        measured["traced"] = {"wall": wall, "results": results}
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
    measured["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(work_dir, "measured.json"), "w", encoding="utf-8") as handle:
        json.dump(measured, handle)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup(argv[1])
    if argv[:1] == ["loop"] and len(argv) == 4:
        return loop(argv[1], float(argv[2]), argv[3] == "1")
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
