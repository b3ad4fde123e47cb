"""Tests of the benchmark itself: references, determinism, tracing, contract.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bootstrap import ROOT, import_approxcount  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ac = import_approxcount()
oracles = ac.oracles


def test_knapsack_mitm_matches_dp():
    rng = random.Random(11)
    for _ in range(150):
        weights = [rng.randint(1, 40) for _ in range(rng.randint(1, 12))]
        cap = rng.randint(0, sum(weights))
        inst = oracles.KnapsackInstance(tuple(weights), cap)
        assert reference.knapsack_mitm(weights, cap) == oracles.dp_knapsack(inst)


def test_mtuples_mitm_matches_brute_force():
    rng = random.Random(12)
    for _ in range(150):
        sets = [rng.sample(range(30), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        bound = rng.randint(0, sum(max(s) for s in sets) + 2)
        inst = oracles.MTuplesInstance(tuple(map(tuple, sets)), bound)
        assert reference.mtuples_mitm(sets, bound) == oracles.brute_mtuples(inst)


def test_enumeration_matches_exact_dps():
    rng = random.Random(13)
    for _ in range(60):
        payload = workloads.make_payload(("knapsack", rng.randint(1, 8), 1, 60), rng)
        inst = ac.cli.instance_from_payload("knapsack", payload)
        assert reference.enumerate_count("knapsack", payload) == oracles.dp_knapsack(inst)
        payload = workloads.make_payload(("mtuples", rng.randint(1, 4), 3, 40), rng)
        inst = ac.cli.instance_from_payload("mtuples", payload)
        assert reference.enumerate_count("mtuples", payload) == oracles.dp_mtuples(inst)
        payload = workloads.make_payload(("contingency2", rng.randint(1, 3), 1, 12), rng)
        inst = ac.cli.instance_from_payload("contingency2", payload)
        assert reference.enumerate_count("contingency2", payload) == oracles.dp_contingency_sum(inst)


def test_band_check_is_exact_at_both_edges():
    assert reference.in_band(100, 100, "1/4")
    assert reference.in_band(125, 100, "1/4")
    assert not reference.in_band(126, 100, "1/4")
    assert not reference.in_band(99, 100, "1/4")
    assert reference.in_band(0, 0, "1/2") and not reference.in_band(1, 0, "1/2")


def test_judge_checks_the_band_whatever_the_exit_code():
    ops = workloads.generate("verify-dp", 5, 2)
    exact = {0: 100, 1: 100}
    eps = [shape.epsilon for shape, _ in ops]
    high = {0: str(101 + int(100 * Fraction(eps[0]))), 1: "100"}
    results = [
        # verify exits 1 on its own band miss but still writes the record
        [0, 0.1, 1, None, {"count": high[0], "exact": "100", "ok": False}, 1.0],
        [1, 0.1, 0, None, {"count": high[1], "exact": "100", "ok": True}, 1.0],
    ]
    assert run.judge(ops, exact, results) == ([False, True], 1)
    results[1][2] = 1  # a nonzero exit with a right answer fails, but is not wrong
    assert run.judge(ops, exact, results) == ([False, False], 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_depends_on_the_seed_only(name):
    first = workloads.generate(name, 7, 12)
    assert first == workloads.generate(name, 7, 12)
    assert first[:5] == workloads.generate(name, 7, 5)
    assert first != workloads.generate(name, 8, 12)
    shapes = workloads.WORKLOADS[name].shapes
    for shape in shapes:  # every shape once per cycle
        assert [s for s, _ in first[: len(shapes)]].count(shape) == 1


def op_counts(spans: list[dict]) -> dict:
    """Per operation: (oracle calls, kept breakpoints, candidates, chain length)."""
    out = defaultdict(lambda: [0, 0, 0, 0])
    for s in spans:
        row = out[s["op"]]
        row[0] += s["evals"]
        if s["name"] == "stepfunc.search":
            row[1] += s["info"]
        elif s["name"] == "incpoints.build":
            row[2] += s["info"]
        elif s["name"] == "contingency.count":
            row[3] += s["info"]
    return {op: tuple(row) for op, row in out.items()}


def _measure(ops, work: Path, traced: bool):
    """Run every operation once; ([exit code, error, record] per operation, spans or None)."""
    shutil.rmtree(work, ignore_errors=True)
    run.write_inputs(work, ops + [ops[0]])
    plan = json.loads((work / "plan.json").read_text())
    if not traced:
        _, results = measure.run_ops(ac.cli, plan["ops"], plan["out"], count=len(ops))
        return [r[2:5] for r in results], None
    with Tracer(ac) as tracer:
        _, results = measure.run_ops(ac.cli, plan["ops"], plan["out"], count=len(ops), tracer=tracer)
    return [r[2:5] for r in results], [s.as_dict() for s in tracer.spans]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_repeat_runs_and_tracing_give_identical_counts(name, tmp_path):
    ops = workloads.generate(name, 3, max(4, len(workloads.WORKLOADS[name].shapes)))
    plain, _ = _measure(ops, tmp_path / "plain", traced=False)
    first, spans_a = _measure(ops, tmp_path / "a", traced=True)
    second, spans_b = _measure(ops, tmp_path / "b", traced=True)
    assert all(rc == 0 and error is None for rc, error, _ in plain)
    assert plain == first == second
    counts = op_counts(spans_a)
    assert counts == op_counts(spans_b)
    assert all(calls > 0 for calls, *_ in counts.values())


def test_self_times_partition_each_operation(tmp_path):
    ops = workloads.generate("knapsack-strong", 4, 2) + workloads.generate("contingency", 4, 2)
    _, spans = _measure(ops, tmp_path, traced=True)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    selves = sum(s["end"] - s["start"] - s["child_s"] + s["eval_s"] for s in spans)
    assert {s["name"] for s in spans if s["parent"] is None} == {"cli.main"}
    assert selves == pytest.approx(roots, rel=1e-9)
    metrics = layer_metrics(spans, len(ops))
    assert metrics["incpoints.candidates"] > 0 and metrics["contingency.chain_length"] > 0
    assert 1 < metrics["incpoints.pad_ratio"] <= 2


def test_tracer_restores_every_binding():
    before = {
        (mod, fn): getattr(getattr(ac, mod), fn)
        for mod in ("cli", "knapsack", "mtuples", "contingency", "incpoints", "stepfunc", "oracles")
        for fn in dir(getattr(ac, mod))
        if callable(getattr(getattr(ac, mod), fn))
    }
    call, build = ac.stepfunc.FnOracle.__call__, ac.incpoints.IncIndex.__dict__["build"]
    with Tracer(ac):
        assert ac.knapsack.convert is not before[("knapsack", "convert")]
        assert ac.incpoints.convert is ac.knapsack.convert
    after = {key: getattr(getattr(ac, key[0]), key[1]) for key in before}
    assert after == before
    assert ac.stepfunc.FnOracle.__call__ is call
    assert ac.incpoints.IncIndex.__dict__["build"] is build


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contingency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
