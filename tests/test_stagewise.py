"""The shared stage loop: one report type, and operation counts pinned exactly.

Oracle calls and per-stage breakpoint-set sizes are deterministic, so any
change to candidate rules, search order or boundary values shows up here as
a changed number even when every count stays inside its band.
"""

import ast
import hashlib
import inspect
import json
import random
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

import approxcount
from approxcount import (
    ApproxRatio,
    Contingency2Instance,
    FnOracle,
    IntInterval,
    InvalidInput,
    KnapsackInstance,
    MTuplesInstance,
    RunReport,
    StepFunction,
    apx_set_nonincreasing,
    fptas_contingency2,
    fptas_knapsack,
    fptas_mtuples,
    shifted_sum,
    strong_fptas_knapsack,
    strong_fptas_mtuples,
)
from approxcount.incpoints import IncIndex
from approxcount.knapsack import left_out
from approxcount.mtuples import EMPTY_TUPLE_ROW
from strong_candidates import stage_candidates

README_KNAPSACK = KnapsackInstance(weights=(3, 5, 8, 9), capacity=17)
GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)


def test_readme_library_example():
    rep = strong_fptas_knapsack(README_KNAPSACK, Fraction(1, 4))
    assert rep.count == 13
    assert rep.oracle_calls == 15
    assert rep.set_sizes == [4, 5, 5, 1]


def test_readme_library_block_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    said = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert said and capsys.readouterr().out.splitlines() == said


# Every row keeps the id it had before its oracle calls last changed. The
# strong rows' ids date from when the strong compressor binary-searched each
# stage (98, 39 and 94 calls), the plain rows' from when a second pass
# re-evaluated every kept point (189, 89, 32 and 85 calls); the values they
# pin are those of the batch evaluation and linear scan, and of searches
# that keep the values they probed. The strong m-tuples rows pin the
# candidates read off each stage's piece table (53 and 71 calls before,
# when a hand-written rule also named every shifted breakpoint's successor).
# Since the strong compressor walks the pieces between its padded candidates
# instead of scanning ranks and padding what it kept, every strong row keeps
# its plain row's sizes and counts one call per candidate (82, 46 and 68
# calls before, with sizes [6, 8, 10, 11], [7, 7, 3] and [9, 13, 10]).
# Since each strong stage is compressed only on its reachable window, the
# strong rows keep fewer points (36, 22 and 28 calls before, with sizes
# [4, 5, 6, 7], [4, 4, 2] and [5, 8, 7], and m-tuples count 12 at eps 7).
# Since a piece table drops the starts where its terms' changes cancel, the
# strong rows evaluate fewer candidates (21, 10 and 11 calls before) and
# keep the same functions. Since a nondecreasing walk keeps the first
# failing point below each kept one, the strong knapsack row keeps fewer
# points (count 13, 14 calls and sizes [4, 5, 2, 1] before). Since a
# one-point stage no longer counts in the exponent of k, the strong
# knapsack row at eps 7 chooses k for 3 stages, not 4, and keeps fewer
# points (16, 13 calls and sizes [3, 4, 2, 1] before). Since strong knapsack
# counts the left-out items as m-tuples, its row pins the complement's
# stages on the windows {0..8}, {0..8}, {0..8} and {8} (16, 9 calls and
# sizes [2, 2, 2, 1] before).
@pytest.mark.parametrize(
    "counter, inst, eps, count, calls, sizes",
    [
        pytest.param(
            fptas_knapsack, README_KNAPSACK, Fraction(1, 4), 13, 113, [4, 8, 14, 16],
            id="fptas_knapsack-inst0-eps0-13-189-sizes0",
        ),
        pytest.param(
            fptas_knapsack, README_KNAPSACK, 7, 13, 53, [4, 5, 6, 7],
            id="fptas_knapsack-inst1-7-13-89-sizes1",
        ),
        pytest.param(
            strong_fptas_knapsack, README_KNAPSACK, 7, 16, 10, [3, 2, 2, 1],
            id="strong_fptas_knapsack-inst2-7-13-98-sizes2",
        ),
        pytest.param(
            fptas_mtuples, GOLDEN, 7, 12, 21, [4, 4, 2],
            id="fptas_mtuples-inst3-7-12-32-sizes3",
        ),
        pytest.param(
            fptas_mtuples, GOLDEN, Fraction(1, 2), 3, 54, [5, 8, 7],
            id="fptas_mtuples-inst4-eps4-3-85-sizes4",
        ),
        pytest.param(
            strong_fptas_mtuples, GOLDEN, 7, 4, 9, [3, 3, 1],
            id="strong_fptas_mtuples-inst5-7-6-39-sizes5",
        ),
        pytest.param(
            strong_fptas_mtuples, GOLDEN, Fraction(1, 2), 3, 10, [4, 5, 1],
            id="strong_fptas_mtuples-inst6-eps6-3-94-sizes6",
        ),
    ],
)
def test_operation_counts_are_pinned(counter, inst, eps, count, calls, sizes):
    rep = counter(inst, eps)
    assert (rep.count, rep.oracle_calls, rep.set_sizes) == (count, calls, sizes)
    assert rep.chain_length == sum(size > 1 for size in sizes)


def test_every_counter_returns_one_report_type():
    table = Contingency2Instance(row_sums=(9, 12), col_sums=(5, 6, 4, 6))
    reports = [
        fptas_knapsack(README_KNAPSACK, Fraction(1, 2)),
        strong_fptas_knapsack(README_KNAPSACK, Fraction(1, 2)),
        fptas_mtuples(GOLDEN, Fraction(1, 2)),
        strong_fptas_mtuples(GOLDEN, Fraction(1, 2)),
        fptas_contingency2(table, Fraction(1, 2)),
    ]
    assert all(type(rep) is RunReport for rep in reports)


def test_the_stage_loop_imports_nothing_from_incpoints():
    # The strong path's candidate index lives in mtuples; the shared loop
    # takes a compress function and knows no candidates.
    tree = ast.parse(inspect.getsource(approxcount.stagewise))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.update([module] + [f"{module}.{a.name}" for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert imported  # the scan sees the module's own imports
    assert not {m for m in imported if "incpoints" in m}


def test_every_exported_name_resolves_once():
    names = approxcount.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(approxcount, n)] == []


def test_mtuples_stage_one_candidates_are_the_window_ends_and_successors():
    # Those in stage one's window {17 - 14..17 - 5}, which 1 and 2 are not
    # ((0, 1, 2, 3, 4, 7, 8, 17) when the stage spanned {0..17}). The
    # elements themselves dropped out ((3, 4, 7, 8, 12) before) when the
    # piece table stopped starting pieces where nothing changes: the
    # empty-tuple row steps from 1 to 0 between 0 and 1, so a copy shifted by
    # s changes only at s + 1. 3 stays as the window's low end.
    candidates = stage_candidates(strong_fptas_mtuples(GOLDEN, 7), GOLDEN)
    assert len(candidates) == GOLDEN.m
    assert candidates[0] == (3, 4, 8, 12)


def test_strong_candidates_are_the_piece_starts_in_the_domain(monkeypatch):
    # Each strong stage's candidates are read off the piece table of the sum
    # it compresses: both ends of its window and every piece start between them.
    # Strong knapsack's stages are those of the m-tuples of the left-out items.
    # The candidates convert builds for each stage are recorded, and must be
    # those recomputed from the stage before it, one evaluation each.
    converted, build = [], IncIndex.__dict__["build"].__func__

    def recording(cls, candidates, domain):
        inc = build(cls, candidates, domain)
        converted.append(inc.points)
        return inc

    monkeypatch.setattr(IncIndex, "build", classmethod(recording))
    rng = random.Random(4242)
    for _ in range(60):
        scale = rng.choice((1, 10, 1000, 10**9))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 2), 3))
        weights = [rng.randint(1, scale) for _ in range(rng.randint(1, 6))]
        knap = KnapsackInstance(weights=weights, capacity=rng.randint(0, sum(weights)))
        sets = [
            [rng.randint(0, scale) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        tuples = MTuplesInstance(sets=sets, bound=rng.randint(0, sum(map(max, sets))))
        runs = [
            (strong_fptas_knapsack, knap, left_out(knap)),
            (strong_fptas_mtuples, tuples, tuples),
        ]
        for counter, inst, out in runs:
            converted.clear()
            rep = counter(inst, eps)
            recorded = list(converted)  # stage_candidates builds its own indexes
            candidates = stage_candidates(rep, out)
            assert recorded == candidates and len(candidates) == len(out.sets)
            prev = EMPTY_TUPLE_ROW
            for shifts, points, func in zip(out.sets, candidates, rep.stage_functions):
                dom = func.domain
                starts = shifted_sum(prev, shifts, dom).starts
                assert set(points) == {dom.lo, dom.hi} | {p for p in starts if p in dom}
                prev = func
            assert rep.oracle_calls == sum(map(len, candidates))


def _below_zero(rep):
    """Each stage's value at -1, or None where its window starts above 0."""
    out = []
    for f in rep.stage_functions:
        if f.domain.lo == 0:
            out.append(f.query(-1))
        else:
            with pytest.raises(InvalidInput):
                f.query(-1)
            out.append(None)
    return out


# GOLDEN's strong windows all start above 0; with bound 5 the first two do not.
@pytest.mark.parametrize(
    "counter, golden, bound5",
    [
        pytest.param(fptas_mtuples, [3, 6, 12], [3, 6, 12], id="fptas_mtuples"),
        pytest.param(strong_fptas_mtuples, [None] * 3, [3, 6, None], id="strong_fptas_mtuples"),
    ],
)
def test_below_domain_value_is_the_product_of_set_sizes(counter, golden, bound5):
    assert _below_zero(counter(GOLDEN, Fraction(1, 2))) == golden
    low = MTuplesInstance(sets=GOLDEN.sets, bound=5)
    assert _below_zero(counter(low, Fraction(1, 2))) == bound5


# Strong knapsack's stages count the left-out items, so their value below 0
# is the m-tuples one (test_strong_stages_are_the_searched_windows).
@pytest.mark.parametrize(
    "counter, below", [pytest.param(fptas_knapsack, [0] * 4, id="fptas_knapsack")]
)
def test_knapsack_rows_are_zero_below_the_domain(counter, below):
    assert _below_zero(counter(README_KNAPSACK, Fraction(1, 2))) == below


def _sweep_instances(rounds=20):
    """(epsilon, knapsack, m-tuples, table) for each round of a seeded sweep."""
    rng = random.Random(20240607)
    for _ in range(rounds):
        scale = rng.choice((1, 10, 1000, 10**6, 10**9))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1, 3))
        weights = [rng.randint(1, scale) for _ in range(rng.randint(1, 8))]
        knap = KnapsackInstance(weights=weights, capacity=rng.randint(0, sum(weights)))
        sets = [
            [rng.randint(0, scale) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 5))
        ]
        tuples = MTuplesInstance(sets=sets, bound=rng.randint(0, sum(map(max, sets))))
        cols = [rng.randint(1, 30) for _ in range(rng.randint(1, 6))]
        r1 = rng.randint(0, sum(cols))
        table = Contingency2Instance(row_sums=(r1, sum(cols) - r1), col_sums=cols)
        yield eps, knap, tuples, table


def _sweep_text():
    """Counts, set sizes, chain lengths and every stage function of a seeded sweep.

    Five runs per round, one per counter. Only fields that every
    refactor of the compressors must leave alone are written, so the text
    (and its digest) pins their output exactly.
    """
    lines = []
    for i, (eps, knap, tuples, table) in enumerate(_sweep_instances()):
        runs = [
            (fptas_knapsack, knap),
            (strong_fptas_knapsack, knap),
            (fptas_mtuples, tuples),
            (strong_fptas_mtuples, tuples),
            (fptas_contingency2, table),
        ]
        for counter, inst in runs:
            rep = counter(inst, eps)
            stages = [f.to_json() for f in rep.stage_functions]
            if counter is fptas_contingency2:  # each column's half with its pivot P_i
                stages = [[p, f] for p, f in zip(list(accumulate(inst.col_sums))[1:], stages)]
            row = [counter.__name__, i, str(rep.count), rep.set_sizes, rep.chain_length]
            lines.append(json.dumps(row + [stages]))
    return "\n".join(lines)


def _windowed(tuples):
    """[(shifts, window)] of strong m-tuples on ``tuples``."""
    b, stages = tuples.bound, []
    for i, shifts in enumerate(tuples.sets):
        later = tuples.sets[i + 1 :]
        hi, lo = sum(map(max, later)), sum(map(min, later))
        stages.append((shifts, IntInterval(max(0, b - hi), max(0, b - lo))))
    return stages


def _strong_runs(rounds):
    """(eps, report, m-tuples instance, [(shifts, window)]) of both strong
    counters per sweep round; strong knapsack's are its left-out items'."""
    for eps, knap, tuples, _ in _sweep_instances(rounds):
        out = left_out(knap)
        yield eps, strong_fptas_knapsack(knap, eps), out, _windowed(out)
        yield eps, strong_fptas_mtuples(tuples, eps), tuples, _windowed(tuples)


def test_strong_stages_are_the_searched_windows():
    # A strong stage keeps exactly what the binary search over its reachable
    # window keeps, at one evaluation per candidate change point, with k
    # chosen for the windows of more than one point. Only a window that
    # starts at 0 has a value below it.
    for eps, rep, _, stages in _strong_runs(rounds=100):
        ratio = ApproxRatio.for_stages(eps, max(sum(w.lo < w.hi for _, w in stages), 1))
        candidates, prev = 0, EMPTY_TUPLE_ROW
        for (shifts, window), func in zip(stages, rep.stage_functions):
            raw = shifted_sum(prev, shifts, window)
            below = prev.below * len(shifts) if window.lo == 0 else None
            assert raw.below == below
            expected = apx_set_nonincreasing(raw, ratio)
            assert func.to_json() == expected.to_json()
            candidates += len(IncIndex.build(raw.starts, window))
            prev = func
        assert rep.oracle_calls == candidates


def test_every_read_of_a_strong_stage_lands_in_its_window_or_below_zero():
    # Stage i+1 reads stage i at j - s; the reads are monotone in j, so the
    # two ends of window i+1 bound them all. Stage 1 reads the empty-tuple
    # row, which is known everywhere (1 up to 0, 0 from 1 on), so its reads
    # are not checked.
    for _, rep, tuples, stages in _strong_runs(rounds=100):
        windows = [f.domain for f in rep.stage_functions]
        for (shifts, window), prev in zip(stages[1:], windows):
            for s in shifts:
                for j in (window.lo, window.hi):
                    assert j - s < 0 or j - s in prev
        last = rep.stage_functions[-1].domain
        assert last.lo == last.hi == tuples.bound


def test_chain_length_counts_the_stages_that_can_merge():
    # A one-point stage is one exact evaluation, so the exponent of k counts
    # only the stages whose domain has more than one point: never the last
    # strong stage {B} (for knapsack, {W - C} of the left-out items), nor the
    # last contingency column {R}. Every plain stage spans {0..C} or {0..B},
    # so the plain exponent stays the number of items or sets unless C or B
    # is 0.
    for eps, knap, tuples, table in _sweep_instances(rounds=100):
        plain_knap, strong_knap = fptas_knapsack(knap, eps), strong_fptas_knapsack(knap, eps)
        plain_tuples, strong_tuples = fptas_mtuples(tuples, eps), strong_fptas_mtuples(tuples, eps)
        runs = [plain_knap, strong_knap, plain_tuples, strong_tuples, fptas_contingency2(table, eps)]
        for rep in runs:
            multi = sum(f.domain.lo < f.domain.hi for f in rep.stage_functions)
            assert rep.chain_length == multi
            if rep.stage_functions and rep is not plain_knap and rep is not plain_tuples:
                last = rep.stage_functions[-1].domain
                assert last.lo == last.hi
        assert plain_knap.chain_length == (knap.n if knap.capacity else 0)
        assert plain_tuples.chain_length == (tuples.m if tuples.bound else 0)


def test_the_count_is_the_last_row_at_the_query_point():
    # Every counter's stages end at its query point, the high end of the
    # last row's domain, and the stage loop reads the count there. With no
    # stage (one column, or R = 0) the count is column 1, exactly 1 there.
    for eps, knap, tuples, table in _sweep_instances(rounds=100):
        runs = [
            (fptas_knapsack, knap, knap.capacity),
            (strong_fptas_knapsack, knap, left_out(knap).bound),
            (fptas_mtuples, tuples, tuples.bound),
            (strong_fptas_mtuples, tuples, tuples.bound),
            (fptas_contingency2, table, sum(table.col_sums) - table.pivot_sum),
        ]
        for counter, inst, point in runs:
            rep = counter(inst, eps)
            if rep.stage_functions:
                last = rep.stage_functions[-1]
                assert last.domain.hi == point and rep.count == last.query(point)
            else:
                assert counter is fptas_contingency2 and rep.count == 1


def test_a_window_above_zero_refuses_reads_below_it():
    rep = strong_fptas_mtuples(GOLDEN, Fraction(1, 2))
    stage = rep.stage_functions[0]  # window {17 - 14..17 - 5}
    assert (stage.domain.lo, stage.domain.hi, stage.below) == (3, 12, None)
    assert stage.query(3) == stage.values[0]
    with pytest.raises(InvalidInput):
        stage.query(2)
    window = IntInterval(12, 12)
    assert shifted_sum(stage, (0, 9), window)(12) == stage.query(12) + stage.query(3)
    with pytest.raises(InvalidInput):
        shifted_sum(stage, (0, 10), window)
    with pytest.raises(InvalidInput):
        shifted_sum(stage, (1,), stage.domain)


def _positive_values(func):
    return [Fraction(v) for v in func.values if v > 0]


def test_stage_sizes_stay_within_the_exact_logarithmic_bound():
    # From a kept point the value falls by more than a factor k within the
    # next two kept points, so L positive kept values span a ratio of more
    # than k**((L-1)//2) once L >= 3 (Halman et al.'s O(log_k(vmax/vmin))
    # points). Two-point stages can be constant, so there only >= holds.
    for eps, knap, tuples, table in _sweep_instances(rounds=100):
        runs = [
            fptas_knapsack(knap, eps),
            strong_fptas_knapsack(knap, eps),
            fptas_mtuples(tuples, eps),
            strong_fptas_mtuples(tuples, eps),
            fptas_contingency2(table, eps),
        ]
        for rep in runs:
            k = ApproxRatio.for_stages(eps, max(rep.chain_length, 1)).k
            for func in rep.stage_functions:
                assert isinstance(func, StepFunction)  # one representation for every counter
                vals = _positive_values(func)
                if not vals:
                    continue
                size, spread = len(vals), max(vals) / min(vals)
                assert k ** ((size - 1) // 2) <= spread
                if size >= 3:
                    assert k ** ((size - 1) // 2) < spread


def test_walked_stages_fall_by_more_than_k_at_every_kept_point():
    # A walk keeps the first point more than a factor k below the last kept
    # one, and only a merged far end repeats the value before it, so L
    # positive kept values span a ratio of more than k**(L-2) once L >= 3.
    for eps, knap, tuples, table in _sweep_instances(rounds=100):
        runs = [
            strong_fptas_knapsack(knap, eps),
            strong_fptas_mtuples(tuples, eps),
            fptas_contingency2(table, eps),
        ]
        for rep in runs:
            k = ApproxRatio.for_stages(eps, max(rep.chain_length, 1)).k
            for func in rep.stage_functions:
                vals = _positive_values(func)
                if len(vals) >= 3:
                    assert k ** (len(vals) - 2) < max(vals) / min(vals)


# Re-pinned when the strong stages became the plain ones (the digest was
# 79be8f4d98407b88316b728b69624e4a106589ebe4c71e955cce4745ac1be429 before),
# and again when each strong stage kept only its reachable window (it was
# feb2a44a3b08cefe92cd53fac10a6a30e2f16262be8999c8146d77c3ee603ad1, and 39
# strong lines changed); the plain and contingency lines did not change.
# Re-pinned when nondecreasing walks began to keep the first failing point
# (it was d7d8f7fff909bd07bba6cafd40f7c9df94ed95c4cd4e3cbced31265666eb6ef7;
# 14 strong knapsack and 13 contingency lines changed, no other line did).
# Re-pinned when contingency columns kept only their windows and one-point
# stages left the exponent of k (it was
# 906870ee70c7f5166d515d328e2086e0338d2ebe9a07604191c6850b7dea4b6a): all 20
# strong knapsack, 20 strong m-tuples and 13 contingency lines changed, and
# one plain m-tuples line (bound 0, so every stage is {0}) changed its chain
# length from 4 to 0 only; no plain function or count moved.
# Re-pinned when strong knapsack became strong m-tuples over the left-out
# items (it was 4f986ae973d613710322f3c59bf7acd0111380a92785cc85cf47535b4edd90d3):
# the 20 strong knapsack lines changed, no other line did.
# Re-pinned when each contingency column became its nonincreasing upper half
# (it was 11484fd07fb3a36765521ebd757c0efb5889c55fd7a5e27002c6f5a5aa7b931a):
# only the contingency stage functions changed, and each, reflected back
# (x -> P_i - x, values reversed, 0 below a window that starts at 0), gives
# that digest again.
# Re-pinned when StepFunction dropped its declared direction (it was
# 219420838ba68be7143447845df44fe75563bf3b6d16a483ae87fbb838db54ba): to_json
# lost its "direction" key, and that text with every such key removed gives
# the new digest; nothing else changed.
def test_seeded_sweep_output_is_unchanged():
    digest = hashlib.sha256(_sweep_text().encode()).hexdigest()
    assert digest == "fab7058c09bc978441f95d5133a52b25c5beaf190729ec8b930b56b9b3cff291"


def test_a_wrapper_patched_on_the_class_counts_every_evaluation(monkeypatch):
    # A tracer wraps FnOracle.__call__ on the class after import. Every
    # evaluation a report tallies must pass through that wrapper, so no
    # compressor may bind the call at import, read the oracle's function past
    # it or add to its tally itself.
    call, seen = FnOracle.__call__, [0]

    def counting(oracle, x):
        seen[0] += 1
        return call(oracle, x)

    monkeypatch.setattr(FnOracle, "__call__", counting)
    total = 0
    for eps, knap, tuples, table in _sweep_instances(rounds=200):
        runs = [
            (fptas_knapsack, knap),
            (strong_fptas_knapsack, knap),
            (fptas_mtuples, tuples),
            (strong_fptas_mtuples, tuples),
            (fptas_contingency2, table),
        ]
        for counter, inst in runs:
            seen[0] = 0
            rep = counter(inst, eps)
            assert seen[0] == rep.oracle_calls, (counter.__name__, inst, eps)
            total += seen[0]
    assert total > 0
