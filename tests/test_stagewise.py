"""The shared stage loop: one report type, and operation counts pinned exactly.

Oracle calls and per-stage breakpoint-set sizes are deterministic, so any
change to candidate rules, search order or boundary values shows up here as
a changed number even when every count stays inside its band.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from approxcount import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    RunReport,
    StepFunction,
    fptas_contingency2,
    fptas_knapsack,
    fptas_mtuples,
    shifted_sum,
    strong_fptas_knapsack,
    strong_fptas_mtuples,
)
from approxcount.knapsack import _empty_subset_row
from approxcount.mtuples import _empty_tuple_row

README_KNAPSACK = KnapsackInstance(weights=(3, 5, 8, 9), capacity=17)
GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)


def test_readme_library_example():
    rep = strong_fptas_knapsack(README_KNAPSACK, Fraction(1, 4))
    assert rep.count == 13
    assert rep.oracle_calls == 44
    assert rep.per_stage_set_sizes == [4, 8, 14, 16]


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
            strong_fptas_knapsack, README_KNAPSACK, 7, 13, 36, [4, 5, 6, 7],
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
            strong_fptas_mtuples, GOLDEN, 7, 12, 22, [4, 4, 2],
            id="strong_fptas_mtuples-inst5-7-6-39-sizes5",
        ),
        pytest.param(
            strong_fptas_mtuples, GOLDEN, Fraction(1, 2), 3, 28, [5, 8, 7],
            id="strong_fptas_mtuples-inst6-eps6-3-94-sizes6",
        ),
    ],
)
def test_operation_counts_are_pinned(counter, inst, eps, count, calls, sizes):
    rep = counter(inst, eps)
    assert (rep.count, rep.oracle_calls, rep.per_stage_set_sizes) == (count, calls, sizes)
    assert rep.chain_length == len(sizes)


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
    assert all(rep.epsilon_in_proven_range for rep in reports)


def test_mtuples_stage_one_candidates_are_the_elements_and_successors():
    rep = strong_fptas_mtuples(GOLDEN, 7)
    assert len(rep.stage_candidates) == GOLDEN.m
    assert rep.stage_candidates[0].points == (0, 1, 2, 3, 4, 7, 8, 17)
    assert fptas_mtuples(GOLDEN, 7).stage_candidates == []


def test_strong_candidates_are_the_piece_starts_in_the_domain():
    # Each strong stage's candidates are read off the piece table of the sum
    # it compresses: both domain ends and every piece start between them.
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
            (strong_fptas_knapsack(knap, eps), _empty_subset_row(knap.capacity),
             [(0, w) for w in knap.weights]),
            (strong_fptas_mtuples(tuples, eps), _empty_tuple_row(tuples.bound), tuples.sets),
        ]
        for rep, prev, shift_sets in runs:
            dom = prev.domain
            assert len(rep.stage_candidates) == len(shift_sets)
            for shifts, inc, func in zip(shift_sets, rep.stage_candidates, rep.stage_functions):
                starts = shifted_sum([(prev, s) for s in shifts], dom).starts
                assert set(inc.points) == {dom.lo, dom.hi} | {p for p in starts if p in dom}
                prev = func


@pytest.mark.parametrize("counter", [fptas_mtuples, strong_fptas_mtuples])
def test_below_domain_value_is_the_product_of_set_sizes(counter):
    rep = counter(GOLDEN, Fraction(1, 2))
    assert [f.query(-1) for f in rep.stage_functions] == [3, 6, 12]


@pytest.mark.parametrize("counter", [fptas_knapsack, strong_fptas_knapsack])
def test_knapsack_rows_are_zero_below_the_domain(counter):
    rep = counter(README_KNAPSACK, Fraction(1, 2))
    assert [f.query(-1) for f in rep.stage_functions] == [0] * README_KNAPSACK.n


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
            stages = [
                f.to_json() if isinstance(f, StepFunction) else [f.pivot, f.half.to_json()]
                for f in rep.stage_functions
            ]
            row = [counter.__name__, i, str(rep.count), rep.per_stage_set_sizes, rep.chain_length]
            lines.append(json.dumps(row + [stages]))
    return "\n".join(lines)


def test_strong_stages_are_the_plain_stages():
    # A strong stage keeps exactly what the plain binary search keeps, at one
    # evaluation per candidate change point.
    for eps, knap, tuples, _ in _sweep_instances(rounds=100):
        for plain, strong, inst in (
            (fptas_knapsack, strong_fptas_knapsack, knap),
            (fptas_mtuples, strong_fptas_mtuples, tuples),
        ):
            rep = strong(inst, eps)
            expected = [f.to_json() for f in plain(inst, eps).stage_functions]
            assert [f.to_json() for f in rep.stage_functions] == expected
            assert rep.oracle_calls == sum(len(c) for c in rep.stage_candidates)


# Re-pinned when the strong stages became the plain ones (the digest was
# 79be8f4d98407b88316b728b69624e4a106589ebe4c71e955cce4745ac1be429 before);
# the plain and contingency lines of the text did not change.
def test_seeded_sweep_output_is_unchanged():
    digest = hashlib.sha256(_sweep_text().encode()).hexdigest()
    assert digest == "feb2a44a3b08cefe92cd53fac10a6a30e2f16262be8999c8146d77c3ee603ad1"
