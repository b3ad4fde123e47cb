"""The shared stage loop: one report type, and operation counts pinned exactly.

Oracle calls and per-stage breakpoint-set sizes are deterministic, so any
change to candidate rules, search order or boundary values shows up here as
a changed number even when every count stays inside its band.
"""

from fractions import Fraction

import pytest

from approxcount import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    RunReport,
    fptas_contingency2,
    fptas_knapsack,
    fptas_mtuples,
    strong_fptas_knapsack,
    strong_fptas_mtuples,
)

README_KNAPSACK = KnapsackInstance(weights=(3, 5, 8, 9), capacity=17)
GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)


def test_readme_library_example():
    rep = strong_fptas_knapsack(README_KNAPSACK, Fraction(1, 4))
    assert rep.count == 13
    assert rep.oracle_calls == 105
    assert rep.per_stage_set_sizes == [6, 11, 18, 18]


# The strong rows keep the ids they had when the strong compressor
# binary-searched each stage (98, 39 and 94 oracle calls); the values they
# pin are those of the batch evaluation and linear scan.
@pytest.mark.parametrize(
    "counter, inst, eps, count, calls, sizes",
    [
        (fptas_knapsack, README_KNAPSACK, Fraction(1, 4), 13, 189, [4, 8, 14, 16]),
        (fptas_knapsack, README_KNAPSACK, 7, 13, 89, [4, 5, 6, 7]),
        pytest.param(
            strong_fptas_knapsack, README_KNAPSACK, 7, 13, 82, [6, 8, 10, 11],
            id="strong_fptas_knapsack-inst2-7-13-98-sizes2",
        ),
        (fptas_mtuples, GOLDEN, 7, 12, 32, [4, 4, 2]),
        (fptas_mtuples, GOLDEN, Fraction(1, 2), 3, 85, [5, 8, 7]),
        pytest.param(
            strong_fptas_mtuples, GOLDEN, 7, 6, 53, [7, 7, 3],
            id="strong_fptas_mtuples-inst5-7-6-39-sizes5",
        ),
        pytest.param(
            strong_fptas_mtuples, GOLDEN, Fraction(1, 2), 3, 71, [9, 13, 10],
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


@pytest.mark.parametrize("counter", [fptas_mtuples, strong_fptas_mtuples])
def test_below_domain_value_is_the_product_of_set_sizes(counter):
    rep = counter(GOLDEN, Fraction(1, 2))
    assert [f.query(-1) for f in rep.stage_functions] == [3, 6, 12]


@pytest.mark.parametrize("counter", [fptas_knapsack, strong_fptas_knapsack])
def test_knapsack_rows_are_zero_below_the_domain(counter):
    rep = counter(README_KNAPSACK, Fraction(1, 2))
    assert [f.query(-1) for f in rep.stage_functions] == [0] * README_KNAPSACK.n
