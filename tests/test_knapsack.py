"""Knapsack counters: worked examples, sandwich sweeps, stage invariants.

The stage invariant block is the heart of this file. The strong counter
counts the items a subset leaves out: with W the total weight, a subset
weighs at most C exactly when they weigh at least B = max(0, W - C). For
each item i it builds a candidate index Inc_i (recomputed here from the
report, tests/strong_candidates.py), a breakpoint set W_i, and a
compressed row that_i of left-out subsets; soundness needs four relations
between them and the raw row tbar_i(j) = that_{i-1}(j) + that_{i-1}(j - w_i).
All four are checked by dense evaluation on capacities up to 500, the exact
row read off the knapsack DP as tuples_i(j) = subsets_i(W_i - j), W_i the
weight of the first i items.
"""

import math
import random
from fractions import Fraction

import pytest

from approxcount.errors import InvalidInput
from approxcount.knapsack import fptas_knapsack, left_out, strong_fptas_knapsack
from approxcount.oracles import KnapsackInstance, dp_knapsack, dp_mtuples
from approxcount.stepfunc import ApproxRatio
from dp_tables import dp_knapsack_table
from strong_candidates import stage_candidates


def test_three_items_half_epsilon():
    inst = KnapsackInstance(weights=(1, 2, 3), capacity=3)
    for runner in (fptas_knapsack, strong_fptas_knapsack):
        count = runner(inst, Fraction(1, 2)).count
        assert count in (5, 6, 7)


def test_single_heavy_item_is_exact():
    inst = KnapsackInstance(weights=(5,), capacity=4)
    for eps in (Fraction(1, 10), Fraction(1), Fraction(9)):
        assert fptas_knapsack(inst, eps).count == 1
        assert strong_fptas_knapsack(inst, eps).count == 1


def test_roomy_capacity_counts_all_subsets():
    # s_n(C) = 2^n once C >= total weight; C is always a kept breakpoint,
    # so the final query is exact.
    inst = KnapsackInstance(weights=(3, 4, 5, 6), capacity=18)
    for runner in (fptas_knapsack, strong_fptas_knapsack):
        assert runner(inst, Fraction(1, 2)).count == 16


def test_capacity_zero():
    inst = KnapsackInstance(weights=(2, 7), capacity=0)
    assert fptas_knapsack(inst, Fraction(1)).count == 1
    assert strong_fptas_knapsack(inst, Fraction(1)).count == 1


@pytest.mark.parametrize("bad", [0, -2, Fraction(0)])
def test_rejects_nonpositive_epsilon(bad):
    inst = KnapsackInstance(weights=(1, 2), capacity=2)
    with pytest.raises(InvalidInput):
        fptas_knapsack(inst, bad)
    with pytest.raises(InvalidInput):
        strong_fptas_knapsack(inst, bad)


def test_report_shape():
    inst = KnapsackInstance(weights=(4, 4, 9), capacity=12)
    rep = strong_fptas_knapsack(inst, Fraction(1, 3))
    assert len(rep.set_sizes) == inst.n
    assert len(stage_candidates(rep, left_out(inst))) == inst.n
    assert rep.set_sizes == [len(f.xs) for f in rep.stage_functions]


def random_instance(rng, n_max=10, w_max=50, c_max=300):
    n = rng.randint(1, n_max)
    weights = tuple(rng.randint(1, w_max) for _ in range(n))
    cap = rng.randint(0, min(c_max, sum(weights) + 10))
    return KnapsackInstance(weights=weights, capacity=cap)


def test_the_left_out_items_are_counted_by_the_same_number():
    # A subset weighs at most C exactly when the items it leaves out weigh at
    # least W - C. At C = 0 only the empty subset fits; at C >= W the bound
    # is 0, every strong stage is {0}, and all 2^n subsets count exactly.
    rng = random.Random(454)
    for _ in range(100):
        weights = random_instance(rng, n_max=8).weights
        total = sum(weights)
        for cap in (0, rng.randint(0, total), total, total + rng.randint(1, 9)):
            inst = KnapsackInstance(weights=weights, capacity=cap)
            assert dp_knapsack(inst) == dp_mtuples(left_out(inst)), inst
        assert strong_fptas_knapsack(KnapsackInstance(weights, 0), Fraction(1, 2)).count == 1
        for cap in (total, total + 1):
            roomy = strong_fptas_knapsack(KnapsackInstance(weights, cap), Fraction(1, 2))
            assert roomy.count == 2 ** len(weights) and roomy.chain_length == 0
            assert {(f.domain.lo, f.domain.hi) for f in roomy.stage_functions} == {(0, 0)}


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_sandwich_randomized(eps):
    rng = random.Random(929)
    for _ in range(100):
        inst = random_instance(rng)
        exact = dp_knapsack(inst)
        for runner in (fptas_knapsack, strong_fptas_knapsack):
            got = runner(inst, eps).count
            assert exact <= got <= (1 + eps) * exact


def test_both_algorithms_share_the_band():
    rng = random.Random(121)
    eps = Fraction(1, 4)
    for _ in range(60):
        inst = random_instance(rng)
        exact = dp_knapsack(inst)
        a = fptas_knapsack(inst, eps).count
        b = strong_fptas_knapsack(inst, eps).count
        assert exact <= a <= (1 + eps) * exact
        assert exact <= b <= (1 + eps) * exact


def test_set_sizes_logarithmic_in_subset_count():
    rng = random.Random(232)
    eps = Fraction(1, 4)
    for _ in range(40):
        inst = random_instance(rng)
        rep = strong_fptas_knapsack(inst, eps)
        k = ApproxRatio.for_stages(eps, inst.n).k
        cap = 4 * (1 + inst.n / math.log2(float(k)))
        for f in rep.stage_functions:
            assert len(f) <= cap


class TestStageInvariants:
    """Dense per-stage checks of the strong counter, capacities <= 500, each
    stage over its reachable window {max(0, B - W_after_i)..B} of left-out
    weights, W_after_i the weight of the items after item i."""

    def run_one(self, inst, eps):
        rep = strong_fptas_knapsack(inst, eps)
        k = ApproxRatio.for_stages(eps, max(rep.chain_length, 1)).k
        b = max(0, sum(inst.weights) - inst.capacity)
        exact_rows = dp_knapsack_table(inst)
        candidates = stage_candidates(rep, left_out(inst))

        def prev_query(j):
            return 1 if j <= 0 else 0

        power = Fraction(1)
        prev = prev_query
        for i, w_i in enumerate(inst.weights):
            func = rep.stage_functions[i]
            lo = max(0, b - sum(inst.weights[i + 1 :]))
            assert (func.domain.lo, func.domain.hi) == (lo, b)
            window = range(lo, b + 1)
            raw = {j: prev(j) + prev(j - w_i) for j in window}
            dense = {j: func.query(j) for j in window}
            points = set(func.xs)
            inc = set(candidates[i])
            power *= k if lo < b else 1

            # (1) W_i approximates the raw row within one stage ratio, and
            # the induced function only drops at a breakpoint.
            for j in window:
                assert raw[j] <= dense[j]
                assert dense[j] * k.denominator <= raw[j] * k.numerator
            drops = {j for j in window[1:] if dense[j] < dense[j - 1]}
            assert drops <= points

            # (2) the compressed row is a k^i-approximation of the exact row;
            # its subsets leave out at least j, so they keep at most W_i - j.
            kept = sum(inst.weights[: i + 1])
            exact = [exact_rows[i + 1][kept - j] if j <= kept else 0 for j in window]
            for j, e in zip(window, exact):
                assert e <= dense[j] <= power * e
            assert all(dense[j] >= dense[j + 1] for j in window[:-1])

            # (3) at the piece-start candidates the stage is evaluated at, the
            # same sandwich holds.
            for p in sorted(inc):
                assert raw[p] <= dense[p]
                assert dense[p] * k.denominator <= raw[p] * k.numerator

            # (4) the candidates cover every strict decrease of the raw row.
            falls = {j for j in window[1:] if raw[j] < raw[j - 1]}
            assert falls <= inc

            prev = func.query

    def test_worked_instances(self):
        for weights, cap in [
            ((1, 2, 3), 3),
            ((5, 5, 5), 11),
            ((7, 11, 13, 17), 30),
            ((1, 1, 1, 1, 1), 3),
        ]:
            self.run_one(KnapsackInstance(weights=weights, capacity=cap), Fraction(1, 2))

    def test_randomized_instances(self):
        rng = random.Random(343)
        for _ in range(15):
            inst = random_instance(rng, n_max=7, w_max=60, c_max=500)
            self.run_one(inst, Fraction(1, 3))


def test_strong_calls_survive_scaling():
    base = KnapsackInstance(weights=(3, 5, 7), capacity=10)
    big = KnapsackInstance(
        weights=(3 * 10**6, 5 * 10**6, 7 * 10**6), capacity=10**7
    )
    eps = Fraction(1, 4)
    rep_small = strong_fptas_knapsack(base, eps)
    rep_big = strong_fptas_knapsack(big, eps)
    assert rep_small.count == rep_big.count
    assert rep_big.oracle_calls <= 2 * rep_small.oracle_calls


def test_plain_calls_grow_with_capacity_bits():
    eps = Fraction(1, 4)
    weights = tuple(range(11, 21))
    calls = []
    for mult in (1, 10**3, 10**6):
        inst = KnapsackInstance(
            weights=tuple(w * mult for w in weights), capacity=80 * mult
        )
        calls.append(fptas_knapsack(inst, eps).oracle_calls)
    assert calls[0] < calls[1] < calls[2]
