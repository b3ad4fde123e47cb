"""End-to-end acceptance suite.

One test per shipping requirement, so a verbose run reads as a checklist:
the worked walkthrough is reproduced byte for byte, every counter respects
its two-sided bound on large seeded sweeps (the knapsack and m-tuples ones
also on values up to 2^200, against meet-in-the-middle counts), the three
exact contingency formulations cannot be told apart, operation counts ignore
numeric magnitude for the strongly polynomial variants, and breakpoint sets
stay logarithmic.

Comparisons are exact (integers and Fractions); wall-clock limits appear
only where a requirement states one.
"""

import math
import random
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

from approxcount.contingency import by_size, fptas_contingency2
from approxcount.knapsack import fptas_knapsack, left_out, strong_fptas_knapsack
from approxcount.mtuples import by_spread, fptas_mtuples, strong_fptas_mtuples
from approxcount.oracles import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    dp_contingency_sub,
    dp_contingency_sum,
    dp_knapsack,
    dp_mtuples,
)
from approxcount.stepfunc import ApproxRatio
from contingency_binding import dp_contingency_binding
from dp_tables import dp_contingency_sum_table, dp_mtuples_table
from meet_in_the_middle import knapsack_mitm, mtuples_mitm

EPSILONS = (Fraction(1, 10), Fraction(1, 2), Fraction(1))

GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)
GOLDEN_TABLES = {
    "zhat1": [3, 3, 3, 3, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    "zbar2": [6, 6, 6, 6, 6, 6, 4, 4, 4, 2, 1, 1, 1, 0, 0, 0, 0, 0],
    "zhat2": [6, 6, 6, 6, 6, 6, 6, 6, 6, 2, 2, 2, 2, 0, 0, 0, 0, 0],
    "zbar3": [12] * 12 + [8, 8, 8, 8, 6, 6],
    "zhat3": [12] * 18,
}


def random_mtuples(rng):
    m = rng.randint(1, 4)
    sets = tuple(
        tuple(sorted(rng.sample(range(31), rng.randint(1, 5)))) for _ in range(m)
    )
    return MTuplesInstance(sets=sets, bound=rng.randint(0, 45))


def random_knapsack(rng):
    n = rng.randint(1, 10)
    weights = tuple(rng.randint(1, 50) for _ in range(n))
    return KnapsackInstance(
        weights=weights, capacity=rng.randint(0, min(300, sum(weights) + 10))
    )


def random_contingency(rng, n_max=5, cell_max=8):
    n = rng.randint(1, n_max)
    cols = [rng.randint(1, cell_max) for _ in range(n)]
    total = sum(cols)
    r1 = rng.randint(0, total)
    return Contingency2Instance(row_sums=(r1, total - r1), col_sums=tuple(cols))


def in_band(exact, got, eps):
    if exact == 0:
        return got == 0
    return exact <= got and got <= (1 + eps) * exact


def test_golden_walkthrough_reproduces_published_tables():
    started = perf_counter()
    rep = fptas_mtuples(GOLDEN, 7)
    elapsed = perf_counter() - started

    assert [list(f.xs) for f in rep.stage_functions] == [
        [0, 4, 8, 17],
        [0, 9, 13, 17],
        [0, 17],
    ]
    zhat1, zhat2, zhat3 = rep.stage_functions
    span = range(18)
    assert [zhat1.query(j) for j in span] == GOLDEN_TABLES["zhat1"]
    assert [zhat1.query(j - 2) + zhat1.query(j - 5) for j in span] == GOLDEN_TABLES["zbar2"]
    assert [zhat2.query(j) for j in span] == GOLDEN_TABLES["zhat2"]
    assert [zhat2.query(j - 3) + zhat2.query(j - 9) for j in span] == GOLDEN_TABLES["zbar3"]
    assert [zhat3.query(j) for j in span] == GOLDEN_TABLES["zhat3"]

    exact = dp_mtuples(GOLDEN)
    assert rep.count == 12
    assert exact == 3
    assert Fraction(rep.count, exact) == 4 <= 8
    assert elapsed < 1.0


def test_sandwich_holds_for_every_counter_on_seeded_sweeps():
    started = perf_counter()

    rng = random.Random(74001)
    for _ in range(200):
        inst = random_mtuples(rng)
        exact = dp_mtuples(inst)
        for eps in EPSILONS:
            assert in_band(exact, fptas_mtuples(inst, eps).count, eps), inst
            assert in_band(exact, strong_fptas_mtuples(inst, eps).count, eps), inst

    rng = random.Random(74002)
    for _ in range(200):
        inst = random_knapsack(rng)
        exact = dp_knapsack(inst)
        for eps in EPSILONS:
            assert in_band(exact, fptas_knapsack(inst, eps).count, eps), inst
            assert in_band(exact, strong_fptas_knapsack(inst, eps).count, eps), inst

    rng = random.Random(74003)
    for _ in range(200):
        inst = random_contingency(rng)
        exact = dp_contingency_sum(inst)
        for eps in EPSILONS:
            assert in_band(exact, fptas_contingency2(inst, eps).count, eps), inst

    assert perf_counter() - started < 120.0


def test_meet_in_the_middle_matches_the_dps():
    rng = random.Random(74004)
    for _ in range(100):
        knap, tuples = random_knapsack(rng), random_mtuples(rng)
        assert knapsack_mitm(knap.weights, knap.capacity) == dp_knapsack(knap), knap
        assert mtuples_mitm(tuples.sets, tuples.bound) == dp_mtuples(tuples), tuples


def test_strong_counters_stay_in_the_band_past_the_dps():
    # Values up to 2^200 are far past any DP table; meet in the middle counts
    # these instances exactly from at most 2^13 sums per half.
    rng = random.Random(74005)
    for bits in (64, 200):
        for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3)):
            for _ in range(7):
                weights = tuple(rng.randint(1, 2**bits) for _ in range(rng.randint(16, 26)))
                knap = KnapsackInstance(weights=weights, capacity=rng.randint(0, sum(weights)))
                exact = knapsack_mitm(knap.weights, knap.capacity)
                assert in_band(exact, strong_fptas_knapsack(knap, eps).count, eps), knap
                sets = [[rng.randint(0, 2**bits) for _ in range(3)] for _ in range(rng.randint(8, 14))]
                tuples = MTuplesInstance(sets=sets, bound=rng.randint(0, sum(map(max, sets))))
                exact = mtuples_mitm(tuples.sets, tuples.bound)
                assert in_band(exact, strong_fptas_mtuples(tuples, eps).count, eps), tuples


def test_plain_counters_stay_in_the_band_past_the_dps():
    # Plain fptas pays about one probe per bit of magnitude, so eps 1/10 (one
    # to three seconds per knapsack run at 2^200) is left to the strong test.
    rng = random.Random(74006)
    for bits in (64, 200):
        for eps in (Fraction(1, 2), Fraction(3)):
            weights = tuple(rng.randint(1, 2**bits) for _ in range(rng.randint(16, 20)))
            knap = KnapsackInstance(weights=weights, capacity=rng.randint(0, sum(weights)))
            exact = knapsack_mitm(knap.weights, knap.capacity)
            assert in_band(exact, fptas_knapsack(knap, eps).count, eps), knap
            for _ in range(3):
                sets = [[rng.randint(0, 2**bits) for _ in range(3)] for _ in range(rng.randint(8, 14))]
                tuples = MTuplesInstance(sets=sets, bound=rng.randint(0, sum(map(max, sets))))
                exact = mtuples_mitm(tuples.sets, tuples.bound)
                assert in_band(exact, fptas_mtuples(tuples, eps).count, eps), tuples


def test_contingency_formulations_agree_and_tables_are_structured():
    rng = random.Random(74010)
    checked = 0
    while checked < 200:
        inst = random_contingency(rng, n_max=6, cell_max=6)
        if inst.total > 30:
            continue
        checked += 1
        a = dp_contingency_sub(inst)
        b = dp_contingency_sum(inst)
        c = dp_contingency_binding(inst)
        assert a == b == c, inst

        table = dp_contingency_sum_table(inst, width=inst.total)
        prefix = 0
        for i, s in enumerate(inst.col_sums, start=1):
            prefix += s
            row = table[i]
            for j in range(prefix + 1):
                assert row[j] == row[prefix - j]
            half = row[: prefix // 2 + 1]
            assert all(x <= y for x, y in zip(half, half[1:]))
            tail = row[(prefix + 1) // 2 : prefix + 1]
            assert all(x >= y for x, y in zip(tail, tail[1:]))
            assert all(v == 0 for v in row[prefix + 1 :])


def test_knapsack_operation_counts_ignore_magnitude():
    # Baseline weights are multiples of 100 so that breakpoints sit far
    # apart even before scaling.  With packed weights the unscaled run
    # gets cheaper by accident (candidate points land on one another),
    # which would measure collision luck rather than scale behaviour.
    rng = random.Random(74020)
    weights = tuple(rng.randint(1, 50) * 100 for _ in range(10))
    capacity = sum(weights) // 2
    eps = Fraction(1, 4)

    strong_calls = []
    plain_calls = []
    for mult in (1, 10**3, 10**6):
        inst = KnapsackInstance(
            weights=tuple(w * mult for w in weights), capacity=capacity * mult
        )
        strong_calls.append(strong_fptas_knapsack(inst, eps).oracle_calls)
        plain_calls.append(fptas_knapsack(inst, eps).oracle_calls)

    assert max(strong_calls) < 2 * min(strong_calls), strong_calls
    assert plain_calls[0] < plain_calls[1] < plain_calls[2], plain_calls


def test_mtuples_operation_counts_ignore_magnitude():
    # Spread baseline for the same reason as the knapsack variant above.
    rng = random.Random(74021)
    sets = tuple(
        tuple(sorted(x * 100 for x in rng.sample(range(1, 30), rng.randint(2, 5))))
        for _ in range(4)
    )
    bound = sum(max(s) for s in sets) // 2
    eps = Fraction(1, 4)

    strong_calls = []
    plain_calls = []
    for k in (0, 3, 6):
        mult = 10**k
        inst = MTuplesInstance(
            sets=tuple(tuple(x * mult for x in s) for s in sets), bound=bound * mult
        )
        strong_calls.append(strong_fptas_mtuples(inst, eps).oracle_calls)
        plain_calls.append(fptas_mtuples(inst, eps).oracle_calls)

    assert max(strong_calls) < 2 * min(strong_calls), strong_calls
    assert plain_calls[0] < plain_calls[1] < plain_calls[2], plain_calls


def test_breakpoint_sets_stay_logarithmic_and_functions_stay_in_band():
    def size_cap(k, v):
        return 4 * (1 + math.log(max(v, 2)) / math.log(float(k)))

    def ratio(rep, eps):  # the k a run chose: one-point stages do not count
        return ApproxRatio.for_stages(eps, max(rep.chain_length, 1)).k

    rng = random.Random(74030)
    for _ in range(40):
        inst = random_mtuples(rng)
        for eps in EPSILONS:
            v = math.prod(len(s) for s in inst.sets)
            for rep in (fptas_mtuples(inst, eps), strong_fptas_mtuples(inst, eps)):
                for f in rep.stage_functions:
                    assert len(f) <= size_cap(ratio(rep, eps), v)

    rng = random.Random(74031)
    for _ in range(40):
        inst = random_knapsack(rng)
        for eps in EPSILONS:
            for rep in (fptas_knapsack(inst, eps), strong_fptas_knapsack(inst, eps)):
                for f in rep.stage_functions:
                    assert len(f) <= size_cap(ratio(rep, eps), 2**inst.n)

    rng = random.Random(74032)
    for _ in range(40):
        inst = random_contingency(rng)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        k = ratio(rep, Fraction(1, 2))
        v = math.prod(s + 1 for s in inst.col_sums)
        for half in rep.stage_functions:
            assert len(half.xs) <= size_cap(k, v)

    # dense pointwise sandwich of each held stage against the exact rows; the
    # error grows by k at each stage that has more than one point
    rng = random.Random(74033)
    eps = Fraction(1, 2)
    for _ in range(10):
        inst = random_mtuples(rng)
        rows = dp_mtuples_table(inst)
        rep = fptas_mtuples(inst, eps)
        k = ratio(rep, eps)
        power = Fraction(1)
        for func, row in zip(rep.stage_functions, rows):
            power *= k if func.domain.lo < func.domain.hi else 1
            for j, exact in enumerate(row):
                assert exact <= func.query(j) <= power * exact
    for _ in range(10):
        inst = random_knapsack(rng)
        if inst.capacity > 500:
            continue
        # the counter takes the left-out items heaviest first, two to a set
        tuples = left_out(inst)
        sets = by_spread(tuples.sets)
        rows = dp_mtuples_table(MTuplesInstance(sets, tuples.bound))
        rep = strong_fptas_knapsack(inst, eps)
        k = ratio(rep, eps)
        power = Fraction(1)
        # stage i counts the subsets of the items of its first i sets that
        # leave out at least j of their weight; B = W - C
        bound = max(0, sum(inst.weights) - inst.capacity)
        assert tuples.bound == bound and len(rows) == len(rep.stage_functions)
        for i, (func, row) in enumerate(zip(rep.stage_functions, rows)):
            power *= k if func.domain.lo < func.domain.hi else 1
            window = range(max(0, bound - sum(max(s) for s in sets[i + 1 :])), bound + 1)
            assert (func.domain.lo, func.domain.hi) == (window[0], window[-1])
            for j in window:
                exact = row[j]
                assert exact <= func.query(j) <= power * exact
    for _ in range(200):
        inst = random_contingency(rng, n_max=8)
        rep = fptas_contingency2(inst, eps)
        k = ratio(rep, eps)
        # the counter takes the columns largest first
        ordered = Contingency2Instance(inst.row_sums, by_size(inst.col_sums))
        rows = dp_contingency_sum_table(ordered, width=inst.total)
        pivots = list(accumulate(ordered.col_sums))[1:]
        power = Fraction(1)
        for half, pivot, row in zip(rep.stage_functions, pivots, rows[2:]):
            dom = half.domain
            power *= k if dom.lo < dom.hi else 1
            mirrored = dom.lo == pivot - pivot // 2
            for j, exact in enumerate(row):
                # column i keeps its upper half on the window later columns
                # read, and mirrors it about P_i/2 when the window reaches
                # P_i - P_i//2
                if j in dom or mirrored and pivot - j in dom:
                    assert exact <= half.query(max(j, pivot - j)) <= power * exact

