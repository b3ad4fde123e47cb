"""The closed-form references against the other exact references, then the
counters against them at sizes no DP or meet in the middle reaches."""

import random
from fractions import Fraction

from approxcount import (
    Contingency2Instance,
    KnapsackInstance,
    fptas_contingency2,
    fptas_knapsack,
    strong_fptas_knapsack,
)
from approxcount.oracles import dp_contingency_sum
from closed_forms import equal_columns, knapsack_by_distinct_weights
from meet_in_the_middle import knapsack_mitm


def test_closed_forms_match_the_exact_references():
    rng = random.Random(18)
    for _ in range(300):
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
        weights = [rng.choice(values) for _ in range(rng.randint(1, 14))]
        capacity = rng.randint(0, sum(weights) + 2)
        assert knapsack_by_distinct_weights(weights, capacity) == knapsack_mitm(weights, capacity)
        n, s = rng.randint(1, 7), rng.randint(1, 12)
        r1 = rng.randint(0, n * s)
        table = Contingency2Instance(row_sums=(r1, n * s - r1), col_sums=(s,) * n)
        assert equal_columns(n, s, table.pivot_sum) == dp_contingency_sum(table)


def test_counters_stay_in_band_on_the_closed_form_families():
    # Knapsacks of 3-4 distinct weights in 1e8..1e9, shuffled, with capacity
    # half the total. The strong counter takes its items heaviest first, so
    # it sees runs of equal weights; plain fptas takes them shuffled, as
    # given. Plain fptas stops at n=60, where it takes about a second.
    rng = random.Random(1802)
    eps = Fraction(1, 2)
    both, strong = (strong_fptas_knapsack, fptas_knapsack), (strong_fptas_knapsack,)
    for n, d, counters in [(60, 3, both), (60, 4, strong), (80, 4, strong), (100, 3, strong)]:
        values = [rng.randint(10**8, 10**9) for _ in range(d)]
        weights = [rng.choice(values) for _ in range(n)]
        rng.shuffle(weights)
        inst = KnapsackInstance(weights=weights, capacity=sum(weights) // 2)
        exact = knapsack_by_distinct_weights(weights, inst.capacity)
        for counter in counters:
            assert exact <= counter(inst, eps).count <= (1 + eps) * exact, (counter, n, d)
    for columns in (30, 40):
        s = rng.randint(10**3, 10**6)
        total = columns * s
        r1 = rng.randint(total // 4, total // 2)
        table = Contingency2Instance(row_sums=(r1, total - r1), col_sums=(s,) * columns)
        exact = equal_columns(columns, s, table.pivot_sum)
        assert exact <= fptas_contingency2(table, eps).count <= (1 + eps) * exact, columns
