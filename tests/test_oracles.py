import itertools
import random

import pytest

from approxcount.errors import InvalidInput, TooLarge
from approxcount.oracles import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    brute_knapsack,
    brute_mtuples,
    dp_contingency_sub,
    dp_contingency_sum,
    dp_contingency_sum_table,
    dp_knapsack,
    dp_knapsack_table,
    dp_mtuples,
    dp_mtuples_table,
)
from contingency_binding import dp_contingency_binding

GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)

# Exact rows on {0..17} for the golden instance, computed by hand from the
# definition (z_i(j) = number of i-prefixes with sum of picks >= ... read as
# tail counts) and cross-checked against brute force below.
Z1_ROW = [3, 3, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
Z3_ROW = [12, 12, 12, 12, 12, 12, 12, 11, 11, 10, 9, 9, 8, 6, 6, 5, 3, 3]


def test_mtuples_instance_validation():
    with pytest.raises(InvalidInput):
        MTuplesInstance(sets=(), bound=5)
    with pytest.raises(InvalidInput):
        MTuplesInstance(sets=((),), bound=5)
    with pytest.raises(InvalidInput):
        MTuplesInstance(sets=((-1, 2),), bound=5)
    with pytest.raises(InvalidInput):
        MTuplesInstance(sets=((1, 2),), bound=-1)


def test_knapsack_instance_validation():
    with pytest.raises(InvalidInput):
        KnapsackInstance(weights=(0, 2), capacity=5)
    with pytest.raises(InvalidInput):
        KnapsackInstance(weights=(1,), capacity=-1)


def test_contingency_instance_validation():
    with pytest.raises(InvalidInput):
        Contingency2Instance(row_sums=(1, 2), col_sums=(1, 1))  # sums differ
    with pytest.raises(InvalidInput):
        Contingency2Instance(row_sums=(1, 1), col_sums=(2, 0))  # zero column
    with pytest.raises(InvalidInput):
        Contingency2Instance(row_sums=(-1, 3), col_sums=(2,))
    inst = Contingency2Instance(row_sums=(5, 2), col_sums=(3, 4))
    assert inst.pivot_sum == 2
    assert inst.total == 7


def test_golden_z1_row():
    table = dp_mtuples_table(GOLDEN)
    assert table[0] == Z1_ROW


def test_golden_z3_row_and_count():
    table = dp_mtuples_table(GOLDEN)
    assert table[2] == Z3_ROW
    assert dp_mtuples(GOLDEN) == 3


def test_mtuples_rows_nonincreasing():
    for row in dp_mtuples_table(GOLDEN):
        assert all(a >= b for a, b in zip(row, row[1:]))


def test_brute_mtuples_definition():
    assert brute_mtuples(GOLDEN) == 3
    tiny = MTuplesInstance(sets=((0, 1), (0, 1)), bound=1)
    # pairs with sum >= 1: (0,1), (1,0), (1,1)
    assert brute_mtuples(tiny) == 3


def test_mtuples_dp_vs_brute_randomized():
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 4)
        sets = tuple(
            tuple(sorted(rng.sample(range(31), rng.randint(1, 5)))) for _ in range(m)
        )
        bound = rng.randint(0, 40)
        inst = MTuplesInstance(sets=sets, bound=bound)
        assert dp_mtuples(inst) == brute_mtuples(inst)


def test_knapsack_known_counts():
    assert dp_knapsack(KnapsackInstance(weights=(1, 2, 3), capacity=3)) == 5
    assert dp_knapsack(KnapsackInstance(weights=(5,), capacity=4)) == 1
    assert dp_knapsack(KnapsackInstance(weights=(2, 2), capacity=10)) == 4


def test_knapsack_rows_nondecreasing():
    table = dp_knapsack_table(KnapsackInstance(weights=(3, 5, 7), capacity=20))
    for row in table:
        assert all(a <= b for a, b in zip(row, row[1:]))


def test_knapsack_dp_vs_brute_randomized():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 10)
        weights = tuple(rng.randint(1, 50) for _ in range(n))
        cap = rng.randint(0, sum(weights) + 5)
        inst = KnapsackInstance(weights=weights, capacity=cap)
        assert dp_knapsack(inst) == brute_knapsack(inst)


def brute_tables(inst):
    """Enumerate first-row fills directly; the second row is forced."""
    count = 0
    ranges = [range(s + 1) for s in inst.col_sums]
    for fill in itertools.product(*ranges):
        if sum(fill) == inst.row_sums[0]:
            count += 1
    return count


def test_contingency_small_exact():
    inst = Contingency2Instance(row_sums=(2, 2), col_sums=(2, 1, 1))
    assert dp_contingency_sum(inst) == 4
    assert brute_tables(inst) == 4


def test_contingency_binding_nontrivial_instance():
    # Both cell caps interact with both row sums; distinguishes the correct
    # dispatch from several near-miss readings of the recursion.
    inst = Contingency2Instance(row_sums=(5, 29), col_sums=(20, 12, 2))
    assert dp_contingency_sub(inst) == 15
    assert dp_contingency_sum(inst) == 15
    assert dp_contingency_binding(inst) == 15


def test_contingency_formulations_agree_randomized():
    rng = random.Random(303)
    for _ in range(200):
        n = rng.randint(1, 6)
        cols = [rng.randint(1, 8) for _ in range(n)]
        total = sum(cols)
        if total > 30:
            cols = cols[: max(1, n // 2)]
            total = sum(cols)
        r1 = rng.randint(0, total)
        inst = Contingency2Instance(row_sums=(r1, total - r1), col_sums=tuple(cols))
        a = dp_contingency_sub(inst)
        b = dp_contingency_sum(inst)
        c = dp_contingency_binding(inst)
        assert a == b == c
        assert a == brute_tables(inst)


def test_contingency_table_symmetry_and_unimodality():
    inst = Contingency2Instance(row_sums=(9, 8), col_sums=(5, 4, 3, 5))
    total = inst.total
    table = dp_contingency_sum_table(inst, width=total)
    prefix = 0
    for i, s in enumerate(inst.col_sums, start=1):
        prefix += s
        row = table[i]
        for j in range(prefix + 1):
            assert row[j] == row[prefix - j]
        half = row[: prefix // 2 + 1]
        assert all(a <= b for a, b in zip(half, half[1:]))
        back = row[(prefix + 1) // 2 : prefix + 1]
        assert all(a >= b for a, b in zip(back, back[1:]))
        assert all(v == 0 for v in row[prefix + 1 :])


def test_brute_mtuples_cap():
    huge = MTuplesInstance(sets=(tuple(range(200)),) * 4, bound=3)
    with pytest.raises(TooLarge):
        brute_mtuples(huge)


def test_brute_knapsack_cap():
    with pytest.raises(TooLarge):
        brute_knapsack(KnapsackInstance(weights=(1,) * 40, capacity=40))


def test_dp_cell_cap():
    with pytest.raises(TooLarge):
        dp_knapsack(KnapsackInstance(weights=(10**9, 10**9), capacity=10**12))

