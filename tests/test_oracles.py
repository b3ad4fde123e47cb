import ast
import inspect
import itertools
import random

import pytest

from approxcount import oracles, record
from approxcount.errors import InvalidInput, TooLarge
from approxcount.oracles import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    brute_knapsack,
    brute_mtuples,
    dp_contingency_sub,
    dp_contingency_sum,
    dp_knapsack,
    dp_mtuples,
)
from contingency_binding import dp_contingency_binding
from dp_tables import dp_contingency_sum_table, dp_knapsack_table, dp_mtuples_table
from meet_in_the_middle import knapsack_mitm, mtuples_mitm

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
        KnapsackInstance(weights=(), capacity=5)
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


@pytest.mark.parametrize("bad", [1.0, "1", None, True], ids=["float", "str", "none", "bool"])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda x: MTuplesInstance(sets=((2, x),), bound=5), "set elements must be nonnegative"),
        (lambda x: MTuplesInstance(sets=((1, 2),), bound=x), "bound must be nonnegative"),
        (lambda x: KnapsackInstance(weights=(2, x), capacity=5), "weights must be positive"),
        (lambda x: KnapsackInstance(weights=(1, 2), capacity=x), "capacity must be nonnegative"),
        (lambda x: Contingency2Instance(row_sums=(x, 2), col_sums=(1, 2)),
         "row sums must be nonnegative"),
        (lambda x: Contingency2Instance(row_sums=(1, 2), col_sums=(x, 2)),
         "column sums must be positive"),
    ],
    ids=["set-element", "bound", "weight", "capacity", "row-sum", "column-sum"],
)
def test_every_numeric_field_takes_integers_only(make, message, bad):
    # Each bad value stands for 1, which the field takes; a float weight
    # once gave a knapsack count below the exact one.
    make(1)
    with pytest.raises(InvalidInput, match=f"^{message}"):
        make(bad)


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



@pytest.mark.parametrize(
    "dp, inst, cells",
    [
        (dp_knapsack, KnapsackInstance(weights=(3, 5, 8, 9), capacity=17), 5 * 18),
        (dp_mtuples, GOLDEN, 18 * 7),
        (dp_contingency_sum, Contingency2Instance(row_sums=(9, 12), col_sums=(5, 6, 4, 6)), 5 * 10),
        (dp_contingency_sub, Contingency2Instance(row_sums=(9, 12), col_sums=(5, 6, 4, 6)), 4 * 10),
    ],
    ids=["knapsack", "mtuples", "contingency-sum", "contingency-sub"],
)
def test_each_dp_counts_at_its_cell_cap_and_refuses_one_cell_past_it(monkeypatch, dp, inst, cells):
    monkeypatch.setattr(oracles, "DP_CELL_CAP", cells)
    dp(inst)
    monkeypatch.setattr(oracles, "DP_CELL_CAP", cells - 1)
    with pytest.raises(TooLarge):
        dp(inst)


def test_packed_digits_hold_the_whole_count():
    # One bit narrower and the digit sum wraps: 2**3 subsets fit, and 8 is 1
    # mod 2**3 - 1; all 3 = 2**2 - 1 tuples fall below 5, and 3 is 0 mod 3.
    assert dp_knapsack(KnapsackInstance(weights=(1, 1, 1), capacity=3)) == 8
    assert dp_mtuples(MTuplesInstance(sets=((0, 1, 2),), bound=5)) == 0


def test_packed_counts_match_the_tables_and_brute_force():
    # Zero capacities and bounds, duplicate elements, one-element sets and
    # values past the capacity or bound all come up often.
    rng = random.Random(404)
    for _ in range(1500):
        cap = max(0, rng.randint(-6, 40))
        weights = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 8)))
        inst = KnapsackInstance(weights=weights, capacity=cap)
        exact = brute_knapsack(inst)
        assert dp_knapsack(inst) == dp_knapsack_table(inst)[-1][cap] == exact, inst

        bound = max(0, rng.randint(-6, 45))
        sets = tuple(
            tuple(rng.choices(range(25), k=rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        )
        inst = MTuplesInstance(sets=sets, bound=bound)
        exact = brute_mtuples(inst)
        assert dp_mtuples(inst) == dp_mtuples_table(inst)[-1][bound] == exact, inst
    for _ in range(500):
        cols = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        r1 = rng.randint(0, sum(cols))
        inst = Contingency2Instance(row_sums=(r1, sum(cols) - r1), col_sums=cols)
        row = dp_contingency_sum_table(inst)[-1]
        assert dp_contingency_sum(inst) == row[inst.pivot_sum] == brute_tables(inst), inst


def test_values_past_the_capacity_or_bound_are_skipped_before_any_shift():
    # A weight or element of 10**18 would be a 10**18-bit shift.
    huge = 10**18
    knap = KnapsackInstance(weights=(3, huge, 5, huge), capacity=40)
    assert dp_knapsack(knap) == brute_knapsack(knap) == 4
    tuples = MTuplesInstance(sets=((huge, 2), (7, huge, 0)), bound=50)
    assert dp_mtuples(tuples) == brute_mtuples(tuples) == 4
    table = Contingency2Instance(row_sums=(3, huge), col_sums=(huge, 3))
    assert dp_contingency_sum(table) == dp_contingency_sub(table) == 4


def test_counts_near_the_cell_cap_match_meet_in_the_middle():
    # Just under DP_CELL_CAP cells; a table of rows this size needs over 1 GB.
    rng = random.Random(405)
    for n, low, high, cap in ((30, 29_000, 31_000, 1_600_000), (36, 60_000, 90_000, 1_350_000)):
        inst = KnapsackInstance(weights=[rng.randint(low, high) for _ in range(n)], capacity=cap)
        assert dp_knapsack(inst) == knapsack_mitm(inst.weights, cap)
    sets = [[rng.randint(0, 97_500) for _ in range(4)] for _ in range(16)]
    inst = MTuplesInstance(sets=sets, bound=780_000)
    assert dp_mtuples(inst) == mtuples_mitm(inst.sets, inst.bound)


def imported(module) -> set[str]:
    """Every module the source of ``module`` imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    return names


def test_the_oracles_import_only_errors_and_record_from_the_package():
    # The exact counts check the compression code, so they share none of it:
    # only the exceptions and the record base, which imports nothing at all.
    package = {m for m in imported(oracles) if m.startswith((".", "approxcount"))}
    assert package == {".errors", ".record"}
    assert imported(record) == set()
