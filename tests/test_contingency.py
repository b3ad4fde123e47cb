"""Contingency counter: window sums over upper halves, compression op, full FPTAS."""

import inspect
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from approxcount.contingency import compress_contingency, fptas_contingency2, window_sum
from approxcount.errors import InvalidInput, MonotonicityViolation
from approxcount.oracles import (
    Contingency2Instance,
    dp_contingency_sub,
    dp_contingency_sum,
)
from approxcount.stepfunc import (
    ApproxRatio,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_nonincreasing,
)
from contingency_binding import dp_contingency_binding
from dp_tables import dp_contingency_sum_table

ANY_K = ApproxRatio.for_stages(Fraction(3), 1)


def window_of(half, lo, hi):
    """The half kept on {lo..hi} only, with no value below it."""
    xs = sorted({lo, hi} | {x for x in half.xs if lo <= x <= hi})
    return StepFunction(xs, [half.query(x) for x in xs], None)


@pytest.mark.parametrize(
    "xs, values, pivot",
    [
        ((0,), (3,), 0),
        ((1,), (2,), 1),
        ((3, 4, 5, 6), (4, 4, 1, 1), 6),
        ((4, 5, 6, 7), (4, 4, 1, 1), 7),
        ((4, 5, 6, 7, 8), (9, 5, 2, 2, 1), 8),
        # sparse breakpoints: pieces longer than one point are summed whole
        ((10, 15, 16, 19), (8, 6, 2, 1), 19),
        ((6, 9, 11), (10, 3, 1), 11),
    ],
)
@pytest.mark.parametrize("width", [1, 2, 5, 25])
def test_window_sum_matches_dense_sum(xs, values, pivot, width):
    # The dense column mirrors the upper half about pivot/2 (odd pivots have
    # two middle points, even ones one) and is 0 outside {0..pivot}. A half
    # kept on a window {c..d} counts its prefix sums from the start of its
    # piece list, so a sum is exact wherever it reads the column only on the
    # window, on its mirror image when c = pivot - pivot//2, past pivot when
    # d = pivot, or below 0 when the window is the whole half; any other
    # read raises.
    full = StepFunction(xs, values, None)
    middle = pivot - pivot // 2

    def column(j):
        return full.query(max(j, pivot - j)) if 0 <= j <= pivot else 0

    top = pivot + width
    for c in range(middle, pivot + 1):
        for d in range(c, pivot + 1):
            w = window_sum(window_of(full, c, d), pivot, width, IntInterval(top - top // 2, top))
            assert w.below is None  # no half has a value below its window
            known = set(range(c, d + 1))
            if c == middle:
                known |= {pivot - t for t in known}
            if d == pivot:
                known |= set(range(pivot + 1, pivot + width + 3))
                if c == middle:
                    known |= set(range(-width - 2, 0))
            for j in range(-2, pivot + width + 3):
                reads = range(j - width, j + 1)
                if known.issuperset(reads):
                    assert w(j) == sum(map(column, reads)), (c, d, j)
                else:
                    with pytest.raises(InvalidInput):
                        w(j)


def test_window_sum_needs_the_half_of_its_pivot():
    # The half's window must lie inside {pivot - pivot//2..pivot}.
    half = StepFunction((3, 4), (2, 1), None)
    window = IntInterval(5, 6)
    for pivot in (3, 7, 9):
        with pytest.raises(InvalidInput):
            window_sum(half, pivot, 2, window)
    past = StepFunction((3, 5), (2, 1), None)
    with pytest.raises(InvalidInput):
        window_sum(past, 4, 2, window)
    # {3..4} starts above 4 - 4//2, so no sum may read below 3.
    w = window_sum(half, 4, 2, window)
    assert [w(j) for j in (7, 6, 5)] == [0, 1, 3]
    assert w.below is None
    with pytest.raises(InvalidInput):
        w(4)


def test_an_even_pivot_adds_no_knot_where_the_column_is_flat():
    # At pivot 8 the half's first piece covers 4..5, so the column is 5 on
    # 3..5 and does not change at 4 or 5; W(j) = g(j) + g(j-1) is linear on
    # 5..7, and 6 is no knot.
    half = StepFunction((4, 6, 8), (5, 2, 1), None)
    w = window_sum(half, 8, 1, IntInterval(5, 9))
    assert w.starts == [5, 7, 8, 9]
    assert [w(j) for j in range(5, 10)] == [10, 7, 4, 3, 1]


def half_oracle(fn, pivot, knots=None):
    """An oracle on {pivot - pivot//2..pivot} with the given knots, by default every point."""
    lo = pivot - pivot // 2
    if knots is None:
        knots = range(lo, pivot + 1)
    return FnOracle(IntInterval(lo, pivot), fn, knots)


class TestCompressOp:
    def test_exact_two_column_table(self):
        # A_2 for unit column sums is 1,2,1. The top is exact; 2 passes
        # k*1 >= 2, so it is merged and takes the top's value.
        row = dp_contingency_sum_table(
            Contingency2Instance(row_sums=(1, 1), col_sums=(1, 1)), width=2
        )[-1]
        assert row == [1, 2, 1]
        half = compress_contingency(half_oracle(lambda j: row[j], 2), ANY_K)
        assert half.domain == IntInterval(1, 2)
        assert (half.query(1), half.query(2)) == (2, 2)
        with pytest.raises(InvalidInput):
            half.query(0)

    def test_the_half_is_zero_below_zero(self):
        # No half has a value below its window; the column's 0 below 0 is
        # read through the window sum, from a half on {P - P//2..P}.
        half = compress_contingency(half_oracle(lambda j: 7 - j, 6), ANY_K)
        assert half.domain == IntInterval(3, 6)
        assert list(half.values) == sorted(half.values, reverse=True)
        assert half.out_of_domain_low is None
        w = window_sum(half, 6, 10, IntInterval(8, 16))
        assert w(8) == sum(half.query(max(t, 6 - t)) for t in range(7))  # g(-2) = g(-1) = 0

    def test_a_window_above_zero_has_no_value_below_it(self):
        probe = FnOracle(IntInterval(3, 6), lambda j: 10 - j, range(3, 7))
        half = compress_contingency(probe, ANY_K)
        assert (half.domain, half.out_of_domain_low) == (IntInterval(3, 6), None)
        with pytest.raises(InvalidInput):
            half.query(2)

    def test_a_one_point_window_is_one_exact_evaluation(self):
        probe = FnOracle(IntInterval(9, 9), lambda j: 7 * j, [9])
        half = compress_contingency(probe, ANY_K)
        assert (half.xs, half.values, probe.calls) == ((9,), (63,), 1)

    def test_oracle_calls_are_counted(self):
        probe = half_oracle(lambda j: 17 - j, 16)
        compress_contingency(probe, ANY_K)
        assert probe.calls == 9  # one evaluation per knot

    def test_rejects_non_monotone_half(self):
        with pytest.raises(MonotonicityViolation):
            compress_contingency(half_oracle(lambda j: [9, 3, 2, 5][j - 3], 6), ANY_K)

    def test_rejects_knots_that_skip_a_slope_change(self):
        # 8, 4, 2, 1 is not linear from 3 to 6: the slope -7/3 is no integer.
        with pytest.raises(InvalidInput):
            compress_contingency(half_oracle(lambda j: [8, 4, 2, 1][j - 3], 6, (3, 6)), ANY_K)

    def test_rejects_knots_that_do_not_span_the_half(self):
        for knots in [(3, 5), (4, 6), ()]:
            with pytest.raises(InvalidInput):
                compress_contingency(half_oracle(lambda j: 1, 6, knots), ANY_K)
        # a black box names no knots
        black_box = FnOracle(IntInterval(3, 6), lambda j: 1)
        with pytest.raises(InvalidInput):
            compress_contingency(black_box, ANY_K)


def test_small_worked_instance():
    inst = Contingency2Instance(row_sums=(2, 2), col_sums=(2, 1, 1))
    assert dp_contingency_sum(inst) == 4
    rep = fptas_contingency2(inst, Fraction(1, 2))
    assert 4 <= rep.count <= 6


def test_two_unit_columns():
    inst = Contingency2Instance(row_sums=(1, 1), col_sums=(1, 1))
    for eps in (Fraction(1, 10), Fraction(2)):
        assert fptas_contingency2(inst, eps).count == 2


def test_degenerate_second_row():
    inst = Contingency2Instance(row_sums=(7, 0), col_sums=(3, 2, 2))
    rep = fptas_contingency2(inst, Fraction(1))
    assert rep.count == 1
    assert len(rep.stage_functions) == 0
    assert (rep.oracle_calls, rep.chain_length, rep.per_stage_set_sizes) == (0, 0, [])


def test_single_column():
    ok = Contingency2Instance(row_sums=(2, 3), col_sums=(5,))
    rep = fptas_contingency2(ok, Fraction(1))
    assert rep.count == 1
    assert (rep.oracle_calls, rep.chain_length, rep.per_stage_set_sizes) == (0, 0, [])


def test_rejects_nonpositive_epsilon():
    # R = 0 and a single column compress nothing, but epsilon is still checked.
    for rows, cols in [((1, 1), (1, 1)), ((7, 0), (3, 2, 2)), ((0, 9), (4, 5)), ((2, 3), (5,))]:
        inst = Contingency2Instance(row_sums=rows, col_sums=cols)
        with pytest.raises(InvalidInput):
            fptas_contingency2(inst, 0)
        with pytest.raises(InvalidInput):
            fptas_contingency2(inst, Fraction(-1, 2))


def random_instance(rng, n_max=5, cell_max=8, cell_min=1):
    n = rng.randint(1, n_max)
    cols = [rng.randint(cell_min, cell_max) for _ in range(n)]
    total = sum(cols)
    r1 = rng.randint(0, total)
    return Contingency2Instance(row_sums=(r1, total - r1), col_sums=tuple(cols))


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_sandwich_randomized(eps):
    rng = random.Random(404)
    for _ in range(100):
        inst = random_instance(rng)
        exact = dp_contingency_sum(inst)
        got = fptas_contingency2(inst, eps).count
        assert exact <= got <= (1 + eps) * exact


def column_windows(inst):
    """Column i's window of its upper half: the points P_n - R minus the later cells reads."""
    pivots = list(accumulate(inst.col_sums))
    query = pivots[-1] - inst.pivot_sum
    return [IntInterval(max(p - inst.pivot_sum, p - p // 2), min(p, query)) for p in pivots]


def test_every_compressed_function_keeps_the_structure():
    # Column i is kept as its nonincreasing upper half on its window, with
    # no value below it, and the last window is {P_n - R}.
    rng = random.Random(505)
    for _ in range(20):
        inst = random_instance(rng, n_max=4, cell_max=7)
        rep = fptas_contingency2(inst, Fraction(1, 3))
        windows = column_windows(inst)[1:]
        assert len(rep.stage_functions) == (len(windows) if inst.pivot_sum else 0)
        for half, window in zip(rep.stage_functions, windows):
            assert isinstance(half, StepFunction)
            assert list(half.values) == sorted(half.values, reverse=True)
            assert half.domain == window
            assert half.out_of_domain_low is None
        if rep.stage_functions:
            last = sum(inst.col_sums) - inst.pivot_sum
            assert rep.stage_functions[-1].domain == IntInterval(last, last)


def test_every_read_of_a_column_lands_in_its_window_or_below_zero():
    # Column i+1's window sum reads column i at j - v, 0 <= v <= s_{i+1},
    # for each j in column i+1's window: on column i's window, or mirrored
    # onto it when the window reaches P_i - P_i//2, or past P_i (also after
    # mirroring, below 0), where the column is 0 and the window ends at P_i.
    rng = random.Random(515)
    for _ in range(200):
        inst = random_instance(rng, n_max=6, cell_max=rng.choice((3, 30)))
        rep = fptas_contingency2(inst, Fraction(1, 2))
        if not rep.stage_functions:
            continue
        halves = [first_column(inst), *rep.stage_functions]
        pivots = list(accumulate(inst.col_sums))
        for half, pivot, s, nxt in zip(halves, pivots, inst.col_sums[1:], halves[1:]):
            dom = half.domain
            mirrored = dom.lo == pivot - pivot // 2
            for t in range(nxt.domain.lo - s, nxt.domain.hi + 1):
                if t > pivot or t < 0 and mirrored:
                    assert dom.hi == pivot
                else:
                    assert t in dom or mirrored and pivot - t in dom, (inst, t)
        last = sum(inst.col_sums) - inst.pivot_sum
        assert halves[-1].domain == IntInterval(last, last)


def test_compression_count_stays_logarithmic():
    rng = random.Random(606)
    for _ in range(30):
        inst = random_instance(rng)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        n = len(inst.col_sums)
        assert len(rep.stage_functions) == (n - 1 if inst.pivot_sum > 0 else 0)


def test_chain_length_matches_ratio_choice():
    # The exponent counts the columns whose window has more than one point;
    # the last window, {P_n - R}, is one exact evaluation.
    cases = [
        ((11, 14), (6, 7, 5, 4, 3)),
        ((9, 12), (5, 6, 4, 6)),
        ((10, 14), (3, 5, 4, 12)),
        ((3, 5), (1, 7)),
        ((20, 20), (8, 16, 1, 15)),
    ]
    for rows, cols in cases:
        inst = Contingency2Instance(row_sums=rows, col_sums=cols)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        windows = column_windows(inst)[1:]
        last = sum(cols) - inst.pivot_sum
        assert windows[-1] == IntInterval(last, last)
        assert rep.chain_length == sum(w.lo < w.hi for w in windows) <= len(cols) - 2
        k = ApproxRatio.for_stages(Fraction(1, 2), max(rep.chain_length, 1)).k
        assert k > 1
        assert k**rep.chain_length <= Fraction(3, 2)


def test_report_counts_oracle_traffic():
    inst = Contingency2Instance(row_sums=(9, 12), col_sums=(5, 6, 4, 6))
    rep = fptas_contingency2(inst, Fraction(1, 2))
    assert rep.oracle_calls > 0
    assert rep.per_stage_set_sizes == [len(f.xs) for f in rep.stage_functions]


# The ids keep the oracle calls of the binary-search scans before they kept
# the values they probed (90 and 88). The calls are now the window sum's
# knots, one evaluation each. Since the walk keeps the first failing point
# below each kept one, the rows keep fewer points (counts 145 and 116 with
# sizes [6, 8, 11] and [5, 7, 12] before). Since each column keeps only the
# window later columns read and the last one is its evaluation at R, the
# rows keep fewer points on a chain of 2 (159, 23 calls, [6, 7, 10] and
# 122, 25 calls, [4, 6, 11] before, both on a chain of 3). Since the knots
# are the ends of the window sum's one piece list, the second row's column 3
# (pivot 8, window {6..12} of its upper half) has no knot at 9, where the
# previous column does not change (13 calls before). Keeping upper halves
# changed none of these values.
@pytest.mark.parametrize(
    "rows, cols, eps, count, calls, sizes, chain",
    [
        # windows {6..11}, {8..12} and {12}
        pytest.param(
            (9, 12), (5, 6, 4, 6), Fraction(1, 2), 159, 10, [5, 4, 1], 2,
            id="rows0-cols0-eps0-145-90-sizes0-3",
        ),
        # R < s_n: windows {4..8}, {6..12} and {14}
        pytest.param(
            (10, 14), (3, 5, 4, 12), Fraction(1, 4), 118, 12, [4, 6, 1], 2,
            id="rows1-cols1-eps1-116-88-sizes1-3",
        ),
    ],
)
def test_report_values_are_pinned(rows, cols, eps, count, calls, sizes, chain):
    rep = fptas_contingency2(Contingency2Instance(row_sums=rows, col_sums=cols), eps)
    assert rep.count == count
    assert rep.oracle_calls == calls
    assert rep.per_stage_set_sizes == sizes
    assert rep.chain_length == chain


def test_deep_table_needs_no_recursion():
    rng = random.Random(1)
    cols = tuple(rng.randint(1, 4) for _ in range(60))
    total = sum(cols)
    inst = Contingency2Instance(row_sums=(total // 2, total - total // 2), col_sums=cols)
    exact = dp_contingency_sub(inst)
    eps = Fraction(1, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        got = fptas_contingency2(inst, eps).count
        binding = dp_contingency_binding(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert exact <= got <= (1 + eps) * exact
    assert binding == exact


def first_column(inst):
    """Column 1's half exactly, as the counter starts it: 1 on its window."""
    window = column_windows(inst)[0]
    ends = sorted({window.lo, window.hi})
    return StepFunction(ends, (1,) * len(ends), None)


def columns_with_inputs(inst, rep):
    """Each compressed half with the half and pivot before it and its column sum."""
    prev = [first_column(inst), *rep.stage_functions[:-1]]
    pivots = accumulate(inst.col_sums)
    return zip(prev, pivots, inst.col_sums[1:], rep.stage_functions)


@pytest.mark.parametrize("cell_max", [3, 30, 10**6])
def test_walk_keeps_what_the_binary_search_keeps(cell_max):
    rng = random.Random(cell_max)
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        for _ in range(12):
            inst = random_instance(rng, n_max=6, cell_max=cell_max)
            rep = fptas_contingency2(inst, eps)
            windows = column_windows(inst)[1:]
            k = ApproxRatio.for_stages(eps, max(sum(w.lo < w.hi for w in windows), 1))
            for (g, pivot, s, got), dom in zip(columns_with_inputs(inst, rep), windows):
                oracle = window_sum(g, pivot, s, dom)
                assert oracle.below is None
                assert got.to_json() == apx_set_nonincreasing(oracle, k).to_json()


def test_column_evaluations_do_not_grow_with_the_cells():
    rng = random.Random(7)
    for _ in range(8):
        inst = random_instance(rng, n_max=8, cell_max=10**6, cell_min=10**6 - 1000)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        columns = list(columns_with_inputs(inst, rep))
        knots = [len(window_sum(g, pivot, s, got.domain).starts) for g, pivot, s, got in columns]
        assert rep.oracle_calls == sum(knots)  # one evaluation per knot
        assert all(n <= 4 * len(g) + 4 for (g, _, _, _), n in zip(columns, knots))


# Tables past dp_contingency_sub's reach: 30 to 60 columns with R near 1e4,
# checked against the O(n*R) window-sum DP.
@pytest.mark.parametrize(
    "n, eps",
    [(30, Fraction(1, 10)), (45, Fraction(1, 2)), (60, Fraction(3))],
)
def test_wide_tables_stay_in_the_band(n, eps):
    rng = random.Random(n)
    cols = tuple(rng.randint(20_000 // n, 40_000 // n) for _ in range(n))
    total = sum(cols)
    r = rng.randint(9_000, min(11_000, total // 2))
    inst = Contingency2Instance(row_sums=(r, total - r), col_sums=cols)
    exact = dp_contingency_sum(inst)
    rep = fptas_contingency2(inst, eps)
    assert exact <= rep.count <= (1 + eps) * exact
    assert rep.chain_length <= n - 2
