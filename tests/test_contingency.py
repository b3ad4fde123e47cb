"""Contingency counter: window sums over halves, compression op, full FPTAS."""

import inspect
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

from approxcount.contingency import (
    compress_contingency,
    fptas_contingency2,
    window_knots,
    window_sum,
)
from approxcount.errors import InvalidInput
from approxcount.oracles import (
    Contingency2Instance,
    dp_contingency_sub,
    dp_contingency_sum,
    dp_contingency_sum_table,
)
from approxcount.stepfunc import (
    ApproxRatio,
    Direction,
    FnOracle,
    IntInterval,
    StepFunction,
)
from contingency_binding import dp_contingency_binding
from mirrored_search import mirrored_search

ANY_K = ApproxRatio.for_stages(Fraction(3), 1)


def half_function(values):
    """Nondecreasing StepFunction holding the given dense half values."""
    return StepFunction(
        domain=IntInterval(0, len(values) - 1),
        direction=Direction.NONDECREASING,
        xs=tuple(range(len(values))),
        values=tuple(values),
        out_of_domain_low=0,
    )


@pytest.mark.parametrize(
    "xs, values, pivot",
    [
        ((0,), (3,), 0),
        ((0,), (2,), 1),
        ((0, 1, 2, 3), (1, 1, 4, 4), 6),
        ((0, 1, 2, 3), (1, 1, 4, 4), 7),
        ((0, 1, 2, 3, 4), (1, 2, 2, 5, 9), 8),
        # sparse breakpoints: pieces longer than one point are summed whole
        ((0, 3, 4, 9), (1, 2, 6, 8), 19),
        ((0, 2, 5), (1, 3, 10), 11),
    ],
)
@pytest.mark.parametrize("width", [1, 2, 5, 25])
def test_window_sum_matches_dense_sum(xs, values, pivot, width):
    # The dense column mirrors the half about pivot/2 (odd pivots have two
    # middle points, even ones one) and is 0 outside {0..pivot}.
    half = StepFunction(IntInterval(0, pivot // 2), Direction.NONDECREASING, xs, values)
    g = [half.query(min(j, pivot - j)) for j in range(pivot + 1)]

    def column(j):
        return g[j] if 0 <= j <= pivot else 0

    w = window_sum(half, pivot, width)
    for j in range(-2, pivot + width + 3):
        assert w(j) == sum(column(j - v) for v in range(width + 1)), j


def test_window_sum_needs_the_half_of_its_pivot():
    half = StepFunction(IntInterval(0, 1), Direction.NONDECREASING, (0, 1), (1, 2))
    for pivot in (1, 4, -1):
        with pytest.raises(InvalidInput):
            window_sum(half, pivot, 2)


def half_oracle(fn, pivot):
    return FnOracle(IntInterval(0, pivot // 2), Direction.NONDECREASING, fn)


def every_half_point(pivot):
    return range(pivot // 2 + 1)


class TestCompressOp:
    def test_exact_two_column_table(self):
        # A_2 for unit column sums is 1,2,1. The top is exact; 0 passes
        # k*1 >= 2, so it is merged and takes the top's value.
        row = dp_contingency_sum_table(
            Contingency2Instance(row_sums=(1, 1), col_sums=(1, 1)), width=2
        )[-1]
        assert row == [1, 2, 1]
        half = compress_contingency(half_oracle(lambda j: row[j], 2), ANY_K, every_half_point(2))
        assert half.domain == IntInterval(0, 1)
        assert (half.query(0), half.query(1)) == (2, 2)
        assert half.query(-1) == 0

    def test_the_half_is_zero_below_zero(self):
        half = compress_contingency(half_oracle(lambda j: j + 1, 6), ANY_K, every_half_point(6))
        assert (half.direction, half.domain) == (Direction.NONDECREASING, IntInterval(0, 3))
        assert half.query(-1) == half.out_of_domain_low == 0

    def test_oracle_calls_are_counted(self):
        dom = IntInterval(0, 8)
        probe = FnOracle(dom, Direction.NONDECREASING, lambda j: 1 + j)
        compress_contingency(probe, ANY_K, every_half_point(16))
        assert probe.calls == 9  # one evaluation per knot

    def test_rejects_non_monotone_half(self):
        with pytest.raises(InvalidInput):
            compress_contingency(
                half_oracle(lambda j: [5, 2, 3, 9][j], 6), ANY_K, every_half_point(6)
            )

    def test_rejects_knots_that_skip_a_slope_change(self):
        # 1, 2, 4, 8 is not linear from 0 to 3: the slope 7/3 is no integer.
        with pytest.raises(InvalidInput):
            compress_contingency(half_oracle(lambda j: [1, 2, 4, 8][j], 6), ANY_K, (0, 3))

    def test_rejects_knots_that_do_not_span_the_half(self):
        for knots in [(0, 2), (1, 3), ()]:
            with pytest.raises(InvalidInput):
                compress_contingency(half_oracle(lambda j: 1, 6), ANY_K, knots)


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


def test_every_compressed_function_keeps_the_structure():
    # Column i is kept as its nondecreasing half on {0..P_i//2}, 0 below it,
    # and the count is read inside the last half.
    rng = random.Random(505)
    for _ in range(20):
        inst = random_instance(rng, n_max=4, cell_max=7)
        rep = fptas_contingency2(inst, Fraction(1, 3))
        pivots = list(accumulate(inst.col_sums))[1:]
        assert len(rep.stage_functions) == (len(pivots) if inst.pivot_sum else 0)
        for half, pivot in zip(rep.stage_functions, pivots):
            assert isinstance(half, StepFunction)
            assert half.direction is Direction.NONDECREASING
            assert half.domain == IntInterval(0, pivot // 2)
            assert half.out_of_domain_low == 0
        if rep.stage_functions:
            assert inst.pivot_sum in rep.stage_functions[-1].domain


def test_compression_count_stays_logarithmic():
    rng = random.Random(606)
    for _ in range(30):
        inst = random_instance(rng)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        n = len(inst.col_sums)
        assert len(rep.stage_functions) == (n - 1 if inst.pivot_sum > 0 else 0)


def test_chain_length_matches_ratio_choice():
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
        assert rep.chain_length == len(cols) - 1
        k = ApproxRatio.for_stages(Fraction(1, 2), rep.chain_length).k
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
# sizes [6, 8, 11] and [5, 7, 12] before).
@pytest.mark.parametrize(
    "rows, cols, eps, count, calls, sizes, chain",
    [
        pytest.param(
            (9, 12), (5, 6, 4, 6), Fraction(1, 2), 159, 23, [6, 7, 10], 3,
            id="rows0-cols0-eps0-145-90-sizes0-3",
        ),
        # R < s_n: the last column is still compressed whole, then queried at R.
        pytest.param(
            (10, 14), (3, 5, 4, 12), Fraction(1, 4), 122, 25, [4, 6, 11], 3,
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


def first_column(s1):
    """Column 1's half exactly, as the counter starts it: 1 on {0..s1//2}."""
    h = s1 // 2
    ends = (0, h) if h else (0,)
    return StepFunction(IntInterval(0, h), Direction.NONDECREASING, ends, (1,) * len(ends))


def columns_with_inputs(inst, rep):
    """Each compressed half with the half and pivot before it and its column sum."""
    prev = [first_column(inst.col_sums[0]), *rep.stage_functions[:-1]]
    pivots = accumulate(inst.col_sums)
    return zip(prev, pivots, inst.col_sums[1:], rep.stage_functions)


@pytest.mark.parametrize("cell_max", [3, 30, 10**6])
def test_walk_keeps_what_the_binary_search_keeps(cell_max):
    rng = random.Random(cell_max)
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        for _ in range(12):
            inst = random_instance(rng, n_max=6, cell_max=cell_max)
            rep = fptas_contingency2(inst, eps)
            if not rep.chain_length:
                continue
            k = ApproxRatio.for_stages(eps, rep.chain_length)
            for g, pivot, s, got in columns_with_inputs(inst, rep):
                dom = IntInterval(0, (pivot + s) // 2)
                ref = mirrored_search(window_sum(g, pivot, s), dom, k, below=0)
                assert got.to_json() == ref.to_json()


def test_column_evaluations_do_not_grow_with_the_cells():
    rng = random.Random(7)
    for _ in range(8):
        inst = random_instance(rng, n_max=8, cell_max=10**6, cell_min=10**6 - 1000)
        rep = fptas_contingency2(inst, Fraction(1, 2))
        columns = list(columns_with_inputs(inst, rep))
        knots = [len(window_knots(g, pivot, s)) for g, pivot, s, _ in columns]
        assert rep.oracle_calls == sum(knots)  # one evaluation per knot
        assert all(n <= 4 * len(g) + 4 for (g, _, _, _), n in zip(columns, knots))
