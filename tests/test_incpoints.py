"""Candidate change points: IncIndex / pad / convert.

``convert`` evaluates every candidate once and walks the pieces between the
padded candidates; the binary searches of :mod:`approxcount.stepfunc` over
the whole domain stay here as the reference it must match exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxcount.errors import InvalidInput, MonotonicityViolation
from approxcount.incpoints import IncIndex, convert, pad
from approxcount.stepfunc import (
    ApproxRatio,
    FnOracle,
    IntInterval,
    apx_set_nonincreasing,
)

K2 = ApproxRatio.for_stages(Fraction(7), 3)  # k = 2 exactly
HALF = ApproxRatio.for_stages(Fraction(1, 2), 1)


def table_oracle(values, below=None, starts=None):
    """A black box over the table; ``starts``, when given, are the candidates
    convert evaluates it at."""
    dom = IntInterval(0, len(values) - 1)
    starts = None if starts is None else sorted(starts)
    return FnOracle(dom, lambda j: values[j], starts=starts, below=below)


def step_tables(max_len=60, max_value=40):
    """Nonincreasing integer tables with plateaus, as plain lists."""
    return st.lists(
        st.integers(min_value=0, max_value=3), min_size=2, max_size=max_len
    ).map(lambda deltas: [sum(deltas[i:]) for i in range(len(deltas))])


def strict_increase_points(values):
    return {j for j in range(1, len(values)) if values[j] > values[j - 1]}


def strict_decrease_points(values):
    return {j for j in range(1, len(values)) if values[j] < values[j - 1]}


# ---------------------------------------------------------------- IncIndex


def test_build_clips_dedupes_and_adds_endpoints():
    inc = IncIndex.build([12, 3, 3, -5, 99], IntInterval(0, 10))
    assert list(inc.points) == [0, 3, 10]
    with pytest.raises(InvalidInput):
        IncIndex((5, 1))


def test_build_and_pad_a_one_point_window():
    # The last strong stage's window is the query point alone.
    inc = IncIndex.build([9, 5, 5, 4], IntInterval(5, 5))
    assert inc.points == (5,)
    assert pad(inc.points) == (5,)


def test_len_is_rank_count():
    inc = IncIndex.build([0, 4, 9], IntInterval(0, 9))
    assert len(inc) == 3


# ---------------------------------------------------------------- pad


def test_pad_unrolls_definition():
    assert pad([0, 7, 10]) == (0, 6, 7, 9, 10)


def test_pad_collapses_adjacent_duplicates():
    assert pad([0, 1]) == (0, 1)


def test_pad_matches_example_set():
    assert pad([0, 4, 8, 17]) == (0, 3, 4, 7, 8, 16, 17)


@pytest.mark.parametrize("points", [(), (3, 1), (1, 1)], ids=["empty", "falling", "repeated"])
def test_pad_refuses_a_sequence_that_is_not_increasing(points):
    with pytest.raises(InvalidInput):
        pad(points)


@settings(max_examples=80, deadline=None)
@given(
    raw=st.sets(st.integers(min_value=0, max_value=50), min_size=0, max_size=12)
)
def test_pad_at_most_doubles(raw):
    pts = sorted(raw | {0, 50})
    assert len(pad(pts)) <= 2 * len(pts) - 1


# ---------------------------------------------------------------- convert


def test_convert_constant_keeps_three_points():
    # Named when convert padded every kept point with its predecessor (0, 10,
    # 11); it now keeps what the binary search keeps, the two domain ends.
    phi = table_oracle([6] * 12, starts=[0, 11])
    f = convert(phi, HALF)
    assert list(f.xs) == [0, 11]
    assert all(f.query(j) == 6 for j in range(12))


def test_convert_identity_with_full_inc():
    values = list(range(15, -1, -1))
    phi = table_oracle(values, starts=range(16))
    f = convert(phi, K2)
    assert f.xs == (0, 8, 12, 14, 15)  # each the first point past the last with 2*y < last
    for j in range(16):
        assert values[j] <= f.query(j) <= 2 * values[j]


def test_convert_propagates_out_of_domain_fill():
    phi = table_oracle([9, 9, 3, 2], below=12, starts=[0, 2, 3])
    f = convert(phi, K2)
    assert f.query(-3) == 12
    assert f.query(4) == f.query(3) == 3  # the value kept at the high edge


@settings(max_examples=70, deadline=None)
@given(values=step_tables())
def test_convert_sandwich_mirrored(values):
    candidates = {0, len(values) - 1} | strict_decrease_points(values)
    f = convert(table_oracle(values, starts=candidates), HALF)
    for j, exact in enumerate(values):
        assert exact <= f.query(j)
        assert 2 * f.query(j) <= 3 * exact


@settings(max_examples=70, deadline=None)
@given(values=step_tables(), extra=st.sets(st.integers(0, 59), max_size=6))
def test_convert_tolerates_slack_in_inc(values, extra):
    # Inc may be any superset of the strict-change points.
    hi = len(values) - 1
    candidates = {0, hi} | strict_decrease_points(values) | {e for e in extra if e <= hi}
    f = convert(table_oracle(values, starts=candidates), HALF)
    for j, exact in enumerate(values):
        assert exact <= f.query(j)
        assert 2 * f.query(j) <= 3 * exact


@settings(max_examples=60, deadline=None)
@given(values=step_tables())
def test_breakpoints_plus_one_cover_increases_of_induced(values):
    # On the nondecreasing mirror image t -> hi - t of the walked table, a
    # breakpoint x moves to hi - x, and one past it covers every increase.
    hi = len(values) - 1
    candidates = {0, hi} | strict_decrease_points(values)
    f = convert(table_oracle(values, starts=candidates), HALF)
    mirror = [f.query(hi - t) for t in range(hi + 1)]
    shifted = {hi - x + 1 for x in f.xs}
    for j in strict_increase_points(mirror):
        assert j in shifted


@settings(max_examples=60, deadline=None)
@given(a=step_tables(max_len=40), b=step_tables(max_len=40))
def test_sum_increases_exactly_where_either_term_does(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    total = [a[j] + b[j] for j in range(n)]
    assert strict_increase_points(total) == (
        strict_increase_points(a) | strict_increase_points(b)
    )


@pytest.mark.parametrize("k", [K2, HALF], ids=["K2", "HALF"])
@settings(max_examples=60, deadline=None)
@given(values=step_tables(), extra=st.sets(st.integers(0, 59), max_size=8))
def test_convert_scan_matches_binary_search(k, values, extra):
    # convert's reference is the nonincreasing binary search over the whole domain.
    candidates = strict_decrease_points(values) | {e for e in extra if e < len(values)}
    phi = table_oracle(values, below=values[0], starts=candidates)
    assert convert(phi, k) == apx_set_nonincreasing(table_oracle(values, below=values[0]), k)


def test_convert_counts_one_call_per_candidate_and_padded_point():
    # Named when every padded breakpoint was evaluated again; now only the
    # candidates are.
    phi = table_oracle([32, 32, 16, 16, 8, 8, 4, 4, 2, 2, 1], starts=range(0, 11, 2))
    f = convert(phi, K2)
    assert phi.calls == 6  # the candidates 0, 2, ..., 10
    assert [f.query(j) for j in range(11)] == [32, 32, 32, 32, 8, 8, 8, 8, 2, 2, 2]


@pytest.mark.parametrize("shape", ["nondecreasing", "nonincreasing"])
def test_convert_rejects_a_table_that_dips_at_one_rank(shape):
    table = [8] * 12
    if shape == "nonincreasing":
        # The dip is inside one certified piece, so no padded breakpoint sees
        # it; the step function of the candidates refuses it.
        table[6], message = 7, "not monotone"
    else:
        # A rising table is a monotone step function; the walk, which takes
        # only falling ones, refuses its rise.
        table[:6], message = [7] * 6, "not nonincreasing"
    phi = table_oracle(table, starts=range(len(table)))
    with pytest.raises(MonotonicityViolation, match=message):
        convert(phi, HALF)


def test_convert_needs_the_oracles_starts():
    # A black box that names no starts gives convert no candidates.
    phi = FnOracle(IntInterval(0, 3), lambda j: j)
    with pytest.raises(InvalidInput):
        convert(phi, HALF)
    assert phi.calls == 0
