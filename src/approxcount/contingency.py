"""Approximate counting of 2-row contingency tables with prescribed margins.

The exact count is fills_n(R): the number of ways to give the first row
cell values 0 <= x_l <= s_l summing to R = min(row sums); the second row is
then forced. Column by column, fills_i(j) = sum of fills_{i-1}(j - v) over
0 <= v <= s_i, with fills_1 = 1 on {0..s_1}. Complementing every cell
bijects sums j onto sums P_i - j with P_i = s_1 + ... + s_i, so fills_i is
symmetric around P_i/2, unimodal, and zero outside {0..P_i}. A column is
therefore kept as its nondecreasing half only, a plain
:class:`~approxcount.stepfunc.StepFunction` on {0..P_i//2} that is 0 below 0
(:func:`compress_contingency`), and the stage carries P_i. The half's value
above its domain is not the column's: only :func:`window_sum` and
:func:`window_knots` read the mirror, from the half and P_i. The count is
read at R <= P_n//2, inside the last half.

:func:`fptas_contingency2` compresses once per column, one stage (s_i, P_i)
each. With g the previous compressed column (column 1 is exact), P its pivot
and s = s_i, the window sum W(j) = g(j) + ... + g(j - s) is evaluated
exactly as G(j) - G(j - s - 1), G the prefix sum of g over its explicit
pieces (:func:`window_sum`), and W's half {0..(P+s)//2} is compressed with
ratio k, k^(n-1) <= 1 + epsilon, by a walk over W's linear pieces: W is
evaluated through one FnOracle at the knots of :func:`window_knots` only,
and each kept breakpoint is found by one exact floor division on its
piece. Three facts make this sound:

1. W is exactly symmetric about (P+s)/2 and nondecreasing on its half. On
   the half, W(j) - W(j-1) = g(j) - g(j-s-1) >= 0, because g is exactly
   symmetric and nondecreasing on its own half and j is at least as close
   to P/2 as j-s-1 is. So W can be compressed as it stands; the walk still
   checks that the knot values are nondecreasing.
2. G(j) - G(j-s-1) is an exact sum of s+1 values of one approximation, so
   if g is within ratio K of fills_{i-1}, W is within ratio K of fills_i and
   its compression within ratio k*K. The approximate path never forms the
   difference of two approximations, which has no such rule.
3. W is linear, with an integer slope, between consecutive knots. Its slope
   W(j) - W(j-1) = g(j) - g(j-s-1) changes only where g changes at j or at
   j-s-1, and g, a step function reflected about P/2, changes at O(len(g))
   points. So the walk keeps exactly the breakpoints, with exactly the
   values, that :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps
   on W's mirror image j -> W(-j) (a merged low end holds the value of the
   kept point above it), at O(len(g)) evaluations per column whatever the
   cell sizes; the walk checks that every slope between knots is an integer.

Each column is one step of :func:`~approxcount.stagewise.run_stages`, the
stage loop every counter shares, which also caps the breakpoints kept over
all columns. After column n the last compressed half is queried at R;
it is within k^(n-1) <= 1 + epsilon of fills_n. With one column, or R = 0,
no column is compressed and column 1 is queried exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Sequence

from .errors import InvalidInput
from .oracles import Contingency2Instance
from .stagewise import RunReport, run_stages
from .stepfunc import (
    ApproxRatio,
    Direction,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_linear,
)


def window_sum(half: StepFunction, pivot: int, width: int) -> Callable[[int], int]:
    """Exact oracle for j -> g(j) + g(j-1) + ... + g(j-width), where g is the
    column symmetric about pivot/2 whose nondecreasing half on {0..pivot//2}
    is ``half``, and 0 outside {0..pivot}.

    The sum is G(j) - G(j-width-1) for the prefix sum G(j) = g(0) + ... +
    g(j). G comes from the half's prefix sum H, a cumulative sum per piece
    plus one bisect per query: G(j) = H(j) up to the midpoint h, and past it,
    by symmetry, G(j) = G(pivot) - H(pivot-j-1).
    """
    if half.domain != IntInterval(0, pivot // 2):
        raise InvalidInput("the half must cover exactly {0..pivot//2}")
    xs, vals = half.xs, half.values
    # cum[i] = H(xs[i]); the piece ending at xs[i] holds vals[i] from xs[i-1]+1.
    pieces = (v * (b - a) for a, b, v in zip(xs, xs[1:], vals[1:]))
    cum = list(accumulate(pieces, initial=vals[0]))
    h = pivot // 2

    def prefix_half(t: int) -> int:
        if t < 0:
            return 0
        i = bisect_left(xs, t)
        return cum[i] - (xs[i] - t) * vals[i]

    total = prefix_half(h) + prefix_half(pivot - h - 1)

    def prefix(j: int) -> int:
        return prefix_half(j) if j <= h else total - prefix_half(pivot - j - 1)

    return lambda j: prefix(j) - prefix(j - width - 1)


def window_knots(half: StepFunction, pivot: int, width: int) -> list[int]:
    """The points of W's half {0..(pivot+width)//2} between which the window
    sum W of :func:`window_sum` is linear, both ends included.

    W(j) - W(j-1) = g(j) - g(j-width-1), and on all of Z g changes value only
    at the points c of C = {0, pivot+1, x+1 and pivot-x for each half
    breakpoint x}; the last half breakpoint, pivot//2, covers the midpoint.
    So W's slope changes only where j or j-width-1 is in C, and W is linear
    between consecutive points c-1, c in C or in C+width+1. That is
    O(len(half)) points, whatever the cells are.
    """
    top = (pivot + width) // 2
    xs = half.xs
    changes = [0, pivot + 1, *[x + 1 for x in xs], *[pivot - x for x in xs]]
    knots = {0, top}
    knots.update([c - 1 for c in changes if 0 < c <= top + 1])
    knots.update([c + width for c in changes if c + width <= top])
    return sorted(knots)


def compress_contingency(phi: FnOracle, k: ApproxRatio, knots: Sequence[int]) -> StepFunction:
    """Compress the nondecreasing half of a symmetric unimodal function to ratio k.

    ``phi`` is an oracle on the half {0..h} that is nondecreasing and linear
    with an integer slope between consecutive ``knots``, which run from 0 to
    h. It is evaluated once per knot only; InvalidInput is raised unless the
    knot values are nondecreasing with integer slopes.

    :func:`~approxcount.stepfunc.apx_set_linear` walks the half's linear
    pieces down from the midpoint and keeps what
    :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps on its mirror
    image. The result is the compressed half, a StepFunction on
    {0..h} within ratio k of phi there and 0 below 0; compressing an
    L-approximation therefore yields a k*L-approximation of the original.
    Its value above h is the value at h, not the mirrored one, which only
    :func:`window_sum` reads.
    """
    dom = phi.domain
    if dom.lo != 0 or not knots or (knots[0], knots[-1]) != (0, dom.hi):
        raise InvalidInput("knots must run from 0 to the end of the half")
    ws = [phi(t) for t in knots]
    return apx_set_linear(knots, ws, Direction.NONDECREASING, k, below=0)


def _column(half: StepFunction, stage: tuple[int, int], ratio: ApproxRatio):
    """One column of the stage loop, ``stage = (s, pivot)``: compress the half
    of the window sum of width s over the previous column, whose pivot is
    pivot - s.
    """
    s, pivot = stage
    w = window_sum(half, pivot - s, s)
    oracle = FnOracle(IntInterval(0, pivot // 2), Direction.NONDECREASING, w)
    return oracle, compress_contingency(oracle, ratio, window_knots(half, pivot - s, s)), None


def fptas_contingency2(inst: Contingency2Instance, epsilon) -> RunReport:
    s, target = inst.col_sums, inst.pivot_sum
    h = s[0] // 2
    ends = (0, h) if h else (0,)
    # column 1, exact: its half is 1 on {0..s_1//2}
    first = StepFunction(IntInterval(0, h), Direction.NONDECREASING, ends, (1,) * len(ends))
    stages = list(zip(s[1:], list(accumulate(s))[1:])) if target else []
    return run_stages(first, stages, epsilon, target, _column)
