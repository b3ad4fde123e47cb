"""Approximate counting of 2-row contingency tables with prescribed margins.

The exact count is fills_n(R): the number of ways to give the first row
cell values 0 <= x_l <= s_l summing to R = min(row sums); the second row is
then forced. Column by column, fills_i(j) = sum of fills_{i-1}(j - v) over
0 <= v <= s_i, with fills_1 = 1 on {0..s_1}. Complementing every cell
bijects sums j onto sums P_i - j with P_i = s_1 + ... + s_i, so fills_i is
symmetric around P_i/2, unimodal, and zero outside {0..P_i}. A column is
therefore kept as its nondecreasing half only, a plain
:class:`~approxcount.stepfunc.StepFunction` (:func:`compress_contingency`),
and the stage carries the pivot. The half's value above its domain is not
the column's: only :func:`window_sum` reads the mirror, from the half and
the pivot.

Column i is read only at R minus the cells of the later columns, so at
{P_i - (P_n - R)..R}, directly or mirrored: a point above P_i//2 mirrors
onto P_i minus it, which is at least P_i - R >= P_i - (P_n - R) because
R <= P_n//2. So its half is kept only on the window
{max(0, P_i - (P_n - R))..min(R, P_i//2)}, 0 below it when the window
starts at 0 and with no value below it otherwise. Column n's window is
{R}, where the count is read.

:func:`fptas_contingency2` compresses once per column, one stage
(P_{i-1}, s_i, window) each. With g the previous compressed column (column
1 is exact), P = P_{i-1} its pivot and s = s_i, the window sum W(j) = g(j)
+ ... + g(j - s) is evaluated exactly as G(j) - G(j - s - 1), G the prefix
sum over one list of g's pieces on Z, its half and, when the half reaches
P//2, its mirror image (:func:`window_sum`). W on column i's window is
compressed with ratio k by a walk over W's linear pieces
(:func:`compress_contingency`): W's oracle is evaluated only at its knots,
the oracle's ``starts``, and each kept breakpoint is found by one exact
floor division on its piece. A one-point window, such as column n's, is
one evaluation and merges nothing, so k^m <= 1 + epsilon with m the number
of windows of more than one point. Four facts make this sound:

1. W is exactly symmetric about (P+s)/2 and nondecreasing on its half. On
   the half, W(j) - W(j-1) = g(j) - g(j-s-1) >= 0, because g is exactly
   symmetric and nondecreasing on its own half and j is at least as close
   to P/2 as j-s-1 is. So W can be compressed as it stands; the walk still
   checks that the knot values are nondecreasing, and a dip is an internal
   MonotonicityViolation, not bad input.
2. G(j) - G(j-s-1) is an exact sum of s+1 values of one approximation, so
   if g is within ratio K of fills_{i-1}, W is within ratio K of fills_i and
   its compression within ratio k*K. The approximate path never forms the
   difference of two approximations, which has no such rule.
3. Every point W reads on column i's window lies in g's window, mirrored
   onto it or below 0, since it is R minus the cells of columns i-1..n; so
   the part of g below its window cancels in G(j) - G(j-s-1).
4. W is linear, with an integer slope, between consecutive knots: the
   window's ends, each end e of a piece of g's list inside it and each
   e + s + 1 inside it, O(len(g)) points (:func:`window_sum`). The walk
   runs up W's mirror image j -> W(-j), so it keeps exactly the
   breakpoints, with exactly the values, that
   :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps there (a
   merged low end holds the value of the kept point above it), at O(len(g))
   evaluations per column whatever the cell sizes; the walk checks that
   every slope between knots is an integer.

Each column is one stage of :func:`~approxcount.stagewise.run_stages`, the
stage loop every counter shares, which builds :func:`window_sum` from the
stage, compresses it, and caps the breakpoints kept over all columns.
Column n's one point is the count, within k^m <= 1 + epsilon of fills_n(R).
With one column, or R = 0, no column is compressed and column 1 is queried
exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import mul, sub

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


def window_sum(half: StepFunction, pivot: int, width: int, window: IntInterval) -> FnOracle:
    """Exact oracle on ``window``, a window of {0..(pivot+width)//2}, for
    W(j) = g(j) + g(j-1) + ... + g(j-width), where g is the column symmetric
    about pivot/2 and 0 outside {0..pivot}, whose nondecreasing half is
    known on the window ``half.domain`` {a..b}, inside {0..pivot//2}. Its
    ``starts`` are the knots: the points of ``window`` between which W is
    linear, both ends included.

    g is one list of pieces on Z, the piece ending at ends[i] holding
    vals[i] from ends[i-1]+1: a piece of value 0 ending at a-1, the half's
    breakpoints and, when the half reaches h = pivot//2, their mirror images
    pivot-e-1 in reverse, up to pivot-a (at an even pivot the first can end
    at h again, an empty piece; bisect_left reads the first of equal ends).
    With G its prefix sum, which counts from a, W(j) = G(j) - G(j-width-1)
    is two bisects in one closure, one Python frame below
    ``FnOracle.__call__``; the part of g below a cancels. g is known on the
    list, below 0 when a = 0 and past pivot when the window is the whole
    half, where reads clamp to the last piece; a sum that reads g anywhere
    else raises InvalidInput. ``below`` is 0 when ``window`` starts at 0,
    where every read is below 0, and None otherwise.

    g changes value only past the end e of a piece, and W(j) - W(j-1) =
    g(j) - g(j-width-1), so W is linear between consecutive knots: the
    window's ends, each e in it short of its end and each e+width+1 in it,
    O(len(half)) points whatever the cells are.
    """
    a, b = half.domain.lo, half.domain.hi
    h = pivot // 2
    if a < 0 or b > h:
        raise InvalidInput("the half's window must lie inside {0..pivot//2}")
    # G(u) = cum[i] - (ends[i] - u) * vals[i] for i = bisect_left(ends, u)
    ends, vals = [a - 1, *half.xs], [0, *half.values]
    if b == h:
        ends += [pivot - e - 1 for e in ends[-2::-1]]
        vals += vals[:0:-1]
    cum = list(accumulate(map(mul, map(sub, ends[1:], ends), vals[1:]), initial=0))
    last, whole = ends[-1], a == 0 and b == h

    def w(j: int) -> int:
        if (a and j - width < a) or (j > last and not whole):
            raise InvalidInput(f"the window sum at {j} reads the column outside {a}..{b}")
        t = j - width - 1
        if j > last:  # g is 0 past pivot
            j, t = last, min(t, last)
        i, l = bisect_left(ends, j), bisect_left(ends, t)
        return cum[i] - (ends[i] - j) * vals[i] - cum[l] + (ends[l] - t) * vals[l]

    lo, hi = window.lo, window.hi
    knots = {lo, hi, *[e for e in ends if lo <= e < hi]}
    knots.update([e + width + 1 for e in ends if lo <= e + width + 1 <= hi])
    return FnOracle(window, Direction.NONDECREASING, w, sorted(knots), 0 if lo == 0 else None)


def compress_contingency(phi: FnOracle, k: ApproxRatio) -> StepFunction:
    """Compress a window of the nondecreasing half of a symmetric unimodal
    function to ratio k.

    ``phi`` is an oracle on the window {lo..hi} that is nondecreasing and
    linear with an integer slope between consecutive knots, its ``starts``,
    which run from lo to hi. It is evaluated once per knot only;
    InvalidInput is raised unless it names such knots with integer slopes
    between them, and MonotonicityViolation if their values decrease.

    :func:`~approxcount.stepfunc.apx_set_linear` walks the linear pieces of
    the window's mirror image up from -hi and keeps what
    :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps there; a
    one-point window is its one evaluation. The result is the
    compressed window, a StepFunction on {lo..hi} within ratio k of phi
    there, ``phi.below`` below it; compressing an L-approximation therefore
    yields a k*L-approximation of the original. Its value above hi is the
    value at hi, not the mirrored one, which only :func:`window_sum` reads.
    """
    dom, knots = phi.domain, phi.starts
    if not knots or (knots[0], knots[-1]) != (dom.lo, dom.hi):
        raise InvalidInput("the oracle's knots must run from one end of its window to the other")
    ws = list(map(phi.__call__, knots))
    return apx_set_linear(knots, ws, Direction.NONDECREASING, k, below=phi.below)


def fptas_contingency2(inst: Contingency2Instance, epsilon) -> RunReport:
    s, target = inst.col_sums, inst.pivot_sum
    pivots = list(accumulate(s))
    # column i is read only at target minus the later cells, on its half or mirrored
    later = pivots[-1] - target
    windows = [IntInterval(max(0, p - later), min(target, p // 2)) for p in pivots]
    lo, hi = windows[0].lo, windows[0].hi
    # column 1, exact: its half is 1 on its window
    ends = (lo, hi) if lo < hi else (lo,)
    below = 0 if lo == 0 else None
    first = StepFunction(Direction.NONDECREASING, ends, (1,) * len(ends), below)
    stages = list(zip(pivots, s[1:], windows[1:])) if target else []
    return run_stages(first, stages, epsilon, window_sum, compress_contingency)
