"""Approximate counting of 2-row contingency tables with prescribed margins.

The exact count is fills_n(R): the number of ways to give the first row
cell values 0 <= x_l <= s_l summing to R = min(row sums); the second row is
then forced. Column by column, fills_i(j) = sum of fills_{i-1}(j - v) over
0 <= v <= s_i, with fills_1 = 1 on {0..s_1}. Complementing every cell
bijects sums j onto sums P_i - j with P_i = s_1 + ... + s_i, so fills_i is
symmetric around P_i/2, unimodal, and zero outside {0..P_i}. A column is
therefore kept as its nonincreasing upper half only, on {P_i - P_i//2..P_i},
a plain :class:`~approxcount.stepfunc.StepFunction`
(:func:`compress_contingency`), and the stage carries the pivot. The half's
value above its domain is not the column's: only :func:`window_sum` reads
the column past the half, from the half and the pivot.

The recurrence sums the same cells in any column order, so the guarantee
holds in any; the columns are taken largest first (:func:`by_size`), which
narrows the windows below, and s_i and P_i follow that order. The count
fills_n(R) = fills_n(P_n - R) is read at P_n - R. Column i is read only at
P_n - R minus the cells of the later columns, so at {P_i - R..P_n - R},
directly or mirrored: a point below P_i - P_i//2 mirrors onto P_i minus it,
which is at most R <= P_n - R. So its half is kept only on the window
{max(P_i - R, P_i - P_i//2)..min(P_i, P_n - R)}, with no value below it.
Column n's window is {P_n - R}, where the count is read.

:func:`fptas_contingency2` compresses once per column, one stage
(P_{i-1}, s_i, window) each. With g the previous compressed column (column
1 is exact), P = P_{i-1} its pivot and s = s_i, the window sum W(j) = g(j)
+ ... + g(j - s) is evaluated exactly as G(j) - G(j - s - 1), G the prefix
sum over one list of g's pieces on Z, its half and, when the half reaches
P - P//2, its mirror image (:func:`window_sum`). W on column i's window is
compressed with ratio k by a walk over W's linear pieces
(:func:`compress_contingency`): W's oracle is evaluated only at its knots,
the oracle's ``starts``, and each kept breakpoint is found by one exact
floor division on its piece. A one-point window, such as column n's, is
one evaluation and merges nothing, so k^m <= 1 + epsilon with m the number
of windows of more than one point. Four facts make this sound:

1. W is exactly symmetric about (P+s)/2 and nonincreasing on its upper
   half. There, W(j) - W(j-1) = g(j) - g(j-s-1) <= 0, because g is exactly
   symmetric and nonincreasing on its own upper half and j is at least as
   far from P/2 as j-s-1 is. So W can be compressed as it stands; the walk
   still checks that the knot values are nonincreasing, and a rise is an
   internal MonotonicityViolation, not bad input.
2. G(j) - G(j-s-1) is an exact sum of s+1 values of one approximation, so
   if g is within ratio K of fills_{i-1}, W is within ratio K of fills_i and
   its compression within ratio k*K. The approximate path never forms the
   difference of two approximations, which has no such rule.
3. Every point W reads on column i's window lies in g's window, mirrored
   onto it, or outside {0..P} when g's window ends at P, since it is
   P_n - R minus the cells of columns i-1..n; so the part of g below its
   list cancels in G(j) - G(j-s-1).
4. W is linear, with an integer slope, between consecutive knots: the
   window's ends, each end e of a piece of g's list inside it and each
   e + s + 1 inside it, O(len(g)) points (:func:`window_sum`). The walk
   runs up W from the window's low end, where W is largest, so it keeps
   exactly the breakpoints, with exactly the values, that
   :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps there, at
   O(len(g)) evaluations per column whatever the cell sizes; the walk
   checks that every slope between knots is an integer.

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
from .stepfunc import ApproxRatio, FnOracle, IntInterval, StepFunction, apx_set_linear


def window_sum(half: StepFunction, pivot: int, width: int, window: IntInterval) -> FnOracle:
    """Exact oracle on ``window``, a window of the upper half
    {pivot+width - (pivot+width)//2..pivot+width}, for W(j) = g(j) + g(j-1)
    + ... + g(j-width), where g is the column symmetric about pivot/2 and 0
    outside {0..pivot}, whose nonincreasing upper half is known on the
    window ``half.domain`` {c..d}, inside {pivot - pivot//2..pivot}. Its
    ``starts`` are the knots: the points of ``window`` between which W is
    linear, both ends included.

    g is one list of pieces on Z, the piece ending at ends[i] holding
    vals[i] from ends[i-1]+1: a piece of value 0 ending at c-1, then the
    half's pieces, each breakpoint's value up to the point before the next
    one, and d's. When the half reaches pivot - pivot//2, their mirror
    images pivot-e-1, in reverse, come first, from pivot-d, and the piece
    ending at c-1 holds the first value (at an even pivot the piece before
    it can end at c-1 too, which leaves it empty; bisect_left reads the
    first of equal ends). With G its prefix sum, which counts
    from the list's start, W(j) = G(j) - G(j-width-1) is two bisects in one
    closure, one Python frame below ``FnOracle.__call__``; the part of g
    below the list cancels. g is known on the list, below 0 when the list
    starts at 0 and past pivot when it ends there, where reads clamp to the
    last piece; a sum that reads g anywhere else raises InvalidInput. W has
    no value below ``window``.

    g changes value only past the end e of a piece, and W(j) - W(j-1) =
    g(j) - g(j-width-1), so W is linear between consecutive knots: the
    window's ends, each e in it short of its end and each e+width+1 in it,
    O(len(half)) points whatever the cells are.
    """
    c, d = half.domain.lo, half.domain.hi
    if c < pivot - pivot // 2 or d > pivot:
        raise InvalidInput("the half's window must lie inside {pivot - pivot//2..pivot}")
    # G(u) = cum[i] - (ends[i] - u) * vals[i] for i = bisect_left(ends, u)
    ends, vals = [c - 1, *[x - 1 for x in half.xs[1:]], d], [0, *half.values]
    if c == pivot - pivot // 2:
        vs = half.values
        ends = [pivot - d - 1, *[pivot - e - 1 for e in ends[-2:0:-1]], *ends]
        vals = [0, *vs[:0:-1], vs[0], *vals[1:]]
    cum = list(accumulate(map(mul, map(sub, ends[1:], ends), vals[1:]), initial=0))
    first, last = ends[0] + 1, ends[-1]

    def w(j: int) -> int:
        if (first and j - width < first) or (j > last and last != pivot):
            raise InvalidInput(f"the window sum at {j} reads the column outside {first}..{last}")
        t = j - width - 1
        if j > last:  # g is 0 past pivot
            j, t = last, min(t, last)
        i, l = bisect_left(ends, j), bisect_left(ends, t)
        return cum[i] - (ends[i] - j) * vals[i] - cum[l] + (ends[l] - t) * vals[l]

    lo, hi = window.lo, window.hi
    knots = {lo, hi, *[e for e in ends if lo <= e < hi]}
    knots.update([e + width + 1 for e in ends if lo <= e + width + 1 <= hi])
    return FnOracle(window, w, sorted(knots))


def compress_contingency(phi: FnOracle, k: ApproxRatio) -> StepFunction:
    """Compress a window of the nonincreasing upper half of a symmetric
    unimodal function to ratio k.

    ``phi`` is an oracle on the window {lo..hi} that is nonincreasing and
    linear with an integer slope between consecutive knots, its ``starts``,
    which run from lo to hi. It is evaluated once per knot only;
    InvalidInput is raised unless it names such knots with integer slopes
    between them, and MonotonicityViolation if their values increase.

    :func:`~approxcount.stepfunc.apx_set_linear` walks the window's linear
    pieces up from lo and keeps what
    :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps there; a
    one-point window is its one evaluation. The result is the compressed
    window, a StepFunction on {lo..hi} within ratio k of phi there,
    ``phi.below`` below it; compressing an L-approximation therefore yields
    a k*L-approximation of the original. Its value above hi is the value
    at hi, not the column's, which only :func:`window_sum` reads.
    """
    dom, knots = phi.domain, phi.starts
    if not knots or (knots[0], knots[-1]) != (dom.lo, dom.hi):
        raise InvalidInput("the oracle's knots must run from one end of its window to the other")
    ws = list(map(phi.__call__, knots))
    return apx_set_linear(knots, ws, k, below=phi.below)


def by_size(col_sums: tuple[int, ...]) -> list[int]:
    """The column order: largest sum first."""
    return sorted(col_sums, reverse=True)


def fptas_contingency2(inst: Contingency2Instance, epsilon) -> RunReport:
    s, target = by_size(inst.col_sums), inst.pivot_sum
    pivots = list(accumulate(s))
    # column i is read only at P_n - R minus the later cells, on its half or mirrored
    query = pivots[-1] - target
    windows = [IntInterval(max(p - target, p - p // 2), min(p, query)) for p in pivots]
    lo, hi = windows[0].lo, windows[0].hi
    # column 1, exact: its half is 1 on its window
    ends = (lo, hi) if lo < hi else (lo,)
    first = StepFunction(ends, (1,) * len(ends), None)
    stages = list(zip(pivots, s[1:], windows[1:])) if target else []
    return run_stages(first, stages, epsilon, window_sum, compress_contingency)
