"""Approximate counting of 2-row contingency tables with prescribed margins.

The exact count is fills_n(R): the number of ways to give the first row
cell values 0 <= x_l <= s_l summing to R = min(row sums); the second row is
then forced. Column by column, fills_i(j) = sum of fills_{i-1}(j - v) over
0 <= v <= s_i, with fills_1 = 1 on {0..s_1}. Complementing every cell
bijects sums j onto sums P_i - j with P_i = s_1 + ... + s_i, so fills_i is
symmetric around P_i/2, unimodal, and zero outside {0..P_i}. Such a function
is stored as its nondecreasing half plus the pivot (:class:`SymmetricUnimodal`)
and compressed on the half only (:func:`compress_contingency`).

:func:`fptas_contingency2` compresses once per column. With g the previous
compressed column (column 1 is exact), P its pivot and s = s_i, the window
sum W(j) = g(j) + ... + g(j - s) is evaluated exactly as G(j) - G(j - s - 1),
G the prefix sum of g over its explicit pieces (:func:`window_sum`), and W's
half {0..(P+s)//2} is compressed with ratio k, k^(n-1) <= 1 + epsilon, by a
walk over W's linear pieces: W is evaluated through one FnOracle at the
knots of :func:`window_knots` only, and each kept breakpoint is found by one
exact ceiling division on its piece. Three facts make this sound:

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
   values, that a binary search of W for the same predicate keeps, at
   O(len(g)) evaluations per column whatever the cell sizes; the walk
   checks that every slope between knots is an integer.

Each column is one step of :func:`~approxcount.stagewise.run_stages`, the
stage loop every counter shares, which also caps the breakpoints kept over
all columns. After column n the last compressed function is queried at R;
it is within k^(n-1) <= 1 + epsilon of fills_n. With one column, or R = 0,
no column is compressed and column 1 is queried exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


@dataclass(frozen=True)
class SymmetricUnimodal:
    """Symmetric unimodal step function stored as its nondecreasing half.

    ``half`` covers {0..pivot//2}; queries past the midpoint return the
    mirror value, queries outside {0..pivot} return 0.
    """

    half: StepFunction
    pivot: int

    def __post_init__(self):
        if self.pivot < 0:
            raise InvalidInput("pivot must be nonnegative")
        if self.half.domain.lo != 0 or self.half.domain.hi != self.pivot // 2:
            raise InvalidInput("half must cover exactly {0..pivot//2}")
        if self.half.direction is not Direction.NONDECREASING:
            raise InvalidInput("half must be nondecreasing")

    def __len__(self) -> int:
        """The number of the half's breakpoints."""
        return len(self.half)

    def query(self, j: int) -> int:
        if j < 0 or j > self.pivot:
            return 0
        if j <= self.pivot // 2:
            return self.half.query(j)
        return self.half.query(self.pivot - j)


def window_sum(g: SymmetricUnimodal, width: int) -> Callable[[int], int]:
    """Exact oracle for j -> g(j) + g(j-1) + ... + g(j-width).

    The sum is G(j) - G(j-width-1) for the prefix sum G(j) = g(0) + ... +
    g(j). G comes from the half's prefix sum H, a cumulative sum per piece
    plus one bisect per query: G(j) = H(j) up to the midpoint h, and past it,
    by symmetry, G(j) = G(pivot) - H(pivot-j-1).
    """
    xs, vals = g.half.xs, g.half.values
    # cum[i] = H(xs[i]); the piece ending at xs[i] holds vals[i] from xs[i-1]+1.
    pieces = (v * (b - a) for a, b, v in zip(xs, xs[1:], vals[1:]))
    cum = list(accumulate(pieces, initial=vals[0]))
    pivot, h = g.pivot, g.pivot // 2

    def prefix_half(t: int) -> int:
        if t < 0:
            return 0
        i = bisect_left(xs, t)
        return cum[i] - (xs[i] - t) * vals[i]

    total = prefix_half(h) + prefix_half(pivot - h - 1)

    def prefix(j: int) -> int:
        return prefix_half(j) if j <= h else total - prefix_half(pivot - j - 1)

    return lambda j: prefix(j) - prefix(j - width - 1)


def window_knots(g: SymmetricUnimodal, width: int) -> list[int]:
    """The points of W's half {0..(pivot+width)//2} between which the window
    sum W of :func:`window_sum` is linear, both ends included.

    W(j) - W(j-1) = g(j) - g(j-width-1), and on all of Z g changes value only
    at the points c of C = {0, pivot+1, x+1 and pivot-x for each half
    breakpoint x}; the last half breakpoint, pivot//2, covers the midpoint.
    So W's slope changes only where j or j-width-1 is in C, and W is linear
    between consecutive points c-1, c in C or in C+width+1. That is
    O(len(g.half)) points, whatever the cells are.
    """
    pivot, top = g.pivot, (g.pivot + width) // 2
    xs = g.half.xs
    changes = [0, pivot + 1, *[x + 1 for x in xs], *[pivot - x for x in xs]]
    knots = {0, top}
    knots.update([c - 1 for c in changes if 0 < c <= top + 1])
    knots.update([c + width for c in changes if c + width <= top])
    return sorted(knots)


def compress_contingency(
    phi: FnOracle, k: ApproxRatio, pivot: int, knots: Sequence[int]
) -> SymmetricUnimodal:
    """Compress a symmetric unimodal function to ratio k.

    ``phi`` is an oracle on at least {0..pivot//2} that is nondecreasing and
    linear with an integer slope between consecutive ``knots``, which run
    from 0 to pivot//2. It is evaluated once per knot only; InvalidInput is
    raised unless the knot values are nondecreasing with integer slopes.

    :func:`~approxcount.stepfunc.apx_set_linear` walks the half's linear
    pieces down from the midpoint, with one exact ceiling division per kept
    point, and keeps the points and values that
    :func:`~approxcount.stepfunc.apx_set_nondecreasing` keeps. The result
    reflects the compressed half, so it stays within ratio k of phi
    everywhere on {0..pivot} and is 0 outside; compressing an
    L-approximation therefore yields a k*L-approximation of the original.
    """
    if pivot < 0:
        raise InvalidInput("pivot must be nonnegative")
    top = pivot // 2
    if not knots or knots[0] != 0 or knots[-1] != top:
        raise InvalidInput("knots must run from 0 to the midpoint")
    ws = [phi(t) for t in knots]
    half = apx_set_linear(knots, ws, Direction.NONDECREASING, k, below=0)
    return SymmetricUnimodal(half=half, pivot=pivot)


def _column(g: SymmetricUnimodal, s: int, ratio: ApproxRatio):
    """One column of the stage loop: compress the window sum of width s."""
    pivot = g.pivot + s
    oracle = FnOracle(IntInterval(0, pivot // 2), Direction.NONDECREASING, window_sum(g, s))
    return oracle, compress_contingency(oracle, ratio, pivot, window_knots(g, s)), None


def fptas_contingency2(inst: Contingency2Instance, epsilon) -> RunReport:
    s, target = inst.col_sums, inst.pivot_sum
    h = s[0] // 2
    ends = (0, h) if h else (0,)
    half = StepFunction(IntInterval(0, h), Direction.NONDECREASING, ends, (1,) * len(ends))
    first = SymmetricUnimodal(half=half, pivot=s[0])  # column 1, exact: 1 on {0..s_1}
    return run_stages(first, s[1:] if target else (), epsilon, target, _column)
