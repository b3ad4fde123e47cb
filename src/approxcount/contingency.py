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
half {0..(P+s)//2} is compressed with ratio k, k^(n-1) <= 1 + epsilon, by
one binary-search scan whose probes all go through one FnOracle; each kept
breakpoint takes the window sum its search probed. Two facts make this
sound:

1. W is exactly symmetric about (P+s)/2 and nondecreasing on its half. On
   the half, W(j) - W(j-1) = g(j) - g(j-s-1) >= 0, because g is exactly
   symmetric and nondecreasing on its own half and j is at least as close
   to P/2 as j-s-1 is. So W can be compressed as it stands; the binary
   searches still check each probe against the probes around it.
2. G(j) - G(j-s-1) is an exact sum of s+1 values of one approximation, so
   if g is within ratio K of fills_{i-1}, W is within ratio K of fills_i and
   its compression within ratio k*K. The approximate path never forms the
   difference of two approximations, which has no such rule.

After column n the last compressed function is queried at R; it is within
k^(n-1) <= 1 + epsilon of fills_n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter
from typing import Callable

from .errors import InvalidInput, MonotonicityViolation
from .oracles import Contingency2Instance
from .stagewise import RunReport
from .stepfunc import (
    ApproxRatio,
    Direction,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_nondecreasing,
    to_fraction,
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


def compress_contingency(phi: FnOracle, k: ApproxRatio, pivot: int) -> SymmetricUnimodal:
    """Compress a symmetric unimodal function to ratio k.

    ``phi`` is an oracle defined at least on {0..pivot//2} and nondecreasing
    there (the half of a function with the symmetric unimodal structure); it
    is searched directly, so its tally counts every evaluation. The result
    reflects the compressed half, so it stays within ratio k of phi
    everywhere on {0..pivot} and is 0 outside; compressing an
    L-approximation therefore yields a k*L-approximation of the original.
    """
    if pivot < 0:
        raise InvalidInput("pivot must be nonnegative")
    try:
        half = apx_set_nondecreasing(phi, IntInterval(0, pivot // 2), k, below=0)
    except MonotonicityViolation as exc:
        raise InvalidInput(f"not nondecreasing up to the midpoint: {exc}") from exc
    return SymmetricUnimodal(half=half, pivot=pivot)


def fptas_contingency2(inst: Contingency2Instance, epsilon) -> RunReport:
    started = perf_counter()
    eps = to_fraction(epsilon)
    if eps <= 0:
        raise InvalidInput("epsilon must be positive")
    s = inst.col_sums
    target = inst.pivot_sum
    funcs: list[SymmetricUnimodal] = []
    calls = 0
    chain = 0
    if target == 0 or len(s) == 1:
        count = 1 if target <= s[0] else 0
    else:
        chain = len(s) - 1
        ratio = ApproxRatio.for_stages(eps, chain)
        h = s[0] // 2
        ends = (0, h) if h else (0,)
        first = StepFunction(IntInterval(0, h), Direction.NONDECREASING, ends, (1,) * len(ends))
        g = SymmetricUnimodal(half=first, pivot=s[0])  # column 1, exact: 1 on {0..s_1}
        for si in s[1:]:
            pivot = g.pivot + si
            half_dom = IntInterval(0, pivot // 2)
            oracle = FnOracle(half_dom, Direction.NONDECREASING, window_sum(g, si))
            g = compress_contingency(oracle, ratio, pivot)
            calls += oracle.calls
            funcs.append(g)
        count = g.query(target)
    return RunReport(
        count=count,
        epsilon=eps,
        oracle_calls=calls,
        per_stage_set_sizes=[len(su.half) for su in funcs],
        elapsed=perf_counter() - started,
        chain_length=chain,
        stage_functions=funcs,
    )
