"""Approximate counting of 2-row contingency tables with prescribed margins.

The exact count is fills_n(R): the number of ways to give the first row
cell values 0 <= x_l <= s_l summing to R = min(row sums); the second row is
then forced. Every function this module manipulates has the shape

    g(j) = sum of fills_{i-1}(j - v) over 0 <= v <= cap

for some column i and cap: complementing every cell (x_l -> s_l - x_l,
v -> cap - v) bijects sums j onto sums pivot - j with pivot = s_1 + ... +
s_{i-1} + cap, so g is symmetric around pivot/2, unimodal, and zero outside
{0..pivot}. Such a function is stored as its nondecreasing half plus the
pivot (:class:`SymmetricUnimodal`) and compressed on the half only
(:func:`compress_contingency`); queries past the midpoint reflect.

The recurrence behind :func:`fptas_contingency2` splits each column's cell
value by binary digits. A state (column i, level, tight) covers the low
``level`` bits of the cell value; ``tight`` means the higher bits matched
s_i exactly so the cap s_i mod 2^level still binds, while free states have
cap 2^level - 1. With column i-1's entry standing in as free level 0,

    free_L(j)  = free_{L-1}(j) + free_{L-1}(j - 2^(L-1))
    tight_L(j) = free_{L-1}(j) + tight_{L'}(j - 2^(L-1))

where L is a set bit of s_i and L' the next lower one (column i-1's entry
when there is none). Column entry dispatches on j vs s_i (the cap cannot
bind while j < s_i): tight at level bit_length(s_i), else free at level
bit_length(j). The states are built bottom-up, column by column, each once:
the free levels in ascending order, then the tight states in ascending
order, each a compressed SymmetricUnimodal whose right-hand side queries
states built before it; the last column builds only what the query at R
reaches. A state at level L of column i sits L compressions above column
i-1's entry, so the longest dependency chain has bit_length(s_2) + ... +
bit_length(s_n) compressions, and the per-compression ratio is chosen so
that its power over that chain stays within 1 + epsilon.

A subtlety: the right-hand side of a state is a sum of two *approximate*
functions with different pivots, which need not itself be monotone on the
half domain. Since the exact function is nondecreasing there, the running
maximum of the right-hand side is still sandwiched between it and
ratio * exact, and that majorant is what gets compressed. The right-hand
side is piecewise constant with change points known in advance (child change
points, shifted, plus the dyadic dispatch boundaries), so the majorant is
materialized exactly with one evaluation per piece.

Nothing on the approximate path subtracts: states compose by addition only,
which is why this formulation is used instead of the subtraction recurrence
(kept in oracles as an exact cross-check only).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

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
    induce,
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

    def cut_points(self) -> set[int]:
        """Superset of every j where query(j) differs from query(j-1)."""
        out = {0, self.pivot // 2 + 1, self.pivot + 1}
        for x in self.half.xs:
            out.update((x, x + 1, self.pivot - x, self.pivot - x + 1))
        return out


def compress_contingency(phi, k: ApproxRatio, pivot: int) -> SymmetricUnimodal:
    """Compress a symmetric unimodal function to ratio k.

    ``phi`` is any callable oracle defined at least on {0..pivot//2} and
    nondecreasing there (the half of a function with the symmetric unimodal
    structure). The result reflects the compressed half, so it stays within
    ratio k of phi everywhere on {0..pivot} and is 0 outside; compressing an
    L-approximation therefore yields a k*L-approximation of the original.
    """
    if pivot < 0:
        raise InvalidInput("pivot must be nonnegative")
    half_dom = IntInterval(0, pivot // 2)
    view = FnOracle(half_dom, Direction.NONDECREASING, phi)
    try:
        chosen = apx_set_nondecreasing(view, half_dom, k)
        half = induce(view, chosen, below=0)
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
        chain = sum(v.bit_length() for v in s[1:])
        ratio = ApproxRatio.for_stages(eps, chain)

        def build(left, right, top: int, pivot: int):
            """Compress the majorant of j -> left(j) + right(j - top).

            ``left`` and ``right`` are (query, cut set) pairs; so is the result.
            """
            nonlocal calls
            (lq, lcuts), (rq, rcuts) = left, right
            half_hi = pivot // 2
            cuts = lcuts | {c + top for c in rcuts}
            starts = sorted({c for c in cuts if 0 < c <= half_hi} | {0})
            values = []
            best = 0
            for c in starts:
                v = lq(c) + rq(c - top)
                if v > best:
                    best = v
                values.append(best)

            def majorant(j: int, _starts=starts, _values=values) -> int:
                return _values[bisect_right(_starts, j) - 1]

            oracle = FnOracle(IntInterval(0, half_hi), Direction.NONDECREASING, majorant)
            su = compress_contingency(oracle, ratio, pivot)
            calls += len(starts) + oracle.calls
            funcs.append(su)
            return su.query, su.cut_points()

        def column(entry, si: int, offset: int, free_top: int, tight_top: int):
            """Build column i's free levels 1..free_top, then its tight states
            at the set bits of s_i up to tight_top; return fills_i as a
            (query, cuts) pair, given fills_{i-1} as ``entry``.
            """
            free = [entry]  # level 0 stands for the previous column's entry
            for level in range(1, free_top + 1):
                free.append(build(free[-1], free[-1], 1 << (level - 1), offset + (1 << level) - 1))
            tight = entry  # below the lowest set bit lies the previous column
            for level in range(1, tight_top + 1):
                if si >> (level - 1) & 1:
                    top = 1 << (level - 1)
                    tight = build(free[level - 1], tight, top, offset + si % (top << 1))
            free_queries = [q for q, _ in free]
            tight_query = tight[0]

            def query(j: int) -> int:
                if j < 0:
                    return 0
                if j >= si:
                    return tight_query(j)
                return free_queries[max(j.bit_length(), 1)](j)

            # Dispatch boundaries (s_i and the powers of two below it) plus
            # the change points of every state the dispatch reads.
            cuts = {0, si} | {1 << t for t in range(1, (si - 1).bit_length())}
            return query, cuts.union(*(c for _, c in free[1:]), tight[1])

        def column_one(j: int) -> int:
            return 1 if 0 <= j <= s[0] else 0

        entry = (column_one, {0, s[0] + 1})
        offset = s[0]
        for si in s[1:-1]:
            entry = column(entry, si, offset, max((si - 1).bit_length(), 1), si.bit_length())
            offset += si
        # The last column builds only the states the query at target reaches.
        sn = s[-1]
        if target >= sn:
            query = column(entry, sn, offset, sn.bit_length() - 1, sn.bit_length())[0]
        else:
            query = column(entry, sn, offset, max(target.bit_length(), 1), 0)[0]
        count = query(target)
    return RunReport(
        count=count,
        epsilon=eps,
        oracle_calls=calls,
        per_stage_set_sizes=[len(su.half.xs) for su in funcs],
        elapsed=perf_counter() - started,
        chain_length=chain,
        stage_functions=funcs,
    )
