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

The recursion behind :func:`fptas_contingency2` splits each column's cell
value by binary digits. A state (column i, level, tight) covers the low
``level`` bits of the cell value; ``tight`` means the higher bits matched
s_i exactly so the cap s_i mod 2^level still binds, while free states have
cap 2^level - 1. Column entry dispatches on j vs s_i (the cap cannot bind
while j < s_i). Every reachable state is materialized lazily, once, as a
compressed SymmetricUnimodal whose right-hand side queries previously
compressed states; the per-compression ratio is chosen so that the product
along the longest dependency chain stays within 1 + epsilon.

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
from .oracles import NEG_INF, Contingency2Instance, msb
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
    n = len(s)
    target = inst.pivot_sum
    prefix = [0]
    for v in s:
        prefix.append(prefix[-1] + v)

    def finish(count: int, chain: int = 0, oracles=(), rhs_evals: int = 0, funcs=()):
        return RunReport(
            count=count,
            epsilon=eps,
            oracle_calls=sum(o.calls for o in oracles) + rhs_evals,
            per_stage_set_sizes=[len(su.half.xs) for su in funcs],
            elapsed=perf_counter() - started,
            chain_length=chain,
            stage_functions=list(funcs),
        )

    if target == 0:
        return finish(1)
    if n == 1:
        return finish(1 if target <= s[0] else 0)

    def full_level(i: int) -> int:
        return s[i - 1].bit_length()

    def free_top(i: int) -> int:
        return max((s[i - 1] - 1).bit_length(), 1)

    # Longest chain of compressions feeding the answer; fixes the per-step ratio.
    depth_memo: dict[tuple, int] = {}

    def node_depth(i: int, level: int, tight: bool) -> int:
        key = (i, level, tight)
        if key not in depth_memo:
            if level == 1:
                d = 1 + entry_depth(i - 1)
            elif tight:
                lower = msb(s[i - 1], level - 1)
                tail = entry_depth(i - 1) if lower is NEG_INF else node_depth(i, lower, True)
                d = 1 + max(node_depth(i, level - 1, False), tail)
            else:
                d = 1 + node_depth(i, level - 1, False)
            depth_memo[key] = d
        return depth_memo[key]

    def entry_depth(i: int) -> int:
        if i == 1:
            return 0
        return max(node_depth(i, free_top(i), False), node_depth(i, full_level(i), True))

    chain = entry_depth(n)
    ratio = ApproxRatio.for_stages(eps, chain)

    states: dict[tuple, SymmetricUnimodal] = {}
    cuts_memo: dict[int, set[int]] = {}
    compress_oracles: list[FnOracle] = []
    rhs_evals = 0

    def entry_query(i: int, j: int) -> int:
        if j < 0:
            return 0
        if i == 1:
            return 1 if j <= s[0] else 0
        si = s[i - 1]
        if j >= si:
            return state(i, full_level(i), True).query(j)
        return state(i, max(j.bit_length(), 1), False).query(j)

    def entry_cuts(i: int) -> set[int]:
        if i not in cuts_memo:
            if i == 1:
                out = {0, s[0] + 1}
            else:
                si = s[i - 1]
                out = {0, si}
                t = 1
                while (1 << t) < si:
                    out.add(1 << t)
                    t += 1
                for level in range(1, free_top(i) + 1):
                    out |= state(i, level, False).cut_points()
                out |= state(i, full_level(i), True).cut_points()
            cuts_memo[i] = out
        return cuts_memo[i]

    def state(i: int, level: int, tight: bool) -> SymmetricUnimodal:
        key = (i, level, tight)
        if key in states:
            return states[key]
        si = s[i - 1]
        cap = (si % (1 << level)) if tight else ((1 << level) - 1)
        pivot = prefix[i - 1] + cap
        if level == 1:
            base = entry_cuts(i - 1)
            cuts = base | {c + 1 for c in base}

            def rhs(j: int, _i=i) -> int:
                return entry_query(_i - 1, j) + entry_query(_i - 1, j - 1)

        else:
            top = 1 << (level - 1)
            left = state(i, level - 1, False)
            if tight:
                lower = msb(si, level - 1)
                if lower is NEG_INF:
                    right_query = lambda j, _i=i: entry_query(_i - 1, j)  # noqa: E731
                    right_cuts = entry_cuts(i - 1)
                else:
                    right_state = state(i, lower, True)
                    right_query = right_state.query
                    right_cuts = right_state.cut_points()
            else:
                right_query = left.query
                right_cuts = left.cut_points()
            cuts = left.cut_points() | {c + top for c in right_cuts}

            def rhs(j: int, _lq=left.query, _rq=right_query, _top=top) -> int:
                return _lq(j) + _rq(j - _top)

        su = _compress_majorant(rhs, cuts, pivot)
        states[key] = su
        return su

    def _compress_majorant(rhs, cuts: set[int], pivot: int) -> SymmetricUnimodal:
        nonlocal rhs_evals
        half_hi = pivot // 2
        starts = sorted({c for c in cuts if 0 < c <= half_hi} | {0})
        values = []
        best = 0
        for c in starts:
            v = rhs(c)
            rhs_evals += 1
            if v > best:
                best = v
            values.append(best)

        def majorant(j: int, _starts=starts, _values=values) -> int:
            return _values[bisect_right(_starts, j) - 1]

        oracle = FnOracle(IntInterval(0, half_hi), Direction.NONDECREASING, majorant)
        compress_oracles.append(oracle)
        return compress_contingency(oracle, ratio, pivot)

    count = entry_query(n, target)
    return finish(
        count,
        chain=chain,
        oracles=compress_oracles,
        rhs_evals=rhs_evals,
        funcs=list(states.values()),
    )
