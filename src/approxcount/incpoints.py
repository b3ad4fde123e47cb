"""Rank-space views of monotone step functions.

The strongly polynomial counters never binary-search a numeric domain
{0..B}. They maintain a short sorted list of *candidate change points*, a
superset of everywhere the current function actually changes; between
consecutive candidates the function is constant. :func:`convert` evaluates
the function once at every candidate, in one batch, and chooses breakpoints
among the candidate ranks {1..r} with one linear scan of those values. The
chosen ranks are mapped back to domain points. Mapping back loses the
certificate for the run of points just before (after) a kept point, so each
kept point is padded with its neighbour on that side:

* nondecreasing functions change upward at candidates, pieces are half-open
  on the right, and pad inserts each point's predecessor;
* nonincreasing functions change downward, pieces are half-open on the left,
  and pad inserts each point's successor (mirror image of the same argument).

The padded points are certified in domain space once phi is exact at every
one of them, so :func:`induce` evaluates phi there and needs no
end-of-domain merging. Oracle cost is O(|inc| + |W|), one evaluation per
candidate and one per point of the padded set W. It never depends on the
width of the numeric domain; that is the whole point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput, MonotonicityViolation
from .stepfunc import (
    ApproxRatio,
    Direction,
    FnOracle,
    IntInterval,
    StepFunction,
    induce,
)


@dataclass(frozen=True)
class IncIndex:
    """Sorted candidate change points of a monotone function over a domain.

    Positionally indexed: rank j (1-based) maps to ``points[j-1]`` in O(1).
    Soundness requirement on the caller: every point where the underlying
    function actually changes must be present. Extra points are harmless.
    """

    points: tuple[int, ...]
    domain: IntInterval

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        pts = self.points
        if not pts or any(a >= b for a, b in zip(pts, pts[1:])):
            raise InvalidInput("candidate points must be strictly increasing")
        if pts[0] != self.domain.lo or pts[-1] != self.domain.hi:
            raise InvalidInput("candidate points must include both domain endpoints")

    @classmethod
    def build(cls, candidates: Iterable[int], domain: IntInterval) -> "IncIndex":
        """Sorted, deduplicated, clipped to the domain, endpoints added."""
        lo, hi = domain.lo, domain.hi
        pts = {p for p in candidates if lo <= p <= hi}
        pts.add(lo)
        pts.add(hi)
        return cls(tuple(sorted(pts)), domain)

    def __len__(self) -> int:
        return len(self.points)


def pad(
    s: Sequence[int], dom: IntInterval, direction: Direction = Direction.NONDECREASING
) -> tuple[int, ...]:
    """Augment each point with its neighbour toward the uncertified side.

    Returns the padded points as a sorted tuple.

    Nondecreasing: predecessors of every point except the first.
    Nonincreasing: successors of every point except the last.
    Result is clipped to the domain and deduplicated; at most doubles the
    input size (|pad(s)| <= 2|s| - 1).
    """
    pts = list(s)
    if not pts or any(a >= b for a, b in zip(pts, pts[1:])):
        raise InvalidInput("pad expects a strictly increasing sequence")
    if pts[0] != dom.lo or pts[-1] != dom.hi:
        raise InvalidInput("pad expects both domain endpoints present")
    out = set(pts)
    if direction is Direction.NONDECREASING:
        out.update(x - 1 for x in pts[1:])
    else:
        out.update(x + 1 for x in pts[:-1])
    lo, hi = dom.lo, dom.hi
    return tuple(sorted(p for p in out if lo <= p <= hi))


def _ranks_nondecreasing(v: Sequence[int], num: int, den: int) -> list[int]:
    """The ranks :func:`~approxcount.stepfunc.apx_set_nondecreasing` keeps on v.

    From the top rank x, y is the smallest rank <= x with num*v[y] >= den*v[x],
    and the next x is min(x-1, y). The predicate is monotone in y, so walking
    down from x finds the y the binary search finds; each walk ends where the
    next one starts, so the whole scan is linear. Ranks are 0-based here.
    """
    x = len(v) - 1
    kept = [x]
    while x > 0:
        bar = den * v[x]
        y = x
        while y > 0 and num * v[y - 1] >= bar:
            y -= 1
        x = min(x - 1, y)
        kept.append(x)
    kept.reverse()
    return kept


def _ranks_nonincreasing(v: Sequence[int], num: int, den: int) -> list[int]:
    """The ranks :func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps on v.

    From the bottom rank x, stop once num*v[last] >= den*v[x]; otherwise the
    next kept rank is the first y > x with num*v[y] < den*v[x], which exists
    because the last rank is one. Ranks are 0-based here.
    """
    last = len(v) - 1
    end = num * v[last]
    kept = [0]
    x = 0
    while x < last:
        bar = den * v[x]
        if end >= bar:
            break
        x += 1
        while num * v[x] >= bar:
            x += 1
        kept.append(x)
    if kept[-1] != last:
        kept.append(last)
    return kept


def convert(
    phi: FnOracle,
    inc: IncIndex,
    k: ApproxRatio,
    *,
    below: int | None = None,
    above: int | None = None,
) -> StepFunction:
    """Compress phi by way of its candidate ranks: evaluate, then scan.

    Evaluates phi at every candidate in one :meth:`FnOracle.values_at` batch,
    checks the whole list against phi's declared direction, and chooses the
    ranks the direction-appropriate binary search would choose over
    {1..len(inc)}, by one linear scan of the values. Returns the function
    phi induces on the padded points. Total oracle cost is O(|inc| + |W|).
    """
    dom = inc.domain
    if dom.lo not in phi.domain or dom.hi not in phi.domain:
        raise InvalidInput("candidate index leaves the oracle's domain")
    pts = inc.points
    v = phi.values_at(pts)
    if phi.direction is Direction.NONDECREASING:
        ordered, scan = operator.le, _ranks_nondecreasing
    else:
        ordered, scan = operator.ge, _ranks_nonincreasing
    if not all(map(ordered, v, v[1:])):
        raise MonotonicityViolation(
            f"candidate values contradict declared {phi.direction.value} direction"
        )
    ranks = scan(v, k.k.numerator, k.k.denominator)
    return induce(phi, pad([pts[j] for j in ranks], dom, phi.direction), below=below, above=above)
