"""Candidate change points: compressing a step function known to change
only at listed points.

The strongly polynomial counters never binary-search a numeric domain
{0..B}. Each stage keeps a sorted list of *candidate change points*, a
superset of everywhere the stage function actually changes (an
:class:`IncIndex`); between consecutive candidates the function is constant.
:func:`convert` then compresses it in three steps:

1. :func:`~approxcount.stepfunc.induce` evaluates the function once at every
   candidate and checks that the values are monotone;
2. :func:`pad` adds c-1 beside every candidate c. The function is constant
   from the previous candidate up to c-1 and steps only from c-1 to c, so
   it is linear with an integer slope between consecutive padded points,
   and c-1 takes the previous candidate's value without an evaluation;
3. :func:`~approxcount.stepfunc.apx_set_linear` walks those pieces.

The candidates are the oracle's ``starts`` in its domain, so :func:`convert`
is ``compress(oracle, ratio)`` like every compressor, and returns what
:func:`~approxcount.stepfunc.apx_set_nonincreasing` keeps over that domain,
with the oracle's ``below`` under it. Strong m-tuples, and strong knapsack
through it, is the only user: each stage's sum names its piece starts. The
shared stage loop (:mod:`~approxcount.stagewise`) imports nothing from here.
Oracle cost is one evaluation per candidate and never depends on the
width of the numeric domain; that is the whole point.
"""

from __future__ import annotations

from operator import lt
from typing import Iterable, Sequence

from .errors import InvalidInput
from .record import Record
from .stepfunc import ApproxRatio, FnOracle, IntInterval, StepFunction, apx_set_linear, induce


class IncIndex(Record):
    """Sorted candidate change points of a monotone function; its ends are
    the ends of the domain it is compressed on.

    Soundness requirement on the caller: every point where the underlying
    function actually changes must be present. Extra points are harmless.
    """

    __slots__ = ("points",)

    def __init__(self, points: Sequence[int]):
        self.points = tuple(points)
        pts = self.points
        if not pts or not all(map(lt, pts, pts[1:])):
            raise InvalidInput("candidate points must be strictly increasing")

    @classmethod
    def build(cls, candidates: Iterable[int], domain: IntInterval) -> "IncIndex":
        """Sorted, deduplicated, clipped to the domain, endpoints added.

        Sorting takes linear time when the candidates arrive sorted, as a
        piece table's starts do.
        """
        lo, hi = domain.lo, domain.hi
        inner = sorted(p for p in candidates if lo < p < hi)
        return cls(tuple(dict.fromkeys([lo, *inner, hi])))

    def __len__(self) -> int:
        return len(self.points)


def pad(points: Sequence[int]) -> tuple[int, ...]:
    """The points with the predecessor of every point but the first.

    The result stays within the points' ends. Returns a sorted tuple
    without duplicates, at most doubling the input size
    (|pad(points)| <= 2|points| - 1).
    """
    pts = list(points)
    if not pts or not all(map(lt, pts, pts[1:])):
        raise InvalidInput("pad expects a strictly increasing sequence")
    merged = sorted(pts + [x - 1 for x in pts[1:]])  # a linear merge of two sorted runs
    return tuple(dict.fromkeys(merged))


def convert(phi: FnOracle, k: ApproxRatio) -> StepFunction:
    """Compress phi, constant between its ``starts``, to ratio k.

    Returns the step function of :func:`~approxcount.stepfunc.apx_set_linear`
    over phi.domain, ``phi.below`` below it, at one evaluation of phi per
    candidate of the :class:`IncIndex` of its starts there. InvalidInput is
    raised when phi names no starts.
    """
    if phi.starts is None:
        raise InvalidInput("the oracle names no starts to take as candidate change points")
    exact = induce(phi, IncIndex.build(phi.starts, phi.domain).points)
    pts, vals = exact.xs, exact.values
    at = dict(zip([c - 1 for c in pts[1:]], vals))  # c-1 holds the previous candidate's value
    at.update(zip(pts, vals))
    knots = pad(pts)
    return apx_set_linear(knots, [at[t] for t in knots], k, below=phi.below)
