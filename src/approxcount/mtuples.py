"""Approximate counting of m-tuples whose elements sum to at least a bound.

Exact counting multiplies set sizes through a convolution-like recurrence and
is pseudo-polynomial in the bound B. Both counters start from tuples_0, the
one constant row EMPTY_TUPLE_ROW, and replace each exact stage by a
compressed step function with per-stage ratio k, k^m <= 1+epsilon, where a
one-point stage is exact and does not count in m:

* :func:`fptas_mtuples` compresses over the numeric domain {0..B} directly,
  so its work grows with log B;
* :func:`strong_fptas_mtuples` compresses stage i only on its reachable window
  {max(0, B - later maxima)..max(0, B - later minima)}, the later maxima and
  minima being the sums of the maxima and minima of the sets after set i, so
  the last stage is {B}. Stage 1 reads tuples_0, known everywhere; stage i+1
  reads j - s for its elements s, which from its window land in window i or
  below 0, where the count is exactly the product of the set sizes so far; a
  window that starts above 0 has no value below it, and a read there raises.
  Inside the window a stage is evaluated only at its candidate change points,
  both window ends and the starts of its piece table between them, which cover
  every change by construction (:func:`~approxcount.incpoints.convert` reads
  them off the stage's oracle), so the work is independent of the magnitude of
  B. The window's low end keeps its exact value, so the count need not equal
  the plain one. :func:`~approxcount.knapsack.strong_fptas_knapsack` is this
  counter on the items a knapsack subset leaves out.

Both return the same two-sided guarantee: exact <= count <= (1+epsilon)*exact.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .incpoints import convert
from .oracles import MTuplesInstance
from .stagewise import RunReport, run_stages
from .stepfunc import IntInterval, StepFunction, apx_set_nonincreasing, shifted_sum


# tuples_0: the empty tuple's sum 0 is at least j exactly when j <= 0, for every bound
EMPTY_TUPLE_ROW = StepFunction((0, 1), (1, 0), 1)


def sums_after(values: Sequence[int]) -> list[int]:
    """For each value, the sum of the values after it."""
    return list(accumulate(reversed(values), initial=0))[-2::-1]


def fptas_mtuples(inst: MTuplesInstance, epsilon) -> RunReport:
    """Stagewise compression over the numeric domain {0..bound}."""
    full = IntInterval(0, inst.bound)
    stages = [(s, full) for s in inst.sets]
    return run_stages(EMPTY_TUPLE_ROW, stages, epsilon, shifted_sum, apx_set_nonincreasing)


def strong_fptas_mtuples(inst: MTuplesInstance, epsilon) -> RunReport:
    """Stagewise compression over candidate change points of reachable windows.

    Each stage sums the previous compressed function shifted by the new
    set's elements; a nonincreasing copy changes only at its breakpoints,
    so the candidates are the previous breakpoints shifted by each element,
    the starts of the stage's piece table where the sum changes. Stage one
    starts from the empty-tuple row, which steps from 1 to 0 between 0 and
    1, so its candidates are the successors of the first set's elements
    that lie in its window, and the window's ends. Each stage is then
    compressed by :func:`~approxcount.incpoints.convert`, which takes the
    candidates from the sum's ``starts`` in the stage's window.
    """
    b = inst.bound
    highs = sums_after([max(s) for s in inst.sets])
    lows = sums_after([min(s) for s in inst.sets])
    windows = [IntInterval(max(0, b - hi), max(0, b - lo)) for hi, lo in zip(highs, lows)]
    stages = list(zip(inst.sets, windows))
    return run_stages(EMPTY_TUPLE_ROW, stages, epsilon, shifted_sum, convert)
