"""Approximate counting of m-tuples whose elements sum to at least a bound.

Exact counting multiplies set sizes through a convolution-like recurrence and
is pseudo-polynomial in the bound B. Both counters below replace each exact
stage by a compressed step function with per-stage ratio k, k^m <= 1+epsilon:

* :func:`fptas_mtuples` compresses over the numeric domain {0..B} directly,
  so its work grows with log B;
* :func:`strong_fptas_mtuples` keeps the same stages, so it returns the same
  count, but evaluates each stage only at its candidate change points (the
  starts of the stage's piece table), so its work is independent of the
  magnitude of B.

Both return the same two-sided guarantee: exact <= count <= (1+epsilon)*exact.
"""

from __future__ import annotations

from functools import partial

from .incpoints import convert
from .oracles import MTuplesInstance
from .stagewise import RunReport, run_stages, sum_stage
from .stepfunc import Direction, IntInterval, StepFunction


def _empty_tuple_row(bound: int) -> StepFunction:
    """tuples_0: the empty tuple has sum 0 >= j exactly when j <= 0."""
    xs = tuple(sorted({0, min(1, bound), bound}))
    return StepFunction(
        domain=IntInterval(0, bound),
        direction=Direction.NONINCREASING,
        xs=xs,
        values=tuple(1 if x <= 0 else 0 for x in xs),
        out_of_domain_low=1,
        out_of_domain_high=0,
    )


def fptas_mtuples(inst: MTuplesInstance, epsilon) -> RunReport:
    """Stagewise compression over the numeric domain {0..bound}."""
    return run_stages(_empty_tuple_row(inst.bound), inst.sets, epsilon, inst.bound, sum_stage)


def strong_fptas_mtuples(inst: MTuplesInstance, epsilon) -> RunReport:
    """Stagewise compression over candidate change points only.

    Each stage sums the previous compressed function shifted by the new
    set's elements; a nonincreasing copy changes only at its breakpoints,
    so the candidates are the previous breakpoints shifted by each element,
    the starts of the stage's piece table. Stage one starts from the
    empty-tuple row, with breakpoints 0, 1 and B, so its candidates are the
    first set's elements and their successors. Each stage is then
    compressed by :func:`~approxcount.incpoints.convert`.
    """
    step = partial(sum_stage, convert=convert)
    return run_stages(_empty_tuple_row(inst.bound), inst.sets, epsilon, inst.bound, step)
