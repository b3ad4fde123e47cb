"""Approximate counting of 0/1 knapsack solutions.

subsets_i(j), the number of subsets of the first i items weighing at most j,
obeys subsets_i(j) = subsets_{i-1}(j) + subsets_{i-1}(j - w_i). Each stage
here replaces the exact row by a compressed nondecreasing step function with
per-stage ratio k, k^n <= 1+epsilon, giving
exact <= count <= (1+epsilon)*exact at the capacity.

:func:`fptas_knapsack` compresses each stage by binary search over {0..C};
its oracle work grows with log C. :func:`strong_fptas_knapsack` keeps the
same stages, so it returns the same count, but evaluates each stage only at
its candidate change points (:func:`~approxcount.incpoints.convert`), so its
oracle work depends on n and epsilon but not on the magnitude of the weights
or the capacity. Stage i's candidates are the starts of its piece table:
just past each previous breakpoint, in the unshifted copy and in the copy
shifted by w_i, and w_i itself, where the shifted copy enters the domain
and jumps from 0. The table has a piece start wherever a term can change,
so no candidate is named by hand.
"""

from __future__ import annotations

from functools import partial

from .incpoints import convert
from .oracles import KnapsackInstance
from .stagewise import RunReport, run_stages, sum_stage
from .stepfunc import Direction, IntInterval, StepFunction


def _empty_subset_row(capacity: int) -> StepFunction:
    """subsets_0: constantly 1 on {0..capacity}, 0 below it."""
    xs = (0,) if capacity == 0 else (0, capacity)
    return StepFunction(
        domain=IntInterval(0, capacity),
        direction=Direction.NONDECREASING,
        xs=xs,
        values=(1,) * len(xs),
        out_of_domain_low=0,
        out_of_domain_high=1,
    )


def strong_fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    items = [(0, w) for w in inst.weights]
    step = partial(sum_stage, convert=convert)
    return run_stages(_empty_subset_row(inst.capacity), items, epsilon, inst.capacity, step)


def fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    items = [(0, w) for w in inst.weights]
    return run_stages(_empty_subset_row(inst.capacity), items, epsilon, inst.capacity, sum_stage)
