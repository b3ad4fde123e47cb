"""Approximate counting of 0/1 knapsack solutions.

subsets_i(j), the number of subsets of the first i items weighing at most j,
obeys subsets_i(j) = subsets_{i-1}(j) + subsets_{i-1}(j - w_i). Each stage
here replaces the exact row by a compressed nondecreasing step function with
per-stage ratio k, k^n <= 1+epsilon, giving
exact <= count <= (1+epsilon)*exact at the capacity; a one-point stage is
exact and does not count in n (:mod:`~approxcount.stagewise`).

:func:`fptas_knapsack` compresses each stage by binary search over {0..C};
its oracle work grows with log C. :func:`strong_fptas_knapsack` compresses
stage i only on its reachable window {max(0, C - W_after_i)..C}, with
W_after_i the total weight of the items after item i, so the last stage is
{C}. Stage i+1 reads j and j - w_{i+1}, which from its window land in
window i or below 0, where subsets_i is exactly 0; a window that starts
above 0 has no value below it, and a read there raises. A window is walked
down from C as the nonincreasing search walks its mirror image, so a
merged low end holds the value of the kept point above it, and the count
is in the band but not always the plain one. Inside the window a stage is
evaluated only at its candidate change points
(:func:`~approxcount.incpoints.convert`), so the oracle work
depends on n and epsilon but not on the magnitude of the weights or the
capacity. The candidates are the starts of the stage's piece table, the
points where the sum changes value: each is just past a previous
breakpoint, in the unshifted copy or in the copy shifted by w_i, or w_i
itself, where the shifted copy enters and jumps from 0. No candidate is
named by hand.
"""

from __future__ import annotations

from functools import partial

from .incpoints import convert
from .oracles import KnapsackInstance
from .stagewise import RunReport, run_stages, sum_stage, sums_after
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
    c = inst.capacity
    windows = [IntInterval(max(0, c - rest), c) for rest in sums_after(inst.weights)]
    items = [((0, w), window) for w, window in zip(inst.weights, windows)]
    step = partial(sum_stage, convert=convert)
    return run_stages(_empty_subset_row(c), items, epsilon, c, step)


def fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    full = IntInterval(0, inst.capacity)
    items = [((0, w), full) for w in inst.weights]
    return run_stages(_empty_subset_row(inst.capacity), items, epsilon, inst.capacity, sum_stage)
