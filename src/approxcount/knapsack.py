"""Approximate counting of 0/1 knapsack solutions.

subsets_i(j), the number of subsets of the first i items weighing at most j,
obeys subsets_i(j) = subsets_{i-1}(j) + subsets_{i-1}(j - w_i). From
subsets_0, the one constant row EMPTY_SUBSET_ROW, :func:`fptas_knapsack`
replaces each row by a step function compressed by binary search over
{0..C} with per-stage ratio k, k^n <= 1+epsilon, so exact <= count <=
(1+epsilon)*exact; its oracle work grows with log C.

:func:`strong_fptas_knapsack` counts the items left out: a subset weighs at
most C exactly when they weigh at least W - C, W the total weight. So it is
:func:`~approxcount.mtuples.strong_fptas_mtuples` with the bound
max(0, W - C) on the items taken heaviest first, three to a set: a group of
g items is the set of the 2^g weights its subsets leave out, and a last group
of the one or two lightest items is built alike. About n/3 stages then share
1+epsilon, so each merges with a larger k than one stage per item would
allow; compressing a group's sums gives what exact stages for its first
items, then a compressed one for its last, would. A stage's work is its set
size times the previous stage's kept breakpoints, which grow with the number
of stages, so g items to a set cost about n^2 * 2^g / g^2, least at g = 3.
The count is in the same band, at work independent of the magnitude of the
weights and the capacity.
"""

from __future__ import annotations

from .incpoints import convert  # noqa: F401 - perfbench's tracer test reads knapsack.convert
from .mtuples import strong_fptas_mtuples
from .oracles import KnapsackInstance, MTuplesInstance
from .stagewise import RunReport, run_stages
from .stepfunc import IntInterval, StepFunction, apx_set_nondecreasing, shifted_sum


# subsets_0, the empty subset alone: 0 below 0 and 1 from 0 on, for every capacity
EMPTY_SUBSET_ROW = StepFunction((0,), (1,), 0)


def left_out(inst: KnapsackInstance) -> MTuplesInstance:
    """The m-tuples instance whose tuples are the items a subset leaves out.

    The items are taken heaviest first, three to a set: a group's set holds
    the sums of its subsets, one element per subset, built by doubling, so
    a >= b >= c give (0, a, b, a + b, c, a + c, b + c, a + b + c), and a last
    group of the one or two lightest items gives (0, w) or (0, a, b, a + b).
    So the tuples are the subsets, one to one, and the sets come in spread
    order. With g items to a set a run's stage work is about
    n^2 * 2^g / g^2, least at g = 3.
    """
    ws = sorted(inst.weights, reverse=True)
    sets = []
    for i in range(0, len(ws), 3):
        sums = [0]
        for w in ws[i : i + 3]:
            sums += [s + w for s in sums]
        sets.append(sums)
    return MTuplesInstance(sets, max(0, sum(ws) - inst.capacity))


def strong_fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    return strong_fptas_mtuples(left_out(inst), epsilon)


def fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    full = IntInterval(0, inst.capacity)
    items = [((0, w), full) for w in inst.weights]
    return run_stages(EMPTY_SUBSET_ROW, items, epsilon, shifted_sum, apx_set_nondecreasing)
