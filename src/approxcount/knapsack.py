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
max(0, W - C) on the items taken heaviest first, two to a set: a pair a >= b
is the set {0, a, b, a + b}, what its four subsets leave out, and an odd last
item, the lightest, the set {0, w}. About n/2 stages then share 1+epsilon, so
each merges with a larger k than one stage per item would allow; compressing
a pair's sum gives what an exact stage for its first item, then a compressed
one for its second, would. The count is in the same band, at work
independent of the magnitude of the weights and the capacity.
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

    The items are taken heaviest first, two to a set: consecutive weights
    a >= b give the set (0, a, b, a + b), one element per subset of the
    pair, and an odd last item, the lightest, gives (0, w). So the tuples
    are the subsets, one to one, and the sets come in spread order.
    """
    ws = sorted(inst.weights, reverse=True)
    sets = tuple((0, a, b, a + b) for a, b in zip(ws[::2], ws[1::2]))
    if len(ws) % 2:
        sets += ((0, ws[-1]),)
    return MTuplesInstance(sets, max(0, sum(ws) - inst.capacity))


def strong_fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    return strong_fptas_mtuples(left_out(inst), epsilon)


def fptas_knapsack(inst: KnapsackInstance, epsilon) -> RunReport:
    full = IntInterval(0, inst.capacity)
    items = [((0, w), full) for w in inst.weights]
    return run_stages(EMPTY_SUBSET_ROW, items, epsilon, shifted_sum, apx_set_nondecreasing)
