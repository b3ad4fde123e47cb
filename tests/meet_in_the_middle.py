"""Exact knapsack and m-tuples counts by meet in the middle.

Each count lists the sums of both halves of the input, sorts one half and
bisects every sum of the other into it (Horowitz and Sahni, J. ACM 1974), so
it takes about 2^(n/2) sums whatever the size of the numbers. That reaches
values far past any DP table. The knapsack count lists subsets of the items
themselves, not the items they leave out, so it shares nothing with the
strong counter's reduction to m-tuples.
"""

from bisect import bisect_left, bisect_right


def _subset_sums(weights) -> list[int]:
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _tuple_sums(sets) -> list[int]:
    sums = [0]
    for s in sets:
        sums = [a + x for a in sums for x in s]
    return sums


def knapsack_mitm(weights, capacity: int) -> int:
    """Subsets with total weight at most capacity."""
    half = len(weights) // 2
    right = sorted(_subset_sums(weights[half:]))
    return sum(bisect_right(right, capacity - a) for a in _subset_sums(weights[:half]))


def mtuples_mitm(sets, bound: int) -> int:
    """Tuples, one element per set, with sum at least bound."""
    half = len(sets) // 2
    right = sorted(_tuple_sums(sets[half:]))
    return sum(len(right) - bisect_left(right, bound - a) for a in _tuple_sums(sets[:half]))
