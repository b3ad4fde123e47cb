"""Exact tables of every stage row, kept only for the tests.

The library's exact counts read one cell and keep no table
(:mod:`approxcount.oracles` packs the knapsack and m-tuples rows into one
integer). These plain row-by-row loops hold every row, so the tests compare
each stage of a counter against its exact row, and check the packed counts
against a second, independent exact method.
"""

import itertools
from bisect import bisect_left

from approxcount.errors import TooLarge
from approxcount.oracles import (
    DP_CELL_CAP,
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
)


def dp_mtuples_table(inst: MTuplesInstance) -> list[list[int]]:
    """Rows tuples_1..tuples_m on j = 0..bound.

    tuples_i(j) counts prefixes (x_1..x_i), one element per set, with sum >= j.
    Below-domain convention: tuples_i(j) for j < 0 is the product of the first
    i set sizes, since sums are always nonnegative.
    """
    width = inst.bound + 1
    if width * sum(len(s) for s in inst.sets) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    first = sorted(inst.sets[0])
    rows = [[len(first) - bisect_left(first, j) for j in range(width)]]
    prefix_product = len(first)
    for xs in inst.sets[1:]:
        prev = rows[-1]
        rows.append(
            [
                sum(prev[j - x] if j - x >= 0 else prefix_product for x in xs)
                for j in range(width)
            ]
        )
        prefix_product *= len(xs)
    return rows


def dp_knapsack_table(inst: KnapsackInstance) -> list[list[int]]:
    """Rows subsets_0..subsets_n on j = 0..capacity (row 0 is all ones)."""
    c = inst.capacity
    if (inst.n + 1) * (c + 1) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    rows = [[1] * (c + 1)]
    for w in inst.weights:
        prev = rows[-1]
        rows.append([prev[j] + (prev[j - w] if j >= w else 0) for j in range(c + 1)])
    return rows


def dp_contingency_sum_table(
    inst: Contingency2Instance, width: int | None = None
) -> list[list[int]]:
    """Rows fills_0..fills_n of the additive recurrence on j = 0..width.

    fills_i(j) = sum of fills_{i-1}(j-k) over 0 <= k <= min(j, s_i), read off
    as a difference of two prefix sums of row i-1, so each row costs O(width).
    """
    w = inst.pivot_sum if width is None else width
    if (len(inst.col_sums) + 1) * (w + 1) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    rows = [[1] + [0] * w]
    for si in inst.col_sums:
        prefix = list(itertools.accumulate(rows[-1], initial=0))
        rows.append([prefix[j + 1] - prefix[max(j - si, 0)] for j in range(w + 1)])
    return rows
