"""Exact reference counters.

Brute-force enumeration and pseudo-polynomial dynamic programs for the three
counting problems handled by this package. Every approximate counter is
validated against these. They are deliberately independent of the compression
machinery: they import nothing from it, and keep no table, only one row.

The knapsack and m-tuples rows are packed into one integer by Kronecker
substitution (von zur Gathen & Gerhard, *Modern Computer Algebra*): the
coefficient of x^j in the generating function is the j-th digit of b bits,
so adding an item or a set is a few shifts, adds and one mask over
O(n*C) bits, done in C. No digit may carry into the next: knapsack digits
count subsets, at most 2^n, so b = n + 1; m-tuples digits count tuples, at
most the product of the set sizes, which fits in b - 1 bits. Since
2^b = 1 modulo 2^b - 1, the count, the sum of the digits, is the packed row
modulo 2^b - 1; it stays below 2^b - 1, so it does not wrap to 0. Values
past the capacity or the bound are dropped before any shift. Contingency
rows stay dense lists: packing them would need big-integer products, which
CPython multiplies in superlinear time.

Counting conventions:

* m-tuples: ``tuples(j)`` counts tuples (one element per set) whose sum is at
  least j; elements are nonnegative, so tuples(j) is nonincreasing in j and
  tuples(j) for j <= 0 equals the product of the set sizes.
* knapsack: ``subsets(j)`` counts subsets of the items with total weight at
  most j; nondecreasing in j, subsets(j) = 0 for j < 0, subsets(C) for
  C >= total weight is 2^n.
* contingency: ``fills(j)`` counts ways to fill the first row of a 2-row
  table with cells 0 <= x_l <= s_l summing to j; the second row is then
  forced. fills is symmetric around half its support and unimodal.
"""

from __future__ import annotations

import itertools
import math
from operator import sub
from typing import Sequence

from .errors import InvalidInput, TooLarge
from .record import Record

BRUTE_TUPLE_CAP = 10_000_000
BRUTE_SUBSET_CAP = 24
DP_CELL_CAP = 50_000_000


class MTuplesInstance(Record):
    __slots__ = ("sets", "bound")

    def __init__(self, sets: Sequence[Sequence[int]], bound: int):
        self.sets = tuple(tuple(s) for s in sets)
        self.bound = bound
        if not self.sets or any(not s for s in self.sets):
            raise InvalidInput("need at least one set, none of them empty")
        if any(type(x) is not int or x < 0 for s in self.sets for x in s):
            raise InvalidInput("set elements must be nonnegative integers")
        if type(self.bound) is not int or self.bound < 0:
            raise InvalidInput("bound must be nonnegative and an integer")

    @property
    def m(self) -> int:
        return len(self.sets)


class KnapsackInstance(Record):
    __slots__ = ("weights", "capacity")

    def __init__(self, weights: Sequence[int], capacity: int):
        self.weights = tuple(weights)
        self.capacity = capacity
        if not self.weights:
            raise InvalidInput("need at least one item")
        if any(type(w) is not int or w < 1 for w in self.weights):
            raise InvalidInput("weights must be positive integers")
        if type(self.capacity) is not int or self.capacity < 0:
            raise InvalidInput("capacity must be nonnegative and an integer")

    @property
    def n(self) -> int:
        return len(self.weights)


class Contingency2Instance(Record):
    __slots__ = ("row_sums", "col_sums")

    def __init__(self, row_sums: Sequence[int], col_sums: Sequence[int]):
        self.row_sums = tuple(row_sums)
        self.col_sums = tuple(col_sums)
        if len(self.row_sums) != 2:
            raise InvalidInput("exactly two row sums")
        if any(type(r) is not int or r < 0 for r in self.row_sums):
            raise InvalidInput("row sums must be nonnegative integers")
        if not self.col_sums or any(type(s) is not int or s < 1 for s in self.col_sums):
            raise InvalidInput("column sums must be positive integers")
        if sum(self.row_sums) != sum(self.col_sums):
            raise InvalidInput("row sums and column sums must partition the same total")

    @property
    def total(self) -> int:
        return sum(self.col_sums)

    @property
    def pivot_sum(self) -> int:
        """R = min(r1, r2); the count only depends on the rows through this."""
        return min(self.row_sums)


def brute_mtuples(inst: MTuplesInstance) -> int:
    size = 1
    for s in inst.sets:
        size *= len(s)
    if size > BRUTE_TUPLE_CAP:
        raise TooLarge(f"{size} tuples exceeds enumeration cap {BRUTE_TUPLE_CAP}")
    b = inst.bound
    return sum(1 for combo in itertools.product(*inst.sets) if sum(combo) >= b)


def dp_mtuples(inst: MTuplesInstance) -> int:
    width = inst.bound + 1
    if width * sum(len(s) for s in inst.sets) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    # digit j of poly counts the prefixes with sum j < bound; the digit sum is
    # at most total < 2**(b-1), so no digit carries and the sum cannot wrap
    total = math.prod(len(s) for s in inst.sets)
    b = total.bit_length() + 1
    keep = (1 << b * inst.bound) - 1
    poly = 1
    for xs in inst.sets:
        poly = sum(poly << b * x for x in xs if x < inst.bound) & keep
    return total - poly % ((1 << b) - 1)


def brute_knapsack(inst: KnapsackInstance) -> int:
    if inst.n > BRUTE_SUBSET_CAP:
        raise TooLarge(f"{inst.n} items exceeds enumeration cap {BRUTE_SUBSET_CAP}")
    sums = [0]
    for w in inst.weights:
        sums += [s + w for s in sums]
    return sum(1 for s in sums if s <= inst.capacity)


def dp_knapsack(inst: KnapsackInstance) -> int:
    c = inst.capacity
    if (inst.n + 1) * (c + 1) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    # digit j of poly counts the subsets of weight j <= c; every digit and the
    # digit sum are at most 2**n < 2**b - 1
    b = inst.n + 1
    keep = (1 << b * (c + 1)) - 1
    poly = 1
    for w in inst.weights:
        if w <= c:
            poly = (poly + (poly << b * w)) & keep
    return poly % ((1 << b) - 1)


def dp_contingency_sub(inst: Contingency2Instance) -> int:
    """Count via the telescoped recurrence (the one involving subtraction).

    fills_i(j) = fills_i(j-1) + fills_{i-1}(j) - fills_{i-1}(j-1-s_i), the last
    term only when j-1 >= s_i. Kept as an exact cross-check; the approximate
    pipeline never uses it because subtraction has no approximation rule.
    """
    r = inst.pivot_sum
    if len(inst.col_sums) * (r + 1) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    prev = [1] + [0] * r
    for si in inst.col_sums:
        cur = [0] * (r + 1)
        cur[0] = 1
        for j in range(1, r + 1):
            v = prev[j] + cur[j - 1]
            if j - 1 >= si:
                v -= prev[j - 1 - si]
            cur[j] = v
        prev = cur
    return prev[r]


def dp_contingency_sum(inst: Contingency2Instance) -> int:
    """Count via the additive recurrence, one row of j = 0..R at a time.

    fills_i(j) = sum of fills_{i-1}(j-k) over 0 <= k <= min(j, s_i), read off
    as a difference of two prefix sums of row i-1, so each row costs O(R).
    """
    r = inst.pivot_sum
    if (len(inst.col_sums) + 1) * (r + 1) > DP_CELL_CAP:
        raise TooLarge("table size exceeds cap")
    row = [1] + [0] * r
    for si in inst.col_sums:
        prefix = list(itertools.accumulate(row, initial=0))
        row = prefix[1 : si + 1] + list(map(sub, prefix[si + 1 :], prefix))
    return row[r]
