"""Exact counts of two structured families, from closed forms.

Neither formula shares anything with the compressors, the DPs or meet in
the middle, and each takes time independent of the size of the numbers, so
both reach instances no other reference reaches:

* a knapsack whose weights take d distinct values, weight w_i taken n_i
  times: the subsets that take c_i items of weight w_i for i >= 2 number
  prod C(n_i, c_i), and any c of the n_1 items of weight w_1 fit in what
  is left exactly when c <= (C - sum c_i*w_i) // w_1; so the count is a
  sum of prod_{i>=2} (n_i + 1) terms, each a product of binomials times a
  prefix sum of C(n_1, c);
* a 2-row table of N columns with equal sums s and first row R: by
  inclusion-exclusion over the k cells forced past s,
  sum_k (-1)^k C(N, k) C(R - k(s+1) + N - 1, N - 1).
"""

import math


def knapsack_by_distinct_weights(weights, capacity: int) -> int:
    """Subsets of ``weights`` with total weight at most ``capacity``, in
    prod_{i>=2} (n_i + 1) terms for d distinct weights taken n_i times."""
    counts = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    (w1, n1), *rest = counts.items()
    prefix = [0]  # prefix[t] = C(n1, 0) + ... + C(n1, t - 1)
    for c in range(n1 + 1):
        prefix.append(prefix[-1] + math.comb(n1, c))

    def fits(i: int, room: int) -> int:
        if room < 0:
            return 0
        if i == len(rest):
            return prefix[min(n1, room // w1) + 1]
        w, n = rest[i]
        return sum(math.comb(n, c) * fits(i + 1, room - c * w) for c in range(n + 1))

    return fits(0, capacity)


def equal_columns(columns: int, col_sum: int, r: int) -> int:
    """2-row tables of ``columns`` columns, each summing to ``col_sum``, whose
    first row sums to ``r``: cells 0 <= x_l <= col_sum summing to r."""
    return sum(
        (-1) ** k * math.comb(columns, k) * math.comb(r - k * (col_sum + 1) + columns - 1, columns - 1)
        for k in range(columns + 1)
        if r >= k * (col_sum + 1)
    )
