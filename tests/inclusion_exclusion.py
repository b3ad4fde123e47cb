"""Exact 2-row contingency counts at any magnitude, by signed
inclusion-exclusion taken in halves.

The tables of N columns with sums s_i and first row R are the cells
0 <= x_i <= s_i summing to R. Inclusion-exclusion over the set T of cells
forced past s_i counts them as the sum, over the T with
t_T = sum(s_i + 1 for i in T) <= R, of (-1)**|T| * C(R - t_T + N - 1, N - 1).

The columns are split in halves and one half's signed sums are sorted
(Horowitz and Sahni, J. ACM 1974). With t_T = a + b, a from the left half
and b from the right, c = R - a and m = N - 1, Vandermonde's identity

    C(c - b + m, m) = sum_k C(c + m, m - k) * C(-b, k)

separates each term's halves: one sweep over the left sums by rising c
adds each right sum b <= c into N running sums, the k-th of them the signed
sum of C(-b, k). That is O(2^(N/2) N) big-integer operations, whatever the
size of the numbers. Nothing here is shared with the dense DP, the closed
forms or the compressors.
"""


def _signed_sums(col_sums) -> list[tuple[int, int]]:
    """(t_T, (-1)**|T|) for every set T of the columns."""
    sums = [(0, 1)]
    for s in col_sums:
        sums += [(t + s + 1, -sign) for t, sign in sums]
    return sums


def contingency_count(col_sums, r: int) -> int:
    """Cells 0 <= x_i <= col_sums[i] summing to r."""
    m, half = len(col_sums) - 1, len(col_sums) // 2
    left = sorted(_signed_sums(col_sums[:half]), reverse=True)  # c = r - a rising
    right = sorted(_signed_sums(col_sums[half:]))
    running = [0] * (m + 1)  # running[k]: the signed sum of C(-b, k) over the b taken
    taken = total = 0
    for a, sign in left:
        c = r - a
        if c < 0:
            continue
        while taken < len(right) and right[taken][0] <= c:
            b, g = right[taken]  # g runs through sign * C(-b, k), k = 0, 1, ...
            for k in range(m + 1):
                running[k] += g
                g = g * (-b - k) // (k + 1)
            taken += 1
        h, term = 1, 0  # h runs through C(c + m, j), j = 0, 1, ...
        for j in range(m + 1):
            term += h * running[m - j]
            h = h * (c + m - j) // (j + 1)
        total += sign * term
    return total
