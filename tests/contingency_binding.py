"""A third exact contingency2 counter, kept only to cross-check the library's.

It counts by a bit-decomposed recurrence, independent of both
:func:`approxcount.oracles.dp_contingency_sub` and
:func:`approxcount.oracles.dp_contingency_sum`, so the tests compare all
three on the same tables.
"""

from approxcount.errors import TooLarge
from approxcount.oracles import DP_CELL_CAP, Contingency2Instance


def dp_contingency_binding(inst: Contingency2Instance, cap: int = DP_CELL_CAP) -> int:
    """Count via the bit-decomposed recurrence with binding-constraint flags.

    State (i, level, tight) describes the low ``level`` bits of the cell value
    in column i: ``tight`` records whether the cell's higher bits matched s_i
    exactly, in which case the remaining bits are capped by s_i mod 2^level.
    Entry into column i dispatches on j vs s_i: once j >= s_i the cap can bind
    (tight, level = bitlength of s_i); below that the cap is slack (free,
    level = bitlength of j). Each column is one row per state over j = 0..R,
    built from the previous column's entry row E: free level 1 is E(j) +
    E(j-1), free level L adds its level L-1 row shifted by 2^(L-1), and the
    tight chain climbs the set bits of s_i from the lowest, with E standing in
    for "no set bit left".
    """
    s = inst.col_sums
    n = len(s)
    r_query = inst.pivot_sum
    if n * (r_query + 1) * (max(s).bit_length() + 1) > cap:
        raise TooLarge("state space exceeds cap")

    def plus_shifted(x: list[int], y: list[int], t: int) -> list[int]:
        """j -> x(j) + y(j - t) on 0..R, with y = 0 below 0."""
        return x[:t] + [a + b for a, b in zip(x[t:], y)]

    entry = [1 if j <= s[0] else 0 for j in range(r_query + 1)]
    for si in s[1:]:
        free = [entry]
        for level in range(1, max((si - 1).bit_length(), 1) + 1):
            free.append(plus_shifted(free[-1], free[-1], 1 << (level - 1)))
        tight = entry
        for level in range(1, si.bit_length() + 1):
            if si >> (level - 1) & 1:
                tight = plus_shifted(free[level - 1], tight, 1 << (level - 1))
        entry = [
            tight[j] if j >= si else free[max(j.bit_length(), 1)][j] for j in range(r_query + 1)
        ]
    return entry[r_query]
