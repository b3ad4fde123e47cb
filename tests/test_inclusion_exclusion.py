"""The inclusion-exclusion reference against the dense DP and the closed form,
then the contingency counter against it at sizes past the dense DP."""

import random
from fractions import Fraction

from approxcount import Contingency2Instance, fptas_contingency2
from approxcount.oracles import dp_contingency_sum
from closed_forms import equal_columns
from inclusion_exclusion import contingency_count


def test_inclusion_exclusion_matches_the_exact_references():
    rng = random.Random(21)
    for _ in range(400):
        cols = [rng.randint(1, 12) for _ in range(rng.randint(1, 9))]
        total = sum(cols)
        r1 = rng.randint(0, total // 2)
        table = Contingency2Instance(row_sums=(r1, total - r1), col_sums=cols)
        assert contingency_count(cols, r1) == dp_contingency_sum(table), (cols, r1)
    for columns, s in [(20, 10**40), (24, 10**6), (7, 5)]:
        total = columns * s
        for r in (0, 1, total // 2, rng.randint(0, total), total - 1, total):
            assert contingency_count([s] * columns, r) == equal_columns(columns, s, r), (columns, r)


def test_contingency_counter_stays_in_band_past_the_dense_dp():
    # 16-20 random columns up to 1e40: about 2**10 sums a half for the
    # reference, and far past DP_CELL_CAP for the dense DP
    rng = random.Random(2101)
    eps = Fraction(1, 2)
    for _ in range(6):
        cols = [rng.randint(1, 10**40) for _ in range(rng.randint(16, 20))]
        total = sum(cols)
        r1 = total // 2 - rng.randint(0, 5)
        table = Contingency2Instance(row_sums=(r1, total - r1), col_sums=cols)
        exact = contingency_count(cols, r1)
        assert exact <= fptas_contingency2(table, eps).count <= (1 + eps) * exact, len(cols)
