"""Differential fuzz of the five counters: every stage against its exact row.

    PYTHONPATH=src python tests/fuzz_counters.py --seed 1 --seconds 60

Pytest collects only ``test_*.py``, so Tier-1 does not run this script.
Each round draws one valid instance of each problem and an epsilon from
1e-15 to 1e9, runs every counter on it, and checks:

* each stage function f against its exact row from :mod:`dp_tables` on
  the stage's domain: exact <= f <= k**i * exact, with k the per-stage
  ratio for the run's merging stages (those whose domain has more than one
  point) and i the merging stages up to this one; where f names a value
  below its domain, that value is the row's below 0. Strong knapsack's
  stages are checked against the rows of its left-out m-tuples instance;
* the count against the band, exact <= count <= (1+eps)*exact, with the
  exact count from brute force (knapsack, m-tuples) or inclusion-exclusion
  (contingency tables).

Values are 0 or 1 at the edges, else small; one round in five draws values
up to 10**40, whose rows are too wide to tabulate, and checks only the
count, with epsilon at least 1/10 for the table, whose kept breakpoints
grow as log(values)/epsilon. Bounds and capacities are 0, 1, the total,
the total +-1 or random.
On the first failure the script prints the instance as one JSON line that
``approxcount count`` reads, names the counter, epsilon and the failed
check on stderr, and exits 1. It exits 0 when the time is up.
"""

import argparse
import json
import random
import sys
import time
import traceback
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul

from approxcount import (
    ApproxRatio,
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    fptas_contingency2,
    fptas_knapsack,
    fptas_mtuples,
    strong_fptas_knapsack,
    strong_fptas_mtuples,
)
from approxcount.cli import payload_from_instance
from approxcount.knapsack import left_out
from approxcount.oracles import brute_knapsack, brute_mtuples
from dp_tables import dp_contingency_sum_table, dp_knapsack_table, dp_mtuples_table

SMALL, HUGE = 30, 10**40


def _values(rng, count, least, top):
    return [rng.choice((least, least + 1, rng.randint(least, top))) for _ in range(count)]


def _bound(rng, total):
    return max(0, rng.choice((0, 1, total - 1, total, total + 1, rng.randint(0, total))))


def _epsilon(rng):
    drawn = rng.randint(1, 9) * Fraction(10) ** rng.randint(-15, 8)
    return rng.choice((Fraction(1, 10**15), Fraction(10**9), drawn))


def contingency_count(inst: Contingency2Instance) -> int:
    """Cells 0 <= x_l <= s_l summing to R, by inclusion-exclusion over the
    columns whose cell is forced past s_l."""
    r, n = inst.pivot_sum, len(inst.col_sums)
    total = 0
    for mask in range(1 << n):
        over = [s + 1 for l, s in enumerate(inst.col_sums) if mask >> l & 1]
        rest = r - sum(over)
        if rest >= 0:
            total += (-1) ** len(over) * comb(rest + n - 1, n - 1)
    return total


def _mtuples_rows(inst: MTuplesInstance):
    return dp_mtuples_table(inst), list(accumulate(map(len, inst.sets), mul))


def draw(rng):
    """[(problem, instance, exact count, epsilon, [(counter, rows)])], one per
    problem; rows are the exact rows and the values below 0, or None where
    only the count is checked."""
    eps, dense = _epsilon(rng), rng.random() >= 0.2
    top = SMALL if dense else HUGE
    n = rng.randint(1, 8)
    weights = _values(rng, n, 1, top)
    knap = KnapsackInstance(tuple(weights), _bound(rng, sum(weights)))
    sets = tuple(tuple(_values(rng, rng.randint(1, 4), 0, top)) for _ in range(rng.randint(1, 4)))
    tuples = MTuplesInstance(sets, _bound(rng, sum(map(max, sets))))
    cols = _values(rng, rng.randint(1, 6), 1, top)
    r1 = min(_bound(rng, sum(cols)), sum(cols))
    table = Contingency2Instance((r1, sum(cols) - r1), tuple(cols))
    # a table keeps about log(values)/epsilon breakpoints: 1e40 at 1/10 takes 0.2 s
    table_eps = eps if dense else max(eps, Fraction(1, 10))

    knap_rows = (dp_knapsack_table(knap)[1:], [0] * n) if dense else None
    left_rows = _mtuples_rows(left_out(knap)) if dense else None
    tuple_rows = _mtuples_rows(tuples) if dense else None
    table_rows = (dp_contingency_sum_table(table)[2:], [0] * len(cols)) if dense else None
    return [
        ("knapsack", knap, brute_knapsack(knap), eps, [
            (fptas_knapsack, knap_rows), (strong_fptas_knapsack, left_rows)]),
        ("mtuples", tuples, brute_mtuples(tuples), eps, [
            (fptas_mtuples, tuple_rows), (strong_fptas_mtuples, tuple_rows)]),
        ("contingency2", table, contingency_count(table), table_eps, [
            (fptas_contingency2, table_rows)]),
    ]


def check(counter, inst, exact, rows, eps) -> str | None:
    """What is wrong with one run, or None."""
    rep = counter(inst, eps)
    if not (exact <= rep.count <= (1 + eps) * exact):
        return f"count {rep.count} is outside the band of the exact {exact}"
    if rows is None:
        return None
    merging = [f.domain.lo < f.domain.hi for f in rep.stage_functions]
    k = ApproxRatio.for_stages(eps, max(sum(merging), 1)).k
    power = Fraction(1)
    for t, (f, row, below) in enumerate(zip(rep.stage_functions, *rows)):
        power *= k if merging[t] else 1
        num, den = power.numerator, power.denominator
        for j in range(f.domain.lo, f.domain.hi + 1):
            v = f.query(j)
            if not (row[j] <= v and v * den <= num * row[j]):
                return f"stage {t} holds {v} at {j}, outside [{row[j]}, k**i * {row[j]}]"
        if f.out_of_domain_low not in (None, below):
            return f"stage {t} holds {f.out_of_domain_low} below its domain, not {below}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    end = time.monotonic() + args.seconds
    rounds = runs = 0
    while time.monotonic() < end:
        for problem, inst, exact, eps, counters in draw(rng):
            for counter, rows in counters:
                try:
                    wrong = check(counter, inst, exact, rows, eps)
                except Exception:  # a valid instance must not raise
                    wrong = traceback.format_exc()
                runs += 1
                if wrong:
                    print(json.dumps({"problem": problem, "payload": payload_from_instance(inst)}))
                    where = f"round {rounds}, {counter.__name__} at epsilon {eps}"
                    print(f"{where}: {wrong}", file=sys.stderr)
                    return 1
        rounds += 1
    print(f"{rounds} rounds, {runs} runs, every stage and count in its band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
