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
  stages are checked against the rows of its left-out m-tuples instance,
  and a contingency column's upper half at y against its row at P_i - y,
  with no value below its domain;
* the count against the band, exact <= count <= (1+eps)*exact, with the
  exact count from brute force or meet in the middle (knapsack, m-tuples)
  or inclusion-exclusion (contingency tables).

Values are 0 or 1 at the edges, else small; one round in five draws values
up to 10**40, whose rows are too wide to tabulate, and checks only the
count, with epsilon at least 1/10 for the table and for a knapsack of 9-24
items and an m-tuples instance of 5-10 sets, drawn in these rounds only and
counted by meet in the middle; kept breakpoints grow as
log(values)/epsilon. Bounds and capacities are 0, 1, the total, the total
-1, random, or past the total: by 1, or in the count-only rounds by up to
10**30.

A second loop runs the command line, ``cli.main``, in process. Each round
writes one line per problem to a file in a temporary directory: a random
payload, or one broken by wrong types and bools, empty lists,
inconsistent margins, missing fields, or values of 0, 1, 2, 2**64 and
10**40, negative ones included. It runs ``count`` on that file in every
mode and ``verify`` in every approximate mode, for every problem, at an
epsilon of 1/10 or more, or at one that does not parse. Every exit code
must be 0, 2 or 3: 1 would be a count outside its band and 4 an internal
error. A table whose margins disagree, and that nothing else broke, must
exit 2 on every command. The two loops take turns, one round each, on their
own seeds.

On the first failure the script prints the instance as one JSON line that
``approxcount count`` reads, names the counter or command, epsilon and the
failed check on stderr, and exits 1. It exits 0 when the time is up.
"""

import argparse
import io
import json
import os
import random
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
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
from approxcount import cli
from approxcount.cli import payload_from_instance
from approxcount.knapsack import left_out
from approxcount.oracles import brute_knapsack, brute_mtuples
from dp_tables import dp_contingency_sum_table, dp_knapsack_table, dp_mtuples_table
from meet_in_the_middle import knapsack_mitm, mtuples_mitm

SMALL, HUGE, PAST = 30, 10**40, 10**30


def _values(rng, count, least, top):
    return [rng.choice((least, least + 1, rng.randint(least, top))) for _ in range(count)]


def _bound(rng, total, past=1):
    return max(0, rng.choice((0, 1, total - 1, total, total + past, rng.randint(0, total))))


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
    problem and, in a count-only round, a wider knapsack and m-tuples
    instance; rows are the exact rows and the values below 0, or None where
    only the count is checked."""
    eps, dense = _epsilon(rng), rng.random() >= 0.2
    top = SMALL if dense else HUGE
    # the dense rounds tabulate every row over {0..C}; only a count may pass C by far
    past = (lambda: 1) if dense else (lambda: rng.randint(1, PAST))

    def knapsack(items):
        weights = _values(rng, items, 1, top)
        return KnapsackInstance(tuple(weights), _bound(rng, sum(weights), past()))

    def mtuples(sets):
        sets = tuple(tuple(_values(rng, rng.randint(1, 4), 0, top)) for _ in range(sets))
        return MTuplesInstance(sets, _bound(rng, sum(map(max, sets)), past()))

    n = rng.randint(1, 8)
    knap = knapsack(n)
    tuples = mtuples(rng.randint(1, 4))
    cols = _values(rng, rng.randint(1, 6), 1, top)
    r1 = min(_bound(rng, sum(cols)), sum(cols))
    table = Contingency2Instance((r1, sum(cols) - r1), tuple(cols))
    # a run keeps about log(values)/epsilon breakpoints: a table of 1e40 at 1/10 takes 0.2 s
    wide_eps = eps if dense else max(eps, Fraction(1, 10))

    knap_rows = (dp_knapsack_table(knap)[1:], [0] * n) if dense else None
    left_rows = _mtuples_rows(left_out(knap)) if dense else None
    tuple_rows = _mtuples_rows(tuples) if dense else None
    table_rows = None
    if dense:  # column i is kept as its upper half: its value at y is row i's at P_i - y
        rows = zip(list(accumulate(cols))[1:], dp_contingency_sum_table(table)[2:])
        halves = [{p - j: v for j, v in enumerate(row)} for p, row in rows]
        table_rows = (halves, [None] * len(cols))
    drawn = [
        ("knapsack", knap, brute_knapsack(knap), eps, [
            (fptas_knapsack, knap_rows), (strong_fptas_knapsack, left_rows)]),
        ("mtuples", tuples, brute_mtuples(tuples), eps, [
            (fptas_mtuples, tuple_rows), (strong_fptas_mtuples, tuple_rows)]),
        ("contingency2", table, contingency_count(table), wide_eps, [
            (fptas_contingency2, table_rows)]),
    ]
    if dense:
        return drawn
    # up to 2^24 subsets or 4^10 tuples, too many to list each round: meet in the middle
    wide_knap, wide_tuples = knapsack(rng.randint(9, 24)), mtuples(rng.randint(5, 10))
    return drawn + [
        ("knapsack", wide_knap, knapsack_mitm(wide_knap.weights, wide_knap.capacity), wide_eps, [
            (fptas_knapsack, None), (strong_fptas_knapsack, None)]),
        ("mtuples", wide_tuples, mtuples_mitm(wide_tuples.sets, wide_tuples.bound), wide_eps, [
            (fptas_mtuples, None), (strong_fptas_mtuples, None)]),
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
        if f.below not in (None, below):
            return f"stage {t} holds {f.below} below its domain, not {below}"
    return None


EDGES = (0, 1, 2, 2**64, 10**40)
BAD_LEAVES = (True, False, None, 1.5, 1e40, "", "abc", "1e40", " 5", "1_0", {}, [], [[]])
EPSILONS = ("1/10", "1/4", "1/2", "1", "3", "0.5")
BAD_EPSILONS = ("0", "-1/2", "x", "1/0", "inf")
ALLOWED_EXITS = {0, 2, 3}


def _leaves(rng, count):
    """Numbers of a payload: edge values, some negative, or small ones; each
    a decimal string or a bare JSON integer."""
    out = []
    for _ in range(count):
        v = rng.choice((*EDGES, rng.randint(0, SMALL)))
        v = -v if rng.random() < 0.05 else v
        out.append(str(v) if rng.random() < 0.7 else v)
    return out


def _payload(rng, problem):
    """A random payload of ``problem``, its margins usually consistent, and
    whether they are."""
    if problem == "mtuples":
        sets = [_leaves(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        return {"sets": sets, "bound": _leaves(rng, 1)[0]}, True
    if problem == "knapsack":
        return {"weights": _leaves(rng, rng.randint(1, 4)), "capacity": _leaves(rng, 1)[0]}, True
    cols = _leaves(rng, rng.randint(1, 4))
    total = sum(int(c) for c in cols)
    r1 = rng.choice((0, total // 2, total, rng.randint(0, max(total, 0))))
    rows = [r1, total - r1]
    consistent = rng.random() >= 0.3
    if not consistent:
        rows[rng.randrange(2)] += rng.choice((-1, 1, 2**64))
    return {"row_sums": [str(r) for r in rows], "col_sums": cols}, consistent


def _break(rng, node):
    """``node`` with one field, list or leaf replaced by something malformed."""
    if isinstance(node, dict) and node:
        key = rng.choice(sorted(node))
        if rng.random() < 0.1:
            return {k: v for k, v in node.items() if k != key}  # a missing field
        return {**node, key: _break(rng, node[key])}
    if isinstance(node, list) and node and rng.random() < 0.7:
        i = rng.randrange(len(node))
        return node[:i] + [_break(rng, node[i])] + node[i + 1:]
    return rng.choice((*BAD_LEAVES, [node], str(node)))


def cli_round(rng, folder) -> tuple[int, str | None]:
    """One round of the command line on every problem: the commands run, and
    what went wrong, or None."""
    calls = 0
    for problem in cli.PROBLEMS:
        payload, consistent = _payload(rng, problem)
        breaks = rng.choice((0, 0, 0, 1, 2))
        for _ in range(breaks):
            payload = _break(rng, payload)
        # margins that disagree, with nothing else broken, are refused outright
        allowed = ALLOWED_EXITS if consistent or breaks else {2}
        line = json.dumps({"problem": problem, "payload": payload})
        path = os.path.join(folder, "instance.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
        eps = rng.choice(BAD_EPSILONS) if rng.random() < 0.05 else rng.choice(EPSILONS)
        runs = [["count", "--mode", mode] for mode in cli.MODES]
        runs += [["verify", "--mode", mode] for mode in cli.APPROX_MODES]
        for run in runs:
            argv = [*run, "--input", path, "--problem", problem, "--epsilon", eps]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            calls += 1
            if code not in allowed:
                print(line)
                said = (err.getvalue() or out.getvalue()).strip()[-2000:]
                return calls, f"{' '.join(argv)} exited {code}: {said}"
    return calls, None


def library_round(rng) -> tuple[int, str | None]:
    """One round of the counters on every problem: the runs made, and what
    went wrong, or None."""
    runs = 0
    for problem, inst, exact, eps, counters in draw(rng):
        for counter, rows in counters:
            try:
                wrong = check(counter, inst, exact, rows, eps)
            except Exception:  # a valid instance must not raise
                wrong = traceback.format_exc()
            runs += 1
            if wrong:
                print(json.dumps({"problem": problem, "payload": payload_from_instance(inst)}))
                return runs, f"{counter.__name__} at epsilon {eps}: {wrong}"
    return runs, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    rng, cli_rng = random.Random(args.seed), random.Random(f"cli {args.seed}")
    end = time.monotonic() + args.seconds
    rounds = runs = calls = 0
    with tempfile.TemporaryDirectory() as folder:
        while time.monotonic() < end:
            made, wrong = library_round(rng)
            runs += made
            if not wrong:
                made, wrong = cli_round(cli_rng, folder)
                calls += made
            if wrong:
                print(f"round {rounds}, {wrong}", file=sys.stderr)
                return 1
            rounds += 1
    print(f"{rounds} rounds: {runs} runs, every stage and count in its band; "
          f"{calls} commands, each exited 0, 2 or 3, and 2 on disagreeing margins")
    return 0


if __name__ == "__main__":
    sys.exit(main())
