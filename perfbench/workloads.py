"""Seeded workloads for the approxcount benchmark.

A workload is a cycle of *shapes* (command, problem, mode, epsilon and size
parameters). Operation i takes the next shape of the cycle, shuffled once per
cycle by the seed, and draws its numbers from its own seeded generator, so
the same (workload, seed) always yields the same operations and every run
sees the shapes in equal proportion whatever the seed. Only the numbers, and
the order inside each cycle, depend on the seed; that keeps run-to-run
spread down to what the numbers cause.

The generators are the benchmark's own, not ``approxcount gen``, so a change
to the program's generator cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    command: str  # "count" or "verify"
    problem: str
    mode: str
    epsilon: str
    size: tuple  # generator arguments, see make_payload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shapes: tuple[Shape, ...]


# Each workload has three classes of equal weight, whose costs differ by about
# 1.5x or more: the median operation is then the middle class's median and the
# p90 a high quantile of the slowest class, both steady from seed to seed,
# instead of quantiles that fall in the gap between two classes. Within one
# class, operations cost nearly the same (op counts vary by a few percent).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "knapsack-strong",
            "count strong-fptas on knapsack, n=12 at eps 1/2, n=13 and n=15 at eps 1/4, weights "
            "<= 1e9, capacity sum/2: rank-space path (IncIndex.build, convert, pad, induce)",
            (
                Shape("count", "knapsack", "strong-fptas", "1/2", ("knapsack", 12, 1, 10**9)),
                Shape("count", "knapsack", "strong-fptas", "1/4", ("knapsack", 13, 1, 10**9)),
                Shape("count", "knapsack", "strong-fptas", "1/4", ("knapsack", 15, 1, 10**9)),
            ),
        ),
        Workload(
            "mtuples-plain",
            "count fptas on m-tuples, 8 and 10 sets at eps 1/2, 11 at 1/4, 5 elements < 1e9 each, "
            "bound half the largest sum: numeric-domain search, many shifted terms, no incpoints",
            (
                Shape("count", "mtuples", "fptas", "1/2", ("mtuples", 8, 5, 10**9)),
                Shape("count", "mtuples", "fptas", "1/2", ("mtuples", 10, 5, 10**9)),
                Shape("count", "mtuples", "fptas", "1/4", ("mtuples", 11, 5, 10**9)),
            ),
        ),
        Workload(
            "contingency",
            "count fptas on 2-row tables, 6 and 10 columns at eps 1/2, 8 at 1/4, cells 20-30: "
            "bit-split state recursion and majorant, no incpoints or shifted_sum",
            (
                Shape("count", "contingency2", "fptas", "1/2", ("contingency2", 6, 20, 30)),
                Shape("count", "contingency2", "fptas", "1/4", ("contingency2", 8, 20, 30)),
                Shape("count", "contingency2", "fptas", "1/2", ("contingency2", 10, 20, 30)),
            ),
        ),
        Workload(
            "verify-dp",
            "verify in both modes, eps 1/2 and 1/4: knapsack n=8 w 1e4-2e4, m-tuples 4x6 <= 1.5e4, "
            "2-column tables cells 700-850: the exact DPs in oracles dominate",
            (
                Shape("verify", "knapsack", "fptas", "1/2", ("knapsack", 8, 10**4, 2 * 10**4)),
                Shape("verify", "knapsack", "strong-fptas", "1/4", ("knapsack", 8, 10**4, 2 * 10**4)),
                Shape("verify", "mtuples", "fptas", "1/4", ("mtuples", 4, 6, 15 * 10**3)),
                Shape("verify", "mtuples", "strong-fptas", "1/2", ("mtuples", 4, 6, 15 * 10**3)),
                Shape("verify", "contingency2", "fptas", "1/2", ("contingency2", 2, 700, 850)),
                Shape("verify", "contingency2", "fptas", "1/4", ("contingency2", 2, 700, 850)),
            ),
        ),
    )
}


def make_payload(size: tuple, rng: random.Random) -> dict:
    """One instance payload in the CLI's JSON form (decimal-string numbers)."""
    kind = size[0]
    if kind == "knapsack":
        _, n, wmin, wmax = size
        weights = [rng.randint(wmin, wmax) for _ in range(n)]
        return {"weights": [str(w) for w in weights], "capacity": str(sum(weights) // 2)}
    if kind == "mtuples":
        # One element from each of k equal slices of {0..vmax}: the sets vary
        # but their spread does not, which keeps op counts within a few percent.
        _, m, k, vmax = size
        sets = [[rng.randrange(j * vmax // k, (j + 1) * vmax // k) for j in range(k)] for _ in range(m)]
        return {
            "sets": [[str(x) for x in s] for s in sets],
            "bound": str(sum(s[-1] for s in sets) // 2),
        }
    _, n, cellmin, cellmax = size  # cellmin >= 1 keeps every column sum positive
    cells = [[rng.randint(cellmin, cellmax) for _ in range(n)] for _ in range(2)]
    return {
        "row_sums": [str(sum(row)) for row in cells],
        "col_sums": [str(cells[0][i] + cells[1][i]) for i in range(n)],
    }


def generate(name: str, seed: int, count: int) -> list[tuple[Shape, dict]]:
    """The first ``count`` operations of a workload: (shape, payload) pairs."""
    shapes = list(WORKLOADS[name].shapes)
    out = []
    for i in range(count):
        cycle, pos = divmod(i, len(shapes))
        if pos == 0:
            random.Random(f"{name}/{seed}/cycle/{cycle}").shuffle(shapes)
        shape = shapes[pos]
        out.append((shape, make_payload(shape.size, random.Random(f"{name}/{seed}/op/{i}"))))
    return out


def cli_argv(shape: Shape, input_path: str, out_path: str) -> list[str]:
    """Arguments for ``approxcount.cli.main`` running one operation."""
    return [
        shape.command,
        "--input", input_path,
        "--problem", shape.problem,
        "--mode", shape.mode,
        "--epsilon", shape.epsilon,
        "--out", out_path,
    ]
