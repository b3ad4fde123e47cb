"""Exact counts that the benchmark checks the program's answers against.

Runs in its own process (``python3 perfbench/reference.py IN OUT``), outside
the timed loop, so its memory never shows in the measured peak RSS.

* knapsack and m-tuples under ``count``: meet in the middle, sorted half sums
  plus bisect, independent of the magnitude of the numbers;
* 2-row tables under ``count``: ``approxcount.oracles.dp_contingency_sub``,
  O(columns x R);
* every instance under ``verify``: direct enumeration, which also checks the
  ``exact`` field that ``verify`` prints.

The band check is integer arithmetic only.
"""

from __future__ import annotations

import itertools
import json
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction

from bootstrap import import_approxcount


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
    """Subsets with total weight <= capacity."""
    half = len(weights) // 2
    right = sorted(_subset_sums(weights[half:]))
    return sum(bisect_right(right, capacity - a) for a in _subset_sums(weights[:half]) if a <= capacity)


def mtuples_mitm(sets, bound: int) -> int:
    """Tuples, one element per set, with sum >= bound."""
    half = len(sets) // 2
    right = sorted(_tuple_sums(sets[half:]))
    n = len(right)
    return sum(n - bisect_left(right, bound - a) for a in _tuple_sums(sets[:half]))


def enumerate_count(problem: str, payload: dict) -> int:
    """The same counts by listing every subset, tuple or first-row fill."""
    if problem == "knapsack":
        weights = [int(w) for w in payload["weights"]]
        cap = int(payload["capacity"])
        return sum(
            1
            for pick in itertools.product((0, 1), repeat=len(weights))
            if sum(w for w, p in zip(weights, pick) if p) <= cap
        )
    if problem == "mtuples":
        sets = [[int(x) for x in s] for s in payload["sets"]]
        bound = int(payload["bound"])
        return sum(1 for combo in itertools.product(*sets) if sum(combo) >= bound)
    # First-row fills of every column but the last; the last cell is then forced.
    *cols, last = [int(c) for c in payload["col_sums"]]
    r = min(int(x) for x in payload["row_sums"])
    return sum(1 for fill in itertools.product(*(range(c + 1) for c in cols)) if 0 <= r - sum(fill) <= last)


def exact_count(command: str, problem: str, payload: dict) -> int:
    if command == "verify":
        return enumerate_count(problem, payload)
    if problem == "knapsack":
        return knapsack_mitm([int(w) for w in payload["weights"]], int(payload["capacity"]))
    if problem == "mtuples":
        return mtuples_mitm([[int(x) for x in s] for s in payload["sets"]], int(payload["bound"]))
    oracles = import_approxcount().oracles
    inst = oracles.Contingency2Instance(
        row_sums=tuple(int(x) for x in payload["row_sums"]),
        col_sums=tuple(int(x) for x in payload["col_sums"]),
    )
    return oracles.dp_contingency_sub(inst)


def in_band(count: int, exact: int, epsilon: str) -> bool:
    """exact <= count <= (1 + eps) * exact, in integers."""
    eps = Fraction(epsilon)
    return exact <= count and count * eps.denominator <= exact * (eps.denominator + eps.numerator)


def main(argv: list[str]) -> int:
    """IN holds one JSON object per line with command, problem and payload."""
    src, dst = argv
    with open(src, encoding="utf-8") as handle:
        items = [json.loads(line) for line in handle if line.strip()]
    counts = [str(exact_count(it["command"], it["problem"], it["payload"])) for it in items]
    with open(dst, "w", encoding="utf-8") as handle:
        json.dump(counts, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
