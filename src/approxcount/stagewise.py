"""The stage loop shared by the knapsack and m-tuples counters.

Both problems count through one recurrence,

    f_i(j) = sum of f_{i-1}(j - s) over the shifts s in S_i,

over a fixed domain {lo..hi}: knapsack with S_i = (0, w_i), m-tuples with
S_i the i-th set. :func:`run_stages` starts from the exact first row f_0,
and at each stage sums shifted copies of the previous compressed function
(:func:`~approxcount.stepfunc.shifted_sum`) and compresses that sum with
per-stage ratio k, k^stages <= 1+epsilon. Compressing a K'-approximation
with ratio k gives a kK'-approximation, so the final row is within 1+epsilon
of the exact one. The problems differ only in f_0 and the shift sets.

The plain variants compress each stage by binary search over the domain,
the strong ones over its candidate change points: both ends and the starts
of the sum's piece table in between, which cover every change by
construction, including where a shifted copy first enters the domain.

Shifts are nonnegative, so below the domain every f_{i-1}(j - s) is the
previous below-domain value, and f_i there is |S_i| times it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Sequence

from .incpoints import IncIndex
from .stepfunc import (
    ApproxRatio,
    Direction,
    StepFunction,
    apx_set_nondecreasing,
    apx_set_nonincreasing,
    shifted_sum,
    to_fraction,
)


@dataclass
class RunReport:
    """What one counter run returns.

    ``chain_length`` is the number of compressions along the longest chain
    feeding the count, the exponent the per-stage ratio was chosen for (0
    when no compression ran). The ``stage_*`` lists hold each compression's
    compressed function and, for the strong variants, candidate change
    points, in the order they were built; ``per_stage_set_sizes`` are the
    functions' breakpoint counts.
    """

    count: int
    epsilon: Fraction
    oracle_calls: int
    per_stage_set_sizes: list[int]
    elapsed: float
    chain_length: int = 0
    stage_functions: list = field(repr=False, default_factory=list)
    stage_candidates: list[IncIndex] = field(repr=False, default_factory=list)

    @property
    def epsilon_in_proven_range(self) -> bool:
        return self.epsilon < 1


def binary_search(raw, ratio, below) -> StepFunction:
    """Compress over the whole numeric domain by binary search."""
    up = raw.direction is Direction.NONDECREASING
    search = apx_set_nondecreasing if up else apx_set_nonincreasing
    return search(raw, raw.domain, ratio, below=below)


def run_stages(
    first_row: StepFunction,
    shift_sets: Sequence[Sequence[int]],
    epsilon,
    query_at: int,
    convert: Callable | None = None,
) -> RunReport:
    """Run every stage from ``first_row`` and report the last row at ``query_at``.

    Without ``convert`` each stage is compressed by :func:`binary_search`.
    The strong counters pass :func:`~approxcount.incpoints.convert`, called
    as ``convert(raw, candidates, ratio, below=below)`` with the
    :class:`IncIndex` of the stage's piece starts.
    """
    started = perf_counter()
    eps = to_fraction(epsilon)
    ratio = ApproxRatio.for_stages(eps, len(shift_sets))
    dom = first_row.domain
    approx = first_row
    below = first_row.out_of_domain_low
    calls = 0
    stage_functions, stage_candidates = [], []

    for shifts in shift_sets:
        raw = shifted_sum([(approx, s) for s in shifts], dom)
        below *= len(shifts)
        if convert is None:
            approx = binary_search(raw, ratio, below)
        else:
            candidates = IncIndex.build(raw.starts, dom)
            approx = convert(raw, candidates, ratio, below=below)
            stage_candidates.append(candidates)
        calls += raw.calls
        stage_functions.append(approx)

    return RunReport(
        count=approx.query(query_at),
        epsilon=eps,
        oracle_calls=calls,
        per_stage_set_sizes=[len(f) for f in stage_functions],
        elapsed=perf_counter() - started,
        chain_length=ratio.stages,
        stage_functions=stage_functions,
        stage_candidates=stage_candidates,
    )
