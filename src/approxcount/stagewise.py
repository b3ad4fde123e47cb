"""The stage loop every counter runs through.

:func:`run_stages` starts from an exact first row f_0 and replaces each
stage of the counting recurrence by a step of the counter: a function
evaluated exactly from the previous compressed row, compressed with
per-stage ratio k on the stage's domain. Compressing a K'-approximation
with ratio k gives a kK'-approximation, and a one-point domain is one
exact evaluation that merges nothing, so it gives a K'-approximation (the
K-approximation set induction of Halman, Klabjan, Mostagir, Orlin and
Simchi-Levi, Math. Oper. Res. 2009). So k is chosen with k^m <= 1+epsilon,
m the number of stages whose domain has more than one point, and the final
row is within 1+epsilon of the exact one. Every row is a
:class:`~approxcount.stepfunc.StepFunction`. Contingency2's step is one
column's window sum, with stages (s_i, P_i, window) and each row a
column's nondecreasing half on its window (:mod:`approxcount.contingency`);
knapsack and m-tuples share :func:`sum_stage`, for the recurrence

    f_i(j) = sum of f_{i-1}(j - s) over the shifts s in S_i,

over the domain each stage names: knapsack with S_i = (0, w_i), m-tuples
with S_i the i-th set. :func:`sum_stage` has no default compressor: each
counter passes its own for the sum (:func:`~approxcount.stepfunc.shifted_sum`).
The plain variants name {0..hi} for every stage and pass the binary search
in their sums' direction. Strong m-tuples, which strong knapsack runs on
the items a subset leaves out (:mod:`~approxcount.knapsack`), names each
stage's reachable window and passes a ``compress``
(:mod:`~approxcount.mtuples`) that keeps what the nonincreasing binary
search over the window keeps.
Shifts are nonnegative, so when a stage's domain starts where the previous
one's does, every f_{i-1}(j - s) below it is the previous below-domain value
and f_i there is |S_i| times it. A domain that starts higher has no value
below it (``out_of_domain_low`` is None).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import TooLarge
from .stepfunc import ApproxRatio, StepFunction, shifted_sum, to_fraction


# The report keeps every stage's function, so the kept breakpoints bound a run's
# memory. A 60-column contingency table with cells up to 1e6 at eps 1/2 keeps 640k.
KEPT_BREAKPOINT_CAP = 10_000_000


@dataclass
class RunReport:
    """What one counter run returns.

    ``chain_length`` is the exponent the per-stage ratio was chosen for:
    the number of stages whose domain has more than one point (0 when no
    stage has). ``stage_functions`` holds each compression's compressed
    function in the order they were built; ``per_stage_set_sizes`` are
    their breakpoint counts.
    """

    count: int
    epsilon: Fraction
    oracle_calls: int
    per_stage_set_sizes: list[int]
    chain_length: int
    stage_functions: list[StepFunction] = field(repr=False, default_factory=list)


def sum_stage(prev: StepFunction, stage, ratio, compress: Callable):
    """One stage of the shifted-sum recurrence, ``stage = (shifts, domain)``:
    returns the sum over the domain, an oracle, and ``compress(sum, domain,
    ratio, below=below)``, the counter's own compressor.
    """
    shifts, dom = stage
    raw = shifted_sum([(prev, s) for s in shifts], dom)
    low = prev.out_of_domain_low
    below = None if low is None or dom.lo > prev.domain.lo else low * len(shifts)
    return raw, compress(raw, dom, ratio, below=below)


def run_stages(
    first: StepFunction, stages: Sequence, epsilon, query_at: int, step: Callable
) -> RunReport:
    """Run ``step(prev, stage, ratio)`` for every stage from ``first`` and
    report the last row at ``query_at``. Each stage is a tuple that ends
    with its domain. A step returns the oracle it evaluated and the
    compressed function. Keeping more than KEPT_BREAKPOINT_CAP breakpoints
    in all raises TooLarge.
    """
    eps = to_fraction(epsilon)
    # a one-point stage is one exact evaluation: it merges nothing, adds no ratio
    merging = sum(dom.lo < dom.hi for *_, dom in stages)
    ratio = ApproxRatio.for_stages(eps, max(merging, 1))
    approx = first
    calls = kept = 0
    stage_functions = []

    for stage in stages:
        oracle, approx = step(approx, stage, ratio)
        calls += oracle.calls
        kept += len(approx)
        if kept > KEPT_BREAKPOINT_CAP:
            raise TooLarge(f"kept breakpoints exceed cap {KEPT_BREAKPOINT_CAP}")
        stage_functions.append(approx)

    return RunReport(
        count=approx.query(query_at),
        epsilon=eps,
        oracle_calls=calls,
        per_stage_set_sizes=[len(f) for f in stage_functions],
        chain_length=merging,
        stage_functions=stage_functions,
    )
