"""The stage loop every counter runs through.

:func:`run_stages` starts from an exact first row f_0 and repeats one step
per stage of the counting recurrence: build the stage's oracle exactly from
the previous compressed row, then compress it with per-stage ratio k.
Every compressor takes ``(oracle, ratio)``, since the oracle carries its
domain and its value below it. Compressing a K'-approximation with ratio k
gives a kK'-approximation, and a one-point domain is one exact evaluation
that merges nothing, so it gives a K'-approximation (the K-approximation
set induction of Halman, Klabjan, Mostagir, Orlin and Simchi-Levi, Math.
Oper. Res. 2009). So k is chosen with k^m <= 1+epsilon, m the number of
stages whose domain has more than one point, and the final row is within
1+epsilon of the exact one; the count is its value at its domain's high
end, the query point every counter's stages end at. Every row is a
:class:`~approxcount.stepfunc.StepFunction`. Contingency2's exact stage is
one column's window sum, with stages (P_{i-1}, s_i, window) and each row a
column's nonincreasing upper half on its window (:mod:`approxcount.contingency`).
Knapsack and m-tuples build theirs with
:func:`~approxcount.stepfunc.shifted_sum` itself, from stages (S_i, domain),
for the recurrence

    f_i(j) = sum of f_{i-1}(j - s) over the shifts s in S_i,

over the domain each stage names: knapsack with S_i = (0, w_i), m-tuples
with S_i the i-th set. The plain variants name {0..hi} for every stage and
compress by binary search: nondecreasing for knapsack, nonincreasing for
m-tuples. Strong m-tuples, which strong knapsack runs on the items a subset
leaves out (:mod:`~approxcount.knapsack`), names each stage's reachable
window and keeps what the nonincreasing binary search over it keeps
(:mod:`~approxcount.mtuples`). Shifts are nonnegative, so a stage whose
domain starts where the previous one's does is |S_i| times the previous
below-domain value below it; a domain that starts higher has no value
below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import TooLarge
from .stepfunc import ApproxRatio, StepFunction, to_fraction


# The report keeps every stage's function, so the kept breakpoints bound a run's
# memory. A 60-column contingency table with cells up to 1e6 at eps 1/2 keeps 640k.
KEPT_BREAKPOINT_CAP = 10_000_000

# A process chooses k once per (epsilon's exact value, stages): a long epsilon's
# root takes seconds. TooLarge is not cached, so it is raised every time.
_ratio = lru_cache(maxsize=16)(ApproxRatio.for_stages)


@dataclass
class RunReport:
    """What one counter run returns.

    ``chain_length`` is the exponent the per-stage ratio was chosen for:
    the number of stages whose domain has more than one point (0 when no
    stage has). ``stage_functions`` holds each compression's compressed
    function in the order they were built; ``set_sizes`` are
    their breakpoint counts.
    """

    count: int
    oracle_calls: int
    set_sizes: list[int]
    chain_length: int
    stage_functions: list[StepFunction] = field(repr=False, default_factory=list)


def run_stages(first: StepFunction, stages: Sequence, epsilon, exact, compress) -> RunReport:
    """From ``first``, build each stage's oracle ``exact(prev, *stage)`` and
    compress it, ``compress(oracle, ratio)``; the count is the last row at
    its domain's high end, where every counter's stages end. Each stage is
    a tuple that ends with its domain. Keeping more than
    KEPT_BREAKPOINT_CAP breakpoints in all raises TooLarge.
    """
    # a one-point stage is one exact evaluation: it merges nothing, adds no ratio
    merging = sum(dom.lo < dom.hi for *_, dom in stages)
    ratio = _ratio(to_fraction(epsilon), max(merging, 1))
    approx = first
    calls = kept = 0
    stage_functions = []

    for stage in stages:
        oracle = exact(approx, *stage)
        approx = compress(oracle, ratio)
        calls += oracle.calls
        kept += len(approx)
        if kept > KEPT_BREAKPOINT_CAP:
            raise TooLarge(f"kept breakpoints exceed cap {KEPT_BREAKPOINT_CAP}")
        stage_functions.append(approx)

    return RunReport(
        count=approx.values[-1],  # the value at domain.hi, the last breakpoint
        oracle_calls=calls,
        set_sizes=[len(f) for f in stage_functions],
        chain_length=merging,
        stage_functions=stage_functions,
    )
