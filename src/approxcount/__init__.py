"""Deterministic approximate counting with verifiable accuracy guarantees.

The package counts m-tuples under a sum bound, 0/1 knapsack solutions, and
2-row contingency tables. Each counter returns a value c with
exact <= c <= (1 + epsilon) * exact, checkable against the exact oracles in
:mod:`approxcount.oracles` by exact rational comparison. The compression
machinery lives in :mod:`approxcount.stepfunc` and
:mod:`approxcount.incpoints`, and the stage loop every counter runs through
in :mod:`approxcount.stagewise`. Every stage of every counter is a
:class:`StepFunction`; a contingency column is kept as its nonincreasing
upper half, its stage being (P_{i-1}, s_i, window): the previous column's
pivot, its column sum and its window. The command line entry point is
``approxcount`` (see :mod:`approxcount.cli`).
"""

from .contingency import fptas_contingency2
from .errors import InvalidInput, MonotonicityViolation, TooLarge
from .knapsack import fptas_knapsack, strong_fptas_knapsack
from .mtuples import fptas_mtuples, strong_fptas_mtuples
from .oracles import (
    Contingency2Instance,
    KnapsackInstance,
    MTuplesInstance,
    brute_knapsack,
    brute_mtuples,
    dp_contingency_sum,
    dp_knapsack,
    dp_mtuples,
)
from .stagewise import RunReport
from .stepfunc import (
    ApproxRatio,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_linear,
    apx_set_nondecreasing,
    apx_set_nonincreasing,
    read_epsilon,
    shifted_sum,
)

__all__ = [
    "ApproxRatio",
    "Contingency2Instance",
    "FnOracle",
    "IntInterval",
    "InvalidInput",
    "KnapsackInstance",
    "MTuplesInstance",
    "MonotonicityViolation",
    "RunReport",
    "StepFunction",
    "TooLarge",
    "apx_set_linear",
    "apx_set_nondecreasing",
    "apx_set_nonincreasing",
    "brute_knapsack",
    "brute_mtuples",
    "dp_contingency_sum",
    "dp_knapsack",
    "dp_mtuples",
    "fptas_contingency2",
    "fptas_knapsack",
    "fptas_mtuples",
    "read_epsilon",
    "shifted_sum",
    "strong_fptas_knapsack",
    "strong_fptas_mtuples",
]

__version__ = "0.1.0"
