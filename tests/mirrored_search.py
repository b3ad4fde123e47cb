"""The binary-search witness for walked nondecreasing functions.

:func:`approxcount.stepfunc.apx_set_linear` walks a nondecreasing function's
mirror image x -> -x up from its top, by the keep rule of
:func:`approxcount.stepfunc.apx_set_nonincreasing`. The tests compare every
nondecreasing walk against that search on the mirror image.
"""

from approxcount.stepfunc import (
    Direction,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_nonincreasing,
)


def mirrored_search(phi, k) -> StepFunction:
    """What apx_set_nonincreasing keeps on t -> phi(-t) over {-dom.hi..-dom.lo},
    mapped back to a nondecreasing step function on phi's domain, with
    phi.below below it."""
    dom = phi.domain
    mirror = FnOracle(IntInterval(-dom.hi, -dom.lo), Direction.NONINCREASING, lambda t: phi(-t))
    kept = apx_set_nonincreasing(mirror, k)
    return StepFunction(
        direction=Direction.NONDECREASING,
        xs=[-t for t in reversed(kept.xs)],
        values=kept.values[::-1],
        out_of_domain_low=phi.below,
    )
