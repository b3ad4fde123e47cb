"""Each strong stage's candidate change points, recomputed from its report.

Strong m-tuples compresses stage i over the :class:`IncIndex` of the piece
starts of its shifted sum in the stage's window: both window ends and every
piece start between them. The report keeps each stage function, so the
candidates follow from the stage before it and the stage's shifts.
"""

from approxcount.incpoints import IncIndex
from approxcount.mtuples import EMPTY_TUPLE_ROW
from approxcount.stepfunc import shifted_sum


def stage_candidates(rep, tuples) -> list[tuple[int, ...]]:
    """The candidate points of every stage of a strong m-tuples report on
    ``tuples`` (for strong knapsack, on its left-out items)."""
    prev, out = EMPTY_TUPLE_ROW, []
    for shifts, func in zip(tuples.sets, rep.stage_functions):
        dom = func.domain
        out.append(IncIndex.build(shifted_sum(prev, shifts, dom).starts, dom).points)
        prev = func
    return out
