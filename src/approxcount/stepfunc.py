"""Monotone integer step functions and ratio-bounded compression.

One idea drives everything here. Let phi be a monotone, nonnegative,
integer-valued function on an integer interval {lo..hi}, available only
through an oracle. A short sorted breakpoint set W containing both endpoints
is *k-certified* for phi when the values of consecutive breakpoints that are
more than one apart stay within a multiplicative factor k of each other. The
step function induced by W (exact at breakpoints, larger adjacent breakpoint
value in between) then satisfies a two-sided pointwise bound

    phi(x) <= induced(x) <= k * phi(x)    for every x in {lo..hi},

while having only O(1 + log_k max(phi)) breakpoints. W is the K-approximation
set and the step function the K-approximation function of Halman et al.;
here they are one object: the compressors :func:`apx_set_nondecreasing` and
:func:`apx_set_nonincreasing` return the :class:`StepFunction`, each
breakpoint holding the value its own binary search probed, so the function
is read off the searches without evaluating phi again. :func:`apx_set_linear`
walks the pieces of a nonincreasing phi known at knots between which it is
linear, instead of searching, up from phi's largest value, and returns what
:func:`apx_set_nonincreasing` returns; the strong counters and contingency
tables, whose every walked function is nonincreasing, compress that way. A
piece whose values rise raises MonotonicityViolation, as a probe out of
order does. No direction is declared: each compressor's name says the one it
takes phi to have, and a step function's values fix its own.
Construction probes phi through :class:`FnOracle`, which tallies calls and
carries phi's domain and its value below it, so every compressor that
evaluates phi takes only phi and k. Every comparison is done in exact
integer arithmetic: with k = p/q, "k*phi(y) >= phi(x)" is
p*phi(y) >= q*phi(x), which the binary searches test as phi(y) >= need
for need = ceil(q*phi(x)/p), computed once per search; for integer values
the two tests agree. No floats anywhere, so the bound survives any value
magnitudes.

A sum of one step function's shifted copies (``shifted_sum``, one stage of
the knapsack and m-tuples recurrences) stays monotone and can be
recompressed; compressing with ratio k1 a function that was itself within
ratio k2 of a reference gives ratio k1*k2 against the reference. There is no
such rule for subtraction, and nothing in this module subtracts. A sum is
built once per stage as a piece table that its oracle reads itself, so each
evaluation is one bisect inside ``FnOracle.__call__``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import floordiv, ge, le, lt, mul, sub
from typing import Callable, Sequence

from .errors import InvalidInput, MonotonicityViolation, TooLarge


@dataclass(frozen=True)
class IntInterval:
    """Closed integer interval {lo..hi}."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInput(f"empty interval [{self.lo}, {self.hi}]")

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


def to_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, float, or text such as "0.25",
    "1e-3" or "1/4", at any length.

    Floats are routed through their shortest decimal repr, so to_fraction(0.1)
    is exactly 1/10 rather than the binary float it would otherwise denote.
    Text is read through Decimal, which takes digits past int()'s limit;
    text that is not a rational raises InvalidInput.
    """
    if isinstance(value, float):
        value = str(value)
    if not isinstance(value, str):
        return Fraction(value)
    num, slash, den = value.partition("/")
    try:
        return Fraction(Decimal(num)) / (Fraction(Decimal(den)) if slash else 1)
    except (ValueError, ArithmeticError) as exc:  # ZeroDivisionError, InvalidOperation, inf
        raise InvalidInput(f"{value!r} is not a rational number") from exc


def decimal_text(q: int | Fraction) -> str:
    """str(q) at any length; str() refuses more digits than sys.get_int_max_str_digits()."""
    n, d = q.as_integer_ratio()
    return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


_PRECISION_BITS = 96  # of the dyadic k; doubled while the root rounds down to 1

# The bits of (a + b) << prec*stages, for epsilon = a/b, the integer k's root is
# taken from at precision prec; 1000 stages at epsilon 1/2 reach 96,002.
RATIO_BIT_CAP = 1_000_000


def _root(n: int, s: int) -> int:
    """The floor s-th root of n >= 1, by Newton's step, which falls to it from
    any start at or above it. The start is (root(n >> s*q) + 1) << q, above
    the root, for q about half the root's bits, so the recursion halves them."""
    q = n.bit_length() // (2 * s)
    r = (_root(n >> s * q, s) + 1) << q if q else 1 << -(-n.bit_length() // s)
    while True:
        y = ((s - 1) * r + n // r ** (s - 1)) // s
        if y >= r:
            return r
        r = y


@dataclass(frozen=True)
class ApproxRatio:
    """A per-stage ratio k with an exact certificate k**stages <= 1 + epsilon.

    k is the stages-th root of 1 + epsilon, rounded DOWN to a dyadic rational
    so the end-to-end guarantee never degrades; the invariants are re-checked
    with exact Fraction arithmetic on construction.

    The integer root comes from Newton's step started from the root of the
    integer's top bits, scaled up, which takes about half the root's bits,
    so a large epsilon costs a few divisions at each of about log2 of the
    root's bits. The precision is 96 bits, doubled while the root rounds
    down to 1. Choosing k costs a few powers of about 96*stages bits. An
    epsilon of many digits, or many stages, needs longer integers: TooLarge
    is raised before a precision step whose integer would pass
    RATIO_BIT_CAP bits.
    """

    k: Fraction
    epsilon: Fraction
    stages: int

    def __post_init__(self):
        if self.stages < 1:
            raise InvalidInput("stages must be positive")
        if self.k <= 1:
            raise InvalidInput("ratio must exceed 1")
        if self.k**self.stages > 1 + self.epsilon:
            raise InvalidInput("ratio certificate failed: k**stages > 1 + epsilon")

    @classmethod
    def for_stages(cls, epsilon, stages: int) -> "ApproxRatio":
        eps = to_fraction(epsilon)
        if eps <= 0:
            raise InvalidInput("epsilon must be positive")
        if stages < 1:
            raise InvalidInput("stages must be positive")
        a, b = eps.as_integer_ratio()
        prec, width = _PRECISION_BITS, (a + b).bit_length()
        while True:
            if width + prec * stages > RATIO_BIT_CAP:
                raise TooLarge(f"choosing k for {stages} stages passes the {RATIO_BIT_CAP}-bit cap")
            den = 1 << prec
            root = _root(((a + b) << prec * stages) // b, stages)  # of floor((1+eps) * den**stages)
            if root > den:
                return cls(k=Fraction(root, den), epsilon=eps, stages=stages)
            prec *= 2


@dataclass(slots=True, eq=False)
class FnOracle:
    """Access to an integer -> count function, with a call tally.

    The function is either a black box ``fn`` or a piece table: ``starts``
    sorted and ``values`` one longer, with f(x) = values[bisect_right(starts,
    x)], which :func:`shifted_sum` builds. ``__call__`` reads a table itself,
    one bisect with no frame below it. Exactly one of ``fn`` and ``values``
    is given, or InvalidInput is raised.

    No check is made per call; each compressor spot-checks its probes, and
    ``below``, the value below ``domain`` or None where there is none,
    against the direction its name says, and gives its function that
    ``below``. ``calls`` increments once per evaluation, repeats included; a
    single oracle must not be shared across concurrent callers. ``starts``
    are the sorted points its compressor reads: where a piece table changes
    value, or the knots a window sum is linear between; other black boxes
    have None. An oracle equals only itself.

    Every evaluation is one call of ``__call__``, never bypassed through
    ``fn`` or the table or batched, because the tally and any wrapper
    patched onto the class (a tracer's) count evaluations there. Each
    compressor binds ``phi.__call__`` once per call and probes through it:
    CPython does not specialize calling an instance whose class defines
    ``__call__``, but it does a bound method, and binding per call, never
    at import, still sees a patch made on the class before the compression.
    """

    domain: IntInterval
    fn: Callable | None = None
    starts: Sequence[int] | None = None
    below: int | None = None
    values: Sequence[int] | None = None
    calls: int = field(default=0, init=False)

    def __post_init__(self):
        if (self.fn is None) == (self.values is None):
            raise InvalidInput("an oracle needs exactly one of fn and a piece table's values")

    def __call__(self, x: int) -> int:
        self.calls += 1
        if self.fn is None:
            return self.values[bisect_right(self.starts, x)]
        return self.fn(x)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant monotone function, queryable anywhere.

    Stores a value at every breakpoint. Between breakpoints the larger
    adjacent breakpoint value applies. Above the domain the last
    breakpoint's value continues. Below it the fixed ``below`` applies, if
    one is given; it carries boundary conventions such as "0 below 0"
    (knapsack) or "the full product below 0" (tuple counting) without
    special cases in callers. A ``below`` of None, the default,
    means there is no value below the domain: a stage kept only on a window
    that starts above 0 does not know the values under it, so a query there
    raises InvalidInput, and so does :func:`shifted_sum` when it would read
    the function there. The value below, if any, then the values are one
    monotone sequence, rising or falling as its ends say, or
    MonotonicityViolation is raised; all are counts, nonnegative, or
    InvalidInput is raised.
    """

    xs: tuple[int, ...]
    values: tuple[int, ...]
    below: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.xs) != len(self.values) or not self.xs:
            raise InvalidInput("need equally many breakpoints and values, at least one")
        xs, values = self.xs, self.values
        if not all(map(lt, xs, xs[1:])):
            raise InvalidInput("breakpoint positions must be strictly increasing")
        run = values if self.below is None else (self.below, *values)
        ordered = le if run[0] <= run[-1] else ge
        if not all(map(ordered, run, run[1:])):
            raise MonotonicityViolation("the value below and the values are not monotone")
        if min(run[0], run[-1]) < 0:  # the ends of a monotone run hold its least value
            raise InvalidInput("the value below and the values must be nonnegative")

    def __len__(self) -> int:
        """The number of breakpoints."""
        return len(self.xs)

    @property
    def domain(self) -> IntInterval:
        """{xs[0]..xs[-1]}, the span of the breakpoints."""
        return IntInterval(self.xs[0], self.xs[-1])

    def query(self, x: int) -> int:
        xs = self.xs
        if x < xs[0]:
            if self.below is None:
                raise InvalidInput(f"no value at {x}, below the domain from {xs[0]}")
            return self.below
        if x > xs[-1]:
            return self.values[-1]
        i = bisect_left(xs, x)
        return self.values[i] if xs[i] == x else max(self.values[i - 1], self.values[i])

    def to_json(self) -> str:
        """One JSON object, laid out as json.dumps lays it out: positions are
        JSON numbers, values decimal strings, both at any length (json.dumps
        refuses an int past sys.get_int_max_str_digits())."""
        low = self.below
        pos, val = decimal_text, lambda v: f'"{decimal_text(v)}"'
        points = ", ".join(f"[{pos(x)}, {val(v)}]" for x, v in zip(self.xs, self.values))
        return (
            f'{{"domain": [{pos(self.xs[0])}, {pos(self.xs[-1])}], '
            f'"breakpoints": [{points}], "below": {"null" if low is None else val(low)}, '
            f'"above": {val(self.values[-1])}}}'
        )


def _out_of_order(x: int, v: int, left: int, right: int, direction: str):
    return MonotonicityViolation(
        f"oracle value {v} at {x} is not between {left} and {right}, the values of the "
        f"probes around it; that contradicts the {direction} direction"
    )


def apx_set_nondecreasing(phi: FnOracle, k: ApproxRatio) -> StepFunction:
    """Compress a nondecreasing phi on its domain to a step function within ratio k.

    Scans from the high end: from the current point x, binary-search the
    smallest y with k*phi(y) >= phi(x) (monotone predicate), step to
    min(x-1, y), repeat until the low end. Each kept pair more than one apart
    is certified by construction. Each kept point takes the value its own
    search probed (y's probe, or x-1's when y = x), so the function is exact
    at every breakpoint without a second pass. Each probe is checked against
    the probes that bracket it. Oracle cost is O(|W| log |dom|). Below the
    domain the value is ``phi.below``, at most phi(lo) or MonotonicityViolation
    is raised; None means no value, so a query there raises.
    """
    evaluate, dom = phi.__call__, phi.domain
    num, den = k.k.numerator, k.k.denominator
    x = dom.hi
    fx = evaluate(x)
    xs, values = [x], [fx]
    while x > dom.lo:
        lo, hi = dom.lo, x  # phi(x) itself satisfies the predicate since k > 1
        v_lo, v_hi = 0, fx  # counts are nonnegative
        need = -(-den * fx // num)  # num*v >= den*fx exactly when v >= need
        while lo < hi:
            mid = (lo + hi) // 2
            v = evaluate(mid)
            if not v_lo <= v <= v_hi:
                raise _out_of_order(mid, v, v_lo, v_hi, "nondecreasing")
            if v >= need:
                hi, v_hi = mid, v
            else:
                lo, v_lo = mid + 1, v
        # y = x means the last probe, x-1, failed
        x, fx = (x - 1, v_lo) if lo == x else (lo, v_hi)
        xs.append(x)
        values.append(fx)
    if phi.below is not None and phi.below > fx:  # the scan ended at x = dom.lo, fx its probe
        raise MonotonicityViolation(f"value below {phi.below} > {fx} at {x}: not nondecreasing")
    xs.reverse()
    values.reverse()
    return StepFunction(xs, values, phi.below)


def apx_set_nonincreasing(phi: FnOracle, k: ApproxRatio) -> StepFunction:
    """Compress a nonincreasing phi on its domain to a step function within ratio k.

    Scans from the low end: from the current point x, binary-search the first
    y > x where k*phi(y) < phi(x) fails the ratio; every point before it is
    certified against x, so y becomes the next breakpoint, with the value its
    search probed. If no failure exists up to the domain end, the scan stops
    and the tail is merged: it is certified against x, so the domain end
    takes x's value. Each probe is checked against the probes that bracket
    it, the domain end against x before every merge decision, ``phi.below``
    against phi(lo). Out of domain values are as in :func:`apx_set_nondecreasing`.
    """
    evaluate, dom = phi.__call__, phi.domain
    num, den = k.k.numerator, k.k.denominator
    x = dom.lo
    fx = evaluate(x)
    v_end = evaluate(dom.hi) if dom.hi > x else fx
    if phi.below is not None and phi.below < fx:
        raise MonotonicityViolation(f"value below {phi.below} < {fx} at {x}: not nonincreasing")
    xs, values = [x], [fx]
    while x < dom.hi:
        if v_end > fx:
            raise _out_of_order(dom.hi, v_end, fx, 0, "nonincreasing")
        need = -(-den * fx // num)  # num*v < den*fx exactly when v < need
        if v_end >= need:
            xs.append(dom.hi)
            values.append(fx)
            break
        lo, hi = x + 1, dom.hi  # failure exists; find the first one
        v_lo, v_hi = fx, v_end
        while lo < hi:
            mid = (lo + hi) // 2
            v = evaluate(mid)
            if not v_lo >= v >= v_hi:
                raise _out_of_order(mid, v, v_lo, v_hi, "nonincreasing")
            if v < need:
                hi, v_hi = mid, v
            else:
                lo, v_lo = mid + 1, v
        x, fx = lo, v_hi
        xs.append(x)
        values.append(fx)
    return StepFunction(xs, values, phi.below)


def apx_set_linear(
    knots: Sequence[int],
    values: Sequence[int],
    k: ApproxRatio,
    *,
    below: int | None = None,
) -> StepFunction:
    """What :func:`apx_set_nonincreasing` returns on {knots[0]..knots[-1]}
    for a nonincreasing f known by its ``values`` at the sorted ``knots``,
    linear with an integer slope between them.

    Nothing is evaluated. The walk scans up from knots[0], where f is
    largest. From each kept point x it merges the rest into x if the far
    end passes num*f(end) >= den*f(x); otherwise it keeps the first y past
    x with num*f(y) < den*f(x), found on its piece by one floor division.
    The cost is O(len(knots)) plus one step per kept point. InvalidInput is
    raised unless the values are nonnegative and linear with an integer
    slope on every piece; MonotonicityViolation is raised for a piece whose
    integer slope rises, naming it by its knots and values as InvalidInput
    does, and for a ``below`` under values[0].
    """
    if not knots or len(knots) != len(values):
        raise InvalidInput("need equally many knots and values, at least one")
    widths = list(map(sub, knots[1:], knots[:-1]))
    rises = list(map(sub, values[1:], values[:-1]))
    if min(widths, default=1) <= 0:
        raise InvalidInput("knots must be strictly increasing")
    slopes = list(map(floordiv, rises, widths))  # slopes[i]: from knots[i] to knots[i+1]
    if max(slopes, default=0) > 0 or list(map(mul, slopes, widths)) != rises:
        i = next(i for i, d in enumerate(slopes) if d * widths[i] != rises[i] or d > 0)
        error = InvalidInput if slopes[i] * widths[i] != rises[i] else MonotonicityViolation
        raise error(
            f"not nonincreasing and linear with integer slope from {knots[i]} to "
            f"{knots[i + 1]}: {values[i]}, {values[i + 1]}"
        )
    if values[-1] < 0:
        raise InvalidInput(f"negative value {values[-1]} at {knots[-1]}")
    if below is not None and below < values[0]:
        raise MonotonicityViolation(f"value below {below} < {values[0]}: not nonincreasing")
    num, den = k.k.numerator, k.k.denominator
    j, end, top = 0, knots[-1], num * values[-1]
    x, fx = knots[0], values[0]
    xs, fxs = [x], [fx]
    while x != end:
        bar = den * fx
        if top >= bar:  # the rest is certified against x: merge it
            xs.append(end)
            fxs.append(fx)
            break
        while num * values[j] >= bar:  # x passes, so j moves past x: j - 1 >= 0
            j += 1
        # knots[j] is the first knot that fails; its piece holds the first point that does
        a, wa, d = knots[j - 1], values[j - 1], slopes[j - 1]
        x = a + (num * wa - bar) // (-num * d) + 1  # the first failing point past a
        fx = wa + (x - a) * d
        xs.append(x)
        fxs.append(fx)
    return StepFunction(xs, fxs, below)


def induce(phi: FnOracle, points: Sequence[int]) -> StepFunction:
    """The step function phi induces on the sorted points: exact at each one,
    larger adjacent point's value in between. Evaluates phi once per point;
    MonotonicityViolation is raised unless the values are monotone.

    The points' ends are the function's domain; below it there is no value.
    """
    if points[0] not in phi.domain or points[-1] not in phi.domain:
        raise InvalidInput("points leave the oracle's domain")
    return StepFunction(points, list(map(phi.__call__, points)), None)


def shifted_sum(f: StepFunction, shifts: Sequence[int], domain: IntInterval) -> FnOracle:
    """Oracle on ``domain`` for j -> sum of f(j - s) over the ``shifts``, repeats included.

    Shifting and adding keep f monotone. Reads outside f's domain hit its
    boundary values, which is how recurrences like "count(j - w) with count
    = 0 below zero" are realized; if f has no value below its domain, a sum
    that would read f there is refused. The oracle's ``below`` is
    len(shifts) times f's low value when f has one, no shift is negative and
    the domain starts no higher than f's, so that every read below the
    domain lands below f's; otherwise it is None.

    The sum is built once as a piece table over every integer: f changes
    value only where its domain begins and where each piece starts, past
    its left breakpoint if it rises, at its right one if it falls. Those
    changes, all of one sign since f is monotone through its value below,
    are listed once and added at each shift, at O(P log P) for P = len(f) *
    len(shifts), whatever the domain's width; none cancel, so ``starts``
    are exactly the points where the sum changes value. The oracle reads
    its table (``starts`` and ``values``) itself, one bisect inside
    ``FnOracle.__call__`` with no frame below it.
    """
    if not shifts:
        raise InvalidInput("need at least one shift")
    xs, values, low = f.xs, f.values, f.below
    if low is None and domain.lo - max(shifts) < xs[0]:
        raise InvalidInput(
            f"the sum reads f at {domain.lo - max(shifts)}, below its domain from {xs[0]}, "
            "where it has no value"
        )
    base = values[0] if low is None else low  # with no low value, no read falls below f
    # piece i runs from xs[i-1] to xs[i]; the first from below the domain to xs[0]
    pieces = zip((xs[0] - 1, *xs), xs, (base, *values), values)
    changes = [(a + 1 if v > u else b, v - u) for a, b, u, v in pieces if v != u]
    deltas: dict[int, int] = defaultdict(int)
    for s in shifts:
        for x, d in changes:
            deltas[x + s] += d
    starts = sorted(deltas)
    table = list(accumulate((deltas[x] for x in starts), initial=len(shifts) * base))
    known = low is not None and min(shifts) >= 0 and domain.lo <= xs[0]
    below = table[0] if known else None
    return FnOracle(domain, starts=starts, below=below, values=table)
