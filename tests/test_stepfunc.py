"""Compression core: breakpoint selection, compressed step functions, exact ratios.

The properties here are the contract the counters lean on: the compressed
function always sandwiches the original within the chosen ratio, breakpoint
sets stay logarithmically small, and sums of approximations inherit the
worse of the two ratios. Everything is checked with exact rational
arithmetic; no tolerance anywhere.
"""

import json
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxcount.errors import InvalidInput, MonotonicityViolation, TooLarge
from approxcount.stepfunc import (
    _CAP_DIGITS,
    RATIO_BIT_CAP,
    _digits_int,
    ApproxRatio,
    FnOracle,
    IntInterval,
    StepFunction,
    apx_set_linear,
    apx_set_nondecreasing,
    apx_set_nonincreasing,
    decimal_text,
    induce,
    read_epsilon,
    shifted_sum,
)
from dense_keep_rule import dense_keep


UP, DOWN = "nondecreasing", "nonincreasing"
SEARCH = {UP: apx_set_nondecreasing, DOWN: apx_set_nonincreasing}


def oracle_from_values(values):
    dom = IntInterval(0, len(values) - 1)
    return FnOracle(dom, lambda j: values[j])


def compress(values, direction, k):
    """Compress a dense value table with the search of the named direction."""
    return SEARCH[direction](oracle_from_values(values), k)


# Monotone tables built from nonnegative deltas; lets hypothesis shrink well.
def nondecreasing_tables(max_len=400, max_step=50):
    return st.lists(
        st.integers(min_value=0, max_value=max_step), min_size=1, max_size=max_len
    ).map(lambda deltas: [sum(deltas[: i + 1]) for i in range(len(deltas))])


ratios = st.sampled_from(
    [
        ApproxRatio.for_stages(Fraction(1, 10), 3),
        ApproxRatio.for_stages(Fraction(1, 2), 2),
        ApproxRatio.for_stages(Fraction(1), 1),
        ApproxRatio.for_stages(Fraction(7), 3),
    ]
)
# k = 3/2, 2 and 5/4: small numerators, so den*f(x) is often a multiple of num
exact_ratios = st.sampled_from(
    [
        ApproxRatio.for_stages(Fraction(1, 2), 1),
        ApproxRatio.for_stages(1, 1),
        ApproxRatio.for_stages(Fraction(1, 4), 1),
    ]
)


class TestToFraction:
    """read_epsilon: an exact Fraction from each kind of value it takes."""

    def test_decimal_string_is_exact(self):
        assert read_epsilon("0.1") == Fraction(1, 10)

    def test_float_goes_through_repr(self):
        assert read_epsilon(0.1) == Fraction(1, 10)

    def test_int_and_fraction_pass_through(self):
        assert read_epsilon(7) == 7
        assert read_epsilon(Fraction(3, 2)) == Fraction(3, 2)

    def test_text_of_any_length(self):
        assert read_epsilon("1/" + "9" * 5000) == Fraction(1, 10**5000 - 1)
        assert read_epsilon("1.5/3") == read_epsilon("1e-1/0.2") == Fraction(1, 2)

    @pytest.mark.parametrize(
        "text, value",
        [("+1", 1), ("1/+2", Fraction(1, 2)), (".5/.25", 2), ("5./2e0", Fraction(5, 2)),
         ("-1/-2", Fraction(1, 2))],
    )
    def test_signs_and_bare_points_read_exactly(self, text, value):
        assert read_epsilon(text) == value

    # Decimal itself reads "1_0" as 10, strips spaces and reads "\u0661/\u0662" as 1/2;
    # a bool is read as its text, as a float is. Both parts are parsed before
    # either is capped, so a part that does not parse is refused before a part
    # past the cap: "1e999999999/" is not a rational, not too large.
    @pytest.mark.parametrize(
        "text",
        ["zebra", "", "1/", "1/0", "inf", "nan", "1/2/3",
         "1_0", " 1/2", "1/2 ", "\u0661/\u0662", True,
         "1e999999999/", "1e999999999/1..2", "1..2/1e999999999", "1/-0",
         "Infinity", "-Inf", "sNaN", "NaN/1", "1/inf"],
    )
    def test_text_that_is_not_a_rational_is_refused(self, text):
        with pytest.raises(InvalidInput, match=f"^epsilon {str(text)!r} is not a rational number$"):
            read_epsilon(text)

    @pytest.mark.parametrize("value", ["0", "-1/2", "0/5", "-0", 0, Fraction(-1, 2), -0.5])
    def test_epsilon_of_zero_or_less_is_refused(self, value):
        with pytest.raises(InvalidInput, match="^epsilon must be positive$"):
            read_epsilon(value)

    @pytest.mark.parametrize(
        "value",
        ["1e-999999999", "1e999999999", "1e-30000000", "-1e-999999999", "1/1e-999999999",
         "1e999999999/1e999999999", "1e-301030", Decimal("1e-999999999"),
         Fraction(1, 2**RATIO_BIT_CAP), "1e999999999/0", "0/1e999999999", "0e999999999"],
    )
    def test_epsilon_past_the_ratio_cap_is_refused_at_once(self, value):
        # a part's power of ten is judged from its exponent, never built; each
        # part is judged, so 1e999999999/1e999999999 is refused, though it is 1,
        # and so is 0e999999999, which is 0; both parts are capped before either
        # is converted, so 1e999999999/0 is too large before its zero is found
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"^epsilon passes the {RATIO_BIT_CAP}-bit cap$"):
            read_epsilon(value)
        assert time.perf_counter() - start < 1

    def test_the_cap_is_the_largest_power_of_ten_under_the_ratio_bits(self):
        assert _CAP_DIGITS == 301029
        assert (10**_CAP_DIGITS).bit_length() <= RATIO_BIT_CAP < (10 * 10**_CAP_DIGITS).bit_length()
        assert read_epsilon("1e301029") == 10**_CAP_DIGITS
        assert read_epsilon("1e-301029") == Fraction(1, 10**_CAP_DIGITS)

    def test_long_text_is_read_by_its_value(self):
        assert read_epsilon("1" + "0" * 3000 + "e-3000") == 1
        assert read_epsilon("0." + "0" * 3000 + "25/0." + "0" * 3000 + "5") == Fraction(1, 2)

    def test_a_part_of_as_many_digits_as_the_cap_reads_at_once(self):
        # through Fraction(Decimal), whose integer conversion is quadratic, it took 3.3 s
        start = time.perf_counter()
        assert read_epsilon("1" + "0" * (_CAP_DIGITS - 1) + f"e-{_CAP_DIGITS - 1}") == 1
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("digits", [1, 599, 600, 601, 1201, 4299, 4300, 4301, 9000])
    def test_digits_read_in_halves_give_the_integer(self, digits):
        text = "".join(str((i * 7 + 1) % 10) for i in range(digits))  # 1, 8, 5, 2, 9, ...
        value = int(Decimal(text))
        assert _digits_int(text) == value and _digits_int("000" + text) == value
        # the sign comes off before the split, or the low half would add to a negative high half
        assert _digits_int("-" + text) == -value and _digits_int("-000" + text) == -value
        assert read_epsilon(f"{text}e-2/7") == Fraction(value, 700)
        assert read_epsilon(f"0.07/{text}") == Fraction(7, 100 * value)

    @pytest.mark.parametrize(
        "value",
        ["1" + "0" * _CAP_DIGITS + f"e-{_CAP_DIGITS}", "1" + "0" * 400000 + "e-400000",
         "1/" + "1" * (_CAP_DIGITS + 1), "0." + "3" * (_CAP_DIGITS + 1)],
        ids=["one-of-301030-digits", "one-of-400001-digits", "over-301030-ones", "301030-threes"],
    )
    def test_a_part_of_more_digits_than_the_cap_is_refused_at_once(self, value):
        # a part is judged by its digit count too, though 1000...0e-400000 is 1:
        # the Fraction of two parts takes one gcd, quadratic in their digits
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"^epsilon passes the {RATIO_BIT_CAP}-bit cap$"):
            read_epsilon(value)
        assert time.perf_counter() - start < 1

    def test_short_texts_read_as_decimal_parts_divided(self):
        # Six characters keep every exponent far under the caps, so each text
        # reads as its parts' exact quotient, or is refused where that fails.
        rng = random.Random(43)
        for _ in range(10_000):
            text = "".join(rng.choice("0123456789.eE+-/") for _ in range(rng.randint(1, 6)))
            num, slash, den = text.partition("/")
            try:
                want = Fraction(Decimal(num)) / Fraction(Decimal(den if slash else "1"))
            except ArithmeticError:  # InvalidOperation, or a zero denominator
                want = None
            if want is None:
                with pytest.raises(InvalidInput, match="is not a rational number$"):
                    read_epsilon(text)
            elif want <= 0:
                with pytest.raises(InvalidInput, match="^epsilon must be positive$"):
                    read_epsilon(text)
            else:
                assert read_epsilon(text) == want, text


class TestDecimalText:
    """decimal_text: str(Decimal(n)), or n/d, split by bits past 4096 of them."""

    @pytest.mark.parametrize(
        "n",
        [0, 1, -1, 2**4096 - 1, 2**4096, 2**4096 + 1, -(2**4096) + 1, -(2**4096), -(2**4096) - 1,
         2**4097 - 1, -(2**4097)],
    )
    def test_an_integer_is_written_as_decimal_writes_it(self, n):
        assert decimal_text(n) == str(Decimal(n))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_integers_of_either_sign_are_written_as_decimal_writes_them(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            n = rng.getrandbits(rng.randint(1, 60000)) * rng.choice((1, -1))
            assert decimal_text(n) == str(Decimal(n))

    def test_a_fraction_of_two_long_parts_is_written_as_n_over_d(self):
        rng = random.Random(7)
        q = Fraction(-rng.getrandbits(50000), rng.getrandbits(30000) | 1)
        assert decimal_text(q) == f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"

    def test_a_million_digits_are_written_at_once(self):
        # through Decimal(n) alone it took 17 s; the top bit fixes 1,000,000 digits
        n = random.Random(1).getrandbits(3_321_927) | 1 << 3_321_927
        start = time.perf_counter()
        text = decimal_text(n)
        assert time.perf_counter() - start < 2
        assert len(text) == 1_000_000 and _digits_int(text) == n


class TestApproxRatio:
    def test_power_stays_below_target(self):
        for eps, stages in [(Fraction(1, 10), 7), (Fraction(1, 2), 3), (Fraction(9), 5)]:
            r = ApproxRatio.for_stages(eps, stages)
            assert r.k > 1
            assert r.k**stages <= 1 + eps

    def test_epsilon_seven_three_stages_is_exactly_two(self):
        # 1 + 7 = 8 is a perfect cube, so rounding down loses nothing.
        r = ApproxRatio.for_stages(Fraction(7), 3)
        assert r.k == 2

    def test_single_stage_keeps_epsilon(self):
        assert ApproxRatio.for_stages(Fraction(1, 2), 1).k == Fraction(3, 2)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidInput):
            ApproxRatio.for_stages(Fraction(0), 2)
        with pytest.raises(InvalidInput):
            ApproxRatio.for_stages(Fraction(-1, 2), 2)

    @pytest.mark.parametrize("stages", [0, -1])
    def test_rejects_no_stages(self, stages):
        with pytest.raises(InvalidInput):
            ApproxRatio.for_stages(Fraction(1, 2), stages)

    @pytest.mark.parametrize(
        "k, eps, stages",
        [(Fraction(2), Fraction(7), 0), (Fraction(1), Fraction(7), 3), (Fraction(3), Fraction(7), 2)],
        ids=["no-stages", "k-not-above-one", "certificate-fails"],
    )
    def test_construction_rechecks_its_invariants(self, k, eps, stages):
        with pytest.raises(InvalidInput):
            ApproxRatio(k=k, epsilon=eps, stages=stages)

    # k is the root of an integer whose bits grow with the precision times
    # the stages, and the precision k needs grows with the bits of
    # stages/epsilon. Each pair of stage counts is the last that fits under
    # RATIO_BIT_CAP and the first past it.
    @pytest.mark.parametrize(
        "eps, fits, past",
        [(Fraction(1, 2), 10416, 10417), ("1e-1000", 162, 163), ("1e-5000", 40, 41)],
    )
    def test_too_large_past_the_bit_cap(self, eps, fits, past):
        assert ApproxRatio.for_stages(eps, fits).k > 1
        with pytest.raises(TooLarge):
            ApproxRatio.for_stages(eps, past)

    def test_the_cap_on_epsilon_alone_is_where_it_was(self):
        # epsilon = 10**N at one stage needs bits(10**N + 1) + 96 bits: 1e301001
        # is the largest power of ten that fits, and past it, or at 1e-300000,
        # k is refused as it was before epsilon was bounded when read
        assert ApproxRatio.for_stages("1e301001", 1).k == 10**301001 + 1
        for eps in ("1e301002", "1e-300000"):
            with pytest.raises(TooLarge, match=f"^choosing k for 1 stages passes the {RATIO_BIT_CAP}-bit cap$"):
                ApproxRatio.for_stages(eps, 1)

    def test_huge_epsilon_takes_its_root_quickly(self):
        # a million-bit 1 + epsilon; its cube root is started from the root of
        # its top bits, not climbed to from a few bits
        start = time.perf_counter()
        assert ApproxRatio.for_stages("1e300000", 3).k > 1
        assert time.perf_counter() - start < 4

    def test_tiny_epsilon_still_above_one(self):
        r = ApproxRatio.for_stages(Fraction(1, 10**9), 40)
        assert r.k > 1
        assert r.k**40 <= 1 + Fraction(1, 10**9)

    def test_precision_doubles_while_the_root_rounds_down_to_one(self):
        # at 96 and 192 bits the cube root of 1 + 2**-200 rounds down to exactly 1
        eps, step = Fraction(1, 2**200), Fraction(1, 2**384)
        r = ApproxRatio.for_stages(eps, 3)
        assert r.k > 1
        assert r.k**3 <= 1 + eps
        assert r.k.denominator > 2**96
        # and at 384 bits k is the largest multiple of 2**-384 that fits
        assert (r.k / step).denominator == 1
        assert (r.k + step) ** 3 > 1 + eps

    @pytest.mark.parametrize(
        "eps",
        [Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7),
         Fraction(12345, 67891), Fraction(10**50)],
    )
    def test_k_is_the_largest_dyadic_at_its_precision(self, eps):
        step = Fraction(1, 2**96)
        for stages in [*range(1, 61), 1000]:
            k = ApproxRatio.for_stages(eps, stages).k
            assert k > 1
            assert (k / step).denominator == 1
            assert k**stages <= 1 + eps
            assert (k + step) ** stages > 1 + eps


class TestOracleCounter:
    def test_one_increment_per_eval(self):
        phi = oracle_from_values([1, 2, 3])
        assert phi.calls == 0
        phi(0)
        phi(2)
        phi(2)
        assert phi.calls == 3

    def test_takes_exactly_one_of_fn_and_a_table(self):
        dom = IntInterval(0, 2)
        with pytest.raises(InvalidInput):
            FnOracle(dom)
        with pytest.raises(InvalidInput):
            FnOracle(dom, abs, starts=[1], values=[0, 1])

    def test_keeps_no_instance_dict_and_equals_only_itself(self):
        dom = IntInterval(0, 2)
        phi, twin = FnOracle(dom, abs), FnOracle(dom, abs)
        assert not hasattr(phi, "__dict__")
        with pytest.raises(AttributeError):
            phi.tally = 0
        assert phi == phi and phi != twin
        assert len({phi, twin}) == 2  # eq=False keeps the identity hash


def step_on(xs):
    return StepFunction(xs, (1,) * len(xs))


class TestApproxSetValidation:
    """The approximation set of a step function is its breakpoints."""

    def test_requires_strictly_increasing(self):
        with pytest.raises(InvalidInput):
            step_on((0, 4, 4, 9))

    def test_degenerate_domain_single_point(self):
        f = step_on((5,))
        assert list(f.xs) == [5] and len(f) == 1
        assert f.domain == IntInterval(5, 5)


class TestStepFunctionQuery:
    def test_gap_takes_right_value_when_nondecreasing(self):
        f = StepFunction(xs=(0, 5, 10), values=(1, 4, 9))
        assert [f.query(j) for j in (0, 1, 4, 5, 6, 10)] == [1, 4, 4, 4, 9, 9]

    def test_gap_takes_left_value_when_nonincreasing(self):
        f = StepFunction(xs=(0, 5, 10), values=(9, 4, 1), below=None)
        assert [f.query(j) for j in (0, 1, 4, 5, 6, 10)] == [9, 9, 9, 4, 4, 1]

    def test_out_of_domain_values(self):
        f = StepFunction(xs=(0, 3), values=(2, 5), below=1)
        assert [f.query(j) for j in (-1, 3, 4, 10**9)] == [1, 5, 5, 5]
        g = StepFunction(xs=(0, 3), values=(5, 2), below=7)
        assert [g.query(j) for j in (-1, 3, 4, 10**9)] == [7, 2, 2, 2]

    def test_no_value_below_unless_one_is_given(self):
        f = StepFunction(xs=(2, 3), values=(2, 5), below=None)
        with pytest.raises(InvalidInput):
            f.query(1)
        assert (f.query(2), f.query(3)) == (2, 5)
        assert '"below": null' in f.to_json()
        for direction in (UP, DOWN):
            values = [1, 2, 4] if direction == UP else [4, 2, 1]
            assert compress(values, direction, ApproxRatio.for_stages(1, 1)).below is None

    @pytest.mark.parametrize(
        "xs, values",
        [((0, 1), (1,)), ((), ()), ((0, 1), (-1, 0))],
        ids=["unequal", "empty", "negative"],
    )
    def test_rejects_what_is_not_a_step_function(self, xs, values):
        with pytest.raises(InvalidInput):
            StepFunction(xs, values)

    def test_a_falling_function_has_no_value_below_unless_one_is_given(self):
        f = StepFunction((0, 3), (5, 2))
        assert f.below is None
        with pytest.raises(InvalidInput):
            f.query(-1)

    def test_the_value_below_is_a_count(self):
        # a sum of its shifts would read -4 at 0 and -10 below
        with pytest.raises(InvalidInput):
            StepFunction((0,), (1,), -5)

    def test_rejects_wrong_direction_values(self):
        with pytest.raises(MonotonicityViolation):
            StepFunction(xs=(0, 4, 6), values=(5, 2, 3), below=None)

    @pytest.mark.parametrize("values, below", [((5, 3), 2), ((5, 7), 9)], ids=["falls", "rises"])
    def test_the_value_below_continues_the_order_of_the_values(self, values, below):
        # below 2 a fall from 5 to 3 would read 2 at -1 and 5 at 0: a shifted
        # sum of it would rise where its values fall
        with pytest.raises(MonotonicityViolation):
            StepFunction((0, 1), values, below)

    def test_json_uses_decimal_strings(self):
        # 10**5000 has more digits than str() converts by default
        for value, digits in ((2**100, str(2**100)), (10**5000, "1" + "0" * 5000)):
            f = StepFunction(xs=(0, 1), values=(1, value))
            assert digits in f.to_json()

    def test_json_positions_of_any_length_are_numbers(self):
        # json.dumps refuses an int of more than 4300 digits; to_json writes it
        big = 10**5000
        f = StepFunction((0, big), (2, 1), 3)
        assert f.domain == IntInterval(0, big)  # the span of the breakpoints
        obj = json.loads(f.to_json(), parse_int=lambda text: int(Decimal(text)))
        assert obj == {
            "domain": [0, big],
            "breakpoints": [[0, "2"], [big, "1"]],
            "below": "3",
            "above": "1",  # the last breakpoint's value continues above the domain
        }


def test_identity_on_one_to_sixteen_with_k_two():
    # Doubling thresholds: the selected points are exactly the powers of two.
    dom = IntInterval(1, 16)
    phi = FnOracle(dom, lambda j: j)
    f = apx_set_nondecreasing(phi, ApproxRatio.for_stages(Fraction(7), 3))
    assert list(f.xs) == [1, 2, 4, 8, 16]


def test_constant_function_needs_only_endpoints():
    dom = IntInterval(0, 100)
    phi = FnOracle(dom, lambda j: 12)
    f = apx_set_nondecreasing(phi, ApproxRatio.for_stages(Fraction(1), 1))
    assert list(f.xs) == [0, 100]


def test_all_zero_function_keeps_endpoints_only():
    dom = IntInterval(0, 50)
    phi = FnOracle(dom, lambda j: 0)
    f = apx_set_nonincreasing(phi, ApproxRatio.for_stages(Fraction(1), 1))
    assert list(f.xs) == [0, 50]


@settings(max_examples=60, deadline=None)
@given(values=nondecreasing_tables(), k=ratios)
def test_sandwich_nondecreasing(values, k):
    f = compress(values, UP, k)
    for j, exact in enumerate(values):
        got = f.query(j)
        assert exact <= got
        assert got * k.k.denominator <= exact * k.k.numerator


@settings(max_examples=60, deadline=None)
@given(values=nondecreasing_tables(), k=ratios)
def test_sandwich_nonincreasing(values, k):
    table = values[::-1]
    f = compress(table, DOWN, k)
    for j, exact in enumerate(table):
        got = f.query(j)
        assert exact <= got
        assert got * k.k.denominator <= exact * k.k.numerator


@settings(max_examples=60, deadline=None)
@given(values=nondecreasing_tables(), k=ratios)
def test_set_size_within_four_log(values, k):
    f = compress(values, UP, k)
    top = max(values[-1], 1)
    bound = 4 * (1 + math.log(max(top, 2)) / math.log(float(k.k)))
    assert len(f) <= bound


def test_sandwich_on_wide_domain():
    # One deterministic large case: domain size 10^4, doubling growth pattern.
    dom = IntInterval(0, 10**4)
    phi = FnOracle(dom, lambda j: 1 + j * j)
    k = ApproxRatio.for_stages(Fraction(1, 2), 4)
    f = apx_set_nondecreasing(phi, k)
    for j in range(0, 10**4 + 1, 37):
        exact = 1 + j * j
        assert exact <= f.query(j) <= k.k * exact
    assert len(f) <= 4 * (1 + math.log(1 + 10**8) / math.log(float(k.k)))


@settings(max_examples=40, deadline=None)
@given(
    values_a=nondecreasing_tables(max_len=120),
    values_b=nondecreasing_tables(max_len=120),
    k1=ratios,
    k2=ratios,
)
def test_sum_of_approximations_keeps_worse_ratio(values_a, values_b, k1, k2):
    n = min(len(values_a), len(values_b))
    a, b = values_a[:n], values_b[:n]
    fa = compress(a, UP, k1)
    fb = compress(b, UP, k2)
    worse = max(k1.k, k2.k)
    for j in range(n):
        exact = a[j] + b[j]
        got = fa.query(j) + fb.query(j)
        assert exact <= got <= worse * exact


@settings(max_examples=40, deadline=None)
@given(values=nondecreasing_tables(max_len=200), k1=ratios, k2=ratios)
def test_compression_of_compression_multiplies_ratios(values, k1, k2):
    first = compress(values, UP, k1)
    dom = IntInterval(0, len(values) - 1)
    second_oracle = FnOracle(dom, first.query)
    second = apx_set_nondecreasing(second_oracle, k2)
    combined = k1.k * k2.k
    for j, exact in enumerate(values):
        assert exact <= second.query(j) <= combined * exact


@pytest.mark.parametrize(
    "direction, table, eps",
    [
        (UP, [1, 5, 2, 2, 2, 2, 2, 9], Fraction(1, 10)),
        (DOWN, [9, 2, 2, 2, 2, 2, 5, 1], Fraction(1, 10)),
        # the domain end rises above x = 0; merging the tail into x's piece
        # would rest on a comparison that passes only because of the rise
        (DOWN, [4, 4, 4, 5], Fraction(1)),
    ],
    ids=["nondecreasing", "nonincreasing", "nonincreasing-merged-tail"],
)
def test_monotonicity_violation_detected_on_scan(direction, table, eps):
    with pytest.raises(MonotonicityViolation):
        compress(table, direction, ApproxRatio.for_stages(eps, 1))


def compress_below(compressor, table, k, below):
    """Compress ``table`` with the value ``below`` under it: by the search
    of the named direction, or by the walk with every point a knot."""
    if compressor == "walk":
        return apx_set_linear(list(range(len(table))), table, k, below=below)
    phi = FnOracle(IntInterval(0, len(table) - 1), table.__getitem__, below=below)
    return SEARCH[compressor](phi, k)


@pytest.mark.parametrize("eps", [1, Fraction(1, 100)], ids=["merging", "keeping"])
@pytest.mark.parametrize(
    "compressor, table, below",
    [
        (DOWN, [4, 3, 2], 1),
        (DOWN, [4], 1),
        ("walk", [4, 3, 2], 1),
        ("walk", [4], 1),
        (UP, [4, 4, 4], 9),
        (UP, [4], 9),
    ],
    ids=["search-down", "search-down-one-point", "walk", "walk-one-point", "search-up",
         "search-up-one-point"],
)
def test_a_value_below_against_the_direction_is_refused(compressor, table, below, eps):
    # at eps 1 the fall 4, 3, 2 merges into 4, 4, which rises from 1 as one
    # step function, so the check cannot be left to StepFunction; nor can it
    # where a one-point domain merges nothing
    k = ApproxRatio.for_stages(eps, 1)
    with pytest.raises(MonotonicityViolation, match="value below"):
        compress_below(compressor, table, k, below)
    assert compress_below(compressor, table, k, table[0]).below == table[0]  # an equal one continues


@settings(max_examples=80, deadline=None)
@given(
    values=nondecreasing_tables(max_len=120), k=ratios, direction=st.sampled_from([UP, DOWN])
)
def test_induce_exact_at_breakpoints(values, k, direction):
    table = values if direction == UP else values[::-1]
    f = compress(table, direction, k)
    hi = len(table) - 1
    num, den = k.k.numerator, k.k.denominator
    for x, v in zip(f.xs, f.values):
        if x == hi and direction == DOWN and v != table[hi]:
            # the merged tail keeps its start's value, certified within k
            assert v == f.values[-2] and num * table[hi] >= den * v
        else:
            assert v == table[x]


@settings(max_examples=200, deadline=None)
@given(
    values=nondecreasing_tables(max_len=120),
    k=ratios | exact_ratios,
    direction=st.sampled_from([UP, DOWN]),
    lo=st.integers(-5, 5),
)
# k = 2: each kept y after the first meets num*f(y) = den*f(x) exactly
@example(
    values=[1, 1, 2, 2, 4, 4, 8, 8], k=ApproxRatio.for_stages(1, 1),
    direction=UP, lo=0,
)
@example(
    values=[1, 1, 2, 2, 4, 4, 8, 8], k=ApproxRatio.for_stages(1, 1),
    direction=DOWN, lo=0,
)
# k = 3/2: 3*6 = 2*9 and 3*2 = 2*3 on the way down
@example(
    values=[0, 2, 2, 3, 3, 6, 6, 9, 9], k=ApproxRatio.for_stages(Fraction(1, 2), 1),
    direction=UP, lo=3,
)
# a kept f(x) = 0, which nothing fails
@example(
    values=[0, 0, 0, 0, 3, 7], k=ApproxRatio.for_stages(1, 1),
    direction=UP, lo=0,
)
@example(
    values=[0, 0, 0, 0, 3, 7], k=ApproxRatio.for_stages(1, 1),
    direction=DOWN, lo=0,
)
def test_searches_keep_what_the_product_form_rule_keeps(values, k, direction, lo):
    up = direction == UP
    if not up:
        values = values[::-1]
    phi = FnOracle(IntInterval(lo, lo + len(values) - 1), lambda j: values[j - lo])
    kept = SEARCH[direction](phi, k)
    expected = dense_keep(values, lo, up, k.k.numerator, k.k.denominator)
    assert (list(kept.xs), list(kept.values)) == expected


@pytest.mark.parametrize("points", [(-1, 2), (0, 4), (-2, 5)], ids=["low", "high", "both"])
def test_induce_refuses_points_outside_the_oracles_domain(points):
    with pytest.raises(InvalidInput):
        induce(oracle_from_values([1, 2, 3, 4]), points)


def test_shifted_sum_matches_manual_recurrence():
    base = StepFunction(xs=(0, 3, 6), values=(1, 2, 4), below=0)
    combined = shifted_sum(base, (0, 4), base.domain)
    for j in range(7):
        assert combined(j) == base.query(j) + base.query(j - 4)
    assert combined.calls == 7


def _step(xs, values, below):
    return StepFunction(xs=xs, values=values, below=below)


def assert_shifted_sum_is_the_dense_sum(f, shifts, domain):
    """Compare with sum(f.query(j - s)) at every j the table can turn at, and
    past it, wherever f can be read; check that the table starts exactly
    where that sum changes value, and that where the oracle names its value
    below the domain, it is that sum there. No shifts is refused."""
    with pytest.raises(InvalidInput):
        shifted_sum(f, (), domain)
    combined = shifted_sum(f, shifts, domain)
    lo = min(f.domain.lo, domain.lo) + min(shifts) - 2
    hi = max(f.domain.hi, domain.hi) + max(shifts) + 2
    if f.below is None:  # f is read at j - max(shifts), from j = lo - 1
        lo = max(lo, f.domain.lo + max(shifts) + 1)
    dense = {j: sum(f.query(j - s) for s in shifts) for j in range(lo - 1, hi + 1)}
    for j in range(lo, hi + 1):
        assert combined(j) == dense[j], j
    assert combined.calls == hi - lo + 1
    changes = [j for j in range(lo, hi + 1) if dense[j] != dense[j - 1]]
    starts = combined.starts
    if f.below is None:  # the table goes on below where f can be read
        starts = [x for x in starts if x >= lo]
    assert starts == changes
    if combined.below is not None:
        for j in range(lo - 1, domain.lo):
            assert combined.below == dense[j], j
    return combined


# (f, shifts, domain, the oracle's below); each has a shift past the domain
SHIFTED_SUM_CASES = {
    "nondecreasing": (
        _step((0, 3, 5, 10), (1, 4, 4, 9), 1),
        (0, 0, 4, 25),
        IntInterval(0, 10),
        4,  # every read below 0 is below f: four times its low value
    ),
    "nonincreasing": (
        _step((-2, 1, 3, 6), (7, 4, 4, 0), 9),
        (0, 3, 3, 17),
        IntInterval(0, 10),
        None,  # the domain starts above f's, on {-2..6}
    ),
    "single point terms": (_step((0,), (3,), 1), (0, 1, 1, 12), IntInterval(-4, 20), 4),
    "one term, its own domain": (_step((1, 2), (6, 6), 7), (0,), IntInterval(1, 2), 7),
    "negative shift": (
        _step((0, 3), (1, 4), 0),
        (0, -2),
        IntInterval(0, 5),
        None,  # j - (-2) lands on f's domain from j = -2
    ),
    "changes at one point": (
        _step((0, 2), (1, 3), 0),
        (0, 1),
        IntInterval(0, 4),
        0,  # at 1 the copy shifted by 1 rises to its first value where the other rises
    ),
    "no value below f": (
        _step((2, 5, 9), (8, 3, 1), None),
        (0, 2, 2),
        IntInterval(4, 14),
        None,
    ),
}


@pytest.mark.parametrize("case", SHIFTED_SUM_CASES)
def test_shifted_sum_is_the_per_term_sum_everywhere(case):
    f, shifts, domain, below = SHIFTED_SUM_CASES[case]
    assert assert_shifted_sum_is_the_dense_sum(f, shifts, domain).below == below


def test_shifted_sum_has_no_value_below_a_term_without_one():
    known = _step((2, 5), (1, 3), 0)
    unknown = _step((2, 5), (1, 3), None)
    assert shifted_sum(known, (0, 1), IntInterval(2, 6)).below == 0
    assert shifted_sum(unknown, (0,), IntInterval(2, 6)).below is None
    with pytest.raises(InvalidInput):  # reads unknown at 1
        shifted_sum(unknown, (0, 1), IntInterval(2, 6))


@st.composite
def shifted_terms(draw, lows=st.none() | st.integers(0, 9)):
    """(f, shifts): a step function and one to five shifts, repeats likely.
    A drawn low value is moved to continue the order of f's values."""
    up = draw(st.booleans())
    lo = draw(st.integers(-3, 3))
    hi = lo + draw(st.integers(0, 12))
    inner = draw(st.sets(st.integers(lo, hi), max_size=5))
    xs = tuple(sorted(inner | {lo, hi}))
    # small values, so that shifted changes often coincide
    values = sorted(draw(st.lists(st.integers(0, 9), min_size=len(xs), max_size=len(xs))))
    if not up:
        values.reverse()
    low = draw(lows)
    if low is not None:
        low = (min if up else max)(low, values[0])
    f = _step(xs, tuple(values), low)
    return f, draw(st.lists(st.integers(0, 4) | st.integers(0, 20), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(terms=shifted_terms())
def test_shifted_sum_is_the_per_term_sum_on_random_terms(terms):
    f, shifts = terms
    lo = 0 if f.below is not None else f.domain.lo + max(shifts)
    assert_shifted_sum_is_the_dense_sum(f, shifts, IntInterval(lo, lo + 8))


@settings(max_examples=150, deadline=None)
@given(terms=shifted_terms(lows=st.integers(0, 9)), k=ratios | exact_ratios)
def test_a_table_oracle_searches_like_a_black_box_of_the_same_sum(terms, k):
    f, shifts = terms
    domain = IntInterval(0, 30)
    table = shifted_sum(f, shifts, domain)
    box = FnOracle(domain, lambda j: sum(f.query(j - s) for s in shifts), below=table.below)
    # the sum moves the way f does, from its value below to its last value
    search = SEARCH[UP if f.below <= f.values[-1] else DOWN]
    assert search(table, k) == search(box, k)
    assert table.calls == box.calls


def test_interval_validation():
    with pytest.raises(InvalidInput):
        IntInterval(3, 2)
    assert 5 in IntInterval(0, 5)
    assert 6 not in IntInterval(0, 5)


@st.composite
def linear_pieces(draw):
    """(knots, values) of a nonincreasing function, linear with an integer
    slope between knots; some slopes repeat, so some knots are redundant."""
    knots, values = [draw(st.integers(-20, 20))], [draw(st.integers(0, 8) | st.integers(0, 10**6))]
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.integers(1, 12))
        slope = draw(st.integers(0, 4) | st.integers(0, 10**12))
        knots.append(knots[-1] + width)
        values.append(values[-1] + slope * width)
    # built rising from the low end; mirrored, knot t moves to lo+hi-t
    return [knots[0] + knots[-1] - t for t in reversed(knots)], values[::-1]


@settings(max_examples=300, deadline=None)
@given(pieces=linear_pieces(), k=ratios, lift=st.none() | st.integers(0, 9))
# the search's bar (8 at x = 0) is met exactly at the knot where the slope changes
@example(pieces=([0, 2, 3], [8, 4, 0]), k=ApproxRatio.for_stages(Fraction(7), 3), lift=None)
# unit drops: each kept point's successor already fails, some of them at a knot
@example(pieces=([0, 3, 5], [9, 6, 0]), k=ApproxRatio.for_stages(Fraction(1, 10), 3), lift=None)
# long flat pieces: the scan crosses a whole flat piece before the drop
@example(pieces=([0, 500, 501, 1000], [40, 40, 2, 2]), k=ApproxRatio.for_stages(Fraction(1, 10), 3), lift=0)
def test_linear_walk_keeps_what_the_search_keeps(pieces, k, lift):
    knots, values = pieces
    below = None if lift is None else values[0] + lift  # the value below continues the fall
    dense = {knots[0]: values[0]}
    for a, b, wa, wb in zip(knots, knots[1:], values, values[1:]):
        dense.update((x, wa + (x - a) * (wb - wa) // (b - a)) for x in range(a + 1, b + 1))
    dom = IntInterval(knots[0], knots[-1])
    phi = FnOracle(dom, dense.__getitem__, below=below)
    walked = apx_set_linear(knots, values, k, below=below)
    assert walked == apx_set_nonincreasing(phi, k)


@pytest.mark.parametrize(
    "knots, values",
    [
        ([0, 3], [8, 1]),  # slope -7/3
        ([0, 2, 4], [2, 3, 1]),
        ([0, 2, 4], [3, 1, 2]),
        ([0, 0], [1, 1]),
        ([0, 1], [-1, -2]),
        ([0, 1], [0, -1]),
        ([], []),
    ],
    ids=[
        "fractional-slope", "dips", "rises", "repeated-knot", "negative-low", "negative-high", "empty"
    ],
)
def test_linear_walk_rejects_what_it_cannot_walk(knots, values):
    with pytest.raises(InvalidInput):
        apx_set_linear(knots, values, ApproxRatio.for_stages(1, 1))


@pytest.mark.parametrize(
    "knots, values, error, piece",
    [
        ([0, 2, 3, 5], [5, 3, 1, 3], MonotonicityViolation, "3 to 5: 1, 3"),
        ([0, 2, 3, 5], [3, 1, 3, 1], MonotonicityViolation, "2 to 3: 1, 3"),
        ([0, 2, 5, 6], [9, 7, 6, 1], InvalidInput, "2 to 5: 7, 6"),
    ],
    ids=["dips", "rises", "fractional-slope"],
)
def test_linear_walk_names_the_rejected_piece_as_given(knots, values, error, piece):
    # a rising piece with an integer slope is the oracle's fault; either
    # error names the knots and values as the caller gave them
    with pytest.raises(error, match=f"from {piece}$"):
        apx_set_linear(knots, values, ApproxRatio.for_stages(1, 1))
