"""Both m-tuples counters against exact DP, anchored on one worked instance.

The instance (sets {1,3,7}, {2,5}, {3,9}, bound 17, epsilon 7) exercises the
whole pipeline at ratio 2 and has small enough tables to freeze every
intermediate row. The frozen rows double as regression values: if breakpoint
selection or gap-fill conventions drift, these tables catch it immediately.
"""

import random
from fractions import Fraction

import pytest

from approxcount.errors import InvalidInput
from approxcount.mtuples import fptas_mtuples, strong_fptas_mtuples
from approxcount.oracles import MTuplesInstance, brute_mtuples, dp_mtuples
from approxcount.stepfunc import ApproxRatio
from dp_tables import dp_mtuples_table
from strong_candidates import stage_candidates

GOLDEN = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)

ZHAT1 = [3, 3, 3, 3, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
ZBAR2 = [6, 6, 6, 6, 6, 6, 4, 4, 4, 2, 1, 1, 1, 0, 0, 0, 0, 0]
ZHAT2 = [6, 6, 6, 6, 6, 6, 6, 6, 6, 2, 2, 2, 2, 0, 0, 0, 0, 0]
ZBAR3 = [12] * 12 + [8, 8, 8, 8, 6, 6]
ZHAT3 = [12] * 18


def dense(f, hi=17):
    return [f.query(j) for j in range(hi + 1)]


class TestGoldenWalkthrough:
    def test_stage_sets(self):
        rep = fptas_mtuples(GOLDEN, 7)
        assert [list(f.xs) for f in rep.stage_functions] == [
            [0, 4, 8, 17],
            [0, 9, 13, 17],
            [0, 17],
        ]

    def test_stage_one_table(self):
        rep = fptas_mtuples(GOLDEN, 7)
        assert dense(rep.stage_functions[0]) == ZHAT1

    def test_stage_two_raw_and_compressed(self):
        rep = fptas_mtuples(GOLDEN, 7)
        zhat1 = rep.stage_functions[0]
        raw = [zhat1.query(j - 2) + zhat1.query(j - 5) for j in range(18)]
        assert raw == ZBAR2
        assert dense(rep.stage_functions[1]) == ZHAT2

    def test_stage_three_raw_and_compressed(self):
        rep = fptas_mtuples(GOLDEN, 7)
        zhat2 = rep.stage_functions[1]
        raw = [zhat2.query(j - 3) + zhat2.query(j - 9) for j in range(18)]
        assert raw == ZBAR3
        assert dense(rep.stage_functions[2]) == ZHAT3

    def test_count_and_ratio(self):
        rep = fptas_mtuples(GOLDEN, 7)
        exact = dp_mtuples(GOLDEN)
        assert rep.count == 12
        assert exact == 3
        assert Fraction(rep.count, exact) == 4
        assert Fraction(rep.count, exact) <= 8


def test_strong_counter_sandwich_on_golden():
    rep = strong_fptas_mtuples(GOLDEN, 7)
    assert 3 <= rep.count <= 24


def test_bound_zero_counts_all_tuples_exactly():
    inst = MTuplesInstance(sets=((4, 9), (1, 2, 3), (5,)), bound=0)
    for runner in (fptas_mtuples, strong_fptas_mtuples):
        assert runner(inst, Fraction(1, 2)).count == 6


def test_single_set():
    inst = MTuplesInstance(sets=((2, 5, 11),), bound=6)
    for runner in (fptas_mtuples, strong_fptas_mtuples):
        assert runner(inst, Fraction(1, 10)).count == dp_mtuples(inst) == 1


def test_report_shape():
    rep = fptas_mtuples(GOLDEN, Fraction(1, 2))
    assert len(rep.per_stage_set_sizes) == GOLDEN.m
    assert rep.per_stage_set_sizes == [len(f.xs) for f in rep.stage_functions]
    assert rep.oracle_calls > 0


@pytest.mark.parametrize("bad", [0, -1, Fraction(-3, 7), "0"])
def test_rejects_nonpositive_epsilon(bad):
    with pytest.raises(InvalidInput):
        fptas_mtuples(GOLDEN, bad)
    with pytest.raises(InvalidInput):
        strong_fptas_mtuples(GOLDEN, bad)


def test_epsilon_text_of_any_length():
    # The CLI reads such an epsilon; so must the library. Fraction(text)
    # refuses more than 4300 digits.
    for counter in (fptas_mtuples, strong_fptas_mtuples):
        assert counter(GOLDEN, "1/" + "9" * 5000) == counter(GOLDEN, Fraction(1, 10**5000 - 1))


def random_instance(rng):
    m = rng.randint(1, 4)
    sets = tuple(
        tuple(sorted(rng.sample(range(31), rng.randint(1, 5)))) for _ in range(m)
    )
    return MTuplesInstance(sets=sets, bound=rng.randint(0, 45))


def repeated_instance(rng):
    """Every set repeats an element; each copy counts as a distinct tuple."""
    sets = []
    for _ in range(rng.randint(1, 4)):
        xs = rng.choices(range(31), k=rng.randint(1, 4))
        sets.append(tuple(sorted(xs + [rng.choice(xs)])))
    return MTuplesInstance(sets=tuple(sets), bound=rng.randint(0, 45))


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 2), Fraction(1)])
def test_sandwich_randomized(eps):
    rng, repeats = random.Random(515), random.Random(5150)
    instances = [random_instance(rng) for _ in range(100)]
    instances += [repeated_instance(repeats) for _ in range(40)]
    for inst in instances:
        exact = brute_mtuples(inst)
        assert dp_mtuples(inst) == exact
        for runner in (fptas_mtuples, strong_fptas_mtuples):
            got = runner(inst, eps).count
            if exact == 0:
                assert got == 0
            else:
                assert exact <= got <= (1 + eps) * exact


def test_per_stage_ratio_bound():
    # After stage i the held function is within ratio k^i of the exact row.
    rng = random.Random(616)
    for _ in range(25):
        inst = random_instance(rng)
        rep = fptas_mtuples(inst, Fraction(1, 2))
        k = ApproxRatio.for_stages(Fraction(1, 2), inst.m).k
        exact_rows = dp_mtuples_table(inst)
        power = 1
        for func, row in zip(rep.stage_functions, exact_rows):
            power *= k
            for j, exact in enumerate(row):
                got = func.query(j)
                assert exact <= got
                assert got <= power * exact


def _window(inst, i):
    """Stage i's reachable window: B less the later maxima to B less the later minima."""
    later = inst.sets[i + 1 :]
    return range(max(0, inst.bound - sum(map(max, later))), max(0, inst.bound - sum(map(min, later))) + 1)


def test_stages_stay_nonincreasing():
    rng = random.Random(717)
    for _ in range(25):
        inst = random_instance(rng)
        rep = strong_fptas_mtuples(inst, Fraction(1, 2))
        for i, func in enumerate(rep.stage_functions):
            window = _window(inst, i)
            assert (func.domain.lo, func.domain.hi) == (window[0], window[-1])
            vals = [func.query(j) for j in window]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_candidates_cover_strict_decreases():
    # A strong stage is evaluated only at its candidates, the piece starts of
    # its sum in its window, so it is only sound if every change point of the
    # raw stage function in its window appears among them.
    rng = random.Random(818)
    for _ in range(25):
        inst = random_instance(rng)
        rep = strong_fptas_mtuples(inst, Fraction(1, 2))
        prev = None
        for i, (inc, func) in enumerate(zip(stage_candidates(rep, inst), rep.stage_functions)):
            window = _window(inst, i)
            if i == 0:
                ordered = sorted(inst.sets[0])
                raw = [len(ordered) - sum(1 for x in ordered if x < j) for j in window]
            else:
                xs = inst.sets[i]
                raw = [sum(prev.query(j - x) for x in xs) for j in window]
            drops = {window[t] for t in range(1, len(raw)) if raw[t] < raw[t - 1]}
            assert drops <= set(inc)
            prev = func


def test_scale_invariance_of_strong_counter():
    inst = MTuplesInstance(sets=((1, 3, 7), (2, 5), (3, 9)), bound=17)
    mult = 10**6
    big = MTuplesInstance(
        sets=tuple(tuple(x * mult for x in s) for s in inst.sets),
        bound=inst.bound * mult,
    )
    small_calls = strong_fptas_mtuples(inst, Fraction(1, 4)).oracle_calls
    big_calls = strong_fptas_mtuples(big, Fraction(1, 4)).oracle_calls
    assert big_calls <= 2 * small_calls
    # the counts themselves are scale-invariant (same tuples qualify)
    assert strong_fptas_mtuples(big, Fraction(1, 4)).count == strong_fptas_mtuples(
        inst, Fraction(1, 4)
    ).count
