"""The package's records: plain slotted classes on one base, record.Record.

What they keep: equality by class and fields, a hash for every record
whose fields are fixed, none for RunReport, identity for FnOracle. What
they leave out: the dataclasses module, and inspect with it, which a
fresh process would otherwise load before its first count.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import approxcount
from approxcount.cli import instance_from_payload, payload_from_instance
from approxcount.incpoints import IncIndex
from approxcount.oracles import Contingency2Instance, KnapsackInstance, MTuplesInstance
from approxcount.record import Record
from approxcount.stagewise import RunReport
from approxcount.stepfunc import ApproxRatio, FnOracle, IntInterval, StepFunction

# Each record whose fields are fixed, built twice from equal fields, and once
# with one field changed.
FIXED = [
    (lambda: IntInterval(0, 5), IntInterval(0, 6)),
    (lambda: ApproxRatio(Fraction(6, 5), Fraction(1, 2), 1), ApproxRatio(Fraction(6, 5), 1, 1)),
    (lambda: StepFunction([0, 3], [1, 4], 0), StepFunction([0, 3], [1, 4], None)),
    (lambda: MTuplesInstance([[1, 3], [2]], 4), MTuplesInstance([[1, 3], [2]], 5)),
    (lambda: KnapsackInstance([5, 3], 6), KnapsackInstance([5, 3], 7)),
    (lambda: Contingency2Instance([2, 1], [1, 2]), Contingency2Instance([1, 2], [1, 2])),
    (lambda: IncIndex([0, 2, 9]), IncIndex([0, 3, 9])),
]
NAMES = [type(other).__name__ for _, other in FIXED]


@pytest.mark.parametrize("build, other", FIXED, ids=NAMES)
def test_a_fixed_record_equals_and_hashes_by_its_fields(build, other):
    one, twin = build(), build()
    assert one is not twin and one == twin and hash(one) == hash(twin)
    assert one != other and len({one, twin, other}) == 2
    assert not hasattr(one, "__dict__") and isinstance(one, Record)


@pytest.mark.parametrize("build, _", FIXED, ids=NAMES)
def test_a_record_equals_no_tuple_of_its_fields(build, _):
    one = build()
    fields = tuple(getattr(one, name) for name in one.__slots__)
    assert one != fields and fields != one


def test_records_of_two_classes_with_equal_fields_differ():
    assert IntInterval(1, 2) != IncIndex([1, 2])


def test_sequence_fields_are_kept_as_tuples():
    assert MTuplesInstance([[1, 3], [2]], 4).sets == ((1, 3), (2,))
    assert KnapsackInstance([5, 3], 6).weights == (5, 3)
    assert Contingency2Instance([2, 1], [1, 2]).col_sums == (1, 2)
    assert StepFunction([0, 3], [1, 4]).xs == (0, 3)
    assert IncIndex([0, 2]).points == (0, 2)


def test_a_run_report_equals_by_its_fields_and_has_no_hash():
    stages = [StepFunction([0, 3], [1, 4])]
    report = RunReport(
        count=4, oracle_calls=2, set_sizes=[2], chain_length=1, stage_functions=stages
    )
    assert report == RunReport(4, 2, [2], 1, list(stages))
    assert report != RunReport(4, 2, [2], 1)
    assert RunReport(4, 2, [2], 1).stage_functions == []
    with pytest.raises(TypeError):
        hash(report)
    assert repr(report) == "RunReport(count=4, oracle_calls=2, set_sizes=[2], chain_length=1)"


def test_an_oracle_equals_only_itself_and_keeps_no_instance_dict():
    phi, twin = FnOracle(IntInterval(0, 2), abs), FnOracle(IntInterval(0, 2), abs)
    assert phi == phi and phi != twin and len({phi, twin}) == 2
    assert not hasattr(phi, "__dict__")
    assert "__call__" in vars(FnOracle)  # where a tracer patches it


def test_a_step_function_has_its_breakpoint_count_as_its_length():
    assert len(StepFunction([0, 3, 7], [1, 4, 9])) == 3
    assert len(StepFunction([5], [2], 2)) == 1


def test_repr_names_the_fields():
    assert repr(IntInterval(0, 5)) == "IntInterval(lo=0, hi=5)"
    assert repr(KnapsackInstance([5, 3], 6)) == "KnapsackInstance(weights=(5, 3), capacity=6)"


@pytest.mark.parametrize(
    "problem, inst",
    [
        ("mtuples", MTuplesInstance([[1, 3, 7], [2, 5]], 10**40)),
        ("knapsack", KnapsackInstance([5, 3, 10**30], 9)),
        ("contingency2", Contingency2Instance([2, 2], [2, 1, 1])),
    ],
)
def test_payload_round_trips_through_the_instance(problem, inst):
    payload = payload_from_instance(inst)
    assert list(payload) == list(inst.__slots__)
    assert instance_from_payload(problem, payload) == inst


def test_a_fresh_process_loads_neither_dataclasses_nor_inspect():
    code = "import sys, approxcount.cli; print(sorted({'dataclasses', 'inspect'} & {*sys.modules}))"
    env = {**os.environ, "PYTHONPATH": str(Path(approxcount.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
