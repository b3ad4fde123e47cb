"""Command-line surface: instance I/O, generation, counting, verification, benchmarks.

Instances travel as line-delimited JSON, one object per line, shaped as
{"problem": ..., "payload": {...}}. Numeric leaves are decimal strings so
values past 64 bits survive any JSON parser; plain JSON integers are also
accepted on input. Numbers may have any length; each integer read goes through
stepfunc._digits_int and each number written through stepfunc.decimal_text,
both in subquadratic time. Payload fields by problem, the instance types'
fields (PROBLEMS gives each field's list depth):

    mtuples       {"sets": [["1","3","7"], ...], "bound": "17"}
    knapsack      {"weights": ["5","3"], "capacity": "10"}
    contingency2  {"row_sums": ["2","2"], "col_sums": ["2","1","1"]}

``count`` and ``verify`` emit one JSON result object per input line;
``bench`` emits RFC 4180 CSV. Epsilon is read to an exact rational by
``read_epsilon`` (accepts "0.25", "1/4", "7"); the verify sandwich check is
exact rational arithmetic, never floating point.

Exit codes: 0 success, 1 verification violation, 2 bad input or usage, 3 a
resource cap tripped (the exact oracles' caps in oracles, the kept-breakpoint
cap in stagewise, the ratio's bit cap in stepfunc, also on epsilon and each
--scales power as they are read), 4 an unexpected internal error. When
loading or counting one instance of an input file fails, the message names
its line as FILE:N; records already written stay written.

``main(argv)`` runs one command and returns its exit code; a process may call
it any number of times. The first call builds the parser (``build_parser``)
and later calls reuse it. ``elapsed_ms`` times the counter call alone, never
the parsing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple

from .contingency import fptas_contingency2
from .errors import InvalidInput, TooLarge
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
from .stepfunc import _CAP_DIGITS, RATIO_BIT_CAP, _digits_int, decimal_text, read_epsilon


# The generator's size flags: name -> (default, least value, help).
SIZE_FLAGS = {
    "n": (6, 1, "items (knapsack) or columns (contingency2)"),
    "m": (3, 1, "number of sets (mtuples)"),
    "wmax": (50, 1, "max item weight (knapsack)"),
    "cap": (None, 0, "knapsack capacity; random if omitted"),
    "setmax": (5, 1, "max elements per set (mtuples)"),
    "valmax": (30, 0, "max element value (mtuples)"),
    "bound": (None, 0, "mtuples sum bound; random if omitted"),
    "cellmax": (8, 0, "max cell value (contingency2)"),
}


class Problem(NamedTuple):
    instance: type  # its __slots__ are the payload's keys, in order
    depths: tuple[int, ...]  # how many lists deep each slot's integers sit, in __slots__ order
    size: str  # the SIZE_FLAGS entry bench reports as its size


PROBLEMS = {
    "mtuples": Problem(MTuplesInstance, (2, 0), "m"),
    "knapsack": Problem(KnapsackInstance, (1, 0), "n"),
    "contingency2": Problem(Contingency2Instance, (1, 1), "n"),
}
MODES = ("exact-dp", "exact-brute", "fptas", "strong-fptas")
APPROX_MODES = ("fptas", "strong-fptas")


def _as_int(value, label: str) -> int:
    if type(value) is str:  # an optional "-", then ASCII digits; int() also takes "1_0", " 5"
        if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            return _digits_int(value)  # any length, in subquadratic time
        raise InvalidInput(f"{label}: {value!r} is not a decimal integer")
    if type(value) is int:  # not bool, a subclass
        return value
    kind = type(value).__name__  # not its repr, which fails on a list of long ints
    raise InvalidInput(f"{label}: expected an integer or decimal string, got {kind}")


def decimal(text: str) -> int:  # the integer flags' type; argparse names it on a bad value
    return _as_int(text, "")


_JSON = json.JSONDecoder(parse_int=decimal)  # plain JSON integers of any length, too


def _parsed(value, depth: int, label: str):
    """A payload field as ints nested ``depth`` lists deep."""
    if depth == 0:
        return _as_int(value, label)
    if not isinstance(value, list):
        raise InvalidInput(f"{label}: expected a list")
    if depth == 1:
        return [_as_int(v, label) for v in value]
    return [_parsed(v, depth - 1, label) for v in value]


def instance_from_payload(problem: str, payload) -> object:
    if not isinstance(problem, str) or problem not in PROBLEMS:
        shown = repr(problem) if isinstance(problem, str) else type(problem).__name__
        raise InvalidInput(f"unknown problem {shown}")
    if not isinstance(payload, dict):
        raise InvalidInput("payload must be a JSON object")
    instance, depths, _ = PROBLEMS[problem]
    fields = zip(instance.__slots__, depths)
    return instance(**{name: _parsed(payload.get(name), d, name) for name, d in fields})


def _mapped(inst, leaf) -> dict:
    """An instance's fields by name, each integer mapped through leaf, tuples as lists."""

    def walk(value):
        return [walk(v) for v in value] if isinstance(value, tuple) else leaf(value)

    return {name: walk(getattr(inst, name)) for name in inst.__slots__}


def payload_from_instance(inst) -> dict:
    return _mapped(inst, decimal_text)


def load_instances(path: str, problem_override: str | None):
    """Yield (line number, problem, instance) from a line-delimited JSON file."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _JSON.decode(line)
                if not isinstance(obj, dict):
                    raise InvalidInput("expected a JSON object")
                problem = obj.get("problem")
                inst = instance_from_payload(problem, obj.get("payload"))
                if problem_override and problem != problem_override:
                    raise InvalidInput(
                        f"instance is {problem!r} but --problem says {problem_override!r}"
                    )
            except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
                raise InvalidInput(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            except InvalidInput as exc:
                raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
            yield lineno, problem, inst


# (problem, mode) -> counter(instance, epsilon). Each entry looks its counter
# up by name when called, so rebinding a module attribute (as an outside
# tracer does) reaches every dispatch.
COUNTERS = {
    ("mtuples", "exact-dp"): lambda inst, eps: dp_mtuples(inst),
    ("mtuples", "exact-brute"): lambda inst, eps: brute_mtuples(inst),
    ("mtuples", "fptas"): lambda inst, eps: fptas_mtuples(inst, eps),
    ("mtuples", "strong-fptas"): lambda inst, eps: strong_fptas_mtuples(inst, eps),
    ("knapsack", "exact-dp"): lambda inst, eps: dp_knapsack(inst),
    ("knapsack", "exact-brute"): lambda inst, eps: brute_knapsack(inst),
    ("knapsack", "fptas"): lambda inst, eps: fptas_knapsack(inst, eps),
    ("knapsack", "strong-fptas"): lambda inst, eps: strong_fptas_knapsack(inst, eps),
    ("contingency2", "exact-dp"): lambda inst, eps: dp_contingency_sum(inst),
    ("contingency2", "fptas"): lambda inst, eps: fptas_contingency2(inst, eps),
}


def _modes_of(problem: str) -> list[str]:
    return [mode for mode in MODES if (problem, mode) in COUNTERS]


def _counter(problem: str, mode: str):
    counter = COUNTERS.get((problem, mode))
    if counter is None:
        kind = [m for m in _modes_of(problem) if (m in APPROX_MODES) == (mode in APPROX_MODES)]
        raise InvalidInput(f"{problem} has no {mode} mode; use {' or '.join(kind)}")
    return counter


def run_mode(problem: str, inst, mode: str, eps: Fraction | None):
    """Dispatch one count. Returns (count, oracle_calls, set_sizes, elapsed_s),
    elapsed_s timed here around the counter call, whatever the mode."""
    counter = _counter(problem, mode)
    t0 = perf_counter()
    result = counter(inst, eps)
    elapsed = perf_counter() - t0
    if isinstance(result, RunReport):
        return result.count, result.oracle_calls, list(result.set_sizes), elapsed
    return result, 0, [], elapsed


def _emit(out, record: dict) -> None:
    out.write(json.dumps(record, separators=(", ", ": ")))
    out.write("\n")


def _open_out(args):
    if args.out:
        return open(args.out, "w", newline="", encoding="utf-8")
    return nullcontext(sys.stdout)


def _items(args):
    """(where, problem, instance) from ``--input``, or drawn from ``--seed``."""
    if args.input:
        if args.out and os.path.exists(args.out) and os.path.samefile(args.input, args.out):
            raise InvalidInput(f"--out {args.out} is the --input file; it would be overwritten")
        loaded = load_instances(args.input, args.problem)
        return ((f"{args.input}:{n}: ", p, inst) for n, p, inst in loaded)
    if not args.problem:
        raise InvalidInput("verify needs --input or --problem to generate instances")
    return (("", args.problem, inst) for inst in _drawn(args, args.trials))


def cmd_count(args) -> int:
    """``count``, and ``verify``: the count checked against the exact DP, one
    summary line after the records, exit 1 on a violation."""
    verify = args.command == "verify"
    eps = read_epsilon(args.epsilon) if args.epsilon is not None else None
    if args.mode in APPROX_MODES and eps is None:
        raise InvalidInput(f"--epsilon is required for mode {args.mode}")
    if args.problem:  # checked once, even when no instance arrives
        _counter(args.problem, args.mode)
    items = _items(args)
    eps_text = functools.cache(decimal_text)  # written out once, at the first record

    trials = violations = 0
    max_ratio = Fraction(0)
    with _open_out(args) as out:
        for where, problem, inst in items:
            try:
                exact = COUNTERS[problem, "exact-dp"](inst, None) if verify else None
                count, calls, sizes, elapsed = run_mode(problem, inst, args.mode, eps)
            except Exception as exc:  # noqa: BLE001 - reported with its line, as main would
                return _report_error(exc, where)
            record = {"problem": problem, "mode": args.mode}
            if args.mode in APPROX_MODES:
                record["epsilon"] = eps_text(eps)
            record["count"] = decimal_text(count)
            if verify:
                record["exact"] = decimal_text(exact)
            elapsed_ms = round(elapsed * 1000.0, 3)
            record.update(oracle_calls=calls, set_sizes=sizes, elapsed_ms=elapsed_ms)
            if verify:
                trials += 1
                if exact == 0:
                    record["ok"] = count == 0
                else:
                    ratio = Fraction(count, exact)
                    max_ratio = max(max_ratio, ratio)
                    record["ok"] = exact <= count and ratio <= 1 + eps
                    record["ratio_vs_exact"] = decimal_text(ratio)
                if not record["ok"]:
                    violations += 1
                    record["payload"] = payload_from_instance(inst)
            _emit(out, record)
        if verify:
            summary = {"summary": "verify", "trials": trials, "violations": violations}
            summary.update(max_ratio=decimal_text(max_ratio), bound=decimal_text(1 + eps))
            _emit(out, summary)
    return 1 if violations else 0


def _drawn(args, count: int):
    """``count`` instances of ``--problem`` drawn from ``--seed``. The count
    (``--trials``) and every size flag are checked once, before the first draw."""
    if count < 0:
        raise InvalidInput(f"--trials must be at least 0, got {decimal_text(count)}")
    for name, (_, least, _) in SIZE_FLAGS.items():  # also a flag the problem does not read
        value = getattr(args, name)
        if value is not None and value < least:
            raise InvalidInput(f"--{name} must be at least {least}, got {decimal_text(value)}")
    rng = random.Random(args.seed)
    return (_generated(args.problem, rng, args) for _ in range(count))


def _generated(problem: str, rng: random.Random, args):
    if problem == "knapsack":
        weights = tuple(rng.randint(1, args.wmax) for _ in range(args.n))
        cap = args.cap if args.cap is not None else rng.randint(1, sum(weights))
        return KnapsackInstance(weights=weights, capacity=cap)
    if problem == "mtuples":
        sets = []
        for _ in range(args.m):
            size = rng.randint(1, min(args.setmax, args.valmax + 1))
            # not random.sample: it takes len(range(valmax + 1)), which stops at 2**63 - 1
            chosen = set()
            while len(chosen) < size:
                chosen.add(rng.randint(0, args.valmax))
            sets.append(tuple(sorted(chosen)))
        bound = args.bound if args.bound is not None else rng.randint(0, sum(s[-1] for s in sets))
        return MTuplesInstance(sets=tuple(sets), bound=bound)
    # A random nonnegative 2 x n matrix always has consistent margins; bump a
    # zero column so every column sum is positive, as the instance type requires.
    cells = [[rng.randint(0, args.cellmax) for _ in range(args.n)] for _ in range(2)]
    for i in range(args.n):
        if cells[0][i] + cells[1][i] == 0:
            cells[0][i] = 1
    return Contingency2Instance(
        row_sums=(sum(cells[0]), sum(cells[1])),
        col_sums=tuple(cells[0][i] + cells[1][i] for i in range(args.n)),
    )


def cmd_gen(args) -> int:
    drawn = _drawn(args, args.trials)
    with _open_out(args) as out:
        for inst in drawn:
            _emit(out, {"problem": args.problem, "payload": payload_from_instance(inst)})
    return 0


def cmd_bench(args) -> int:
    eps_list = [read_epsilon(tok) for tok in args.epsilon.split(",")] if args.epsilon else []
    scales = [_as_int(tok, "--scales") for tok in args.scales.split(",")]
    if any(k < 0 for k in scales):
        raise InvalidInput("scale exponents must be nonnegative")
    if max(scales) > _CAP_DIGITS:  # refused before 10**k is built
        raise TooLarge(f"--scales: 10**{max(scales)} passes the {RATIO_BIT_CAP}-bit cap")
    (base,) = _drawn(args, 1)
    size = getattr(args, PROBLEMS[args.problem].size)

    if eps_list:
        modes = [m for m in _modes_of(args.problem) if m in APPROX_MODES]
        runs = [(m, e) for e in eps_list for m in modes]
    else:
        runs = [("exact-dp", None)]
    eps_text = functools.cache(decimal_text)  # each epsilon written out once

    with _open_out(args) as out:
        writer = csv.writer(out)
        writer.writerow(
            ["algorithm", "size", "scale", "epsilon", "oracle_calls", "elapsed_ms", "set_size_max"]
        )
        for k in scales:
            scale = 10**k
            inst = type(base)(**_mapped(base, scale.__mul__))
            scale_text = decimal_text(scale)
            for mode, eps in runs:
                count, calls, sizes, elapsed = run_mode(args.problem, inst, mode, eps)
                writer.writerow(
                    [
                        mode,
                        size,
                        scale_text,
                        "" if eps is None else eps_text(eps),
                        calls,
                        f"{elapsed * 1000.0:.3f}",
                        max(sizes, default=0),
                    ]
                )
    return 0


def _add_size_flags(parser: argparse.ArgumentParser) -> None:
    for name, (default, _, text) in SIZE_FLAGS.items():
        parser.add_argument(f"--{name}", type=decimal, default=default, help=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call. Every later call
    returns the same object, shared by every ``main`` call in the process:
    parse with it, never mutate it."""
    parser = argparse.ArgumentParser(
        prog="approxcount",
        description="Deterministic approximate counting with verifiable accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count instances from a file")
    p_count.add_argument("--input", required=True, help="line-delimited JSON instance file")
    p_count.add_argument("--problem", choices=PROBLEMS, help="require instances to match")
    p_count.add_argument("--mode", choices=MODES, default="fptas")
    p_count.add_argument("--epsilon", help="accuracy, e.g. 0.25 or 1/4")
    p_count.add_argument("--out", help="write results here instead of stdout")
    p_count.set_defaults(handler=cmd_count)

    p_verify = sub.add_parser("verify", help="check approximate counts against exact DP")
    p_verify.add_argument("--input", help="instance file; omit to generate instances")
    p_verify.add_argument("--problem", choices=PROBLEMS)
    p_verify.add_argument("--mode", choices=APPROX_MODES, default="fptas")
    p_verify.add_argument("--epsilon", required=True)
    p_verify.add_argument("--seed", type=decimal, default=0)
    p_verify.add_argument("--trials", type=decimal, default=100)
    p_verify.add_argument("--out", help="write results here instead of stdout")
    _add_size_flags(p_verify)
    p_verify.set_defaults(handler=cmd_count)

    p_gen = sub.add_parser("gen", help="generate random instances")
    p_gen.add_argument("--problem", choices=PROBLEMS, required=True)
    p_gen.add_argument("--seed", type=decimal, default=0)
    p_gen.add_argument("--trials", type=decimal, default=1, help="how many instances")
    p_gen.add_argument("--out", help="write instances here instead of stdout")
    _add_size_flags(p_gen)
    p_gen.set_defaults(handler=cmd_gen)

    p_bench = sub.add_parser("bench", help="sweep magnitude scales, report oracle calls as CSV")
    p_bench.add_argument("--problem", choices=PROBLEMS, required=True)
    p_bench.add_argument("--epsilon", help="comma list, e.g. 0.25,1.0; empty runs exact-dp only")
    p_bench.add_argument("--scales", default="0,3", help="comma list of powers of ten")
    p_bench.add_argument("--seed", type=decimal, default=0)
    p_bench.add_argument("--out", help="write CSV here instead of stdout")
    _add_size_flags(p_bench)
    p_bench.set_defaults(handler=cmd_bench)

    return parser


# Checked in order; any other exception is an internal error, exit code 4.
# An input file that is not UTF-8 fails as it is read, a UnicodeDecodeError.
EXIT_CODES = ((TooLarge, 3), ((InvalidInput, OSError, UnicodeDecodeError), 2))


def _report_error(exc: Exception, where: str = "") -> int:
    """Print exc as one line on stderr and return its exit code."""
    for kinds, code in EXIT_CODES:
        if isinstance(exc, kinds):
            print(f"error: {where}{exc}", file=sys.stderr)
            return code
    print(f"error: {where}internal: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 4


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 after --help
        return exc.code
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - every failure becomes one line and an exit code
        return _report_error(exc)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
