"""Outside-in tracing of approxcount: spans around each module's public functions.

Nothing in the program is edited. :meth:`Tracer.install` replaces each traced
function in *every* approxcount module namespace that binds it (the counters
import ``apx_set_*``, ``induce`` and ``convert`` by name, and ``cli`` imports
the counters and the exact DPs by name), patches ``IncIndex.build`` and
``FnOracle.__call__`` on their classes, and :meth:`Tracer.uninstall` puts the
originals back.

A span records name, start, end, parent span and operation id, and is kept in
memory until :meth:`Tracer.write`. Its self time is its duration minus the
time of its child spans. Oracle evaluations are too many to keep one span
each, so only the outermost ``FnOracle.__call__`` is timed (restricted
oracles forward to inner ones) and its count and time are added to the
enclosing span. Oracle construction (``shifted_sum``, ``restrict``) and
``StepFunction.query`` called outside an oracle are not wrapped; their time
is self time of the caller.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name, info taken from (args, result))
TRACED = (
    ("cli", "main", "cli.main", None),
    ("knapsack", "fptas_knapsack", "knapsack.count", None),
    ("knapsack", "strong_fptas_knapsack", "knapsack.count", None),
    ("mtuples", "fptas_mtuples", "mtuples.count", None),
    ("mtuples", "strong_fptas_mtuples", "mtuples.count", None),
    ("contingency", "fptas_contingency2", "contingency.count", lambda a, r: r.chain_length),
    ("contingency", "compress_contingency", "contingency.compress", None),
    ("incpoints", "convert", "incpoints.convert", None),
    ("incpoints", "pad", "incpoints.pad", lambda a, r: (len(a[0]), len(r))),
    ("stepfunc", "apx_set_nondecreasing", "stepfunc.search", lambda a, r: len(r)),
    ("stepfunc", "apx_set_nonincreasing", "stepfunc.search", lambda a, r: len(r)),
    ("stepfunc", "induce", "stepfunc.induce", None),
    ("oracles", "dp_knapsack", "oracles.dp", None),
    ("oracles", "dp_mtuples", "oracles.dp", None),
    ("oracles", "dp_contingency_sum", "oracles.dp", None),
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_s", "evals", "eval_s", "info")

    def __init__(self, id_, name, parent, op):
        self.id, self.name, self.parent, self.op = id_, name, parent, op
        self.start = self.end = self.child_s = self.eval_s = 0.0
        self.evals = 0
        self.info = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op = None  # set by the caller before each operation
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(len(self.spans), name, stack[-1].id if stack else None, self.op)
        self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1].child_s += span.end - span.start

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name):
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    def _wrap_eval(self, call):
        stack = self._stack
        outermost = [True]

        def traced(oracle, x):
            if not outermost[0]:
                return call(oracle, x)
            outermost[0] = False
            t0 = perf_counter()
            try:
                return call(oracle, x)
            finally:
                dt = perf_counter() - t0
                outermost[0] = True
                if stack:
                    span = stack[-1]
                    span.evals += 1
                    span.eval_s += dt
                    span.child_s += dt

        return traced

    def _patch(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "approxcount" or mod_name.startswith("approxcount."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def install(self) -> None:
        pkg = self.package
        for mod, fn_name, name, info in TRACED:
            original = getattr(getattr(pkg, mod), fn_name)
            self._patch_everywhere(original, self._wrap(original, name, info))
        load = pkg.cli.load_instances
        self._patch_everywhere(load, self._wrap_generator(load, "cli.load"))
        inc = pkg.incpoints.IncIndex
        build = self._wrap(inc.__dict__["build"].__func__, "incpoints.build", lambda a, r: len(r))
        self._patch(inc, "build", classmethod(build))
        oracle = pkg.stepfunc.FnOracle
        self._patch(oracle, "__call__", self._wrap_eval(oracle.__call__))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(spans: list[dict], ops: int, scale: dict | None = None) -> dict[str, float]:
    """Per-layer metrics, per operation unless the unit says otherwise.

    ``scale`` maps an operation id to the factor its times are multiplied by
    (the speed normalisation of ``measure.py``); without it times are raw.
    """
    self_time = defaultdict(float)
    duration = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(int)
    padded = unpadded = search_evals = eval_calls = 0
    eval_s = 0.0
    for s in spans:
        name = s["name"]
        factor = scale[s["op"]] if scale else 1.0
        span_s = s["end"] - s["start"]
        duration[name] += span_s * factor
        self_time[name] += (span_s - s["child_s"]) * factor
        calls[name] += 1
        eval_calls += s["evals"]
        eval_s += s["eval_s"] * factor
        if name == "incpoints.pad":
            unpadded += s["info"][0]
            padded += s["info"][1]
        elif s["info"] is not None:
            info[name] += s["info"]
        if name == "stepfunc.search":
            search_evals += s["evals"]
    per_op = {
        "cli.load_s": duration["cli.load"],
        "cli.self_s": self_time["cli.main"],
        "knapsack.self_s": self_time["knapsack.count"],
        "mtuples.self_s": self_time["mtuples.count"],
        "contingency.self_s": self_time["contingency.count"],
        "contingency.compress_s": duration["contingency.compress"],
        "contingency.compressions": calls["contingency.compress"],
        "contingency.chain_length": info["contingency.count"],
        "incpoints.build_s": self_time["incpoints.build"],
        "incpoints.convert_self_s": self_time["incpoints.convert"],
        "incpoints.pad_s": self_time["incpoints.pad"],
        "incpoints.candidates": info["incpoints.build"],
        "stepfunc.eval_s": eval_s,
        "stepfunc.search_self_s": self_time["stepfunc.search"],
        "stepfunc.induce_s": self_time["stepfunc.induce"],
        "stepfunc.compressions": calls["stepfunc.search"],
        "stepfunc.oracle_calls": eval_calls,
        "stepfunc.breakpoints": info["stepfunc.search"],
        "oracles.dp_s": self_time["oracles.dp"],
        "oracles.dp_calls": calls["oracles.dp"],
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["incpoints.pad_ratio"] = padded / unpadded if unpadded else 0.0
    kept = info["stepfunc.search"]
    out["stepfunc.calls_per_breakpoint"] = search_evals / kept if kept else 0.0
    return out

