"""Spans and call counters recorded around calls into fdcop's modules.

The wrappers are installed from the benchmark by replacing module and class
attributes for the length of a traced pass, then put back; nothing in the
library is edited. Every wrapped call adds to per-name aggregates (calls,
inclusive seconds, self seconds). Calls that happen per cell or per message
are aggregated only; the rest are also kept as spans (id, name, start, end,
parent id, job id) in memory and written out when the benchmark ends.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

# Called per cell, per message or per utility lookup: recording a span for
# each would make the trace larger than the work it describes.
AGGREGATE_ONLY = frozenset({
    "model.utility_between",
    "model.utilities_of",
    "model.evaluate",
    "runtime.send",
    "runtime.collect",
    "common.best_own_response",
    "discrete.joint_utility",
    "afdpop.leaf_move",
})


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int
    parent_id: int
    child_seconds: float = 0.0


class Tracer:
    """Span stack with per-name totals; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.job = ""
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self._next_id = 0
        self._stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates; recorded spans are kept."""
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def timed(self, name: str, fn, *args, **kwargs):
        parent_id = -1
        for frame in reversed(self._stack):
            if frame.name not in AGGREGATE_ONLY:
                parent_id = frame.span_id
                break
        frame = _Frame(name, self.clock(), self._next_id, parent_id)
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame.start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - frame.child_seconds)
            if self._stack:
                self._stack[-1].child_seconds += duration
            if name not in AGGREGATE_ONLY:
                self.spans.append((frame.span_id, name, frame.start, end,
                                   frame.parent_id, self.job))

    def wrapped(self, name: str, fn):
        def call(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)
        return call

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counters": dict(self.counters)}


def module_self(self_time: dict[str, float], module: str) -> float:
    """Seconds spent in a module's own code: the self time of every span
    whose name starts with ``module + '.'``."""
    prefix = module + "."
    return sum(t for name, t in self_time.items() if name.startswith(prefix))


class Instrumentation:
    """Installs the layer wrappers on the fdcop modules; ``remove`` undoes it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attr]
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            result = tracer.timed(name, original, *args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_protocol(self, engine_module, label: str) -> None:
        """Time ``util_value_protocol`` as bound in one engine module, and the
        engine's own UTIL and VALUE callbacks it drives."""
        original = engine_module.__dict__["util_value_protocol"]
        tracer = self.tracer

        def wrapper(kernel, tree, util_fn, value_fn):
            return tracer.timed("common.util_value_protocol", original, kernel, tree,
                                tracer.wrapped(f"{label}.util_fn", util_fn),
                                tracer.wrapped(f"{label}.value_fn", value_fn))

        self._patch(engine_module, "util_value_protocol", wrapper)

    def install(self) -> "Instrumentation":
        from fdcop import generators, model, piecewise, pseudotree, runtime
        from fdcop.engines import afdpop, discrete, efdpop, hcms

        self.wrap(generators, "gen_tree", "generators.gen")
        self.wrap(generators, "gen_graph", "generators.gen")
        self.wrap(model.Problem, "validate", "model.validate")
        self.wrap(model, "build_constraint_graph", "model.graph")
        self.wrap(model.Problem, "utility_between", "model.utility_between")
        self.wrap(model.Problem, "utilities_of", "model.utilities_of")
        self.wrap(model.QuadraticBinaryUtility, "evaluate", "model.evaluate")
        self.wrap(pseudotree, "build", "pseudotree.build")
        self.wrap(runtime.Kernel, "send", "runtime.send")
        self.wrap(runtime.Kernel, "collect", "runtime.collect")
        for module, label in ((discrete, "discrete"), (efdpop, "efdpop"), (afdpop, "afdpop")):
            self.wrap_protocol(module, label)
        self.wrap(afdpop, "best_own_response", "common.best_own_response")
        self.wrap(discrete, "joint_utility", "discrete.joint_utility")
        self.wrap(afdpop, "joint_utility", "discrete.joint_utility")
        self.wrap(discrete, "run", "discrete.run")
        self.wrap(efdpop, "run", "efdpop.run")
        self.wrap(afdpop, "run", "afdpop.run")
        self.wrap(hcms, "run", "hcms.run")
        self.wrap(afdpop, "_interp_many", "afdpop.interp",
                  before=lambda t, args: t.count("afdpop.interp.queries", len(args[1])))
        self.wrap(afdpop, "cluster_tuples", "afdpop.cluster",
                  before=lambda t, args: t.count("afdpop.cluster.rows_in", len(args[0].rows)))
        self.wrap(afdpop, "leaf_move", "afdpop.leaf_move")
        self.wrap(piecewise, "add", "piecewise.add")
        self.wrap(piecewise, "project", "piecewise.project",
                  after=lambda t, result: t.count("piecewise.pieces_out", len(result[0].pieces)))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
