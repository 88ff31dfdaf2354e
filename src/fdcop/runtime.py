"""Deterministic simulated message-passing kernel.

Hosts one logical agent per variable, delivers typed messages in a fixed
schedule, and records exact message counts and payload sizes. Agents may only
read their own domain and utilities, their pseudo-tree neighborhood metadata,
and received message payloads. Messages are isolated by construction, since
`Kernel.collect` only reads the receiver's own mailbox; problem and tree reads
go through `AgentContext`, which logs each read of a domain by name (the only
read that can reach another agent's data) for the post-run audit.
"""
from __future__ import annotations

import contextlib
import math
import numbers
import time
from dataclasses import dataclass, field

from . import model, pseudotree
from .errors import ArgumentError, CapacityError, ProtocolError

SYSTEM = "__system__"

UTIL = "UTIL"
VALUE = "VALUE"
MS_VARIABLE_TO_FUNCTION = "MS_VariableToFunction"
MS_FUNCTION_TO_VARIABLE = "MS_FunctionToVariable"

MESSAGE_KINDS = (UTIL, VALUE, MS_VARIABLE_TO_FUNCTION, MS_FUNCTION_TO_VARIABLE)

INTERPOLATIONS = ("idw", "nearest")


@dataclass(frozen=True)
class Message:
    sender: str
    payload: object


@dataclass
class RunStats:
    total_messages: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    total_scalars: int = 0
    max_message_scalars: int = 0
    phase_timings: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class EngineConfig:
    # `fdcop solve` reports the fields in this order
    points: int = 3
    moves: int = 10
    alpha: float = 0.01
    k_clusters: int = 10
    iterations: int = 1
    interpolation: str = "idw"
    seed: int = 0
    row_cap: int = 10_000_000

    def __post_init__(self):
        for name in ("points", "moves", "alpha", "k_clusters", "iterations", "seed", "row_cap"):
            value = getattr(self, name)
            kind, what = ((numbers.Real, "a real number") if name == "alpha"
                          else (numbers.Integral, "an integer"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ArgumentError(f"{name} must be {what}, got {value!r}")
        if self.points < 1:
            raise ArgumentError(f"points must be >= 1, got {self.points}")
        if self.moves < 0:
            raise ArgumentError(f"moves must be >= 0, got {self.moves}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ArgumentError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.k_clusters < 1:
            raise ArgumentError(f"k_clusters must be >= 1, got {self.k_clusters}")
        if self.iterations < 1:
            raise ArgumentError(f"iterations must be >= 1, got {self.iterations}")
        if self.interpolation not in INTERPOLATIONS:
            raise ArgumentError(f"unknown interpolation {self.interpolation!r}")


class Kernel:
    """Mailboxes, statistics, and the audit trace for one run: with
    `keep_trace`, one (sender, receiver, kind, scalar size) per message.

    A mailbox holds one receiver's pending messages of one kind, in arrival
    order. `phase_timings[name]` is the time spent inside `phase(name)`
    blocks."""

    def __init__(self, keep_trace: bool = True):
        self.stats = RunStats()
        self.keep_trace = keep_trace
        self.trace: list[tuple[str, str, str, int]] = []
        self.reads: list[tuple[str, str]] = []
        self._inbox: dict[tuple[str, str], list[Message]] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        """Add the time spent inside the block to `phase_timings[name]`, also
        when the block raises."""
        start = time.perf_counter()
        try:
            yield
        finally:
            timings = self.stats.phase_timings
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - start

    def send(self, sender: str, receiver: str, kind: str, payload, scalar_size: int) -> None:
        if kind not in MESSAGE_KINDS:
            raise ArgumentError(f"unknown message kind {kind!r}")
        self._inbox.setdefault((receiver, kind), []).append(Message(sender, payload))
        self.stats.total_messages += 1
        self.stats.messages_by_kind[kind] = self.stats.messages_by_kind.get(kind, 0) + 1
        self.stats.total_scalars += scalar_size
        self.stats.max_message_scalars = max(self.stats.max_message_scalars, scalar_size)
        if self.keep_trace:
            self.trace.append((sender, receiver, kind, scalar_size))

    def collect(self, receiver: str, kind: str) -> list[Message]:
        """Pop all pending messages of one kind, in arrival order."""
        return self._inbox.pop((receiver, kind), [])

    def log_read(self, agent: str, key: str) -> None:
        self.reads.append((agent, key))

    def trace_lines(self) -> list[str]:
        return [f"{step},{snd},{rcv},{kind},{size}"
                for step, (snd, rcv, kind, size) in enumerate(self.trace)]


class AgentContext:
    """The only window an agent has onto the problem and the pseudo-tree.
    `domain_of` is logged for `audit_isolation`; the other reads are keyed by
    the agent's own variable, so they cannot reach another agent's data."""

    def __init__(self, kernel: Kernel, problem: model.Problem,
                 tree: pseudotree.PseudoTree | None, var: str):
        self._kernel = kernel
        self._problem = problem
        self._tree = tree
        self.var = var

    def own_domain(self) -> model.ContinuousDomain:
        return self._problem.domains[self.var]

    def domain_of(self, other: str) -> model.ContinuousDomain:
        # intentionally unrestricted; audit_isolation flags illegitimate reads
        self._kernel.log_read(self.var, f"domain:{other}")
        return self._problem.domains[other]

    def constraint_with(self, other: str) -> model.QuadraticBinaryUtility | None:
        return self._problem.utility_between(self.var, other)

    @property
    def parent(self) -> str | None:
        return self._tree.parent.get(self.var)

    @property
    def separator(self) -> tuple[str, ...]:
        return self._tree.separator[self.var]


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple[tuple[str, str], ...]


def audit_isolation(kernel: Kernel, problem: model.Problem,
                    tree: pseudotree.PseudoTree | None = None) -> AuditReport:
    """Check the read log: each agent read only its own domain and those of
    its neighbors (and, with a tree, its separator). Messages need no check,
    since `collect` only reads the receiver's own mailbox."""
    allowed_domains: dict[str, set[str]] = {}
    for var in problem.variables:
        allowed = {var} | set(problem.graph.neighbors(var))
        if tree is not None:
            allowed |= set(tree.separator[var])
        allowed_domains[var] = allowed

    violations = [(agent, key) for agent, key in kernel.reads
                  if key.removeprefix("domain:") not in allowed_domains.get(agent, set())]
    return AuditReport(ok=not violations, violations=tuple(violations))


@dataclass
class RunResult:
    assignment: model.Assignment
    stats: RunStats
    reported_optimum: float
    kernel: Kernel
    tree: pseudotree.PseudoTree | None


def _check_outcome(problem: model.Problem, engine: str, values: dict[str, float],
                   optimum: float) -> None:
    """Refuse an engine outcome that is not a finite, in-domain assignment of
    every variable with a finite reported optimum."""
    for var in problem.variables:
        if var not in values:
            raise ProtocolError(f"{engine}: no value for {var}")
        if not problem.domains[var].contains(values[var]):  # also rejects NaN
            raise ProtocolError(f"{engine}: value {values[var]!r} of {var} lies "
                                f"outside its domain")
    if not math.isfinite(optimum):
        raise ProtocolError(f"{engine}: reported optimum {optimum!r} is not finite")


def run(problem: model.Problem, engine: str, config: EngineConfig | None = None,
        keep_trace: bool = True) -> RunResult:
    """Execute one engine on one problem under the simulated runtime.

    A DPOP-family engine runs on `problem.tree`, the problem's one pseudo-tree,
    which is also the result's `tree`; `hcms` runs on `problem.graph` and its
    result has no tree. The kernel times the `"pseudotree"` read, the engine's
    `"util"` and `"value"` phases, and `hcms`'s `"maxsum"`; a `CapacityError`
    carries the statistics up to the refusal, timings included."""
    from .engines import discrete, efdpop, afdpop, hcms

    if config is None:
        config = EngineConfig()
    if engine not in model.ENGINE_KINDS:
        raise ArgumentError(f"unknown engine {engine!r}")
    problem.validate()
    kernel = Kernel(keep_trace=keep_trace)

    tree = None
    if engine in model.DPOP_FAMILY:
        with kernel.phase("pseudotree"):
            tree = problem.tree

    contexts = {var: AgentContext(kernel, problem, tree, var) for var in problem.variables}
    try:
        if engine == "dpop":
            values, optimum = discrete.run(contexts, tree, kernel, config)
        elif engine == "ef-dpop":
            values, optimum = efdpop.run(contexts, tree, kernel, config)
        elif engine == "af-dpop":
            values, optimum = afdpop.run(contexts, tree, kernel, config, clustered=False)
        elif engine == "caf-dpop":
            values, optimum = afdpop.run(contexts, tree, kernel, config, clustered=True)
        else:
            with kernel.phase("maxsum"):
                values, optimum = hcms.run(contexts, problem.graph, kernel, config)
    except CapacityError as exc:
        if exc.stats is None:
            exc.stats = kernel.stats
        raise
    _check_outcome(problem, engine, values, optimum)
    return RunResult(
        assignment=model.Assignment(dict(values)),
        stats=kernel.stats,
        reported_optimum=optimum,
        kernel=kernel,
        tree=tree,
    )
