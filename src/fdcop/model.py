"""Problem representation: continuous domains, binary quadratic utilities,
solution evaluation, and the analytic bound calculators used by the
verification tooling."""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field

from . import pseudotree
from .errors import (
    ArgumentError,
    IncompleteSolutionError,
    InfeasibleValueError,
    ValidationError,
)

DPOP_FAMILY = ("dpop", "ef-dpop", "af-dpop", "caf-dpop")
ENGINE_KINDS = DPOP_FAMILY + ("hcms",)


@dataclass(frozen=True)
class ContinuousDomain:
    """Closed interval [lb, ub] a variable may take values in."""

    lb: float
    ub: float

    def __post_init__(self):
        if not (math.isfinite(self.lb) and math.isfinite(self.ub)):
            raise ValidationError(f"domain bounds must be finite, got [{self.lb}, {self.ub}]")
        if not self.lb < self.ub:
            raise ValidationError(f"domain must have lb < ub, got [{self.lb}, {self.ub}]")

    @property
    def width(self) -> float:
        return self.ub - self.lb

    def contains(self, value: float) -> bool:
        return self.lb <= value <= self.ub

    def clamp(self, value: float) -> float:
        return min(self.ub, max(self.lb, value))


@dataclass(frozen=True)
class QuadraticBinaryUtility:
    """f(x_i, x_j) = a*x_i^2 + b*x_i + c*x_j^2 + d*x_j + e*x_i*x_j + f0,
    with x_i = first_var and x_j = second_var."""

    first_var: str
    second_var: str
    coeff_a: float
    coeff_b: float
    coeff_c: float
    coeff_d: float
    coeff_e: float
    coeff_f0: float = 0.0

    def __post_init__(self):
        if self.first_var == self.second_var:
            raise ValidationError(f"utility must span two distinct variables, got {self.first_var!r} twice")
        for c in self.coeffs:
            if not math.isfinite(c):
                raise ValidationError(f"utility coefficients must be finite, got {self.coeffs}")

    @property
    def coeffs(self) -> tuple[float, ...]:
        return (self.coeff_a, self.coeff_b, self.coeff_c, self.coeff_d, self.coeff_e, self.coeff_f0)

    @property
    def scope(self) -> tuple[str, str]:
        return (self.first_var, self.second_var)

    def other_var(self, var: str) -> str:
        if var == self.first_var:
            return self.second_var
        if var == self.second_var:
            return self.first_var
        raise ArgumentError(f"{var!r} is not in the scope of this utility")

    def oriented(self, var: str) -> tuple[float, ...]:
        """The coefficients from `var`'s side: var^2, var, other^2, other,
        var x other and the constant."""
        a, b, c, d, e, f0 = self.coeffs
        if var == self.first_var:
            return (a, b, c, d, e, f0)
        if var == self.second_var:
            return (c, d, a, b, e, f0)
        raise ArgumentError(f"{var!r} is not in the scope of this utility")

    @staticmethod
    def polynomial(a, b, c, d, e, f0, vi, vj):
        """a*vi^2 + b*vi + c*vj^2 + d*vj + e*vi*vj + f0, summed in that order;
        coefficients and values may be numpy arrays, which broadcast."""
        return a * vi * vi + b * vi + c * vj * vj + d * vj + e * vi * vj + f0

    def evaluate(self, vi: float, vj: float) -> float:
        """Evaluate at first_var = vi, second_var = vj."""
        return self.polynomial(*self.coeffs, vi, vj)

    def value_at(self, values) -> float:
        """Evaluate from a mapping var -> value; argument order is canonicalized."""
        return self.evaluate(values[self.first_var], values[self.second_var])

    def partial(self, var: str, vi: float, vj: float) -> float:
        """Partial derivative with respect to `var` at (first=vi, second=vj)."""
        if var == self.first_var:
            return 2.0 * self.coeff_a * vi + self.coeff_b + self.coeff_e * vj
        if var == self.second_var:
            return 2.0 * self.coeff_c * vj + self.coeff_d + self.coeff_e * vi
        raise ArgumentError(f"{var!r} is not in the scope of this utility")


@dataclass(frozen=True)
class Assignment:
    """A complete or partial value assignment, variable -> real."""

    values: dict[str, float]


class ConstraintGraph:
    """Undirected simple graph with one node per variable and one edge per
    pair of variables that shares a utility.

    Nodes come in sorted order and each node's neighbors are sorted. A
    `Problem` builds its graph once and every caller shares it, so it has no
    mutators.
    """

    __slots__ = ("nodes", "_adjacency", "_edge_count")

    def __init__(self, variables, utilities):
        adjacency: dict[str, set[str]] = {v: set() for v in sorted(variables)}
        for f in utilities:
            # an undeclared variable becomes a node; validate() refuses the problem
            adjacency.setdefault(f.first_var, set()).add(f.second_var)
            adjacency.setdefault(f.second_var, set()).add(f.first_var)
        self._adjacency = {v: tuple(sorted(nbs)) for v, nbs in adjacency.items()}
        self._edge_count = sum(map(len, adjacency.values())) // 2
        self.nodes: tuple[str, ...] = tuple(adjacency)

    def neighbors(self, node: str) -> tuple[str, ...]:
        return self._adjacency[node]

    def degree(self, node: str) -> int:
        return len(self._adjacency[node])

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return self._edge_count

    def edges(self) -> list[tuple[str, str]]:
        """Each edge once, as (u, v) with u < v."""
        return [(u, v) for u in self.nodes for v in self._adjacency[u] if u < v]


@dataclass(frozen=True)
class Problem:
    """Agents, their variables and domains, and the binary utilities.

    `utility_between` is O(1): it reads an index by variable pair that is
    built once at construction, next to the constraint graph `graph`. The
    DFS pseudo-tree `tree` is built from `graph` on first use and kept. All
    three are derived from `utilities`, so they take no part in equality,
    `repr` or serialization.
    """

    agents: tuple[str, ...]
    variables: tuple[str, ...]
    domains: dict[str, ContinuousDomain]
    utilities: tuple[QuadraticBinaryUtility, ...]
    owner: dict[str, str] = field(default_factory=dict)
    _by_pair: dict[frozenset[str], QuadraticBinaryUtility] = field(
        init=False, repr=False, compare=False)
    graph: ConstraintGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        by_pair: dict[frozenset[str], QuadraticBinaryUtility] = {}
        for f in self.utilities:
            # the first utility over a pair wins; validate() rejects duplicates
            by_pair.setdefault(frozenset(f.scope), f)
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "graph", ConstraintGraph(self.variables, self.utilities))

    def validate(self) -> None:
        if not self.variables:
            raise ValidationError("a problem needs at least one variable")
        if sorted(self.owner) != sorted(self.variables):
            raise ValidationError("owner map must cover exactly the declared variables")
        if sorted(set(self.owner.values())) != sorted(self.agents):
            raise ValidationError("owner map must be a bijection onto the agents")
        if len(set(self.owner.values())) != len(self.variables):
            raise ValidationError("each agent must own exactly one variable")
        for var in self.variables:
            if var not in self.domains:
                raise ValidationError(f"variable {var!r} has no domain")
        # each declared variable's largest magnitude on its domain
        largest = {v: max(abs(self.domains[v].lb), abs(self.domains[v].ub))
                   for v in self.variables}
        total = 0.0
        for u in self.utilities:
            mi, mj = largest.get(u.first_var), largest.get(u.second_var)
            if mi is None or mj is None:
                stray = u.first_var if mi is None else u.second_var
                raise ValidationError(f"utility references undeclared variable {stray!r}")
            # the index keeps a pair's first utility
            if self._by_pair[frozenset(u.scope)] is not u:
                raise ValidationError(f"duplicate utility over pair {sorted(u.scope)}")
            # |u| over the domain box is at most this sum of each term's
            # largest magnitude; if it overflows, evaluating u may too
            bound = u.polynomial(*map(abs, u.coeffs), mi, mj)
            if not math.isfinite(bound):
                raise ValidationError(f"utility over {list(u.scope)} overflows the float "
                                      f"range on its domains")
            total += bound
        if len(self._by_pair) < len(self.utilities):  # one utility object listed twice
            twice = next(u for i, u in enumerate(self.utilities) if u in self.utilities[:i])
            raise ValidationError(f"duplicate utility over pair {sorted(twice.scope)}")
        # the same bound on any sum of utilities, such as the optimum
        if not math.isfinite(total):
            raise ValidationError("the utilities' sum overflows the float range on their domains")
        reached, frontier = {self.variables[0]}, [self.variables[0]]
        while frontier:
            for nb in self.graph.neighbors(frontier.pop()):
                if nb not in reached:
                    reached.add(nb)
                    frontier.append(nb)
        if len(reached) < len(self.variables):
            raise ValidationError("constraint graph is disconnected")

    @functools.cached_property
    def tree(self) -> pseudotree.PseudoTree:
        """The default-root `pseudotree.build(self.graph)`, which every
        DPOP-family run, the audit and the CLI share."""
        return pseudotree.build(self.graph)

    def utility_between(self, u: str, v: str) -> QuadraticBinaryUtility | None:
        return self._by_pair.get(frozenset((u, v)))

    def utilities_of(self, var: str) -> tuple[QuadraticBinaryUtility, ...]:
        return tuple(f for f in self.utilities if var in f.scope)


def evaluate_solution(problem: Problem, assignment: Assignment) -> float:
    """Sum of all utilities at a complete, domain-feasible assignment."""
    for var in problem.variables:
        if var not in assignment.values:
            raise IncompleteSolutionError(f"assignment is missing variable {var!r}")
        if not problem.domains[var].contains(assignment.values[var]):
            raise InfeasibleValueError(
                f"value {assignment.values[var]} of {var!r} is outside "
                f"[{problem.domains[var].lb}, {problem.domains[var].ub}]"
            )
    return left_sum(f.value_at(assignment.values) for f in problem.utilities)


def left_sum(values) -> float:
    """0.0 plus the floats one by one, left to right, as the builtin `sum`
    adds them up to Python 3.11; from 3.12 on `sum` compensates its rounding,
    which can change the last bit."""
    return functools.reduce(operator.add, values, 0.0)


def build_constraint_graph(problem: Problem) -> ConstraintGraph:
    """The problem's constraint graph, built once at its construction."""
    return problem.graph


def gradient_bound(problem: Problem) -> float:
    """δ: the max over the utilities of |df/dx_i| + |df/dx_j| on the domain
    box; 0 with no utilities.

    Each partial is affine, so the max of the sum of absolute values is
    attained at a corner of the box; all four corners are checked.
    """
    delta = 0.0
    for f in problem.utilities:
        di = problem.domains[f.first_var]
        dj = problem.domains[f.second_var]
        for vi, vj in itertools.product((di.lb, di.ub), (dj.lb, dj.ub)):
            mag = abs(f.partial(f.first_var, vi, vj)) + abs(f.partial(f.second_var, vi, vj))
            delta = max(delta, mag)
    return delta


def error_bound_discrete(problem: Problem, m: float) -> float:
    """|F| * m * delta, the discretization error bound for grid-based DPOP."""
    if not (math.isfinite(m) and m > 0):
        raise ArgumentError(f"hypercube size m must be finite and positive, got {m}")
    return len(problem.utilities) * m * gradient_bound(problem)


def error_bound_af(problem: Problem, m: float, moves: int, alpha: float) -> float:
    """|F| * (m + |A|*moves*alpha*delta) * delta, the gradient-move error bound."""
    if not (math.isfinite(m) and m > 0):
        raise ArgumentError(f"hypercube size m must be finite and positive, got {m}")
    if moves < 0:
        raise ArgumentError(f"moves must be nonnegative, got {moves}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ArgumentError(f"alpha must be finite and positive, got {alpha}")
    delta = gradient_bound(problem)
    return len(problem.utilities) * (m + len(problem.agents) * moves * alpha * delta) * delta


def predicted_message_count(engine_kind: str, graph: ConstraintGraph, iterations: int = 1) -> int:
    """Analytic message totals: 4*iterations*|E| for hcms, 2*|X| otherwise."""
    if engine_kind == "hcms":
        if iterations < 1:
            raise ArgumentError(f"hcms needs at least one iteration, got {iterations}")
        return 4 * iterations * graph.number_of_edges()
    if engine_kind in DPOP_FAMILY:
        return 2 * graph.number_of_nodes()
    raise ArgumentError(f"unknown engine kind {engine_kind!r}")


def hypercube_size(problem: Problem, d: int) -> float:
    """The m of the error bounds: the largest distance between adjacent grid
    points of d per variable (a variable's full width for d = 1)."""
    if d < 1:
        raise ArgumentError(f"point count must be at least 1, got {d}")
    return max(problem.domains[v].width / max(d - 1, 1) for v in problem.variables)


# --- serialization -----------------------------------------------------------

def problem_to_dict(problem: Problem) -> dict:
    return {
        "agents": list(problem.agents),
        "variables": [
            {
                "id": var,
                "agent": problem.owner[var],
                "lb": problem.domains[var].lb,
                "ub": problem.domains[var].ub,
            }
            for var in problem.variables
        ],
        "constraints": [
            {"scope": [f.first_var, f.second_var], "coeffs": list(f.coeffs)}
            for f in problem.utilities
        ],
    }


def _typed(value, kind: type, what: str):
    """`value` if it is a `kind` and not a bool; a ValidationError otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """A JSON number as a finite float; anything else is a ValidationError."""
    if not isinstance(value, bool) and isinstance(value, (int, float)) \
            and abs(value) <= sys.float_info.max:  # exact for any int, false for NaN
        return float(value)
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def _utility_from_dict(entry: dict) -> QuadraticBinaryUtility:
    scope, coeffs = _typed(entry["scope"], list, "a scope"), entry["coeffs"]
    if len(scope) != 2 or len(coeffs) != 6:
        raise ValidationError(f"a utility needs 2 variables and 6 coefficients, got "
                              f"{len(scope)} and {len(coeffs)}")
    return QuadraticBinaryUtility(*(_typed(v, str, "a scope entry") for v in scope),
                                  *(_finite(c, "a coefficient") for c in coeffs))


def problem_from_dict(doc: dict) -> Problem:
    """Build and validate a problem; a malformed document is a ValidationError:
    ids, agents and scope entries are strings, bounds and coefficients finite."""
    try:
        agents = tuple(_typed(a, str, "an agent") for a in _typed(doc["agents"], list, "agents"))
        entries = doc["variables"]
        variables = tuple(_typed(entry["id"], str, "a variable id") for entry in entries)
        domains = {entry["id"]: ContinuousDomain(_finite(entry["lb"], "a bound"),
                                                 _finite(entry["ub"], "a bound"))
                   for entry in entries}
        owner = {entry["id"]: _typed(entry["agent"], str, "an agent") for entry in entries}
        utilities = tuple(_utility_from_dict(entry) for entry in doc["constraints"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed problem document: {exc!r}") from exc
    problem = Problem(agents=agents, variables=variables, domains=domains,
                      utilities=utilities, owner=owner)
    problem.validate()
    return problem


def dumps(problem: Problem) -> str:
    # json uses repr-style shortest round-trip floats, so numbers survive exactly
    return json.dumps(problem_to_dict(problem), indent=2)


def loads(text: str) -> Problem:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a number or nesting json cannot hold
        raise ValidationError(f"problem file is not JSON: {exc}") from exc
    return problem_from_dict(doc)


def save(problem: Problem, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(problem))
        fh.write("\n")


def load(path) -> Problem:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"problem file is not text: {exc}") from exc
    return loads(text)
