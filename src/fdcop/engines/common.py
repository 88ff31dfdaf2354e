"""Shared machinery for the engines: the array UTIL table, domain
discretization, the UTIL size plan, product grids, the one max-plus
projection (the child-plus-constraint sum over separator rows x own
candidates, reduced to each row's first maximum, behind dpop's and
af/caf-dpop's UTIL tables and hcms's function-to-variable messages), run
within the row cap, closed-form 1-D maximization, the one clamp and gradient
step, the UTIL schedule by pseudo-tree heights and the UTIL/VALUE schedule."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ArgumentError, CapacityError, ProtocolError
from ..model import ContinuousDomain, QuadraticBinaryUtility
from ..runtime import SYSTEM, UTIL, VALUE, Kernel
from ..pseudotree import PseudoTree


@dataclass(frozen=True, eq=False)
class UtilTable:
    """Value tuples as the rows of an (n, len(separator_vars)) float array and
    their utilities as an (n,) array, both made read-only since sender and
    receiver share one payload."""

    separator_vars: tuple[str, ...]
    rows: np.ndarray
    utils: np.ndarray

    def __post_init__(self):
        self.rows.flags.writeable = self.utils.flags.writeable = False

    def scalar_size(self) -> int:
        return len(self.rows) * (len(self.separator_vars) + 1)

    def value_set(self, var: str) -> list[float]:
        return sorted(set(self.rows[:, self.separator_vars.index(var)].tolist()))

    @functools.cached_property
    def row_index(self) -> dict[tuple[float, ...], float]:
        """Each distinct row, as a tuple, with the largest utility of its
        copies; built on first use, by the receiver."""
        index: dict[tuple[float, ...], float] = {}
        for values, util in zip(map(tuple, self.rows.tolist()), self.utils.tolist()):
            if values not in index or util > index[values]:
                index[values] = util
        return index


def discretize(domain: ContinuousDomain, d: int) -> list[float]:
    """d evenly spaced points including both endpoints; the midpoint for d=1.

    Refuses (ArgumentError) a domain on which the d points are not finite and
    strictly increasing: one too narrow for its magnitude, where neighbours
    round to the same float, or one whose width overflows."""
    if d < 1:
        raise ArgumentError(f"point count must be at least 1, got {d}")
    if d == 1:
        points = [domain.lb + domain.width / 2.0]
    else:
        step = domain.width / (d - 1)
        points = [domain.lb + i * step for i in range(d - 1)]
        points.append(domain.ub)
    if not (all(map(math.isfinite, points)) and all(a < b for a, b in zip(points, points[1:]))):
        raise ArgumentError(f"cannot place {d} distinct finite points on "
                            f"[{domain.lb!r}, {domain.ub!r}]")
    return points


def grid_cache():
    """`discretize`, keeping one grid per distinct (lb, ub, d) for the run
    that makes the cache: `gen_tree(2000)` plans about 7,000 grids on one
    domain. A bound is keyed by its `float.hex` and its type: `discretize`
    places the upper bound itself as the last point, so -0.0 and 0.0, or 2
    and 2.0, are equal bounds that give other grids. Callers share the
    lists and never mutate them."""
    grids: dict[tuple, list[float]] = {}

    def grid(domain: ContinuousDomain, d: int) -> list[float]:
        key = (d, *[(type(b), float.hex(float(b))) for b in (domain.lb, domain.ub)])
        if key not in grids:
            grids[key] = discretize(domain, d)
        return grids[key]

    return grid


def check_grid_cap(var: str, cells: int, row_cap: int) -> None:
    """Refuse, before it is built, a grid table of `cells` rows above the cap."""
    if cells > row_cap:
        raise CapacityError(f"{var}: grid table would hold {cells} rows (cap {row_cap})")


@dataclass(frozen=True)
class AgentPlan:
    """What one agent's UTIL step knows before its children's tables arrive:
    its own and its separator variables' domains, own first, each read once,
    and the d-point grid of every one of them that no child's table
    mentions. `rows` is its table's row count when it knows every grid, and
    None when children's tables decide some variable's values."""

    domains: dict[str, ContinuousDomain]
    grids: dict[str, list[float]]
    rows: int | None


def plan_util(contexts, tree: PseudoTree, d: int, row_cap: int, grid_tables: bool = True):
    """The UTIL phase's plans: returns `plan(var)`, each agent's `AgentPlan`,
    made when first asked for and kept, so in a run that finishes every
    agent reads its domains once. An engine asks for the plans it needs
    before the first message in post-order, the order of the UTIL steps, so
    each input's first error is the one the steps would raise in turn, only
    earlier.

    An agent's plan discretizes its variables that no child's table mentions
    (with `grid_tables`, the children's tables are the grids of their
    variables, so all of them), through one `grid_cache` for all agents.
    When it knows every grid, `plan` first refuses a table of d^(|sep|+1)
    rows above `row_cap` with `check_grid_cap`, before any grid is built.
    A variable a child's table mentions has at least one value, so the
    count it knows is a lower bound; that bound refuses nothing, since a
    refusal names the table's count."""
    plans: dict[str, AgentPlan] = {}
    grid = grid_cache()

    def plan(var: str) -> AgentPlan:
        if var not in plans:
            ctx = contexts[var]
            mentioned = () if grid_tables else {w for c in tree.children[var]
                                                for w in tree.separator[c]}
            domains = {var: ctx.own_domain(), **{w: ctx.domain_of(w) for w in ctx.separator}}
            rows = None if any(w in mentioned for w in domains) else d ** len(domains)
            if rows is not None:
                check_grid_cap(var, rows, row_cap)
            grids = {w: grid(dom, d) for w, dom in domains.items() if w not in mentioned}
            plans[var] = AgentPlan(domains, grids, rows)
        return plans[var]

    return plan


def product_grid(grids: list[list[float]]) -> tuple[np.ndarray, np.ndarray]:
    """Every tuple of the grids, in itertools.product order: an (n, len(grids))
    array of each coordinate's index into its grid, and the same array of the
    points themselves."""
    shape = [len(g) for g in grids]
    index = np.indices(shape).reshape(len(grids), math.prod(shape)).T
    rows = np.empty(index.shape)
    for j, g in enumerate(grids):
        rows[:, j] = np.asarray(g, dtype=float)[index[:, j]]
    return index, rows


class UtilSum(NamedTuple):
    """One agent's UTIL sum for `join`: its separator tuples `rows` (one
    column per `sep_vars` entry) against its own `candidates`, the
    `contributions` of its children (a child's utilities: one value per
    candidate for every row, shaped (len(candidates),) or
    (1, len(candidates)), or per row, shaped (len(rows), len(candidates)))
    and its `constraints` with separator variables."""

    var: str
    candidates: list[float] | np.ndarray
    sep_vars: tuple[str, ...]
    rows: np.ndarray
    contributions: list
    constraints: list[QuadraticBinaryUtility]


def join(sums: list[UtilSum]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The max-plus projection of each sum: per separator tuple rows[r], the
    index `best[r]` of its first best candidate (ties go to the smallest
    index) and that cell's utility `utils[r]`, as two (len(rows),) arrays.

    A cell (r, c) scores rows[r] with `var` at candidates[c]. Starting from
    zeros, each contribution is added in the given order, then each
    constraint between `var` and a separator variable, evaluated at the
    candidates and at that variable's column of `rows`; so every cell sums in
    the order of a per-cell loop, and from +0.0 it is never -0.0, so the cell
    read at a row's first `argmax` is its `max`. A contribution of another
    shape is a ProtocolError. Engines join through `joined`.

    A call of several sums adds up the sums of one shape (rows, candidates,
    contributions, and `var`'s side of each constraint) as one stacked
    array, and a call of one sum adds it up alone (`_add_up`), which is
    faster for the one-agent heights af/caf mostly have on `graph`. Each
    step is element-wise, so every cell is the float its sum gives alone.
    """
    if len(sums) == 1:
        cells = _add_up(sums[0])
        best = cells.argmax(axis=1)
        return [(best, cells[np.arange(len(cells)), best])]
    shapes: dict[tuple, list[int]] = {}
    for i, s in enumerate(sums):
        shapes.setdefault((len(s.rows), len(s.candidates), len(s.contributions),
                           tuple([f.first_var == s.var for f in s.constraints])), []).append(i)
    out: list = [None] * len(sums)
    for (n_r, n_c, _, sides), members in shapes.items():
        group = [sums[i] for i in members]
        total = np.zeros((len(group), n_r, n_c))
        for parts in zip(*(s.contributions for s in group)):
            # each as (1 or n_r, n_c), and all as (n_r, n_c) when they differ
            parts = [_checked(s, utils, n_r, n_c).reshape(-1, n_c)
                     for s, utils in zip(group, parts)]
            if len({len(utils) for utils in parts}) > 1:
                parts = [np.broadcast_to(utils, (n_r, n_c)) for utils in parts]
            total += np.array(parts)
        own = np.array([s.candidates for s in group], dtype=float).reshape(len(group), 1, n_c)
        for j, first in enumerate(sides):
            fs = [s.constraints[j] for s in group]
            other = np.array([s.rows[:, s.sep_vars.index(f.other_var(s.var))]
                              for s, f in zip(group, fs)]).reshape(len(group), n_r, 1)
            coeffs = np.array([f.coeffs for f in fs]).T.reshape(6, -1, 1, 1)
            total += (QuadraticBinaryUtility.polynomial(*coeffs, own, other) if first
                      else QuadraticBinaryUtility.polynomial(*coeffs, other, own))
        # reading the cell at each argmax is cheaper than a second reduction
        best = total.argmax(axis=2)
        utils = total[np.arange(len(group))[:, None], np.arange(n_r), best]
        for i, b, u in zip(members, best, utils):
            out[i] = b, u
    return out


def joined(sums, row_cap: int):
    """Yields `(s, best, utils)` for each sum `s` of the iterable `sums`, in
    order, with its `join`ed projection, joined in runs of consecutive sums
    of at most `row_cap` cells (rows x candidates) in all, so a stacked join
    stays within the cap and no run's cells outlive its join."""
    run, cells = [], 0
    for s in sums:
        size = len(s.rows) * len(s.candidates)
        if run and cells + size > row_cap:
            yield from zip(run, *zip(*join(run)))
            run, cells = [], 0
        run.append(s)
        cells += size
    if run:
        yield from zip(run, *zip(*join(run)))


def _add_up(s: UtilSum) -> np.ndarray:
    """One sum's cells, added up alone: the per-cell order `join` stacks."""
    n_r, n_c = len(s.rows), len(s.candidates)
    total = np.zeros((n_r, n_c))
    for utils in s.contributions:
        total += _checked(s, utils, n_r, n_c)
    own = np.asarray(s.candidates, dtype=float).reshape(1, n_c)
    for f in s.constraints:
        other = s.rows[:, s.sep_vars.index(f.other_var(s.var))].reshape(n_r, 1)
        total += f.evaluate(own, other) if f.first_var == s.var else f.evaluate(other, own)
    return total


def _checked(s: UtilSum, utils, n_r: int, n_c: int) -> np.ndarray:
    """A contribution as an array, refused unless it is one of its sum's
    shapes."""
    utils = np.asarray(utils)
    if utils.shape not in ((n_c,), (1, n_c), (n_r, n_c)):
        raise ProtocolError(f"{s.var}: child utilities of shape {utils.shape} do not match "
                            f"{n_r} rows x {n_c} candidates")
    return utils


def argmax_quadratic_1d(c2: float, c1: float, lo: float, hi: float) -> float:
    """Maximizer of c2*x^2 + c1*x over [lo, hi]; ties go to the smaller point."""
    candidates = [lo, hi]
    if c2 < 0.0:
        vertex = -c1 / (2.0 * c2)
        if lo < vertex < hi:
            candidates.append(vertex)
    best_x, best_v = None, None
    for x in sorted(candidates):
        v = c2 * x * x + c1 * x
        if best_v is None or v > best_v:
            best_x, best_v = x, v
    return best_x


def best_own_response(utilities: list[QuadraticBinaryUtility], var: str,
                      fixed: dict[str, float], domain: ContinuousDomain) -> float:
    """Closed-form maximizer over `var` of the summed utilities, with every
    other scoped variable pinned by `fixed`."""
    c2 = 0.0
    c1 = 0.0
    for f in utilities:
        square, linear, _, _, cross, _ = f.oriented(var)
        c2 += square
        c1 += linear + cross * fixed[f.other_var(var)]
    return argmax_quadratic_1d(c2, c1, domain.lb, domain.ub)


def clamp(values, lb, ub):
    """`ContinuousDomain.clamp` element by element: ±inf and a tie, 0.0
    against -0.0 included, end at the bound; NaN stays NaN."""
    return np.minimum(np.maximum(values, lb), ub)


def clamped_step(current: np.ndarray, step: np.ndarray, lb, ub) -> np.ndarray:
    """The gradient step of af/caf-dpop and hcms, clamped to [lb, ub]. A NaN
    step, from an infinite coefficient times a zero coordinate (whose true
    partial is 0), is no move: it keeps `current`."""
    return np.where(np.isnan(step), current, clamp(step, lb, ub))


def computed_ahead(tree: PseudoTree, sure, steps):
    """The DPOP family's UTIL schedule: a `util_fn` for `util_value_protocol`
    that computes the tables of `sure`, agents sure to finish in post-order,
    each after its children, before the first message, one pseudo-tree
    height (distance to the deepest leaf below) at a time, leaves first, by
    `steps(agents, inputs)`: each agent's table over its children's tables
    in sender order, or the optimum at the root. Each agent still sends at
    its turn, and refuses (ProtocolError) other tables than it was computed
    from; an agent not in `sure` is computed then, as a height of one."""
    ahead: dict[str, tuple[list[UtilTable], object]] = {}
    heights: dict[str, int] = {}
    by_height: dict[int, list[str]] = {}
    for var in sure:
        heights[var] = 1 + max((heights[c] for c in tree.children[var]), default=-1)
        by_height.setdefault(heights[var], []).append(var)
    for _, agents in sorted(by_height.items()):
        inputs = [[ahead[c][1] for c in sorted(tree.children[var])] for var in agents]
        for var, children, table in zip(agents, inputs, steps(agents, inputs)):
            ahead[var] = children, table

    def util_fn(var, child_payloads):
        if var in ahead:
            tables, table = ahead.pop(var)
            if len(tables) != len(child_payloads) or any(
                    t is not p for t, p in zip(tables, child_payloads)):
                raise ProtocolError(f"{var}: its UTIL table was computed from other tables "
                                    f"than it received")
        else:
            [table] = steps([var], [child_payloads])
        return table if var == tree.root else (table, table.scalar_size())

    return util_fn


def util_value_protocol(kernel: Kernel, tree: PseudoTree, util_fn, value_fn):
    """Run the two DPOP phases over the kernel, in the tree's stored post-
    and pre-order, timing them as the kernel's `"util"` and `"value"` phases.

    util_fn(var, child_payloads) gets the children's UTIL payloads in sender
    order and returns (payload, scalar_size) for non-root agents and the
    reported optimum (a float) at the root. value_fn(var, key) returns the
    agent's own value for `key`, the ancestors' values of its sorted
    separator variables like a row of its UTIL table (a ProtocolError if one
    is missing). Exactly 2|X| messages are exchanged: every agent's UTIL goes
    up (the root reports its optimum to the system endpoint) and every agent
    receives exactly one VALUE (the root's comes from the system kick-off).
    """
    optimum = None
    with kernel.phase("util"):
        for var in tree.post_order:
            msgs = sorted(kernel.collect(var, UTIL), key=lambda m: m.sender)
            child_payloads = [m.payload for m in msgs]
            if var == tree.root:
                optimum = util_fn(var, child_payloads)
                kernel.send(var, SYSTEM, UTIL, {"optimum": optimum}, 1)
            else:
                payload, size = util_fn(var, child_payloads)
                kernel.send(var, tree.parent[var], UTIL, payload, size)

    values: dict[str, float] = {}
    with kernel.phase("value"):
        kernel.send(SYSTEM, tree.root, VALUE, {}, 0)
        for var in tree.pre_order:
            known = dict(kernel.collect(var, VALUE)[0].payload)
            try:
                key = tuple(known[w] for w in tree.separator[var])
            except KeyError as exc:
                raise ProtocolError(f"{var}: missing ancestor value {exc}") from exc
            known[var] = values[var] = value_fn(var, key)
            for child in tree.children[var]:
                payload = {w: known[w] for w in tree.separator[child]}
                kernel.send(var, child, VALUE, payload, len(payload))
    return values, optimum
