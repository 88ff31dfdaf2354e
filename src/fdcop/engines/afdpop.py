"""Approximate functional DPOP and its clustered variant.

UTIL tables hold scattered value tuples, the rows of an array, whose
coordinates are iteratively moved along utility gradients. Every agent runs
one program, `agent_util`; a leaf is an agent with no child tables. The join
interpolates each child's table over the union of the children's value sets
(a grid for a variable no child mentions), building a child's queries once
per distinct projection of the separator tuples. Each tuple then moves along
the own constraints' gradient at the best own value of its nearest grid
tuple. An agent with no child tables has a utility that is a sum of
quadratics in its own value, so it moves against the closed-form best
response instead. Those leaves move together, in one array program
(`leaf_move`) at the start of UTIL, and each sends its table, or refuses it
over the row cap, at its turn in post-order. Leaves and agents with children
move by one loop and one clamped step (`_move`). VALUE answers the
ancestors' values, which may lie off the grid, by the same rule. The
clustered variant compresses each outgoing table to the k-means centroids of
its rows (at most k) while keeping the full table locally.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from ..errors import ArgumentError, CapacityError, FdcopError, ProtocolError
from ..model import ContinuousDomain, QuadraticBinaryUtility
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import (UtilTable, best_own_response, check_grid_cap, clamp, clamped_step,
                     join, plan_util, product_grid, util_value_protocol)
from .discrete import joint_utility

# work guard on all-pairs interpolation (queries x source rows)
PAIR_CAP = 200_000_000


# --- interpolation -----------------------------------------------------------

def _check_pair_cap(queries: int, points: int) -> None:
    if queries * points > PAIR_CAP:
        raise CapacityError(f"interpolation workload {queries}x{points} exceeds the pair cap")


def _missing_queries(index: dict[tuple[float, ...], float], pos: int, projections,
                     candidates: int) -> int:
    """How many of the queries `_interp_many` gets for `projections` x
    `candidates` (a projection with a candidate at `pos`) miss the table's
    row index: all but one per distinct row whose projection is among
    `projections`, since a row's own value is always a candidate."""
    hits = sum(1 for row in index if row[:pos] + row[pos + 1:] in projections)
    return len(projections) * candidates - hits


def _interp_batch(points: np.ndarray, utils: np.ndarray, queries: np.ndarray,
                  method: str) -> np.ndarray:
    """Vectorized scattered-data interpolation; exact hits handled upstream."""
    _check_pair_cap(len(queries), len(points))
    out = np.empty(len(queries))
    chunk = max(1, PAIR_CAP // (64 * max(1, len(points))))
    for start in range(0, len(queries), chunk):
        q = queries[start:start + chunk]
        d2 = ((q[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        if method == "nearest":
            nearest = np.argmin(d2, axis=1)  # row order is lexicographic
            out[start:start + len(q)] = utils[nearest]
        else:
            w = 1.0 / np.maximum(d2, 1e-300)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = (w @ utils) / w.sum(axis=1)
                # a query within ~1e-150 of a row weighs it up to 1e300, and
                # utilities near the float limit sum past it; such a row is
                # redone as the mean of the halved utilities (weights scaled by
                # their largest, then sum), doubled and clipped to their range
                bad = ~np.isfinite(vals)
                if bad.any():
                    scaled = w[bad] / w[bad].max(axis=1, keepdims=True)
                    mean = 2.0 * ((scaled / scaled.sum(axis=1, keepdims=True)) @ (utils / 2.0))
                    vals[bad] = clamp(mean, utils.min(), utils.max())
            out[start:start + len(q)] = vals
    return out


def _interp_many(table: UtilTable, queries: list[tuple[float, ...]],
                 method: str) -> list[float]:
    index = table.row_index
    out: list[float | None] = [index.get(q) for q in queries]
    missing = [i for i, v in enumerate(out) if v is None]
    if missing:
        points, utils = zip(*sorted(index.items()))
        filled = _interp_batch(np.array(points, dtype=float), np.array(utils, dtype=float),
                               np.array([queries[i] for i in missing], dtype=float), method)
        for i, v in zip(missing, filled.tolist()):
            out[i] = v
    return out  # type: ignore[return-value]


# --- clustering --------------------------------------------------------------

def cluster_tuples(table: UtilTable, k: int, rng: random.Random,
                   interpolation: str) -> UtilTable:
    """Compress a table to at most k rows: k-means (farthest-point init,
    Lloyd iterations) over the value tuples, with centroid utilities
    interpolated from the original rows."""
    if k < 1:
        raise ArgumentError(f"cluster count must be >= 1, got {k}")
    points, n = table.rows, len(table.rows)
    if not n:
        raise ArgumentError("cannot cluster an empty table")
    if n <= k:
        return table
    first = rng.randrange(n)
    chosen = [first]
    dist = ((points - points[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        nxt = int(np.argmax(dist))  # ties break to the smallest index
        chosen.append(nxt)
        dist = np.minimum(dist, ((points - points[nxt]) ** 2).sum(axis=1))
    centroids = points[chosen].copy()

    for _ in range(100):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < 1e-6:
            break

    centers = centroids[np.unique(labels)]
    utils = _interp_many(table, list(map(tuple, centers.tolist())), interpolation)
    return UtilTable(table.separator_vars, centers, np.array(utils))


# --- gradient moves ----------------------------------------------------------

def _oriented(f: QuadraticBinaryUtility, own_var: str) -> tuple[float, ...]:
    """f's coefficients from `own_var`'s side: (own^2, own, other^2, other,
    own x other). The partial in the other variable is then
    2.0 * other^2 * other_value + other + (own x other) * own_value, summed
    in that order as `QuadraticBinaryUtility.partial` sums it."""
    a, b, c, d, e, _ = f.coeffs
    return (a, b, c, d, e) if f.first_var == own_var else (c, d, a, b, e)


def _columns(own_var: str, constraints, domains, width: int) -> np.ndarray:
    """Per separator column, its constraint's coefficients from `own_var`'s
    side (`_oriented`, other^2 doubled) and its domain's bounds: the rows
    own^2, own, 2 x other^2, other, own x other, lb and ub of a (7, width)
    array. A column without a constraint (None, or past the end) has a NaN
    2 x other^2, so its step is NaN and it never moves, and zeros elsewhere."""
    columns = [(0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0)] * width
    for j, (f, dom) in enumerate(zip(constraints, domains)):
        if f is not None:
            own_sq, own_lin, other_sq, other_lin, cross = _oriented(f, own_var)
            columns[j] = own_sq, own_lin, 2.0 * other_sq, other_lin, cross, dom.lb, dom.ub
    return np.array(columns).T


def _move(current: np.ndarray, alpha: float, moves: int, direction) -> np.ndarray:
    """`current`'s rows after up to `moves` gradient moves, each a
    `clamped_step` by alpha times the partials; a row stops after a move
    that changes none of its coordinates by 1e-9 or more. `direction(live,
    rows)` gives the partials and bounds of the rows still moving, `rows` at
    the indices `live` of `current`; overflow and NaN in them are silent."""
    current = current.copy()
    live, rows = np.arange(len(current)), current
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(moves):
            if not len(live):
                break
            partials, lb, ub = direction(live, rows)
            nxt = clamped_step(rows, rows + alpha * partials, lb, ub)
            moving = np.abs(nxt - rows).max(axis=1) >= 1e-9
            if not moving.all():
                current[live[~moving]] = nxt[~moving]
                live, nxt = live[moving], nxt[moving]
            rows = nxt
        current[live] = rows
    return current


class Leaf(NamedTuple):
    """A closed-form leaf's UTIL input: its variable and domain, its sorted
    separator with each variable's domain and its constraint with it (a
    leaf's separator holds only its neighbours), and its grid rows, one
    column per separator variable."""

    var: str
    own_domain: ContinuousDomain
    sep_vars: tuple[str, ...]
    sep_domains: tuple[ContinuousDomain, ...]
    constraints: tuple[QuadraticBinaryUtility, ...]
    rows: np.ndarray


def _argmax_quadratic(c2, c1, lo, hi):
    """`argmax_quadratic_1d` cell by cell: the first strict maximum of lo,
    the vertex (when c2 < 0 and it lies strictly inside) and hi."""
    best, top = lo, c2 * lo * lo + c1 * lo
    vertex = -c1 / (2.0 * c2)
    at_vertex = c2 * vertex * vertex + c1 * vertex
    take = (c2 < 0.0) & (lo < vertex) & (vertex < hi) & (at_vertex > top)
    best, top = np.where(take, vertex, best), np.where(take, at_vertex, top)
    return np.where(c2 * hi * hi + c1 * hi > top, hi, best)


def leaf_move(leaves: list[Leaf], alpha: float, moves: int) -> list[UtilTable]:
    """Every closed-form leaf's UTIL table, moved in one array program.

    The leaves' grid rows are stacked into one array, padded to the widest
    separator with columns that never move (`_columns`). A move steps each
    coordinate of a row along its constraint's gradient at the own value
    that maximizes that constraint alone, found in closed form (`_move`).
    Each row is then scored at its leaf's best own response to it, with
    `joint_utility` once per leaf. Every float is the one the per-tuple
    scalar rule gives: sums start from 0.0 and run in the scalar order."""
    width = max(len(leaf.sep_vars) for leaf in leaves)
    counts = [len(leaf.rows) for leaf in leaves]
    # (7, rows, width) and (2, rows, 1): a leaf's columns and own bounds per row
    columns = np.repeat(np.stack([_columns(leaf.var, leaf.constraints, leaf.sep_domains, width)
                                  for leaf in leaves], axis=1), counts, axis=1)
    own_bounds = np.repeat([[leaf.own_domain.lb, leaf.own_domain.ub] for leaf in leaves],
                           counts, axis=0).T.reshape(2, -1, 1)
    starts = np.cumsum([0, *counts]).tolist()  # each leaf's rows are starts[i]:starts[i + 1]
    grid = np.zeros((starts[-1], width))
    for leaf, a, b in zip(leaves, starts, starts[1:]):
        grid[a:b, :len(leaf.sep_vars)] = leaf.rows

    def direction(live, rows):
        own_sq, own_lin, twice_other_sq, other_lin, cross, lb, ub = columns[:, live]
        lo, hi = own_bounds[:, live]
        x_star = _argmax_quadratic(own_sq, 0.0 + (own_lin + cross * rows), lo, hi)
        return twice_other_sq * rows + other_lin + cross * x_star, lb, ub

    current = _move(grid, alpha, moves, direction)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the best own response to all of a row's constraints, summed in
        # separator order as best_own_response does; a padding column adds
        # 0.0, which leaves a sum that starts from 0.0 unchanged
        own_sq, own_lin, _, _, cross, _, _ = columns
        c2, c1 = np.zeros(len(current)), np.zeros(len(current))
        for j in range(width):
            c2 = c2 + own_sq[:, j]
            c1 = c1 + (own_lin[:, j] + cross[:, j] * current[:, j])
        x_star = _argmax_quadratic(c2, c1, *own_bounds[:, :, 0])

        tables = []
        for leaf, a, b in zip(leaves, starts, starts[1:]):
            rows = current[a:b, :len(leaf.sep_vars)].copy()
            utils = joint_utility(x_star[a:b], leaf.var, leaf.sep_vars, tuple(rows.T),
                                  leaf.constraints)
            tables.append(UtilTable(leaf.sep_vars, rows, utils))
    return tables


def _snap_column(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nearest index into the sorted `points` for each value; ties go to the
    smaller point."""
    if len(points) == 1:
        return np.zeros(len(values), dtype=np.intp)
    # the left neighbour, kept in [0, len - 2] so that both neighbours exist
    upper = points[1:]
    j = np.minimum(upper.searchsorted(values), len(points) - 2)
    return j + ((values - points[j]) > (upper[j] - values))


# --- the engine ---------------------------------------------------------------

def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig,
        clustered: bool = False):
    method = config.interpolation
    k = config.k_clusters
    # var -> its VALUE rule: separator tuple -> own value
    state: dict[str, object] = {}
    # without moves or clustering every table is a grid, so the plan refuses
    # as dpop's does. Otherwise it plans ahead only while every step is sure
    # to finish: up to the first agent with children, or the first leaf
    # whose clustering may interpolate more than PAIR_CAP pairs (at most k
    # centroids against its rows)
    with kernel.phase("util"):
        plan, plan_ahead = plan_util(contexts, tree, config.points, config.row_cap,
                                     grid_tables=not (config.moves or clustered),
                                     settles=lambda rows: not clustered or rows <= k or k * rows <= PAIR_CAP)
        # with moves, every leaf's table is moved here, in one program; a
        # leaf whose plan refuses is left out, and refuses at its turn
        leaves = []
        for var in tree.post_order if config.moves else ():
            if tree.children[var] or var == tree.root:
                continue
            try:
                planned = plan_ahead(var)
            except FdcopError:
                continue
            if planned.rows <= config.row_cap:
                sep_vars = contexts[var].separator
                leaves.append(Leaf(var, planned.domains[var], sep_vars,
                                   tuple(planned.domains[w] for w in sep_vars),
                                   tuple(map(contexts[var].constraint_with, sep_vars)),
                                   product_grid([planned.grids[w] for w in sep_vars])[1]))
        moved = dict(zip([leaf.var for leaf in leaves],
                         leaf_move(leaves, config.alpha, config.moves) if leaves else ()))

    def agent_util(var, ctx, tables):
        """One agent's UTIL step over its children's tables; a leaf is the
        agent with none. Returns the table to send, or the optimum at the root."""
        for t in tables:
            if not len(t.utils):
                raise ProtocolError(f"{var}: received an empty UTIL table")
            if var not in t.separator_vars:
                # a child's separator always holds its parent
                raise ProtocolError(f"{var}: a child's UTIL table does not mention this agent")

        planned = plan(var)
        domains = planned.domains
        own_dom = domains[var]
        sep_vars = ctx.separator
        constraints = {w: f for w in sep_vars if (f := ctx.constraint_with(w)) is not None}
        sorted_constraints = list(constraints.values())  # sep_vars is sorted

        # with no child tables the utility is a sum of quadratics in the own
        # value, so VALUE answers with the closed-form best response, and a
        # leaf's table was moved against it at the start of UTIL
        closed_form = not tables and config.moves > 0
        if closed_form:
            def value(query):
                return best_own_response(sorted_constraints, var,
                                         dict(zip(sep_vars, query)), own_dom)
            state[var] = value
            if var != tree.root:
                return moved[var]

        # the union of the children's value sets per variable, and the grid of
        # every variable no child mentions; the join below interpolates each
        # child table at these points
        sets: dict[str, list[float]] = {}
        for t in tables:
            for w in t.separator_vars:
                sets[w] = sorted(set(sets.get(w, ())) | set(t.value_set(w)))
        for w, grid in planned.grids.items():
            sets.setdefault(w, grid)
        candidates = sets[var]
        sep_sets = [sets[w] for w in sep_vars]
        check_grid_cap(var, len(candidates) * math.prod(map(len, sep_sets)), config.row_cap)

        # per child: where `var` sits in its table, and which separator
        # columns give the other coordinates of its queries
        child_slots = [(t, t.separator_vars.index(var),
                        [sep_vars.index(w) for w in t.separator_vars if w != var])
                       for t in tables]
        # per child: the distinct projections of its last lookup and their
        # (projections, candidates) utilities
        last_lookup: list[tuple | None] = [None] * len(tables)

        def scores(tuples: np.ndarray) -> np.ndarray:
            """(len(tuples), len(candidates)) utilities for an (n, |sep|) array
            of separator tuples: interpolated child contributions plus exact
            own constraints, summed by `join` in the same order as the
            discrete engine so the moves=0 case is identical to it.

            A child's query is the row's projection onto the child's other
            variables with a candidate in `var`'s slot, so queries are built
            once per distinct projection (first-seen order) and spread back to
            the rows through the inverse index. When a child's projections are
            those of its last lookup, that lookup is reused: the same queries
            in the same batch interpolate to the same floats. On a tree every
            projection is (), so each child is interpolated once per agent.
            A lookup whose interpolation would exceed PAIR_CAP is refused
            from its count of missing queries, before they are built."""
            contributions = []
            for slot, (t, pos, cols) in enumerate(child_slots):
                uniq: dict[tuple, int] = {}
                inverse = [uniq.setdefault(p, len(uniq))
                           for p in map(tuple, tuples[:, cols].tolist())]
                projections = tuple(uniq)
                last = last_lookup[slot]
                if last is not None and last[0] == projections:
                    looked_up = last[1]
                else:
                    # refuse before building the queries; only a lookup
                    # whose every query could miss may exceed the cap
                    if len(uniq) * len(candidates) * len(t.rows) > PAIR_CAP:
                        _check_pair_cap(_missing_queries(t.row_index, pos, uniq, len(candidates)),
                                        len(t.row_index))
                    queries = [p[:pos] + (c,) + p[pos:] for p in projections for c in candidates]
                    looked_up = np.array(_interp_many(t, queries, method)).reshape(
                        len(projections), len(candidates))
                    last_lookup[slot] = (projections, looked_up)
                contributions.append(looked_up[inverse])
            return join(var, candidates, sep_vars, tuples, contributions, sorted_constraints)

        if not closed_form:
            def value(query):
                col = scores(np.array([query], dtype=float).reshape(1, len(sep_vars)))[0]
                # the first max is the smallest candidate; a clustered child's
                # centroid may round just outside the domain
                return own_dom.clamp(candidates[int(col.argmax())])
            state[var] = value

        _, grid = product_grid(sep_sets)
        if var == tree.root:
            # no separator: one row, the best candidate's utility
            return float(scores(grid).max())

        grid_scores = scores(grid)
        # per grid tuple, the own value of its first max: the smallest candidate
        best_own = np.take(candidates, grid_scores.argmax(axis=1)).reshape(list(map(len, sep_sets)))
        sep_arrays = [np.array(s) for s in sep_sets]
        _, _, twice_other_sq, other_lin, cross, lb, ub = _columns(
            var, map(constraints.get, sep_vars), map(domains.get, sep_vars), len(sep_vars))

        def direction(live, rows):
            # each row's own value: the grid argmax at its nearest grid tuple
            snapped = tuple(_snap_column(p, rows[:, j]) for j, p in enumerate(sep_arrays))
            return twice_other_sq * rows + other_lin + cross * best_own[snapped][:, None], lb, ub

        current = _move(grid, config.alpha, config.moves, direction)

        return UtilTable(sep_vars, current,
                         (scores(current) if config.moves else grid_scores).max(axis=1))

    def util_fn(var, child_payloads):
        result = agent_util(var, contexts[var], child_payloads)
        if var == tree.root:
            return result
        if clustered:
            rng = random.Random(f"{config.seed}:{var}")
            result = cluster_tuples(result, k, rng, method)
        return result, result.scalar_size()

    return util_value_protocol(kernel, tree, util_fn, lambda var, key: state[var](key))
