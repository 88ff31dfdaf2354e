"""Approximate functional DPOP and its clustered variant.

UTIL tables hold scattered value tuples, the rows of an array, whose
coordinates are iteratively moved along utility gradients. An agent's UTIL
step is one record, `Step`, which `agent_util` builds; a leaf is an agent
with no child tables. Each child's table is interpolated over the union of
the children's value sets (a grid for a variable no child mentions), its
queries built once per distinct projection of the separator tuples; every
table lookup, clustering's too, runs through `_lookups`. The max-plus
projection (`common.join`) gives each tuple its best own value and
utility, so no agent keeps its (tuples x candidates) scores. Each tuple
then moves along the own constraints' gradient at the best own value of
its nearest grid tuple. An agent with no child tables
has a utility that is a sum of quadratics in its own value, so it moves
against the closed-form best response instead. Every move runs by one loop
and one clamped step (`_move`).

UTIL is computed before its first message, one pseudo-tree height at a
time, on dpop's schedule (`common.computed_ahead`), each height by
`util_steps` in a few array programs. Lookups and sums stack only where
they have one shape, so every float is the one the agent gets alone. The
agents computed ahead are those the walk before the first message
(`_sure_to_finish`) finds sure to finish: the agents before the first that
might refuse, and every later leaf sure to finish, at height 0. The others
compute at their turn, so a refusal comes at its agent's turn, after the
same messages, and no agent with children after it joins, looks anything
up or clusters.

VALUE answers the ancestors' values, which may lie off the grid, by the same
scores as the move (`scored_value`): each query scored alone, reusing each
child's last lookup when its projections are the same. The clustered variant
compresses each outgoing table to the k-means centroids of its rows (at
most k) while keeping the full table locally.
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
from .common import (UtilSum, UtilTable, best_own_response, check_grid_cap, clamp,
                     clamped_step, computed_ahead, joined, plan_util, product_grid,
                     util_value_protocol)
from .discrete import joint_utility

# work guard on all-pairs interpolation (queries x source rows)
PAIR_CAP = 200_000_000


# --- interpolation -----------------------------------------------------------

def _check_pair_cap(queries: int, points: int) -> None:
    if queries * points > PAIR_CAP:
        raise CapacityError(f"interpolation workload {queries}x{points} exceeds the pair cap")


def _missing_queries(index: dict[tuple[float, ...], float], pos: int, projections,
                     candidates: int) -> int:
    """How many of a lookup's queries, `projections` x `candidates` (a
    projection with a candidate at `pos`), miss the table's row index: all
    but one per distinct row whose projection is among `projections`, since
    a row's own value is always a candidate."""
    hits = sum(1 for row in index if row[:pos] + row[pos + 1:] in projections)
    return len(projections) * candidates - hits


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The squared distance of every row of `a` (..., m, width) to every row
    of `b` (..., n, width), as (..., m, n); leading stack axes broadcast.
    Column 0's squared difference is added to by each later column's in
    turn, so no (m, n, width) difference is built."""
    width = a.shape[-1]
    if width >= 8:
        # below 8 columns `sum(axis=-1)` adds them one by one, as the loop
        # does; from 8 on numpy sums pairwise, so the floats would differ
        return ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(axis=-1)
    d2 = a[..., :, None, 0] - b[..., None, :, 0]
    d2 *= d2
    column = np.empty_like(d2)
    for j in range(1, width):
        np.subtract(a[..., :, None, j], b[..., None, :, j], out=column)
        column *= column
        d2 += column
    return d2


def _interp_batch(points: np.ndarray, utils: np.ndarray, queries: np.ndarray,
                  method: str) -> np.ndarray:
    """Vectorized scattered-data interpolation; exact hits handled upstream.

    One lookup is a table's distinct rows `points` (n, width), their
    `utils` (n,) and the `queries` (q, width), giving (q,). Lookups of one
    shape stack on a leading axis, (L, n, width), (L, n) and (L, q, width),
    giving (L, q), and each gets the floats it gets alone: the distances
    (`_squared_distances`, which keeps numpy's pairwise sum from 8 columns
    on) and the weights are element-wise, every sum runs over one query's
    row, and `w @ utils` is one gemv per lookup. Padding the query axis
    would not keep them, since gemv's result for a row depends on the row
    count."""
    _check_pair_cap(queries.shape[-2], points.shape[-2])
    out = np.empty(queries.shape[:-1])
    chunk = max(1, PAIR_CAP // (64 * max(1, points.shape[-2])))
    for start in range(0, queries.shape[-2], chunk):
        q = queries[..., start:start + chunk, :]
        d2 = _squared_distances(q, points)
        if method == "nearest":
            nearest = np.argmin(d2, axis=-1)  # row order is lexicographic
            out[..., start:start + q.shape[-2]] = np.take_along_axis(utils, nearest, axis=-1)
        else:
            w = 1.0 / np.maximum(d2, 1e-300)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = (w @ utils[..., None])[..., 0] / w.sum(axis=-1)
                # a query within ~1e-150 of a row weighs it up to 1e300, and
                # utilities near the float limit sum past it; such a row is
                # redone as the mean of the halved utilities (weights scaled by
                # their largest, then sum), doubled and clipped to their range,
                # one lookup at a time
                bad = ~np.isfinite(vals)
                for at in map(tuple, np.argwhere(bad.any(axis=-1)) if bad.any() else ()):
                    rows, lookup = w[at][bad[at]], utils[at]
                    scaled = rows / rows.max(axis=1, keepdims=True)
                    mean = 2.0 * ((scaled / scaled.sum(axis=1, keepdims=True)) @ (lookup / 2.0))
                    vals[at][bad[at]] = clamp(mean, lookup.min(), lookup.max())
            out[..., start:start + q.shape[-2]] = vals
    return out


def _lookups(requests: list[tuple[UtilTable, list[tuple[float, ...]]]],
             method: str) -> list[np.ndarray]:
    """Each (table, queries) request's utilities, one per query. A query
    that is one of the table's rows reads it from the row index. The other
    queries of requests whose tables have as many distinct rows and columns,
    and that miss as many queries, are interpolated together, as one stacked
    `_interp_batch` of at most a chunk's pairs."""
    found: list = []
    batches: dict[tuple[int, int, int], list] = {}
    for i, (table, queries) in enumerate(requests):
        index = table.row_index
        values = [index.get(q) for q in queries]
        found.append(values)
        if None in values:
            missing = [j for j, v in enumerate(values) if v is None]
            batches.setdefault((len(index), table.rows.shape[1], len(missing)),
                               []).append((i, missing))
    for (rows, _, misses), members in batches.items():
        per_batch = max(1, PAIR_CAP // 64 // (rows * misses))
        for start in range(0, len(members), per_batch):
            batch = members[start:start + per_batch]
            points, utils = zip(*(zip(*sorted(requests[i][0].row_index.items()))
                                  for i, _ in batch))
            queries = [[requests[i][1][j] for j in missing] for i, missing in batch]
            filled = _interp_batch(np.array(points, dtype=float), np.array(utils, dtype=float),
                                   np.array(queries, dtype=float), method)
            for (i, missing), values in zip(batch, filled.tolist()):
                for j, v in zip(missing, values):
                    found[i][j] = v
    return [np.array(values, dtype=float) for values in found]


def _interp_many(table: UtilTable, queries: list[tuple[float, ...]],
                 method: str) -> list[float]:
    """One table's utilities at `queries`, by `_lookups`."""
    return _lookups([(table, queries)], method)[0].tolist()


# --- scoring ----------------------------------------------------------------

class Scorer(NamedTuple):
    """What an agent scores its separator tuples with (`score`): its
    variable, its candidates (the union of its children's values of it), its
    sorted separator and its constraints in separator order; per child
    table, where `var` sits in it and which separator columns give the
    other coordinates of its queries; and per child, the distinct
    projections of its last lookup and their (projections, candidates)
    utilities."""

    var: str
    candidates: list[float]
    sep_vars: tuple[str, ...]
    constraints: list[QuadraticBinaryUtility]
    children: list[tuple[UtilTable, int, list[int]]]
    last: list

    @classmethod
    def of(cls, var, candidates, sep_vars, constraints, tables) -> "Scorer":
        return cls(var, candidates, sep_vars, constraints,
                   [(t, t.separator_vars.index(var),
                     [sep_vars.index(w) for w in t.separator_vars if w != var]) for t in tables],
                   [None] * len(tables))


def score(jobs: list[tuple[Scorer, np.ndarray]], method: str,
          row_cap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each (scorer, tuples) job, an (n, |sep|) array of its agent's
    separator tuples, the max-plus projection (`join`) of their scores: per
    tuple, its first best candidate's index and utility. A score is the
    interpolated child contributions plus the exact own constraints, summed
    in the same order as the discrete engine so the moves=0 case is
    identical to it. Every job gets the floats it gets scored alone; the
    jobs join in runs within `row_cap` cells (`common.joined`), each run's
    contributions built as it joins.

    A child's query is the row's projection onto the child's other variables
    with a candidate in `var`'s slot, so queries are built once per distinct
    projection (first-seen order) and spread back to the rows through the
    inverse index. When a child's projections are those of its last lookup,
    that lookup is reused: the same queries in the same batch interpolate to
    the same floats. On a tree every projection is (), so each child is
    interpolated once per agent. A lookup whose interpolation would exceed
    PAIR_CAP is refused from its count of missing queries, before its
    queries are built and before any job's lookup is interpolated: the jobs'
    lookups are all interpolated by one `_lookups`."""
    requests, plans = [], []
    for scorer, tuples in jobs:
        plan = []
        for slot, (t, pos, cols) in enumerate(scorer.children):
            if cols:
                uniq = {}
                inverse = [uniq.setdefault(p, len(uniq))
                           for p in map(tuple, tuples[:, cols].tolist())]
            else:
                # a child whose table holds only `var`: every row projects
                # to (), and its one row of utilities adds to all rows
                uniq, inverse = {(): 0}, None
            projections, last = tuple(uniq), scorer.last[slot]
            if last is not None and last[0] == projections:
                plan.append((inverse, None, last[1]))
                continue
            # only a lookup whose every query could miss may exceed the cap
            if len(uniq) * len(scorer.candidates) * len(t.rows) > PAIR_CAP:
                _check_pair_cap(_missing_queries(t.row_index, pos, uniq, len(scorer.candidates)),
                                len(t.row_index))
            plan.append((inverse, projections, len(requests)))
            requests.append((t, [p[:pos] + (c,) + p[pos:]
                                 for p in projections for c in scorer.candidates]))
        plans.append(plan)
    looked_up = _lookups(requests, method)

    def sums():
        for (scorer, tuples), plan in zip(jobs, plans):
            contributions = []
            for slot, (inverse, projections, found) in enumerate(plan):
                if projections is not None:
                    found = looked_up[found].reshape(len(projections), len(scorer.candidates))
                    scorer.last[slot] = (projections, found)
                contributions.append(found if inverse is None else found[inverse])
            yield UtilSum(scorer.var, scorer.candidates, scorer.sep_vars, tuples,
                          contributions, scorer.constraints)
    return [(best, utils) for _, best, utils in joined(sums(), row_cap)]


def scored_value(scorer: Scorer, own_dom: ContinuousDomain, method: str, row_cap: int):
    """An agent's VALUE rule: the candidate `score` finds best for the query,
    each query scored alone, reusing each child's last lookup when its
    projections are the same. The first best is the smallest candidate; a
    clustered child's centroid may round just outside the domain."""
    def value(query: tuple[float, ...]) -> float:
        [(best, _)] = score([(scorer, np.array([query], dtype=float).reshape(1, len(query)))],
                            method, row_cap)
        return own_dom.clamp(scorer.candidates[int(best[0])])
    return value


# --- clustering --------------------------------------------------------------

def cluster_tuples(table: UtilTable, k: int, rng: random.Random,
                   interpolation: str) -> UtilTable:
    """Compress a table to at most k rows: k-means (farthest-point init,
    Lloyd iterations) over the value tuples, with centroid utilities
    interpolated from the original rows. Every distance is
    `_squared_distances`, which keeps numpy's pairwise sum from 8 columns
    on."""
    if k < 1:
        raise ArgumentError(f"cluster count must be >= 1, got {k}")
    points, n = table.rows, len(table.rows)
    if not n:
        raise ArgumentError("cannot cluster an empty table")
    if n <= k:
        return table
    first = rng.randrange(n)
    chosen = [first]
    dist = _squared_distances(points, points[[first]])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(dist))  # ties break to the smallest index
        chosen.append(nxt)
        dist = np.minimum(dist, _squared_distances(points, points[[nxt]])[:, 0])
    centroids = points[chosen].copy()

    for _ in range(100):
        d2 = _squared_distances(points, centroids)
        labels = np.argmin(d2, axis=1)
        # each cluster's mean, an empty one keeping its centroid. Over two
        # or more columns `mean(axis=0)` adds the members in row order from
        # +0.0, as `np.add.at` does; over one it sums pairwise, so one-column
        # tables keep it
        new_centroids = centroids.copy()
        if points.shape[1] > 1:
            sums = np.zeros_like(centroids)
            np.add.at(sums, labels, points)
            counts = np.bincount(labels, minlength=k)
            filled = counts > 0
            new_centroids[filled] = sums[filled] / counts[filled, None]
        else:
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

def _columns(own_var: str, constraints, domains, width: int) -> list[tuple[float, ...]]:
    """Per separator column, its constraint's coefficients from `own_var`'s
    side (`QuadraticBinaryUtility.oriented`, other^2 doubled) and its
    domain's bounds: own^2, own, 2 x other^2, other, own x other, lb and ub.
    The partial in the other variable is then
    2 x other^2 * other_value + other + (own x other) * own_value, summed in
    that order as `QuadraticBinaryUtility.partial` sums it. A column without
    a constraint (None, or past the end) has a NaN 2 x other^2, so its step
    is NaN and it never moves, and zeros elsewhere."""
    columns = [(0.0, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0)] * width
    for j, (f, dom) in enumerate(zip(constraints, domains)):
        if f is not None:
            own_sq, own_lin, other_sq, other_lin, cross, _ = f.oriented(own_var)
            columns[j] = own_sq, own_lin, 2.0 * other_sq, other_lin, cross, dom.lb, dom.ub
    return columns


class Step(NamedTuple):
    """One agent's UTIL step up to its move: its variable and domain, its
    sorted separator with each variable's domain and its constraint with it
    (None where it has none), and its grid rows, one column per separator
    variable. A closed-form leaf needs no more. An agent with children also
    has its `Scorer`, each separator variable's sorted grid points and,
    once its grid is scored, the own value of each grid tuple's first
    maximum (`best_own`, an array of the grid's shape)."""

    var: str
    own_domain: ContinuousDomain
    sep_vars: tuple[str, ...]
    sep_domains: tuple[ContinuousDomain, ...]
    constraints: tuple[QuadraticBinaryUtility | None, ...]
    rows: np.ndarray
    scorer: Scorer | None = None
    points: tuple[np.ndarray, ...] | None = None
    best_own: np.ndarray | None = None


def _stack(steps: list[Step], width: int):
    """Several steps' rows moved as one. Returns the rows stacked into one
    (rows, width) array, padded with zeros; per row, its step's `_columns`
    as seven (rows, width) arrays, one per coefficient, built in one array;
    and where each step's rows start, with the end last."""
    counts = [len(step.rows) for step in steps]
    starts = np.cumsum([0, *counts]).tolist()
    grid = np.zeros((starts[-1], width))
    for step, start in zip(steps, starts):
        grid[start:start + len(step.rows), :len(step.sep_domains)] = step.rows
    layouts = np.array([_columns(step.var, step.constraints, step.sep_domains, width)
                        for step in steps])
    return grid, list(np.repeat(layouts.transpose(2, 0, 1), counts, axis=1)), starts


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


def _argmax_quadratic(c2, c1, lo, hi):
    """`argmax_quadratic_1d` cell by cell: the first strict maximum of lo,
    the vertex (when c2 < 0 and it lies strictly inside) and hi."""
    best, top = lo, c2 * lo * lo + c1 * lo
    vertex = -c1 / (2.0 * c2)
    at_vertex = c2 * vertex * vertex + c1 * vertex
    take = (c2 < 0.0) & (lo < vertex) & (vertex < hi) & (at_vertex > top)
    best, top = np.where(take, vertex, best), np.where(take, at_vertex, top)
    return np.where(c2 * hi * hi + c1 * hi > top, hi, best)


def leaf_move(leaves: list[Step], alpha: float, moves: int) -> list[UtilTable]:
    """Every closed-form leaf's UTIL table, moved in one array program.

    The leaves' grid rows are stacked into one array, padded to the widest
    separator with columns that never move (`_stack`). A move steps each
    coordinate of a row along its constraint's gradient at the own value
    that maximizes that constraint alone, found in closed form (`_move`).
    Each row is then scored at its leaf's best own response to it, with
    `joint_utility` once per leaf. Every float is the one the per-tuple
    scalar rule gives: sums start from 0.0 and run in the scalar order."""
    width = max(len(leaf.sep_vars) for leaf in leaves)
    grid, columns, starts = _stack(leaves, width)
    # (rows, 2): each row's leaf's own bounds
    own_bounds = np.repeat([[leaf.own_domain.lb, leaf.own_domain.ub] for leaf in leaves],
                           np.diff(starts), axis=0)
    arrays = [*columns, own_bounds[:, :1], own_bounds[:, 1:]]

    def direction(live, rows):
        own_sq, own_lin, twice_other_sq, other_lin, cross, lb, ub, lo, hi = (
            a[live] for a in arrays)
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
        x_star = _argmax_quadratic(c2, c1, own_bounds[:, 0], own_bounds[:, 1])

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


def _snap_direction(agent: Step):
    """One agent's `direction`: each row's own value is the grid argmax at
    its nearest grid tuple."""
    _, _, twice_other_sq, other_lin, cross, lb, ub = np.array(_columns(
        agent.var, agent.constraints, agent.sep_domains, len(agent.points))).T

    def direction(live, rows):
        snapped = tuple(_snap_column(p, rows[:, j]) for j, p in enumerate(agent.points))
        return twice_other_sq * rows + other_lin + cross * agent.best_own[snapped][:, None], lb, ub
    return direction


# fewer agents than this move one at a time: timed on agents of 3-125 rows
# and 1-3 separator columns, stacking two costs as much as moving them one by
# one (0.8-1.15x) and stacking four saves 15-50%, since the stacked snap
# compares every row with all of its columns' padded points where one
# agent's snap (`_snap_direction`) takes one `searchsorted` per column
STACK_MIN = 4


def _stacked_direction(agents: list[Step], columns, starts):
    """The `direction` of agents stacked by `_stack`: `_snap_direction`'s,
    row by row against the row's own agent. Each column's points are padded
    with +inf to one more than the longest column's, so a value's left
    neighbour is the count of the points past the first that lie below it;
    past a column's last point it is that point, since the +inf after it is
    never nearer. That is `_snap_column`'s index, ties to the smaller point."""
    width = columns[0].shape[1]
    points = np.full((len(agents), width, 1 + max(len(p) for a in agents for p in a.points)),
                     np.inf)
    strides = np.zeros((len(agents), width), dtype=np.intp)
    for i, agent in enumerate(agents):
        stride = agent.best_own.size
        for j, p in enumerate(agent.points):
            points[i, j, :len(p)] = p
            stride //= len(p)
            strides[i, j] = stride
    # each agent's own values, one after the other, and where each starts
    own_values = np.concatenate([a.best_own.ravel() for a in agents])
    offsets = np.cumsum([0] + [a.best_own.size for a in agents[:-1]])
    counts = np.diff(starts)
    _, _, twice_other_sq, other_lin, cross, lb, ub = columns
    arrays = [twice_other_sq, other_lin, cross, lb, ub,
              *(np.repeat(x, counts, axis=0) for x in (points, strides, offsets))]

    def direction(live, rows):
        twice_other_sq, other_lin, cross, lb, ub, points, strides, offsets = (
            a[live] for a in arrays)
        j = (points[:, :, 1:] < rows[:, :, None]).sum(axis=2)[:, :, None]
        lower = np.take_along_axis(points, j, axis=2)[:, :, 0]
        upper = np.take_along_axis(points, j + 1, axis=2)[:, :, 0]
        snapped = j[:, :, 0] + ((rows - lower) > (upper - rows))
        own = own_values[offsets + (snapped * strides).sum(axis=1)]
        return twice_other_sq * rows + other_lin + cross * own[:, None], lb, ub
    return direction


def agents_move(agents: list[Step], alpha: float, moves: int) -> list[np.ndarray]:
    """The moved grid rows of agents with children that do not depend on
    each other, such as one pseudo-tree height's: steps with their grid
    `points` and `best_own`. From STACK_MIN agents up their rows move in one
    `_move`, stacked by `_stack` with `_stacked_direction`; fewer move one
    agent at a time. Both give every row the same floats."""
    if len(agents) < STACK_MIN:
        return [_move(a.rows, alpha, moves, _snap_direction(a)) for a in agents]
    grid, columns, starts = _stack(agents, max(len(a.points) for a in agents))
    current = _move(grid, alpha, moves, _stacked_direction(agents, columns, starts))
    return [current[a:b, :len(agent.points)].copy()
            for agent, a, b in zip(agents, starts, starts[1:])]


# --- the engine ---------------------------------------------------------------

def _sure_to_finish(tree: PseudoTree, plan, row_cap: int, k: int | None) -> list[str]:
    """af/caf-dpop's walk before the first message: plan the agents in
    post-order and return, in post-order, the non-root agents sure to
    finish their UTIL step: those before the first that might not, and
    every later leaf that is. A plan error raises at once while every
    earlier plan knows its grid size; otherwise its agent refuses at its
    turn.

    An agent whose plan knows its grid size (a leaf, or any agent when every
    table is a grid) finishes once planned, sending a row per separator
    tuple of its grid. Another's table holds at most `rows` distinct values
    of each of its variables, so its candidates number at most the sum of
    its children's rows, and a separator variable's values at most the sum
    over the children that mention it (or its grid's points). It is sure to
    finish when that grid table's bound is within `row_cap` and each child
    lookup's pair bound (cells x the child's rows) within PAIR_CAP. With
    k-means to k rows (`k`, caf), an agent sends at most k rows, and one
    whose clustering may interpolate more than PAIR_CAP pairs (k x its
    rows) is not sure to finish."""
    sent_rows: dict[str, int] = {}
    known = True  # every plan so far knows its grid size
    ended = False  # an agent might refuse: only leaves follow
    for var in tree.post_order:
        if ended and (tree.children[var] or var == tree.root):
            continue
        try:
            planned = plan(var)
        except FdcopError:
            if known and not ended:
                raise
            ended = True
            continue
        known = known and planned.rows is not None
        if var == tree.root:
            break
        fits = True
        if planned.rows is not None:
            rows = planned.rows // len(planned.grids[var])
        else:
            # `known` is now False, so a step that might refuse ends the walk
            children = tree.children[var]
            rows = 1
            for w in tree.separator[var]:
                rows *= (sum(sent_rows[c] for c in children if w in tree.separator[c])
                         or len(planned.grids[w]))
            cells = sum(sent_rows[c] for c in children) * rows
            fits = cells <= row_cap and cells * max(sent_rows[c] for c in children) <= PAIR_CAP
        if k is not None and rows > k:
            fits, rows = fits and k * rows <= PAIR_CAP, k
        if fits:
            sent_rows[var] = rows
        ended = ended or not fits
    return list(sent_rows)


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig,
        clustered: bool = False):
    method = config.interpolation
    k = config.k_clusters
    # var -> its VALUE rule: separator tuple -> own value
    state: dict[str, object] = {}

    def agent_util(var, tables) -> Step:
        """One agent's UTIL step up to its grid scores, over its children's
        tables; a leaf is the agent with none. With moves, a non-root leaf's
        step is closed-form, its grid rows alone; any other step has its
        scorer and its grid's points."""
        for t in tables:
            if not len(t.utils):
                raise ProtocolError(f"{var}: received an empty UTIL table")
            if var not in t.separator_vars:
                # a child's separator always holds its parent
                raise ProtocolError(f"{var}: a child's UTIL table does not mention this agent")

        planned = plan(var)
        own_dom = planned.domains[var]
        ctx = contexts[var]
        sep_vars = ctx.separator
        constraints = {w: f for w in sep_vars if (f := ctx.constraint_with(w)) is not None}
        sorted_constraints = list(constraints.values())  # sep_vars is sorted

        # with no child tables the utility is a sum of quadratics in the own
        # value, so VALUE answers with the closed-form best response, and a
        # leaf's table moves against it (`leaf_move`)
        closed_form = not tables and config.moves > 0
        if closed_form:
            state[var] = lambda query: best_own_response(sorted_constraints, var,
                                                         dict(zip(sep_vars, query)), own_dom)

        # the union of the children's value sets per variable, and the grid of
        # every variable no child mentions; the join interpolates each child
        # table at these points
        values: dict[str, set[float]] = {}
        for t in tables:
            for w in t.separator_vars:
                values.setdefault(w, set()).update(t.value_set(w))
        sets = {w: sorted(v) for w, v in values.items()}
        for w, grid in planned.grids.items():
            sets.setdefault(w, grid)
        candidates = sets[var]
        sep_sets = [sets[w] for w in sep_vars]
        check_grid_cap(var, len(candidates) * math.prod(map(len, sep_sets)), config.row_cap)
        step = Step(var, own_dom, sep_vars, tuple(map(planned.domains.get, sep_vars)),
                    tuple(map(constraints.get, sep_vars)), product_grid(sep_sets)[1])
        if closed_form and var != tree.root:
            return step
        return step._replace(scorer=Scorer.of(var, candidates, sep_vars, sorted_constraints,
                                              tables), points=tuple(map(np.array, sep_sets)))

    def util_steps(agents, inputs) -> list:
        """The UTIL steps of agents that do not depend on each other, each
        over its children's tables: a height's, or one agent's at its turn.
        Returns each one's table, or the optimum at the root, and sets each
        one's VALUE rule. The closed-form leaves move in one `leaf_move`; the
        other agents' grids are scored in one `score`, their grid rows move
        in one `agents_move` at each grid tuple's best own value, and the
        moved rows are scored in one `score`."""
        steps = [agent_util(var, tables) for var, tables in zip(agents, inputs)]
        leaves = [step for step in steps if step.scorer is None]
        moved = iter(leaf_move(leaves, config.alpha, config.moves) if leaves else ())
        results = [next(moved) if step.scorer is None else None for step in steps]
        scoring = [(i, step) for i, step in enumerate(steps) if step.scorer is not None]
        moving = []
        for (i, step), (best, utils) in zip(scoring, score(
                [(step.scorer, step.rows) for _, step in scoring], method, config.row_cap)):
            # a closed-form root keeps its VALUE rule
            state.setdefault(step.var, scored_value(step.scorer, step.own_domain, method,
                                                    config.row_cap))
            if step.var == tree.root:
                # the root has no separator: one row, the best candidate's utility
                results[i] = float(utils[0])
            elif not config.moves:
                results[i] = UtilTable(step.sep_vars, step.rows, utils)
            else:
                best_own = np.take(step.scorer.candidates, best).reshape(list(map(len, step.points)))
                moving.append((i, step._replace(best_own=best_own)))
        if moving:
            rows = agents_move([step for _, step in moving], config.alpha, config.moves)
            rescored = score([(step.scorer, r) for (_, step), r in zip(moving, rows)], method,
                             config.row_cap)
            for (i, step), r, (_, utils) in zip(moving, rows, rescored):
                results[i] = UtilTable(step.sep_vars, r, utils)
        return results

    def sent(var, table):
        """The table `var` sends: under caf, its rows' k-means centroids; the
        root's optimum as it is."""
        if not clustered or var == tree.root:
            return table
        return cluster_tuples(table, k, random.Random(f"{config.seed}:{var}"), method)

    # without moves or clustering every table is a grid, so the walk plans
    # and refuses as dpop's does; the agents sure to finish their step
    # compute it before the first message
    with kernel.phase("util"):
        plan = plan_util(contexts, tree, config.points, config.row_cap,
                         grid_tables=not (config.moves or clustered))
        sure = _sure_to_finish(tree, plan, config.row_cap, k if clustered else None)
        util_fn = computed_ahead(tree, sure, lambda agents, inputs: list(
            map(sent, agents, util_steps(agents, inputs))))

    return util_value_protocol(kernel, tree, util_fn, lambda var, key: state[var](key))
