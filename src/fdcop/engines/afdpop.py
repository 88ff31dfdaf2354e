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
response instead. VALUE answers the ancestors' values, which may lie off the
grid, by the same rule. The clustered variant compresses each outgoing table
to the k-means centroids of its rows (at most k) while keeping the full
table locally.
"""
from __future__ import annotations

import random

import numpy as np

from ..errors import ArgumentError, CapacityError, ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import (UtilTable, best_own_response, check_grid_cap, join, plan_util,
                     product_grid, util_value_protocol)
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
                    vals[bad] = np.clip(mean, utils.min(), utils.max())
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

def _gradient_wrt_other(f, own_var: str, own_value: float, other_value: float) -> float:
    other = f.other_var(own_var)
    if f.first_var == own_var:
        return f.partial(other, own_value, other_value)
    return f.partial(other, other_value, own_value)


def leaf_move(values: tuple[float, ...], sep_vars: tuple[str, ...],
              constraints: dict, alpha: float, own_var: str,
              own_domain, sep_domains: dict) -> tuple[float, ...]:
    """One gradient move of every coordinate of a leaf tuple: the leaf's best
    own response is found in closed form, then each separator value steps
    along the corresponding constraint's gradient (clamped to the domain)."""
    out = []
    for w, v in zip(sep_vars, values):
        if (f := constraints.get(w)) is None:
            out.append(v)
            continue
        x_star = best_own_response([f], own_var, {w: v}, own_domain)
        grad = _gradient_wrt_other(f, own_var, x_star, v)
        out.append(sep_domains[w].clamp(v + alpha * grad))
    return tuple(out)


def _snap_column(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nearest index into the sorted `points` for each value; ties go to the
    smaller point."""
    if len(points) == 1:
        return np.zeros(len(values), dtype=np.intp)
    # the right neighbour, kept in [1, len - 1] so that both neighbours exist
    i = np.minimum(np.maximum(np.searchsorted(points, values), 1), len(points) - 1)
    return i - ((values - points[i - 1]) <= (points[i] - values))


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
        plan = plan_util(contexts, tree, config.points, config.row_cap,
                         grid_tables=not (config.moves or clustered),
                         settles=lambda rows: not clustered or rows <= k or k * rows <= PAIR_CAP)

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
        check_grid_cap(var, candidates, sep_sets, config.row_cap)

        constraints = {w: f for w in sep_vars if (f := ctx.constraint_with(w)) is not None}
        sorted_constraints = list(constraints.values())  # sep_vars is sorted

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

        # with no child tables the utility is a sum of quadratics in the own
        # value, so tuples move against the closed-form best response
        closed_form = not tables and config.moves > 0
        if closed_form:
            def value(query):
                return best_own_response(sorted_constraints, var,
                                         dict(zip(sep_vars, query)), own_dom)
        else:
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

        if closed_form:
            # a leaf's tables are a few rows, which move faster one tuple at a
            # time than as arrays
            moved = []
            for current in map(tuple, grid.tolist()):
                for _ in range(config.moves):
                    nxt = leaf_move(current, sep_vars, constraints, config.alpha,
                                    var, own_dom, domains)
                    delta = max(abs(a - b) for a, b in zip(nxt, current))
                    current = nxt
                    if delta < 1e-9:
                        break
                moved.append(current)
            utils = [joint_utility(value(t), var, sep_vars, t, sorted_constraints)
                     for t in moved]
            return UtilTable(sep_vars, np.array(moved, dtype=float), np.array(utils, dtype=float))

        grid_scores = scores(grid)
        best_candidate_idx = grid_scores.argmax(axis=1)  # first max = smallest candidate
        cand_arr = np.array(candidates)
        sep_arrays = [np.array(s) for s in sep_sets]
        current = grid.copy()
        live = np.arange(len(grid))  # rows still moving
        # a large alpha steps past the float range, and an infinite
        # coefficient times a zero coordinate gives NaN; the clamp maps ±inf
        # to the bound and (fmax ignoring NaN) NaN to the lower bound, as
        # ContinuousDomain.clamp does for the scalar leaf moves
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(config.moves):
                if not len(live):
                    break
                rows = current[live]
                snapped = [_snap_column(p, rows[:, j]) for j, p in enumerate(sep_arrays)]
                x_star = cand_arr[best_candidate_idx[
                    np.ravel_multi_index(snapped, [len(s) for s in sep_sets])]]
                nxt = rows.copy()
                for j, w in enumerate(sep_vars):
                    if (f := constraints.get(w)) is not None:
                        v, dom = rows[:, j], domains[w]
                        step = v + config.alpha * _gradient_wrt_other(f, var, x_star, v)
                        nxt[:, j] = np.fmin(np.fmax(step, dom.lb), dom.ub)
                current[live] = nxt
                live = live[np.abs(nxt - rows).max(axis=1) >= 1e-9]

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
