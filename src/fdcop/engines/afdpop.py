"""Approximate functional DPOP and its clustered variant.

UTIL tables hold scattered value tuples whose coordinates are iteratively
moved along utility gradients. Every agent runs one program, `agent_util`; a
leaf is an agent with no child tables. The join interpolates each child's
table over the union of the children's value sets (a grid for a variable no
child mentions), building a child's queries once per distinct projection of
the separator tuples. Each tuple then moves along the own constraints'
gradient at the best own value of its nearest grid tuple. An agent with no
child tables has a utility that is a sum of quadratics in its own value, so
it moves against the closed-form best response instead. VALUE answers the
ancestors' values, which may lie off the grid, by the same rule. The
clustered variant compresses each outgoing table to k representative rows
via k-means while keeping the full table locally.
"""
from __future__ import annotations

import itertools
import math
import random

import numpy as np

from ..errors import ArgumentError, CapacityError, ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import (UtilTable, best_own_response, check_grid_cap, discretize,
                     util_value_protocol)
from .discrete import joint_utility

# work guard on all-pairs interpolation (queries x source rows)
PAIR_CAP = 200_000_000


# --- interpolation -----------------------------------------------------------

def _exact_index(table: UtilTable) -> dict[tuple[float, ...], float]:
    index: dict[tuple[float, ...], float] = {}
    for values, util in table.rows:
        if values not in index or util > index[values]:
            index[values] = util
    return index


def _interp_batch(points: np.ndarray, utils: np.ndarray, queries: np.ndarray,
                  method: str) -> np.ndarray:
    """Vectorized scattered-data interpolation; exact hits handled upstream."""
    if len(queries) * len(points) > PAIR_CAP:
        raise CapacityError(
            f"interpolation workload {len(queries)}x{len(points)} exceeds the pair cap"
        )
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
                num = w @ utils
                den = w.sum(axis=1)
            # a query within ~1e-150 of a row weighs it up to 1e300, which
            # overflows the sums; those rows are summed again with weights
            # scaled by their largest, and every finite row keeps its value
            bad = ~(np.isfinite(num) & np.isfinite(den))
            if bad.any():
                scaled = w[bad] / w[bad].max(axis=1, keepdims=True)
                num[bad] = scaled @ utils
                den[bad] = scaled.sum(axis=1)
            out[start:start + len(q)] = num / den
    return out


def _interp_many(table: UtilTable, queries: list[tuple[float, ...]],
                 method: str) -> list[float]:
    index = _exact_index(table)
    out: list[float | None] = [index.get(q) for q in queries]
    missing = [i for i, v in enumerate(out) if v is None]
    if missing:
        rows = sorted(index.items())
        points = np.array([values for values, _ in rows], dtype=float)
        utils = np.array([util for _, util in rows], dtype=float)
        q = np.array([queries[i] for i in missing], dtype=float)
        filled = _interp_batch(points, utils, q, method)
        for i, v in zip(missing, filled):
            out[i] = float(v)
    return out  # type: ignore[return-value]


# --- clustering --------------------------------------------------------------

def cluster_tuples(table: UtilTable, k: int, rng: random.Random | None = None,
                   interpolation: str = "idw") -> UtilTable:
    """Compress a table to at most k rows: k-means (farthest-point init,
    Lloyd iterations) over the value tuples, with centroid utilities
    interpolated from the original rows."""
    if k < 1:
        raise ArgumentError(f"cluster count must be >= 1, got {k}")
    if not table.rows:
        raise ArgumentError("cannot cluster an empty table")
    if len(table.rows) <= k:
        return table
    if rng is None:
        rng = random.Random(0)

    points = np.array([values for values, _ in table.rows], dtype=float)
    n = len(points)
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

    used = sorted(set(int(lbl) for lbl in labels))
    tuples = [tuple(float(v) for v in centroids[j]) for j in used]
    utils = _interp_many(table, tuples, interpolation)
    return UtilTable(table.separator_vars, tuple(zip(tuples, utils)))


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
        f = constraints.get(w)
        if f is None:
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
    d = config.points
    method = config.interpolation
    # var -> (separator variables, VALUE rule: separator tuple -> own value)
    state: dict[str, tuple] = {}

    def agent_util(var, ctx, tables):
        """One agent's UTIL step over its children's tables; a leaf is the
        agent with none. Returns the table to send, or the optimum at the root."""
        for t in tables:
            if not t.rows:
                raise ProtocolError(f"{var}: received an empty UTIL table")
            if var not in t.separator_vars:
                # a child's separator always holds its parent
                raise ProtocolError(f"{var}: a child's UTIL table does not mention this agent")

        own_dom = ctx.own_domain()
        sep_vars = tuple(sorted(ctx.separator))
        sep_domains = {w: ctx.domain_of(w) for w in sep_vars}
        # the union of the children's value sets per variable, and the grid of
        # every variable no child mentions; the join below interpolates each
        # child table at these points
        sets: dict[str, list[float]] = {}
        for t in tables:
            for w in t.separator_vars:
                values = set(sets.get(w, ())) | set(t.value_set(w))
                sets[w] = sorted(values)
        for w, dom in ((var, own_dom), *sep_domains.items()):
            if w not in sets:
                sets[w] = discretize(dom, d)
        candidates = sets[var]
        sep_sets = [sets[w] for w in sep_vars]
        if not tables:
            check_grid_cap(var, candidates, sep_sets, config.row_cap)
        elif (cells := len(candidates) * math.prod(map(len, sep_sets))) > config.row_cap:
            raise CapacityError(f"{var}: joined table would hold {cells} rows "
                                f"(cap {config.row_cap})")

        constraints = {w: f for w in sep_vars if (f := ctx.constraint_with(w)) is not None}
        sorted_constraints = sorted(constraints.values(), key=lambda f: f.other_var(var))
        sep_index = {w: i for i, w in enumerate(sep_vars)}

        n_c = len(candidates)
        # per child: where `var` sits in its table, and which separator
        # columns give the other coordinates of its queries
        child_slots = [(t, t.separator_vars.index(var),
                        [sep_index[w] for w in t.separator_vars if w != var])
                       for t in tables]
        # per child: the distinct projections of its last lookup and their
        # (projections, candidates) utilities
        last_lookup: list[tuple | None] = [None] * len(tables)

        def scores(tuples: np.ndarray) -> np.ndarray:
            """(len(tuples), len(candidates)) utilities for an (n, |sep|) array
            of separator tuples: interpolated child contributions plus exact
            own constraints, summed in the same order as the discrete engine
            so the moves=0 case is identical to it.

            A child's query is the row's projection onto the child's other
            variables with a candidate in `var`'s slot, so queries are built
            once per distinct projection (first-seen order) and spread back to
            the rows through the inverse index. When a child's projections are
            those of its last lookup, that lookup is reused: the same queries
            in the same batch interpolate to the same floats. On a tree every
            projection is (), so each child is interpolated once per agent."""
            n_t = len(tuples)
            total = np.zeros((n_t, n_c))
            for slot, (t, pos, cols) in enumerate(child_slots):
                uniq: dict[tuple, int] = {}
                inverse = [uniq.setdefault(p, len(uniq))
                           for p in map(tuple, tuples[:, cols].tolist())]
                projections = tuple(uniq)
                last = last_lookup[slot]
                if last is not None and last[0] == projections:
                    looked_up = last[1]
                else:
                    queries = [p[:pos] + (c,) + p[pos:] for p in projections for c in candidates]
                    looked_up = np.array(_interp_many(t, queries, method)).reshape(
                        len(projections), n_c)
                    last_lookup[slot] = (projections, looked_up)
                total = total + looked_up[inverse]
            cand_row = np.array(candidates).reshape(1, n_c)
            for f in sorted_constraints:
                w_col = tuples[:, sep_index[f.other_var(var)]].reshape(n_t, 1)
                if f.first_var == var:
                    total = total + f.evaluate(cand_row, w_col)
                else:
                    total = total + f.evaluate(w_col, cand_row)
            return total

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
        state[var] = (sep_vars, value)

        grid = np.array(list(itertools.product(*sep_sets)), dtype=float).reshape(
            math.prod(map(len, sep_sets)), len(sep_vars))
        if var == tree.root:
            # no separator: one row, the best candidate's utility
            return float(scores(grid).max())

        if closed_form:
            # a leaf's tables are a few rows, which move faster one tuple at a
            # time than as arrays
            moved = []
            for current in itertools.product(*sep_sets):
                for _ in range(config.moves):
                    nxt = leaf_move(current, sep_vars, constraints, config.alpha,
                                    var, own_dom, sep_domains)
                    delta = max(abs(a - b) for a, b in zip(nxt, current))
                    current = nxt
                    if delta < 1e-9:
                        break
                moved.append(current)
            utils = [joint_utility(value(t), var, sep_vars, t, [], sorted_constraints)
                     for t in moved]
            return UtilTable(sep_vars, tuple(zip(moved, utils)))

        grid_scores = scores(grid)
        best_candidate_idx = grid_scores.argmax(axis=1)  # first max = smallest candidate
        cand_arr = np.array(candidates)
        sep_arrays = [np.array(s) for s in sep_sets]
        current = grid.copy()
        live = np.arange(len(grid))  # rows still moving
        for _ in range(config.moves):
            if not len(live):
                break
            rows = current[live]
            snapped = [_snap_column(p, rows[:, j]) for j, p in enumerate(sep_arrays)]
            x_star = cand_arr[best_candidate_idx[
                np.ravel_multi_index(snapped, [len(s) for s in sep_sets])]]
            nxt = rows.copy()
            for j, w in enumerate(sep_vars):
                f = constraints.get(w)
                if f is None:
                    continue
                v = rows[:, j]
                dom = sep_domains[w]
                step = v + config.alpha * _gradient_wrt_other(f, var, x_star, v)
                nxt[:, j] = np.minimum(np.maximum(step, dom.lb), dom.ub)
            current[live] = nxt
            live = live[np.abs(nxt - rows).max(axis=1) >= 1e-9]

        utils = (scores(current) if config.moves else grid_scores).max(axis=1).tolist()
        moved = [tuple(row) for row in current.tolist()]
        return UtilTable(sep_vars, tuple(zip(moved, utils)))

    def util_fn(var, child_payloads):
        result = agent_util(var, contexts[var], [payload for _, payload in child_payloads])
        if var == tree.root:
            return result
        if clustered:
            rng = random.Random(f"{config.seed}:{var}")
            result = cluster_tuples(result, config.k_clusters, rng, method)
        return result, result.scalar_size()

    def value_fn(var, sep_values):
        sep_vars, value = state[var]
        try:
            query = tuple(sep_values[w] for w in sep_vars)
        except KeyError as exc:
            raise ProtocolError(f"{var}: missing ancestor value {exc}") from exc
        return value(query)

    return util_value_protocol(kernel, tree, util_fn, value_fn)
