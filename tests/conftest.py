"""Shared builders for small hand-made problem instances, and test oracles."""
import math
import random

import networkx as nx
import numpy as np
import pytest

from fdcop.engines import afdpop
from fdcop.engines.common import UtilTable, best_own_response, clamp, clamped_step, discretize
from fdcop.engines.discrete import joint_utility
from fdcop.errors import CapacityError
from fdcop.model import ContinuousDomain, Problem, QuadraticBinaryUtility
from fdcop.oracles import oracle_grid
from fdcop.runtime import SYSTEM, UTIL, Kernel


def make_problem(utilities, lb=-100.0, ub=100.0, domains=None):
    """Problem over the variables mentioned by the utilities, one agent each."""
    variables = sorted({v for f in utilities for v in f.scope})
    agents = tuple(f"a_{v}" for v in variables)
    dom = {v: ContinuousDomain(lb, ub) for v in variables}
    if domains:
        dom.update(domains)
    problem = Problem(
        agents=agents,
        variables=tuple(variables),
        domains=dom,
        utilities=tuple(utilities),
        owner={v: f"a_{v}" for v in variables},
    )
    problem.validate()
    return problem


def util_table(separator_vars, rows):
    """A UtilTable from ((values...), utility) pairs."""
    values = np.array([v for v, _ in rows], dtype=float).reshape(len(rows), len(separator_vars))
    return UtilTable(separator_vars, values, np.array([u for _, u in rows], dtype=float))


def nx_copy(graph):
    """A `networkx.Graph` with a `ConstraintGraph`'s nodes and edges in its
    order, for tests that use networkx as an oracle."""
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes)
    copy.add_edges_from(graph.edges())
    return copy


def brute_force_grid_optimum(problem: Problem, d: int,
                             cell_cap: int = 5_000_000):
    """Oracle: the exhaustive maximum of the utility sum over the d-point grid.

    Returns (optimum, assignment). Ties resolve to the lexicographically
    smallest grid index vector over sorted variable ids.
    """
    variables = sorted(problem.variables)
    grids = [np.array(oracle_grid(problem.domains[v].lb, problem.domains[v].ub, d))
             for v in variables]
    cells = math.prod(len(g) for g in grids)
    if cells > cell_cap:
        raise CapacityError(f"brute force would enumerate {cells} cells")

    axis = {v: i for i, v in enumerate(variables)}
    total = np.zeros([len(g) for g in grids])
    for f in problem.utilities:
        i, j = axis[f.first_var], axis[f.second_var]
        vi = grids[i].reshape([-1 if k == i else 1 for k in range(len(variables))])
        vj = grids[j].reshape([-1 if k == j else 1 for k in range(len(variables))])
        a, b, c, dd, e, f0 = f.coeffs
        total = total + (a * vi * vi + b * vi + c * vj * vj + dd * vj + e * vi * vj + f0)

    flat_best = int(total.argmax())  # first max = smallest index vector
    idx = np.unravel_index(flat_best, total.shape)
    assignment = {v: float(grids[axis[v]][i]) for v, i in zip(variables, idx)}
    return float(total.reshape(-1)[flat_best]), assignment


def scalar_leaf_move(values, sep_vars, constraints, alpha, own_var, own_domain, sep_domains):
    """Oracle: one gradient move of a leaf tuple, a coordinate at a time.
    Each separator value steps along its constraint's gradient at the
    leaf's closed-form best response to that constraint alone, clamped to
    its domain; a value without a constraint, or whose step is NaN, stays."""
    out = []
    for w, v in zip(sep_vars, values):
        if (f := constraints.get(w)) is None:
            out.append(v)
            continue
        x_star = best_own_response([f], own_var, {w: v}, own_domain)
        grad = f.partial(w, x_star, v) if f.first_var == own_var else f.partial(w, v, x_star)
        step = v + alpha * grad
        out.append(v if math.isnan(step) else sep_domains[w].clamp(step))
    return tuple(out)


def scalar_moves(row, move, moves):
    """Oracle: the tuple `row` after `move` is applied to it until a move
    changes none of its values by 1e-9 or more, at most `moves` times."""
    for _ in range(moves):
        nxt = move(row)
        delta = max(abs(a - b) for a, b in zip(nxt, row))
        row = nxt
        if delta < 1e-9:
            break
    return row


def scalar_leaf_table(rows, sep_vars, constraints, alpha, moves, own_var, own_domain,
                      sep_domains):
    """Oracle: a closed-form leaf's UTIL table, one tuple at a time. Each
    row moves as `scalar_moves` moves it, and is scored at the leaf's best
    own response to it. Returns the moved rows and their utilities as lists
    of floats."""
    def move(t):
        return scalar_leaf_move(t, sep_vars, constraints, alpha, own_var, own_domain, sep_domains)

    moved = [scalar_moves(tuple(row), move, moves) for row in rows]
    ordered = [constraints[w] for w in sep_vars if w in constraints]
    utils = [joint_utility(best_own_response(ordered, own_var, dict(zip(sep_vars, t)), own_domain),
                           own_var, sep_vars, t, ordered) for t in moved]
    return moved, utils


def scalar_agent_move(values, sep_vars, sep_sets, own_at, constraints, alpha, own_var,
                      sep_domains):
    """Oracle: one gradient move of a tuple of an agent with children, a
    coordinate at a time. The tuple snaps to its nearest tuple of the grid
    `sep_sets` (per variable, ties go to the smaller point), and takes that
    grid tuple's argmax, `own_at[grid tuple]`, as the own value. Each
    separator value steps along its constraint's partial at that own value,
    clamped to its domain; a value without a constraint, or whose step is
    NaN, stays."""
    snapped = tuple(min(sep_sets[w], key=lambda p: (abs(v - p), p))
                    for w, v in zip(sep_vars, values))
    x_star = own_at[snapped]
    out = []
    for w, v in zip(sep_vars, values):
        if (f := constraints.get(w)) is None:
            out.append(v)
            continue
        grad = f.partial(w, x_star, v) if f.first_var == own_var else f.partial(w, v, x_star)
        step = v + alpha * grad
        out.append(v if math.isnan(step) else sep_domains[w].clamp(step))
    return tuple(out)


def sent_util_tables(monkeypatch):
    """Each agent's UTIL table, by sender, as the run sends it."""
    tables = {}
    real_send = Kernel.send

    def send(kernel, sender, receiver, kind, payload, scalar_size):
        if kind == UTIL and receiver != SYSTEM:
            tables[sender] = payload
        real_send(kernel, sender, receiver, kind, payload, scalar_size)

    monkeypatch.setattr(Kernel, "send", send)
    return tables


def quad(first, second, a=0.0, b=0.0, c=0.0, d=0.0, e=0.0, f0=0.0):
    return QuadraticBinaryUtility(first, second, a, b, c, d, e, f0)


def star(leaves: int):
    """A centre `c` with `leaves` leaves `l00`, `l01`, ... on [-2, 2], each
    joined to it by a concave quadratic of its own."""
    return make_problem([quad("c", f"l{i:02d}", a=-1.0 - i / 50, b=0.5, c=-1.0, d=i / 10, e=0.3)
                         for i in range(leaves)], lb=-2.0, ub=2.0)


@pytest.fixture
def chain3():
    """x1 - x2 - x3 with concave quadratics."""
    return make_problem([
        quad("x1", "x2", a=-1.0, c=-1.0, e=1.0, b=2.0),
        quad("x2", "x3", a=-2.0, c=-1.0, e=-1.0, d=3.0),
    ])


def hex_floats(values) -> list[str]:
    """Each value as `float.hex` of its float, so lists compare bit for bit
    (-0.0 apart from 0.0, NaN equal to NaN)."""
    return [float.hex(float(v)) for v in values]


def piece_by_scan(f, v):
    """Oracle: `Unary.piece_at` as a linear scan, the first piece whose
    closed interval holds v."""
    for piece in f.pieces:
        if piece[0] <= v <= piece[1]:
            return piece
    return None


def squared_distances_by_sum(a, b):
    """Oracle: `afdpop._squared_distances` as the (..., m, n, width)
    difference of every row of `a` and every row of `b`, squared and summed
    over its last axis."""
    return ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(axis=-1)


def interp_by_sum(points, utils, queries, method):
    """Oracle: `afdpop._interp_batch` with its distances by
    `squared_distances_by_sum`, in the same query chunks."""
    afdpop._check_pair_cap(queries.shape[-2], points.shape[-2])
    out = np.empty(queries.shape[:-1])
    chunk = max(1, afdpop.PAIR_CAP // (64 * max(1, points.shape[-2])))
    for start in range(0, queries.shape[-2], chunk):
        q = queries[..., start:start + chunk, :]
        d2 = squared_distances_by_sum(q, points)
        if method == "nearest":
            nearest = np.argmin(d2, axis=-1)
            out[..., start:start + q.shape[-2]] = np.take_along_axis(utils, nearest, axis=-1)
        else:
            w = 1.0 / np.maximum(d2, 1e-300)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = (w @ utils[..., None])[..., 0] / w.sum(axis=-1)
                bad = ~np.isfinite(vals)
                for at in map(tuple, np.argwhere(bad.any(axis=-1)) if bad.any() else ()):
                    rows, lookup = w[at][bad[at]], utils[at]
                    scaled = rows / rows.max(axis=1, keepdims=True)
                    mean = 2.0 * ((scaled / scaled.sum(axis=1, keepdims=True)) @ (lookup / 2.0))
                    vals[at][bad[at]] = clamp(mean, lookup.min(), lookup.max())
            out[..., start:start + q.shape[-2]] = vals
    return out


def lookup_alone(table, queries, method):
    """Oracle: one table's utilities at `queries`, looked up alone: a query
    that is one of the table's rows reads it from the row index, and the
    others are interpolated by one unstacked `interp_by_sum`."""
    index = table.row_index
    out = [index.get(q) for q in queries]
    missing = [i for i, v in enumerate(out) if v is None]
    if missing:
        points, utils = zip(*sorted(index.items()))
        filled = interp_by_sum(np.array(points, dtype=float), np.array(utils, dtype=float),
                               np.array([queries[i] for i in missing], dtype=float), method)
        for i, v in zip(missing, filled.tolist()):
            out[i] = v
    return out


def cluster_tuples_by_means(table, k, rng: random.Random, interpolation):
    """Oracle: `afdpop.cluster_tuples` with its Lloyd update as one
    `mean(axis=0)` per non-empty cluster, its distances by
    `squared_distances_by_sum` and its centroid utilities by
    `lookup_alone`."""
    points, n = table.rows, len(table.rows)
    if n <= k:
        return table
    first = rng.randrange(n)
    chosen = [first]
    dist = squared_distances_by_sum(points, points[[first]])[:, 0]
    while len(chosen) < k:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, squared_distances_by_sum(points, points[[nxt]])[:, 0])
    centroids = points[chosen].copy()
    for _ in range(100):
        d2 = squared_distances_by_sum(points, centroids)
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
    utils = lookup_alone(table, list(map(tuple, centers.tolist())), interpolation)
    return UtilTable(table.separator_vars, centers, np.array(utils))


def scoring_step(var, candidates, sep_vars, constraints, tables):
    """The `afdpop.Step` that `afdpop.score` scores as `agent_util` builds
    it, with only what `score` reads: `var`, its `candidates`, its
    separator `sep_vars`, its `constraints` in separator order (one per
    separator variable at most) and its children's `tables`."""
    by_var = {f.other_var(var): f for f in constraints}
    return afdpop.Step(var, None, sep_vars, None, tuple(map(by_var.get, sep_vars)), None,
                       candidates=candidates, last=[None] * len(tables),
                       children=[(t, t.separator_vars.index(var),
                                  [sep_vars.index(w) for w in t.separator_vars if w != var])
                                 for t in tables])


def agent_scores(var, candidates, sep_vars, constraints, tables, method):
    """Oracle: one agent's `scores(tuples)`, scored alone as each agent with
    children scored its tuples before heights were scored as one: per child,
    the queries of the distinct projections (first-seen order) in one
    `lookup_alone`, or the child's last lookup when the projections are the
    same; then the per-agent sum, contributions first, then each constraint
    evaluated at the candidates and its separator column."""
    children = [(t, t.separator_vars.index(var),
                 [sep_vars.index(w) for w in t.separator_vars if w != var]) for t in tables]
    last_lookup = [None] * len(tables)

    def scores(tuples):
        tuples = np.asarray(tuples, dtype=float).reshape(len(tuples), len(sep_vars))
        n_r, n_c = len(tuples), len(candidates)
        total = np.zeros((n_r, n_c))
        for slot, (t, pos, cols) in enumerate(children):
            uniq = {}
            inverse = [uniq.setdefault(p, len(uniq)) for p in map(tuple, tuples[:, cols].tolist())]
            projections = tuple(uniq)
            last = last_lookup[slot]
            if last is not None and last[0] == projections:
                looked_up = last[1]
            else:
                queries = [p[:pos] + (c,) + p[pos:] for p in projections for c in candidates]
                looked_up = np.array(lookup_alone(t, queries, method)).reshape(
                    len(projections), n_c)
                last_lookup[slot] = (projections, looked_up)
            total += looked_up[inverse]
        own = np.asarray(candidates, dtype=float).reshape(1, n_c)
        for f in constraints:
            other = tuples[:, sep_vars.index(f.other_var(var))].reshape(n_r, 1)
            total += f.evaluate(own, other) if f.first_var == var else f.evaluate(other, own)
        return total
    return scores


class MaxSumVariables:
    """Oracle: hcms's variable nodes one variable at a time, as the engine
    ran them before its slot arrays. It keeps the latest r vector and
    partners of each (edge, variable) that `receive` hands it. `q(v, e)` is
    v's q vector towards e: `summed(v, skip=e)`, centered on its mean summed
    left to right. `step(alpha)` moves each variable's samples by its own
    `clamped_step`, along the sum of `f.partial` over its edges in order.
    `decision(v)` is v's value."""

    def __init__(self, problem: Problem, d: int):
        self.problem, self.d = problem, d
        edges = sorted(problem.graph.edges())
        self.incident = {v: [e for e in edges if v in e] for v in sorted(problem.variables)}
        self.samples = {v: np.array(discretize(problem.domains[v], d)) for v in self.incident}
        self.r = {(e, v): np.zeros(d) for e in edges for v in e}
        self.partner = {}

    def summed(self, v, skip=None):
        """0.0 plus v's stored r vectors in edge order, but the one over `skip`."""
        total = np.zeros(self.d)
        for e in self.incident[v]:
            if e != skip:
                total += self.r[(e, v)]
        return total

    def q(self, v, e):
        with np.errstate(over="ignore", invalid="ignore"):
            q = self.summed(v, skip=e)
            q -= q.cumsum()[-1] / self.d
        return q

    def receive(self, e, v, payload):
        self.r[(e, v)], self.partner[(e, v)] = payload["values"], payload["argmax"]

    def step(self, alpha):
        with np.errstate(over="ignore", invalid="ignore"):
            for v, x in self.samples.items():
                grad = np.zeros(self.d)
                for e in self.incident[v]:
                    f, ys = self.problem.utility_between(*e), self.partner[(e, v)]
                    grad += f.partial(v, x, ys) if f.first_var == v else f.partial(v, ys, x)
                dom = self.problem.domains[v]
                self.samples[v] = clamped_step(x, x + alpha * grad, dom.lb, dom.ub)

    def decision(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.samples[v][self.summed(v).argmax()])
