"""Approximate functional DPOP: moves, interpolation, clustering, row caps."""
import itertools
import random
import statistics

import numpy as np
import pytest

from fdcop import generators, model, runtime
from fdcop.engines import afdpop
from fdcop.engines.afdpop import _interp_many, _snap_column, cluster_tuples, leaf_move
from fdcop.engines.common import UtilTable, best_own_response, discretize
from fdcop.engines.discrete import joint_utility
from fdcop.errors import ArgumentError, CapacityError
from fdcop.model import ContinuousDomain
from fdcop.runtime import UTIL, EngineConfig, Kernel

from conftest import make_problem, quad


DOM = ContinuousDomain(-100.0, 100.0)


class TestInterpolate:
    def test_exact_match(self):
        t = UtilTable(("x",), (((0.0,), 10.0), ((10.0,), 20.0)))
        assert _interp_many(t, [(10.0,)], "idw")[0] == 20.0
        assert _interp_many(t, [(10.0,)], "nearest")[0] == 20.0

    def test_equidistant_midpoint(self):
        t = UtilTable(("x",), (((0.0,), 10.0), ((10.0,), 20.0)))
        assert _interp_many(t, [(5.0,)], "idw")[0] == pytest.approx(15.0)

    def test_idw_hand_computed(self):
        # weights 1/4, 1, 1/4 -> (0*0.25 + 1*1 + 16*0.25) / 1.5 = 10/3
        t = UtilTable(("x",), (((0.0,), 0.0), ((1.0,), 1.0), ((4.0,), 16.0)))
        assert _interp_many(t, [(2.0,)], "idw")[0] == pytest.approx(10.0 / 3.0)

    def test_nearest_tie_breaks_low(self):
        t = UtilTable(("x",), (((0.0,), 1.0), ((2.0,), 9.0)))
        assert _interp_many(t, [(1.0,)], "nearest")[0] == 1.0

    def test_idw_weight_overflow(self):
        # d2 = 1e-400 floors to 1e-300: a weight of 1e300 times 1e9 overflows
        # the weighted sum, so the row is summed again with scaled weights
        t = UtilTable(("x",), (((0.0,), 1e9), ((1.0,), 0.0)))
        assert _interp_many(t, [(1e-200,), (0.5,)], "idw") == [1e9, 5e8]

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_tiny_domain_keeps_a_finite_optimum(self, engine):
        # the children's rows lie within 1e-170 of the root's queries, and
        # their utilities are about 1e11
        p = make_problem([quad("x0", "x1", a=-8e5, b=7e5, c=5e5, d=3e5, e=-4e5),
                          quad("x0", "x2", a=2e5, b=2e5, c=1.6e5, d=-7e5, e=-1.4e5)],
                         lb=-500.0, ub=500.0, domains={"x0": ContinuousDomain(0.0, 1e-170)})
        result = runtime.run(p, engine, EngineConfig())
        assert result.reported_optimum == model.evaluate_solution(p, result.assignment)
        assert result.reported_optimum == 1.655e11


class TestClusterTuples:
    def test_two_separated_pairs(self):
        t = UtilTable(("x",), (((1.0,), 1.0), ((2.0,), 2.0),
                               ((9.0,), 9.0), ((10.0,), 10.0)))
        out = cluster_tuples(t, 2, random.Random(0))
        centers = sorted(v[0] for v, _ in out.rows)
        assert centers == pytest.approx([1.5, 9.5])

    def test_small_table_passthrough(self):
        t = UtilTable(("x",), (((1.0,), 1.0), ((2.0,), 2.0), ((3.0,), 3.0)))
        assert cluster_tuples(t, 5, random.Random(0)) is t

    def test_row_count_and_quality(self):
        # k-means beats random centroid sets on within-cluster distance
        for seed in range(20):
            rng = random.Random(seed)
            rows = tuple(((rng.uniform(0, 100), rng.uniform(0, 100)), rng.uniform(0, 10))
                         for _ in range(100))
            t = UtilTable(("x", "y"), rows)
            out = cluster_tuples(t, 10, random.Random(seed))
            assert len(out.rows) == 10

            def mean_dist(centers):
                total = 0.0
                for (px, py), _ in rows:
                    total += min((px - cx) ** 2 + (py - cy) ** 2
                                 for cx, cy in centers)
                return total / len(rows)

            kmeans_centers = [v for v, _ in out.rows]
            random_centers = [v for v, _ in rng.sample(list(rows), 10)]
            assert mean_dist(kmeans_centers) <= mean_dist(random_centers) + 1e-9

    def test_rejects_bad_k(self):
        t = UtilTable(("x",), (((1.0,), 1.0),))
        with pytest.raises(ArgumentError):
            cluster_tuples(t, 0)

    def test_rejects_empty_table(self):
        with pytest.raises(ArgumentError):
            cluster_tuples(UtilTable(("x",), ()), 3)


class TestLeafMove:
    def test_gradient_step(self):
        # f(x,p) = -x^2 - (p-3)^2: x* = 0, gradient -2(p-3) at p=0 is 6
        f = quad("x", "p", a=-1.0, c=-1.0, d=6.0, f0=-9.0)
        out = leaf_move((0.0,), ("p",), {"p": f}, 0.1, "x", DOM, {"p": DOM})
        assert out == (pytest.approx(0.6),)

    def test_stationary_point_fixed(self):
        f = quad("x", "p", a=-1.0, c=-1.0, d=6.0, f0=-9.0)
        out = leaf_move((3.0,), ("p",), {"p": f}, 0.1, "x", DOM, {"p": DOM})
        assert out == (pytest.approx(3.0),)

    def test_clamped_to_domain(self):
        # f(x,p) = 10p: gradient wrt p is 10 regardless of x
        f = quad("x", "p", d=10.0)
        out = leaf_move((99.0,), ("p",), {"p": f}, 1.0, "x", DOM, {"p": DOM})
        assert out == (100.0,)

    def test_unconstrained_coordinate_unmoved(self):
        f = quad("x", "p", d=10.0)
        out = leaf_move((1.0, 2.0), ("p", "q"), {"p": f}, 0.5, "x", DOM,
                        {"p": DOM, "q": DOM})
        assert out[1] == 2.0


def nearest_point(points, v):
    """The point of `points` nearest to v; ties go to the smaller point."""
    return min(points, key=lambda p: (abs(v - p), p))


class TestSnapColumn:
    """Points are integers and values halves, so every distance is exact and
    a tie is a real tie. With repeated points the nearest point has several
    indices, so the snapped point is compared, not the index."""

    @pytest.mark.parametrize("points", [[0.0, 1.0, 3.0, 6.0], [0.0, 1.0, 1.0, 2.0],
                                        [-2.0, -2.0, 5.0], [4.0], [-1.0, 7.0]],
                             ids=["spread", "repeat-inside", "repeat-first", "single", "pair"])
    def test_matches_brute_force(self, points):
        hits = set(points)
        midpoints = {(a + b) / 2 for a, b in zip(points, points[1:])}
        near = {p + dv for p in points for dv in (-1.5, -0.5, 0.5, 1.5)}
        outside = {min(points) - 100.0, max(points) + 100.0}
        values = sorted(hits | midpoints | near | outside)
        out = _snap_column(np.array(points), np.array(values))
        assert [points[i] for i in out] == [nearest_point(points, v) for v in values]

    def test_random_cases(self):
        rng = random.Random(0)
        for _ in range(500):
            points = sorted(float(rng.randint(-6, 6)) for _ in range(rng.randint(1, 6)))
            values = [rng.randint(-20, 20) / 2 for _ in range(8)]
            out = _snap_column(np.array(points), np.array(values))
            assert [points[i] for i in out] == [nearest_point(points, v) for v in values]


class TestMovesImproveQuality:
    def test_chain_paired_runs(self):
        gains = []
        for seed in range(20):
            p = generators.gen_tree(4, seed + 100, concave=True)
            u = {}
            for moves in (0, 5):
                cfg = EngineConfig(points=3, moves=moves, alpha=0.001,
                                   interpolation="nearest")
                r = runtime.run(p, "af-dpop", cfg, keep_trace=False)
                u[moves] = model.evaluate_solution(p, r.assignment)
            gains.append(u[5] - u[0])
        assert statistics.mean(gains) >= 0.0

    def test_tree_trend_in_moves(self):
        means = []
        for moves in (5, 10, 15, 20):
            us = []
            for seed in range(20):
                p = generators.gen_tree(20, seed, concave=True)
                cfg = EngineConfig(points=3, moves=moves, alpha=0.001,
                                   interpolation="nearest")
                r = runtime.run(p, "af-dpop", cfg, keep_trace=False)
                us.append(model.evaluate_solution(p, r.assignment))
            means.append(statistics.mean(us))
        inversions = sum(1 for a, b in zip(means, means[1:]) if b < a - 1e-9)
        assert inversions <= 1


class TestReductions:
    @pytest.mark.parametrize("seed", range(5))
    def test_no_move_equals_discrete_on_trees(self, seed):
        p = generators.gen_tree(8, seed)
        cfg = EngineConfig(points=3, moves=0)
        dpop = runtime.run(p, "dpop", cfg, keep_trace=False)
        af = runtime.run(p, "af-dpop", cfg, keep_trace=False)
        assert af.assignment.values == dpop.assignment.values

    @pytest.mark.parametrize("seed", range(5))
    def test_large_k_caf_equals_af_on_trees(self, seed):
        p = generators.gen_tree(8, seed)
        cfg = EngineConfig(points=3, moves=10, alpha=0.001, k_clusters=10**6)
        af = runtime.run(p, "af-dpop", cfg, keep_trace=False)
        caf = runtime.run(p, "caf-dpop", cfg, keep_trace=False)
        assert caf.assignment.values == af.assignment.values

    @pytest.mark.parametrize("moves", [0, 3])
    def test_leaf_value_off_the_grid(self, moves):
        # clustered tables carry centroids, so ancestors of some leaves take
        # values off the grid; without moves each leaf still picks its first
        # best grid point, with moves its closed-form best response to them
        p = generators.gen_graph(12, 0.2, seed=1)
        result = runtime.run(p, "caf-dpop",
                             EngineConfig(points=3, moves=moves, k_clusters=3))
        tree, values = result.tree, result.assignment.values
        off_grid = 0
        for var in p.variables:
            if tree.children[var] or var == tree.root:
                continue
            sep_vars = tuple(sorted(tree.separator[var]))
            off_grid += sum(values[w] not in discretize(p.domains[w], 3) for w in sep_vars)
            constraints = sorted((p.utility_between(var, w) for w in sep_vars),
                                 key=lambda f: f.other_var(var))
            if moves:
                expected = best_own_response(constraints, var,
                                             {w: values[w] for w in sep_vars}, p.domains[var])
                assert values[var] == expected
                continue
            own_pts = discretize(p.domains[var], 3)
            col = [joint_utility(x, var, sep_vars, tuple(values[w] for w in sep_vars), [],
                                 constraints) for x in own_pts]
            assert values[var] == own_pts[col.index(max(col))]
        assert off_grid > 0


class TestClusteredMessages:
    def test_centroid_rounded_above_the_bound_stays_in_domain(self):
        # the leaf x3 moves three of its x1 values to x1's upper bound, and the
        # k-means mean of the three rounds one ulp above it; x1 clamps it back
        ub = 21.937611106092483
        p = make_problem([quad("x0", "x1"), quad("x0", "x2"), quad("x1", "x3", a=1000.0)],
                         lb=0.0, ub=1.0, domains={"x1": ContinuousDomain(0.0, ub)})
        cfg = EngineConfig(points=4, moves=1, alpha=0.001, k_clusters=2)
        result = runtime.run(p, "caf-dpop", cfg)
        assert result.assignment.values["x1"] == ub
        model.evaluate_solution(p, result.assignment)  # refuses an out-of-domain value

    def test_caf_respects_k(self):
        p = generators.gen_graph(10, 0.2, 7, concave=True)
        cfg = EngineConfig(points=3, moves=10, alpha=0.001, k_clusters=10)
        result = runtime.run(p, "caf-dpop", cfg)
        for _, sender, receiver, kind, size in result.kernel.trace:
            if kind == runtime.UTIL and receiver != runtime.SYSTEM:
                arity = len(result.tree.separator[sender])
                assert size // (arity + 1) <= 10


def per_cell_scores(problem, var, sep_vars, tables, candidates, tuples, method):
    """The join as one query per (tuple, candidate) cell; returns the scores
    and the query list handed to `_interp_many` for each child table."""
    sep_index = {w: i for i, w in enumerate(sep_vars)}
    n_t, n_c = len(tuples), len(candidates)
    total = np.zeros((n_t, n_c))
    query_lists = []
    for t in tables:
        queries = [
            tuple(c if w == var else tup[sep_index[w]] for w in t.separator_vars)
            for tup in tuples for c in candidates
        ]
        uniq: dict[tuple, int] = {}
        for q in queries:
            if q not in uniq:
                uniq[q] = len(uniq)
        query_lists.append(list(uniq))
        looked_up = _interp_many(t, list(uniq), method)
        total = total + np.array([looked_up[uniq[q]] for q in queries]).reshape(n_t, n_c)
    cand_row = np.array(candidates).reshape(1, n_c)
    constraints = [f for w in sep_vars if (f := problem.utility_between(var, w)) is not None]
    for f in sorted(constraints, key=lambda f: f.other_var(var)):
        w_col = np.array([tup[sep_index[f.other_var(var)]] for tup in tuples]).reshape(n_t, 1)
        if f.first_var == var:
            total = total + f.evaluate(cand_row, w_col)
        else:
            total = total + f.evaluate(w_col, cand_row)
    return total, query_lists


class TestJoinProjection:
    """The non-leaf join builds child queries once per distinct projection;
    it must hand `_interp_many` the per-cell query list in the per-cell
    first-seen order and give the per-cell utilities exactly."""

    @pytest.mark.parametrize("method", ["idw", "nearest"])
    def test_matches_per_cell_reference(self, monkeypatch, method):
        # x002 (separator x000, x005) joins x003 (separator x000, x002) and
        # x004 (separator x000, x002, x005)
        p = generators.gen_graph(7, 0.4, seed=4)
        sent, interp_calls = [], []
        real_send, real_interp = Kernel.send, afdpop._interp_many

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            sent.append((sender, kind, payload))
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        def interp(table, queries, how):
            interp_calls.append((table, list(queries)))
            return real_interp(table, queries, how)

        monkeypatch.setattr(Kernel, "send", send)
        monkeypatch.setattr(afdpop, "_interp_many", interp)
        runtime.run(p, "af-dpop", EngineConfig(moves=3, interpolation=method))

        util = {sender: payload for sender, kind, payload in sent if kind == UTIL}
        var, sep_vars = "x002", ("x000", "x005")
        tables = [util["x003"], util["x004"]]
        out = util[var]
        assert out.separator_vars == sep_vars
        assert [t.separator_vars for t in tables] == [("x000", "x002"),
                                                      ("x000", "x002", "x005")]

        sets = {w: sorted(set().union(*(t.value_set(w) for t in tables
                                        if w in t.separator_vars)))
                for w in (var,) + sep_vars}
        grid = list(itertools.product(*(sets[w] for w in sep_vars)))
        moved = [values for values, _ in out.rows]
        _, grid_queries = per_cell_scores(p, var, sep_vars, tables, sets[var], grid, method)
        scores, moved_queries = per_cell_scores(p, var, sep_vars, tables, sets[var],
                                                moved, method)

        own_calls = [queries for table, queries in interp_calls
                     if any(table is t for t in tables)]
        assert own_calls[:4] == grid_queries + moved_queries
        # off-grid moved rows, so the interpolation itself is exercised
        assert any(q not in dict(t.rows) for t, qs in zip(tables, moved_queries) for q in qs)
        assert [u for _, u in out.rows] == scores.max(axis=1).tolist()


class TestRowCap:
    def test_leaf_refuses_before_its_first_message(self):
        # the first leaf, x005, has |sep| = 4, so its grid holds 3^5 = 243 > 20 rows
        p = generators.gen_graph(8, 0.5, seed=1)
        cfg = EngineConfig(points=3, row_cap=20, moves=2)
        with pytest.raises(CapacityError) as exc:
            runtime.run(p, "af-dpop", cfg, keep_trace=False)
        assert exc.value.stats.total_messages == 0

    @pytest.mark.parametrize("row_cap", [20, 243, 10_000_000])
    def test_no_move_refuses_where_dpop_does(self, row_cap):
        p = generators.gen_graph(8, 0.5, seed=1)
        cfg = EngineConfig(points=3, row_cap=row_cap, moves=0)
        outcomes = []
        for engine in ("dpop", "af-dpop"):
            try:
                runtime.run(p, engine, cfg, keep_trace=False)
                outcomes.append(None)
            except CapacityError as exc:
                outcomes.append(exc.stats.total_messages)
        assert outcomes[0] == outcomes[1]


class TestChildLookupReuse:
    """Every query of a child on a tree is a candidate of its parent, so each
    child table is interpolated once: by the parent's first join. The moved
    rows and every VALUE query reuse that lookup."""

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_one_lookup_per_child_on_trees(self, monkeypatch, engine):
        p = generators.gen_tree(50, seed=5)
        phase, calls = [None], []
        real_phase, real_interp = Kernel.phase, afdpop._interp_many

        def record_phase(kernel, name):
            phase[0] = name
            real_phase(kernel, name)

        def interp(table, queries, how):
            calls.append(phase[0])
            return real_interp(table, queries, how)

        monkeypatch.setattr(Kernel, "phase", record_phase)
        monkeypatch.setattr(afdpop, "_interp_many", interp)
        runtime.run(p, engine, EngineConfig(moves=10))
        assert calls == ["util"] * (len(p.variables) - 1)
