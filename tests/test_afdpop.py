"""Approximate functional DPOP: moves, interpolation, clustering, row caps."""
import dataclasses
import itertools
import math
import random
import statistics
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from fdcop import generators, model, runtime
from fdcop.engines import afdpop, common
from fdcop.engines.afdpop import Step, _interp_many, _snap_column, cluster_tuples, leaf_move
from fdcop.engines.common import best_own_response, clamped_step, discretize, product_grid
from fdcop.engines.discrete import joint_utility
from fdcop.errors import ArgumentError, CapacityError, FdcopError, ValidationError
from fdcop.model import ContinuousDomain
from fdcop.runtime import UTIL, EngineConfig, Kernel

from conftest import (cluster_tuples_by_means, hex_floats, interp_by_sum, lookup_alone,
                      make_problem, quad, scalar_agent_move, scalar_leaf_move, scalar_leaf_table,
                      scalar_moves, sent_util_tables, squared_distances_by_sum, util_table)


DOM = ContinuousDomain(-100.0, 100.0)


class TestInterpolate:
    def test_exact_match(self):
        t = util_table(("x",), (((0.0,), 10.0), ((10.0,), 20.0)))
        assert _interp_many(t, [(10.0,)], "idw")[0] == 20.0
        assert _interp_many(t, [(10.0,)], "nearest")[0] == 20.0

    def test_equidistant_midpoint(self):
        t = util_table(("x",), (((0.0,), 10.0), ((10.0,), 20.0)))
        assert _interp_many(t, [(5.0,)], "idw")[0] == pytest.approx(15.0)

    def test_idw_hand_computed(self):
        # weights 1/4, 1, 1/4 -> (0*0.25 + 1*1 + 16*0.25) / 1.5 = 10/3
        t = util_table(("x",), (((0.0,), 0.0), ((1.0,), 1.0), ((4.0,), 16.0)))
        assert _interp_many(t, [(2.0,)], "idw")[0] == pytest.approx(10.0 / 3.0)

    def test_nearest_tie_breaks_low(self):
        t = util_table(("x",), (((0.0,), 1.0), ((2.0,), 9.0)))
        assert _interp_many(t, [(1.0,)], "nearest")[0] == 1.0

    def test_idw_weight_overflow(self):
        # d2 = 1e-400 floors to 1e-300: a weight of 1e300 times 1e9 overflows
        # the weighted sum, so the row is summed again with scaled weights
        t = util_table(("x",), (((0.0,), 1e9), ((1.0,), 0.0)))
        assert _interp_many(t, [(1e-200,), (0.5,)], "idw") == [1e9, 5e8]

    def test_utilities_at_the_float_limit(self):
        # the weighted sums overflow, so each query is taken again as the
        # mean of the halved utilities, which stays in range
        big = sys.float_info.max
        t = util_table(("x",), (((0.0,), big), ((1.0,), big), ((3.0,), -big)))
        # weights 4, 4 and 0.16
        assert _interp_many(t, [(0.5,)], "idw")[0] == pytest.approx(big / 8.16 * 7.84)
        t = util_table(("x",), (((0.0,), big), ((1.0,), big)))
        assert _interp_many(t, [(0.5,), (7.0,)], "idw") == [big, big]

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_utility_at_the_float_limit_keeps_a_finite_optimum(self, engine):
        # gen_graph(5, 0.5, seed=1) with one constant term at the float
        # limit: its bound, and the summed bound, still fit
        p = generators.gen_graph(5, 0.5, seed=1)
        edited = dataclasses.replace(p.utilities[1], coeff_f0=sys.float_info.max)
        p = dataclasses.replace(p, utilities=(p.utilities[0], edited, *p.utilities[2:]))
        p.validate()
        result = runtime.run(p, engine, EngineConfig())
        assert result.reported_optimum == sys.float_info.max

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


def kernel_array(data, shape):
    """An array of `shape`: floats whose squares round, and in some examples
    signed zeros and values whose differences and squares overflow."""
    values = st.floats(-5.0, 5.0)
    if data.draw(st.booleans()):
        values = st.one_of(values, st.sampled_from([-0.0, 0.0, 1.7e308, -1.7e308]))
    return np.array(data.draw(st.lists(values, min_size=math.prod(shape),
                                       max_size=math.prod(shape))), dtype=float).reshape(shape)


class TestSquaredDistances:
    """`_squared_distances`, and `_interp_batch` on it, give the bytes of the
    (rows x rows x width) difference squared and summed, at every width: the
    column loop below 8 columns, the summed expression from 8 on."""

    @given(data=st.data(), width=st.integers(1, 9), stack=st.sampled_from([(), (2,), (1, 3)]),
           m=st.integers(1, 6), n=st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_summed_oracle(self, data, width, stack, m, n):
        a = kernel_array(data, (*stack, m, width))
        b = kernel_array(data, (*stack, n, width))
        with np.errstate(over="ignore", invalid="ignore"):
            out = afdpop._squared_distances(a, b)
            expected = squared_distances_by_sum(a, b)
        assert out.shape == expected.shape == (*stack, m, n)
        assert out.tobytes() == expected.tobytes()

    @given(data=st.data(), width=st.integers(1, 9), stack=st.sampled_from([(), (3,)]),
           n=st.integers(1, 6), q=st.integers(1, 6),
           method=st.sampled_from(["idw", "nearest"]))
    @settings(max_examples=300, deadline=None)
    def test_interpolation_matches_the_summed_oracle(self, data, width, stack, n, q, method):
        points = kernel_array(data, (*stack, n, width))
        utils = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=math.prod(stack) * n,
                                            max_size=math.prod(stack) * n))).reshape(*stack, n)
        queries = kernel_array(data, (*stack, q, width))
        with np.errstate(over="ignore", invalid="ignore"):
            out = afdpop._interp_batch(points, utils, queries, method)
            expected = interp_by_sum(points, utils, queries, method)
        assert out.shape == expected.shape == (*stack, q)
        assert out.tobytes() == expected.tobytes()


class TestClusterTuples:
    def test_two_separated_pairs(self):
        t = util_table(("x",), (((1.0,), 1.0), ((2.0,), 2.0),
                               ((9.0,), 9.0), ((10.0,), 10.0)))
        out = cluster_tuples(t, 2, random.Random(0), "idw")
        centers = sorted(out.rows[:, 0].tolist())
        assert centers == pytest.approx([1.5, 9.5])

    def test_small_table_passthrough(self):
        t = util_table(("x",), (((1.0,), 1.0), ((2.0,), 2.0), ((3.0,), 3.0)))
        assert cluster_tuples(t, 5, random.Random(0), "idw") is t

    def test_row_count_and_quality(self):
        # k-means beats random centroid sets on within-cluster distance
        for seed in range(20):
            rng = random.Random(seed)
            rows = tuple(((rng.uniform(0, 100), rng.uniform(0, 100)), rng.uniform(0, 10))
                         for _ in range(100))
            t = util_table(("x", "y"), rows)
            out = cluster_tuples(t, 10, random.Random(seed), "idw")
            assert len(out.rows) == 10

            def mean_dist(centers):
                total = 0.0
                for (px, py), _ in rows:
                    total += min((px - cx) ** 2 + (py - cy) ** 2
                                 for cx, cy in centers)
                return total / len(rows)

            kmeans_centers = out.rows.tolist()
            random_centers = [v for v, _ in rng.sample(list(rows), 10)]
            assert mean_dist(kmeans_centers) <= mean_dist(random_centers) + 1e-9

    @given(data=st.data(), width=st.integers(1, 9), k=st.integers(1, 5),
           method=st.sampled_from(["idw", "nearest"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_mean_oracle(self, data, width, k, method):
        # few values, so clusters tie, empty out and hold only -0.0; values
        # near the float limit overflow a cluster's sum; one-column tables
        # of 8 or more members sum pairwise in `mean`; tables of 8 or more
        # columns take the summed distances
        values = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 1.7e308, -1.7e308]),
                           st.floats(-5.0, 5.0))
        rows = data.draw(st.lists(st.tuples(*[values] * width), min_size=1, max_size=20))
        utils = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(rows),
                                   max_size=len(rows)))
        table = util_table(tuple(f"v{i}" for i in range(width)), list(zip(rows, utils)))
        seed = data.draw(st.integers(0, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            out = cluster_tuples(table, k, random.Random(seed), method)
            expected = cluster_tuples_by_means(table, k, random.Random(seed), method)
        assert [hex_floats(r) for r in out.rows.tolist()] == [
            hex_floats(r) for r in expected.rows.tolist()]
        assert hex_floats(out.utils.tolist()) == hex_floats(expected.utils.tolist())

    @pytest.mark.parametrize("width", [1, 2])
    def test_long_clusters_match_the_mean_oracle(self, width):
        # 16 members in one cluster: over one column `mean` sums them
        # pairwise, over two it adds them in row order
        rng = np.random.default_rng(width)
        rows = rng.uniform(-5.0, 5.0, size=(16, width)).tolist()
        table = util_table(tuple(f"v{i}" for i in range(width)),
                           [(tuple(r), float(i)) for i, r in enumerate(rows)])
        for k in (1, 2):
            out = cluster_tuples(table, k, random.Random(0), "idw")
            expected = cluster_tuples_by_means(table, k, random.Random(0), "idw")
            assert [hex_floats(r) for r in out.rows.tolist()] == [
                hex_floats(r) for r in expected.rows.tolist()]

    def test_rejects_bad_k(self):
        t = util_table(("x",), (((1.0,), 1.0),))
        with pytest.raises(ArgumentError):
            cluster_tuples(t, 0, random.Random(0), "idw")

    def test_rejects_empty_table(self):
        with pytest.raises(ArgumentError):
            cluster_tuples(util_table(("x",), ()), 3, random.Random(0), "idw")


class TestLeafMove:
    """The per-tuple scalar move, kept as the oracle of the leaf batch."""

    def test_gradient_step(self):
        # f(x,p) = -x^2 - (p-3)^2: x* = 0, gradient -2(p-3) at p=0 is 6
        f = quad("x", "p", a=-1.0, c=-1.0, d=6.0, f0=-9.0)
        out = scalar_leaf_move((0.0,), ("p",), {"p": f}, 0.1, "x", DOM, {"p": DOM})
        assert out == (pytest.approx(0.6),)

    def test_stationary_point_fixed(self):
        f = quad("x", "p", a=-1.0, c=-1.0, d=6.0, f0=-9.0)
        out = scalar_leaf_move((3.0,), ("p",), {"p": f}, 0.1, "x", DOM, {"p": DOM})
        assert out == (pytest.approx(3.0),)

    def test_clamped_to_domain(self):
        # f(x,p) = 10p: gradient wrt p is 10 regardless of x
        f = quad("x", "p", d=10.0)
        out = scalar_leaf_move((99.0,), ("p",), {"p": f}, 1.0, "x", DOM, {"p": DOM})
        assert out == (100.0,)

    def test_unconstrained_coordinate_unmoved(self):
        f = quad("x", "p", d=10.0)
        out = scalar_leaf_move((1.0, 2.0), ("p", "q"), {"p": f}, 0.5, "x", DOM,
                               {"p": DOM, "q": DOM})
        assert out[1] == 2.0


# the signed-zero domains, and one with 0 strictly inside, where a best
# response of -0.0 and one of 0.0 differ
SIGNED_DOMAINS = [ContinuousDomain(-1.0, -0.0), ContinuousDomain(-0.0, 2.0),
                  ContinuousDomain(0.0, 1.0), ContinuousDomain(-1.0, 1.0)]
# small integers tie candidates and rows exactly; huge ones overflow
COEFFS = st.one_of(st.floats(-5.0, 5.0), st.integers(-2, 2).map(float),
                   st.sampled_from([-1e308, 1e308, -0.0]))


@st.composite
def leaves(draw, name):
    """A leaf over 1-3 separator variables on SIGNED_DOMAINS, each
    constraint naming the leaf first or second."""
    width = draw(st.integers(1, 3))
    sep_vars = tuple(f"{name}s{j}" for j in range(width))
    sep_domains = tuple(draw(st.sampled_from(SIGNED_DOMAINS)) for _ in sep_vars)
    constraints = []
    for w in sep_vars:
        coeffs = draw(st.tuples(*[COEFFS] * 5))
        constraints.append(quad(name, w, *coeffs) if draw(st.booleans()) else quad(w, name, *coeffs))
    points = draw(st.integers(1, 4))
    rows = product_grid([discretize(dom, points) for dom in sep_domains])[1]
    return Step(name, draw(st.sampled_from(SIGNED_DOMAINS)), sep_vars, sep_domains,
                tuple(constraints), rows)


class TestLeafBatch:
    """The leaf batch gives, leaf by leaf, the scalar oracle's rows and
    utilities to the last bit."""

    @staticmethod
    def assert_matches_oracle(batch, alpha, moves):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = leaf_move(batch, alpha, moves)
        assert len(tables) == len(batch)
        for leaf, table in zip(batch, tables):
            constraints = dict(zip(leaf.sep_vars, leaf.constraints))
            rows, utils = scalar_leaf_table(leaf.rows.tolist(), leaf.sep_vars, constraints, alpha,
                                            moves, leaf.var, leaf.own_domain,
                                            dict(zip(leaf.sep_vars, leaf.sep_domains)))
            assert table.separator_vars == leaf.sep_vars
            assert table.rows.shape == leaf.rows.shape
            assert [hex_floats(r) for r in table.rows.tolist()] == [hex_floats(r) for r in rows]
            assert hex_floats(table.utils.tolist()) == hex_floats(utils)

    @given(data=st.data(),
           alpha=st.one_of(st.floats(1e-3, 1e308), st.sampled_from([1e-3, 1.0, 1e308])),
           moves=st.integers(0, 10))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_scalar_oracle(self, data, alpha, moves):
        count = data.draw(st.integers(1, 4))
        batch = [data.draw(leaves(f"v{i}")) for i in range(count)]
        self.assert_matches_oracle(batch, alpha, moves)

    def test_rows_stop_at_different_moves(self):
        # g(y, q) = 10q moves q by 10 * alpha until it clamps at 100: with
        # alpha = 1 the rows stop after 1, 2 and 6 moves, or move all 10;
        # f(x, p) = -x^2 - (p-3)^2 takes p to 3 in one move at alpha = 0.5
        f = quad("x", "p", a=-1.0, c=-1.0, d=6.0, f0=-9.0)
        g = quad("y", "q", d=10.0)
        batch = [Step("x", DOM, ("p",), (DOM,), (f,), np.array([[3.0], [0.0], [-100.0]])),
                 Step("y", DOM, ("q",), (DOM,), (g,), np.array([[100.0], [99.0], [50.0],
                                                                [-100.0]]))]
        for alpha in (0.5, 1.0):
            self.assert_matches_oracle(batch, alpha, 10)
        assert leaf_move(batch, 1.0, 10)[1].rows[:, 0].tolist() == [100.0, 100.0, 100.0, 0.0]
        assert leaf_move(batch, 0.5, 10)[0].rows[:, 0].tolist() == [3.0, 3.0, 3.0]


class TestStepPastTheFloatRange:
    """alpha times a gradient can overflow; such a step ends at the domain
    bound, on the scalar leaf path and on the array path of agents with
    children alike, with no RuntimeWarning."""

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    @pytest.mark.parametrize("problem", [generators.gen_tree(8, 1),
                                         generators.gen_graph(6, 0.5, 1)],
                             ids=["tree", "graph"])
    def test_largest_finite_alpha(self, problem, engine):
        result = runtime.run(problem, engine, EngineConfig(alpha=1e308))
        assert all(problem.domains[v].contains(x) for v, x in result.assignment.values.items())


NAN_CHAIN = [quad("x0", "x1", a=-1.0, c=-1.0), quad("x1", "x2", a=-1e308, c=-1.0),
             quad("x2", "x3", a=-1.0, c=-1.0)]


class TestNanStep:
    """An infinite coefficient times a zero coordinate makes a NaN step,
    whose true partial is 0; it is no move, on the leaf batch and on the
    array path of agents with children alike."""

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_nan_step_is_no_move(self, monkeypatch, engine):
        # x2 has a child, and moves x1 along f(x1, x2), whose partial in x1
        # is (2.0 * -1e308) * x1 = -inf * 0.0 at x1's grid point 0.0
        p = make_problem(NAN_CHAIN, lb=-1.0, ub=1.0)
        assert p.tree.children["x2"] == ("x3",) and p.tree.separator["x2"] == ("x1",)
        tables = []
        real_send = Kernel.send

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            if kind == UTIL and receiver != runtime.SYSTEM:
                tables.append(payload)
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        monkeypatch.setattr(Kernel, "send", send)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runtime.run(p, engine, EngineConfig())
        assert math.isfinite(result.reported_optimum)
        assert all(p.domains[v].contains(x) for v, x in result.assignment.values.items())
        # so the pair count of x1's lookups never meets a NaN row
        assert all(np.isfinite(t.rows).all() for t in tables)
        # x2's table, sent last: x1's grid point 0.0 stays where it is
        assert 0.0 in tables[-1].rows[:, 0]

    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop", "hcms"])
    def test_every_engine_reaches_the_grid_optimum(self, engine):
        # with a NaN step sending x1 to its lower bound, af, caf and hcms
        # ended at x1 = -1 with utility -1e308
        p = make_problem(NAN_CHAIN, lb=-1.0, ub=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runtime.run(p, engine, EngineConfig())
        assert result.assignment.values["x1"] == 0.0
        assert result.reported_optimum == model.evaluate_solution(p, result.assignment) == 0.0


class TestSignedZeroTie:
    """A zero step at x2's grid point -0.0, the lower bound of its domain,
    ends at the bound, -0.0, as `ContinuousDomain.clamp` puts it: on the
    leaf batch (x1) and on the path of agents with children (x3) alike,
    whatever the row's position in its array."""

    @pytest.mark.parametrize("points", [3, 8, 9])
    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_both_paths_send_the_bound(self, monkeypatch, engine, points):
        p = make_problem([quad("x1", "x2", a=-1.0, c=-1.0), quad("x2", "x3", a=-1.0, c=-1.0),
                          quad("x3", "x4", a=-1.0, c=-1.0)],
                         domains={"x2": ContinuousDomain(-0.0, 2.0)})
        assert p.tree.root == "x2" and p.tree.children["x3"] == ("x4",)
        tables = sent_util_tables(monkeypatch)
        runtime.run(p, engine, EngineConfig(points=points))
        for var in ("x1", "x3"):
            assert tables[var].separator_vars == ("x2",)
            zeros = [v for v in tables[var].rows[:, 0].tolist() if v == 0.0]
            assert hex_floats(zeros) == ["-0x0.0p+0"], var


@st.composite
def agent_problems(draw):
    """A connected problem on 3-6 variables over SIGNED_DOMAINS: a random
    tree plus random back edges, so that some separators hold a variable
    without a constraint. A coefficient may be ±1e308 while the problem's
    utility bound stays finite."""
    n = draw(st.integers(3, 6))
    names = [f"x{i}" for i in range(n)]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2)))))
    coeffs = st.one_of(st.floats(-5.0, 5.0), st.integers(-2, 2).map(float), st.just(-0.0))
    utilities = [quad(names[i], names[j], *draw(st.tuples(*[coeffs] * 5))) for i, j in sorted(pairs)]
    if draw(st.booleans()):
        k, slot = draw(st.integers(0, len(utilities) - 1)), draw(st.integers(0, 4))
        f = utilities[k]
        big = list(f.coeffs[:5])
        big[slot] = draw(st.sampled_from([-1e308, 1e308]))
        utilities[k] = quad(f.first_var, f.second_var, *big)
    domains = {v: draw(st.sampled_from(SIGNED_DOMAINS)) for v in names}
    try:
        return make_problem(utilities, domains=domains)
    except ValidationError:
        reject()


class TestAgentMove:
    """An agent with children sends, row by row, the rows the scalar oracle
    moves from its grid, to the last bit. The oracle takes each grid tuple's
    own value from the agent's grid join, the join's first call of it."""

    @given(problem=agent_problems(), points=st.integers(1, 4),
           alpha=st.one_of(st.floats(1e-3, 1e308), st.sampled_from([1e-3, 1.0, 1e308])),
           moves=st.integers(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_oracle(self, problem, points, alpha, moves):
        grid_joins = {}
        real_join = common.join

        def join(sums):
            out = real_join(sums)
            for s, (best, _) in zip(sums, out):
                grid_joins.setdefault(s.var, (s.candidates, s.rows.copy(), best))
            return out

        with pytest.MonkeyPatch.context() as mp:
            tables = sent_util_tables(mp)
            mp.setattr(common, "join", join)
            try:
                runtime.run(problem, "af-dpop", EngineConfig(points=points, moves=moves,
                                                             alpha=alpha))
            except FdcopError:
                pass
        tree = problem.tree
        assert grid_joins
        for var, (candidates, grid, best) in grid_joins.items():
            if var not in tables:
                continue
            sep_vars = tree.separator[var]
            sep_sets = {w: sorted(set(grid[:, j].tolist())) for j, w in enumerate(sep_vars)}
            own_at = {tuple(row): candidates[i] for row, i in zip(grid.tolist(), best.tolist())}
            constraints = {w: f for w in sep_vars if (f := problem.utility_between(var, w))}

            def move(t):
                return scalar_agent_move(t, sep_vars, sep_sets, own_at, constraints, alpha, var,
                                         problem.domains)

            expected = [scalar_moves(tuple(row), move, moves) for row in grid.tolist()]
            assert [hex_floats(r) for r in tables[var].rows.tolist()] == [
                hex_floats(r) for r in expected], var


class TestClampedStep:
    """`clamped_step` gives, element by element, `ContinuousDomain.clamp` of
    the step, or the current value when the step is NaN, to the last bit:
    at every position of arrays up to 70 x 3, with per-element, per-column,
    per-row and scalar bounds. A tie, 0.0 against a -0.0 bound or -0.0
    against a 0.0 bound, goes to the bound."""

    DOMAINS = [ContinuousDomain(-0.0, 2.0), ContinuousDomain(0.0, 1.0),
               ContinuousDomain(-1.0, -0.0), ContinuousDomain(-1.0, 0.0),
               ContinuousDomain(-1.0, 1.0)]
    STEPS = [0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -0.5, 1.5, -1.5, 1e308]

    @staticmethod
    def assert_matches(current, step, lb, ub, doms):
        """`doms` is each element's domain, in C order."""
        out = clamped_step(current, step, lb, ub)
        expected = [c if math.isnan(x) else dom.clamp(x) for c, x, dom in
                    zip(current.ravel().tolist(), step.ravel().tolist(), doms)]
        assert out.shape == step.shape
        assert hex_floats(out.ravel()) == hex_floats(expected)

    def test_matches_the_scalar_clamp(self):
        rng = random.Random(0)
        for n, w in itertools.product(range(1, 71), range(1, 4)):
            current = np.array([[rng.choice([-0.0, 0.0, 0.25]) for _ in range(w)]
                                for _ in range(n)])
            step = np.array([[rng.choice(self.STEPS) for _ in range(w)] for _ in range(n)])
            doms = [[rng.choice(self.DOMAINS) for _ in range(w)] for _ in range(n)]
            flat = sum(doms, [])
            self.assert_matches(current, step, np.array([[d.lb for d in r] for r in doms]),
                                np.array([[d.ub for d in r] for r in doms]), flat)
            # per-column bounds, as af's agents with children pass them
            self.assert_matches(current, step, np.array([d.lb for d in doms[0]]),
                                np.array([d.ub for d in doms[0]]), doms[0] * n)
            # per-row bounds, as hcms passes each variable's domain
            self.assert_matches(current, step, np.array([[r[0].lb] for r in doms]),
                                np.array([[r[0].ub] for r in doms]),
                                [r[0] for r in doms for _ in range(w)])
            # one domain, over rows and a vector
            dom = flat[0]
            self.assert_matches(current, step, dom.lb, dom.ub, [dom] * (n * w))
            self.assert_matches(current[:, 0], step[:, 0], dom.lb, dom.ub, [dom] * n)


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

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_a_root_without_children_answers_in_closed_form(self, engine):
        # a lone variable has no table to move, but with moves its VALUE is
        # still the closed-form best response: the lower bound of a constant
        # utility, where the one-point grid's answer would be 0.5
        p = model.Problem(agents=("a",), variables=("x",),
                          domains={"x": ContinuousDomain(0.0, 1.0)}, utilities=(),
                          owner={"x": "a"})
        result = runtime.run(p, engine, EngineConfig(points=1, moves=3))
        assert result.assignment.values == {"x": 0.0} and result.reported_optimum == 0.0

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
            col = [joint_utility(x, var, sep_vars, tuple(values[w] for w in sep_vars),
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
        for sender, receiver, kind, size in result.kernel.trace:
            if kind == runtime.UTIL and receiver != runtime.SYSTEM:
                arity = len(result.tree.separator[sender])
                assert size // (arity + 1) <= 10


def per_cell_scores(problem, var, sep_vars, tables, candidates, tuples, method):
    """The join as one query per (tuple, candidate) cell; returns the scores
    and the query list handed to `lookup_alone` for each child table."""
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
        looked_up = lookup_alone(t, list(uniq), method)
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
    it must hand `_lookups` the per-cell query list in the per-cell
    first-seen order and give the per-cell utilities exactly."""

    @pytest.mark.parametrize("method", ["idw", "nearest"])
    def test_matches_per_cell_reference(self, monkeypatch, method):
        # x002 (separator x000, x005) joins x003 (separator x000, x002) and
        # x004 (separator x000, x002, x005)
        p = generators.gen_graph(7, 0.4, seed=4)
        sent, interp_calls = [], []
        real_send, real_lookups = Kernel.send, afdpop._lookups

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            sent.append((sender, kind, payload))
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        def lookups(requests, how):
            interp_calls.extend((table, list(queries)) for table, queries in requests)
            return real_lookups(requests, how)

        monkeypatch.setattr(Kernel, "send", send)
        monkeypatch.setattr(afdpop, "_lookups", lookups)
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
        moved = list(map(tuple, out.rows.tolist()))
        _, grid_queries = per_cell_scores(p, var, sep_vars, tables, sets[var], grid, method)
        scores, moved_queries = per_cell_scores(p, var, sep_vars, tables, sets[var],
                                                moved, method)

        own_calls = [queries for table, queries in interp_calls
                     if any(table is t for t in tables)]
        assert own_calls[:4] == grid_queries + moved_queries
        # off-grid moved rows, so the interpolation itself is exercised
        assert any(q not in set(map(tuple, t.rows.tolist()))
                   for t, qs in zip(tables, moved_queries) for q in qs)
        assert out.utils.tolist() == scores.max(axis=1).tolist()


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

    def test_agent_with_children_refuses_like_a_leaf(self):
        # x004 joins its children's tables; its grid would hold 3^6 rows
        p = generators.gen_graph(8, 0.5, seed=1)
        cfg = EngineConfig(points=3, row_cap=243, moves=0)
        for engine in ("dpop", "af-dpop"):
            with pytest.raises(CapacityError, match=r"^x004: grid table would hold 729 rows "
                                                    r"\(cap 243\)$"):
                runtime.run(p, engine, cfg, keep_trace=False)


class TestSizePlan:
    def test_a_later_leaf_does_not_preempt_an_earlier_refusal(self, monkeypatch):
        # the leaf x011, fourth in post-order, would hold 3^5 = 243 > 242 rows,
        # but the second agent has children: the plan stops there, and its
        # interpolation refuses first, after the first leaf's message
        p = generators.gen_graph(12, 0.3, 6, concave=True)
        tree = p.tree
        assert tree.post_order[3] == "x011" and not tree.children["x011"]
        assert len(tree.separator["x011"]) == 4 and tree.children[tree.post_order[1]]
        monkeypatch.setattr(afdpop, "PAIR_CAP", 50)
        with pytest.raises(CapacityError, match=r"^interpolation workload 9x9 exceeds the pair "
                                                r"cap$") as exc:
            runtime.run(p, "af-dpop", EngineConfig(points=3, moves=3, row_cap=242),
                        keep_trace=False)
        assert exc.value.stats.total_messages == 1

    def test_a_later_leaf_does_not_preempt_an_earlier_refusal_under_caf(self, monkeypatch):
        # the same input: caf's first leaf sends its 9 rows unclustered
        # (k = 10), so the second agent's interpolation refuses as af's does
        p = generators.gen_graph(12, 0.3, 6, concave=True)
        monkeypatch.setattr(afdpop, "PAIR_CAP", 50)
        with pytest.raises(CapacityError, match=r"^interpolation workload 9x9 exceeds the pair "
                                                r"cap$") as exc:
            runtime.run(p, "caf-dpop", EngineConfig(points=3, moves=3, row_cap=242),
                        keep_trace=False)
        assert exc.value.stats.total_messages == 1

    def test_a_pair_cap_refusal_comes_at_the_over_cap_lookup(self):
        # no bound on a moved table's distinct values lets the plan predict
        # this refusal, so the agents before the refusing one interpolate
        # their under-cap lookups first
        p = generators.gen_graph(20, 0.2, seed=1, concave=True)
        with pytest.raises(CapacityError, match=r"^interpolation workload 97344x2916 exceeds "
                                                r"the pair cap$") as exc:
            runtime.run(p, "af-dpop", EngineConfig(points=3, moves=10, alpha=0.001, k_clusters=10),
                        keep_trace=False)
        assert exc.value.stats.total_messages == 5

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_a_later_leaf_without_a_grid_does_not_preempt_an_earlier_refusal(
            self, monkeypatch, engine):
        # x011's own domain has no 3 distinct points, which only its own step
        # finds; the second agent's interpolation refuses first
        p = generators.gen_graph(12, 0.3, 6, concave=True)
        p = dataclasses.replace(p, domains={**p.domains, "x011": ContinuousDomain(0.0, 5e-324)})
        monkeypatch.setattr(afdpop, "PAIR_CAP", 50)
        with pytest.raises(CapacityError, match=r"^interpolation workload 9x9 exceeds the pair "
                                                r"cap$") as exc:
            runtime.run(p, engine, EngineConfig(points=3, moves=3), keep_trace=False)
        assert exc.value.stats.total_messages == 1
        monkeypatch.setattr(afdpop, "PAIR_CAP", 200_000_000)
        with pytest.raises(ArgumentError, match=r"^cannot place 3 distinct finite points"):
            runtime.run(p, engine, EngineConfig(points=3, moves=3), keep_trace=False)

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_an_over_cap_leaf_refuses_at_its_turn(self, monkeypatch, engine):
        # the leaf x011 comes after the first agent with children and nothing
        # before it refuses: the leaves before it still send their tables,
        # and x011's grid is never built
        p = generators.gen_graph(12, 0.3, 6)
        tree = p.tree
        assert tree.post_order.index("x011") == 3 and not tree.children["x011"]
        assert tree.children[tree.post_order[1]] and len(tree.separator["x011"]) == 4
        batched = []
        real_leaf_move = afdpop.leaf_move

        def record(leaves, alpha, moves):
            batched.extend((leaf.var, len(leaf.rows)) for leaf in leaves)
            return real_leaf_move(leaves, alpha, moves)

        monkeypatch.setattr(afdpop, "leaf_move", record)
        with pytest.raises(CapacityError, match=r"^x011: grid table would hold 243 rows "
                                                r"\(cap 242\)$") as exc:
            runtime.run(p, engine, EngineConfig(points=3, moves=3, row_cap=242),
                        keep_trace=False)
        assert exc.value.stats.total_messages == 3
        assert batched and "x011" not in dict(batched)
        assert max(rows for _, rows in batched) <= 242

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_a_grid_refusal_before_any_message(self, monkeypatch, engine):
        # x006's grid table holds 3^4 = 81 rows, above the cap; the leaf x003
        # before it sends 3 rows, whose k-means (2 centroids x 3 rows) cannot
        # pass PAIR_CAP, so caf's plan walks on to x006 as af's does
        p = generators.gen_graph(8, 0.4, seed=9)
        monkeypatch.setattr(afdpop, "PAIR_CAP", 10)
        with pytest.raises(CapacityError, match=r"^x006: grid table would hold 81 rows "
                                                r"\(cap 80\)$") as exc:
            runtime.run(p, engine, EngineConfig(points=3, moves=3, k_clusters=2, row_cap=80),
                        keep_trace=False)
        assert exc.value.stats.total_messages == 0


VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


class TestPairCount:
    """`scores` refuses a child lookup from its count of missing queries,
    before it builds them; the count is what `_interp_many` hands to
    `_interp_batch` through `_lookups`."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_predicted_missing_equals_batched_queries(self, data):
        # few values, so tables repeat rows, mix -0.0 with 0.0, and
        # projections hit rows exactly
        arity = data.draw(st.integers(1, 3))
        pos = data.draw(st.integers(0, arity - 1))
        names = tuple(f"v{i}" for i in range(arity))
        rows = data.draw(st.lists(st.tuples(*[VALUES] * arity), min_size=1, max_size=12))
        utils = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(rows),
                                   max_size=len(rows)))
        table = util_table(names, list(zip(rows, utils)))
        own = [r[:pos] + r[pos + 1:] for r in rows]
        picked = data.draw(st.lists(st.one_of(st.sampled_from(own),
                                              st.tuples(*[VALUES] * (arity - 1))),
                                    min_size=1, max_size=6))
        projections = dict.fromkeys(picked)  # distinct, as `scores` keeps them
        # a child's own values are always among its parent's candidates
        candidates = sorted(set(table.value_set(names[pos]))
                            | set(data.draw(st.lists(VALUES, max_size=3))))
        queries = [q[:pos] + (c,) + q[pos:] for q in projections for c in candidates]
        batched = []

        def batch(points, utils, queries, method):
            # stacked, (L, q, width): L lookups of q missing queries each
            batched.append(math.prod(queries.shape[:-1]))
            return np.zeros(queries.shape[:-1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(afdpop, "_interp_batch", batch)
            _interp_many(table, queries, "idw")
        assert sum(batched) == afdpop._missing_queries(table.row_index, pos, projections,
                                                       len(candidates))

    def test_refused_lookup_builds_no_queries(self, monkeypatch):
        p = generators.gen_graph(20, 0.1, seed=2, concave=True)
        workloads = []
        real_lookups = afdpop._lookups

        def lookups(requests, method):
            for table, queries in requests:
                missing = sum(q not in table.row_index for q in queries)
                workloads.append(missing * len(table.row_index))
            return real_lookups(requests, method)

        monkeypatch.setattr(afdpop, "_lookups", lookups)
        with pytest.raises(CapacityError, match=r"^interpolation workload 146496x2688 exceeds "
                                                r"the pair cap$"):
            runtime.run(p, "af-dpop", EngineConfig(points=4, moves=10, alpha=0.001),
                        keep_trace=False)
        assert workloads and max(workloads) <= afdpop.PAIR_CAP


class TestChildLookupReuse:
    """Every query of a child on a tree is a candidate of its parent, so each
    child table is interpolated once: by the parent's first join. The moved
    rows and every VALUE query reuse that lookup."""

    @pytest.mark.parametrize("engine", ["af-dpop", "caf-dpop"])
    def test_one_lookup_per_child_on_trees(self, monkeypatch, engine):
        p = generators.gen_tree(50, seed=5)
        phase, calls = [None], []
        real_phase, real_lookups = Kernel.phase, afdpop._lookups

        def record_phase(kernel, name):
            phase[0] = name
            return real_phase(kernel, name)

        def lookups(requests, how):
            calls.extend(phase[0] for _ in requests)
            return real_lookups(requests, how)

        monkeypatch.setattr(Kernel, "phase", record_phase)
        monkeypatch.setattr(afdpop, "_lookups", lookups)
        runtime.run(p, engine, EngineConfig(moves=10))
        assert calls == ["util"] * (len(p.variables) - 1)
