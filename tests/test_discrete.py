"""Discrete grid DPOP against enumeration oracles and a per-cell join."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdcop import generators, model, runtime
from fdcop.engines import common
from fdcop.engines.common import UtilSum, UtilTable, _add_up, discretize, join, product_grid
from fdcop.engines.discrete import joint_utility
from fdcop.errors import ArgumentError, ProtocolError
from fdcop.model import ContinuousDomain
from fdcop.runtime import UTIL, EngineConfig, Kernel

from conftest import brute_force_grid_optimum, hex_floats, make_problem, quad, util_table


class TestUtilTable:
    def test_scalar_size(self):
        table = util_table(("x", "y"), (((0.0, 1.0), 5.0), ((2.0, 3.0), 6.0)))
        assert table.scalar_size() == 2 * 3

    def test_arrays_are_read_only(self):
        # sender and receiver share one payload, so neither may change it
        rows, utils = np.array([[0.0, 1.0]]), np.array([5.0])
        table = UtilTable(("x", "y"), rows, utils)
        for array in (table.rows, table.utils, table.utils.reshape(1, 1)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7.0
        assert table.rows.tolist() == [[0.0, 1.0]] and table.utils.tolist() == [5.0]


# domains on which 9 evenly spaced points cannot be built: neighbours round
# to the same float near 1e16, and the width of the second overflows
UNBUILDABLE_GRIDS = [(1e16, 1e16 + 2), (-1.7e308, 1.7e308)]


class TestDiscretize:
    def test_endpoints_and_midpoint(self):
        dom = ContinuousDomain(-1.0, 3.0)
        assert discretize(dom, 3) == [-1.0, 1.0, 3.0]
        assert discretize(dom, 1) == [1.0]

    def test_narrow_domain_with_room_for_two_points(self):
        assert discretize(ContinuousDomain(1e16, 1e16 + 2), 2) == [1e16, 1e16 + 2]

    @pytest.mark.parametrize("bounds", UNBUILDABLE_GRIDS)
    def test_refuses_a_grid_it_cannot_build(self, bounds):
        with pytest.raises(ArgumentError, match="cannot place 9 distinct finite points"):
            discretize(ContinuousDomain(*bounds), 9)

    def test_a_grid_cache_keeps_one_grid_per_distinct_domain(self):
        grid = common.grid_cache()
        zero = grid(ContinuousDomain(0.0, 2.0), 3)
        assert grid(ContinuousDomain(0.0, 2.0), 3) is zero
        assert hex_floats(zero) == ["0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+1"]
        # equal domains whose upper bounds, 0.0 and -0.0, are their last points
        assert hex_floats(grid(ContinuousDomain(-2.0, 0.0), 3))[2] == "0x0.0p+0"
        assert hex_floats(grid(ContinuousDomain(-2.0, -0.0), 3))[2] == "-0x0.0p+0"
        assert grid(ContinuousDomain(0.0, 2.0), 5) == [0.0, 0.5, 1.0, 1.5, 2.0]
        # an int upper bound is the grid's last point, as discretize keeps it
        assert [type(x) for x in grid(ContinuousDomain(0, 2), 3)] == [float, float, int]

    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop", "hcms"])
    def test_one_grid_per_distinct_domain_and_run(self, monkeypatch, engine):
        # every other variable's domain ends at -0.0, the others' at 0.0
        p = generators.gen_tree(30, seed=1)
        p = dataclasses.replace(p, domains={v: ContinuousDomain(-100.0, -0.0 if i % 2 else 0.0)
                                            for i, v in enumerate(p.variables)})
        built = []
        real = common.discretize

        def discretize(domain, d):
            built.append((float.hex(domain.ub), d))
            return real(domain, d)

        monkeypatch.setattr(common, "discretize", discretize)
        for _ in range(2):
            runtime.run(p, engine, EngineConfig(moves=2), keep_trace=False)
        assert sorted(built) == sorted([("-0x0.0p+0", 3), ("0x0.0p+0", 3)] * 2)

    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop", "hcms"])
    @pytest.mark.parametrize("bounds", UNBUILDABLE_GRIDS)
    def test_grid_engines_refuse(self, engine, bounds):
        # linear, so the utility stays finite on both domains and the problem
        # validates (a quadratic one overflows on the second: test_model.py)
        p = make_problem([quad("x", "y", b=0.5, d=-0.25)], lb=bounds[0], ub=bounds[1])
        with pytest.raises(ArgumentError, match="cannot place 9 distinct finite points"):
            runtime.run(p, engine, EngineConfig(points=9), keep_trace=False)


class TestJoin:
    GRID = [-1.0, 0.0, 1.0]

    def test_product_grid(self):
        grids = [[0.5, 1.5], [-1.0, 0.0, 1.0]]
        index, rows = product_grid(grids)
        assert index.tolist() == list(map(list, itertools.product(range(2), range(3))))
        assert rows.tolist() == list(map(list, itertools.product(*grids)))
        index, rows = product_grid([])
        assert index.shape == rows.shape == (1, 0)

    def test_sums_children_then_constraints(self):
        child = util_table(("x", "y"), tuple(((x, y), 10.0 * x + y)
                                           for x, y in itertools.product(self.GRID, self.GRID)))
        # the child's utilities as an (x, y) array
        array = child.utils.reshape(3, 3)
        assert array.tolist() == [[10.0 * x + y for y in self.GRID] for x in self.GRID]
        _, rows = product_grid([self.GRID])
        # rows are y, candidates x: the child's (x, y) array transposed
        s = UtilSum("x", self.GRID, ("y",), rows, [array.T], [quad("x", "y", e=1.0)])
        assert _add_up(s).tolist() == [[10.0 * x + y + x * y for x in self.GRID]
                                       for y in self.GRID]
        # the join projects each row onto its best x: here always x = 1
        [(best, utils)] = join([s])
        assert best.tolist() == [2, 2, 2]
        assert utils.tolist() == [10.0 + y + y for y in self.GRID]
        # children in the given order, then the constraint: (1e16 - 1e16) + 1
        # is 1, where adding the constraint first would round it away; each
        # candidate alone, so the join's utility is the cell
        for x in self.GRID:
            [(best, utils)] = join([UtilSum("x", [x], ("y",), rows,
                                            [np.full(1, 1e16), np.full(1, -1e16)],
                                            [quad("x", "y", f0=1.0)])])
            assert best.tolist() == [0] * 3 and utils.tolist() == [1.0] * 3

    def test_contribution_of_the_wrong_shape(self):
        # two rows, three candidates; a short q vector is the first case, and
        # the last two would broadcast by stretching a single value
        rows = np.array([[-1.0], [1.0]])
        for shape in ((2,), (4,), (3, 2), (2, 3, 1), (1,), (2, 1)):
            with pytest.raises(ProtocolError, match="do not match 2 rows x 3 candidates"):
                join([UtilSum("x", self.GRID, ("y",), rows, [np.zeros(shape)], [])])
        for shape in ((3,), (1, 3), (2, 3)):
            s = UtilSum("x", self.GRID, ("y",), rows, [np.ones(shape)], [])
            assert _add_up(s).tolist() == [[1.0] * 3] * 2
            [(best, utils)] = join([s])
            assert best.tolist() == [0, 0] and utils.tolist() == [1.0, 1.0]

    def test_flat_own_variable_picks_the_smallest_point(self):
        _, rows = product_grid([self.GRID])
        s = UtilSum("x", self.GRID, ("y",), rows, [], [quad("x", "y", c=-1.0, d=2.0)])
        assert _add_up(s).tolist() == [[-3.0] * 3, [0.0] * 3, [1.0] * 3]
        # every engine takes the first maximum: the smallest point
        [(best, utils)] = join([s])
        assert best.tolist() == [0, 0, 0]
        assert utils.tolist() == [-3.0, 0.0, 1.0]


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 1e308, -1e308]), st.floats(-5.0, 5.0))


@st.composite
def util_sums(draw):
    """Two to six sums of at most two shapes, each of its own variable and
    coefficients, on either side of each constraint, with contributions of
    every accepted shape."""
    n_r, n_c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sums = []
    for i in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            n_r = draw(st.integers(1, 3))
        var, sep_vars = f"x{i}", (f"s{i}", f"t{i}")
        rows = np.array(draw(st.lists(st.tuples(FLOATS, FLOATS), min_size=n_r, max_size=n_r)))
        shapes = st.sampled_from([(n_c,), (1, n_c), (n_r, n_c)])
        contributions = [np.array(draw(st.lists(FLOATS, min_size=n, max_size=n))).reshape(shape)
                         for shape in draw(st.lists(shapes, max_size=2))
                         for n in [int(np.prod(shape))]]
        constraints = [quad(*((var, w) if draw(st.booleans()) else (w, var)),
                            *draw(st.tuples(*[FLOATS] * 6)))
                       for w in sep_vars if draw(st.booleans())]
        candidates = draw(st.lists(FLOATS, min_size=n_c, max_size=n_c))
        sums.append(UtilSum(var, candidates, sep_vars, rows, contributions, constraints))
    return sums


class TestStackedJoin:
    @given(sums=util_sums())
    @settings(max_examples=300, deadline=None)
    def test_each_sum_as_alone(self, sums):
        # sums of one shape share one stacked array; each row projects to
        # the index and the float the sum gives alone
        with np.errstate(over="ignore", invalid="ignore"):
            together = join(sums)
            for s, (best, utils) in zip(sums, together):
                [(alone_best, alone_utils)] = join([s])
                assert best.tolist() == alone_best.tolist()
                assert hex_floats(utils) == hex_floats(alone_utils)

    @given(sums=util_sums())
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_its_first_maximum(self, sums):
        # stacked or alone, a row's utility is its cells' max and the cell at
        # their first argmax, to the bit, though the inputs hold -0.0: a sum
        # that starts from +0.0 is never -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for s, stacked in zip(sums, join(sums)):
                cells = _add_up(s)
                assert not np.signbit(cells[cells == 0.0]).any()
                first = cells.argmax(axis=1)
                for best, utils in (stacked, *join([s])):
                    assert best.tolist() == first.tolist()
                    assert hex_floats(utils) == hex_floats(cells.max(axis=1)) == hex_floats(
                        cells[np.arange(len(cells)), first])


class TestJointUtility:
    def test_fixed_order_sum(self):
        f = quad("x", "y", e=1.0, b=1.0)
        total = joint_utility(2.0, "x", ("y",), (3.0,), [f])
        assert total == 2.0 * 3.0 + 2.0


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_tree_matches_brute_force(self, seed):
        p = generators.gen_tree(6, seed)
        for d in (2, 3):
            result = runtime.run(p, "dpop", EngineConfig(points=d))
            utility = model.evaluate_solution(p, result.assignment)
            optimum, _ = brute_force_grid_optimum(p, d)
            assert utility == pytest.approx(optimum, abs=1e-6)
            assert result.reported_optimum == pytest.approx(optimum, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_graph_matches_brute_force(self, seed):
        p = generators.gen_graph(7, 0.3, seed)
        result = runtime.run(p, "dpop", EngineConfig(points=3))
        utility = model.evaluate_solution(p, result.assignment)
        optimum, _ = brute_force_grid_optimum(p, 3)
        assert utility == pytest.approx(optimum, abs=1e-6)

    def test_single_point_grid(self):
        p = make_problem([quad("x", "y", a=-1.0, e=1.0)])
        result = runtime.run(p, "dpop", EngineConfig(points=1))
        # d=1 discretizes both domains to the midpoint 0
        assert result.assignment.values == {"x": 0.0, "y": 0.0}

    def test_values_on_grid(self):
        p = generators.gen_graph(6, 0.3, 4)
        result = runtime.run(p, "dpop", EngineConfig(points=3))
        for v, value in result.assignment.values.items():
            assert value in (-100.0, 0.0, 100.0)


def exact_lookup(table: UtilTable):
    index = dict(zip(map(tuple, table.rows.tolist()), table.utils.tolist()))
    return lambda assign: index[tuple(assign[w] for w in table.separator_vars)]


class TestPerCellReference:
    """Every UTIL table dpop sends, and every value it picks, equals a
    per-cell max-plus loop over exact-key child lookups and the constraints."""

    @staticmethod
    def run_captured(monkeypatch, problem, config):
        sent = {}
        real_send = Kernel.send

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            if kind == UTIL:
                sent[sender] = payload
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        monkeypatch.setattr(Kernel, "send", send)
        return runtime.run(problem, "dpop", config), sent

    @staticmethod
    def per_cell(problem, tree, var, sent, d, ancestors):
        """(table rows, own value at the ancestors' values) by enumeration."""
        sep_vars = tuple(sorted(tree.separator[var]))
        own_pts = discretize(problem.domains[var], d)
        sep_grids = [discretize(problem.domains[w], d) for w in sep_vars]
        constraints = sorted(
            (f for w in sep_vars if (f := problem.utility_between(var, w)) is not None),
            key=lambda f: f.other_var(var))
        lookups = [exact_lookup(sent[c]) for c in sorted(tree.children[var])]

        def cell(x, sep_values):
            assign = dict(zip(sep_vars, sep_values))
            assign[var] = x
            total = 0.0
            for lookup in lookups:
                total = total + lookup(assign)
            for f in constraints:
                total = total + f.value_at(assign)
            return total

        def column(sep_values):
            return [cell(x, sep_values) for x in own_pts]

        rows = [(t, max(column(t))) for t in itertools.product(*sep_grids)]
        col = column(tuple(ancestors[w] for w in sep_vars))
        return rows, own_pts[col.index(max(col))]  # first max: smallest point

    @pytest.mark.parametrize("problem", [generators.gen_graph(16, 0.2, seed=1),
                                         generators.gen_graph(7, 0.4, seed=4)],
                             ids=["width3", "graph7"])
    def test_tables_and_values(self, monkeypatch, problem):
        d = 3
        result, sent = self.run_captured(monkeypatch, problem, EngineConfig(points=d))
        tree, values = result.tree, result.assignment.values
        assert max(len(s) for s in tree.separator.values()) >= 2
        for var in problem.variables:
            rows, own = self.per_cell(problem, tree, var, sent, d, values)
            if var == tree.root:
                assert float.hex(sent[var]["optimum"]) == float.hex(rows[0][1])
            else:
                table = sent[var]
                assert table.separator_vars == tuple(sorted(tree.separator[var]))
                assert list(map(tuple, table.rows.tolist())) == [t for t, _ in rows]
                assert ([float.hex(u) for u in table.utils.tolist()]
                        == [float.hex(u) for _, u in rows])
            assert values[var] == own

    def test_ties_go_to_the_smallest_point(self, monkeypatch):
        # x2 is the root; both leaves' utilities are flat in the leaf's variable
        p = make_problem([quad("x1", "x2", c=-1.0), quad("x2", "x3", a=-1.0, b=1.0)])
        result, sent = self.run_captured(monkeypatch, p, EngineConfig(points=3))
        assert result.tree.root == "x2"
        # rows over x2 = -100, 0, 100
        assert sent["x1"].utils.tolist() == [-10000.0, 0.0, -10000.0]
        assert sent["x3"].utils.tolist() == [-10100.0, 0.0, -9900.0]
        assert result.assignment.values["x1"] == result.assignment.values["x3"] == -100.0
        assert result.assignment.values["x2"] == 0.0
        af0 = runtime.run(p, "af-dpop", EngineConfig(points=3, moves=0))
        assert af0.assignment.values == result.assignment.values
