"""Discrete grid DPOP against enumeration oracles."""
import pytest

from fdcop import generators, model, oracles, runtime
from fdcop.engines.common import UtilTable
from fdcop.engines.discrete import child_lookup, joint_utility
from fdcop.errors import ProtocolError
from fdcop.runtime import EngineConfig

from conftest import make_problem, quad


class TestUtilTable:
    def test_scalar_size(self):
        table = UtilTable(("x", "y"), (((0.0, 1.0), 5.0), ((2.0, 3.0), 6.0)))
        assert table.scalar_size() == 2 * 3

    def test_child_lookup(self):
        table = UtilTable(("x",), (((0.0,), 1.5), ((1.0,), 2.5)))
        lookup = child_lookup(table)
        assert lookup({"x": 1.0, "z": 9.0}) == 2.5
        with pytest.raises(ProtocolError):
            lookup({"x": 7.0})


class TestJointUtility:
    def test_fixed_order_sum(self):
        f = quad("x", "y", e=1.0, b=1.0)
        total = joint_utility(2.0, "x", ("y",), (3.0,), [], [f])
        assert total == 2.0 * 3.0 + 2.0


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_tree_matches_brute_force(self, seed):
        p = generators.gen_tree(6, seed)
        for d in (2, 3):
            result = runtime.run(p, "dpop", EngineConfig(points=d))
            utility = model.evaluate_solution(p, result.assignment)
            optimum, _ = oracles.brute_force_grid_optimum(p, d)
            assert utility == pytest.approx(optimum, abs=1e-6)
            assert result.reported_optimum == pytest.approx(optimum, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_graph_matches_brute_force(self, seed):
        p = generators.gen_graph(7, 0.3, seed)
        result = runtime.run(p, "dpop", EngineConfig(points=3))
        utility = model.evaluate_solution(p, result.assignment)
        optimum, _ = oracles.brute_force_grid_optimum(p, 3)
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
