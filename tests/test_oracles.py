"""The reference optimizers agree with each other."""
import pytest

from fdcop import generators, oracles
from fdcop.errors import ArgumentError, CapacityError

from conftest import brute_force_grid_optimum


class TestOracleGrid:
    def test_midpoint_for_single_point(self):
        assert oracles.oracle_grid(-100.0, 100.0, 1) == [0.0]

    def test_includes_endpoints(self):
        grid = oracles.oracle_grid(0.0, 10.0, 5)
        assert grid[0] == 0.0 and grid[-1] == 10.0
        assert len(grid) == 5

    def test_rejects_bad_count(self):
        with pytest.raises(ArgumentError):
            oracles.oracle_grid(0.0, 1.0, 0)


class TestAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_equals_elimination(self, seed):
        p = generators.gen_graph(6, 0.3, seed)
        for d in (2, 3, 5):
            brute, _ = brute_force_grid_optimum(p, d)
            elim = oracles.elimination_grid_optimum(p, d)
            assert brute == pytest.approx(elim, abs=1e-6)

    def test_assignment_achieves_optimum(self):
        p = generators.gen_tree(5, 1)
        optimum, assignment = brute_force_grid_optimum(p, 4)
        total = sum(f.value_at(assignment) for f in p.utilities)
        assert total == pytest.approx(optimum)

    def test_caps(self):
        p = generators.gen_graph(8, 0.3, 0)
        with pytest.raises(CapacityError):
            brute_force_grid_optimum(p, 10, cell_cap=1000)
