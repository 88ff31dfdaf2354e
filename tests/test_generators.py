"""Seeded instance generators."""
import pytest

from fdcop import generators, model
from fdcop.errors import ArgumentError

from conftest import nx_copy


class TestGenTree:
    def test_structure(self):
        p = generators.gen_tree(10, 0)
        assert len(p.variables) == 10
        assert len(p.utilities) == 9
        g = model.build_constraint_graph(p)
        import networkx as nx
        assert nx.is_tree(nx_copy(g))

    def test_deterministic(self):
        a = generators.gen_tree(12, 5)
        b = generators.gen_tree(12, 5)
        assert model.dumps(a) == model.dumps(b)
        c = generators.gen_tree(12, 6)
        assert model.dumps(a) != model.dumps(c)

    def test_concave_coefficient_ranges(self):
        p = generators.gen_tree(10, 1, concave=True)
        for f in p.utilities:
            assert -5.0 <= f.coeff_a <= -0.1
            assert -5.0 <= f.coeff_c <= -0.1
            assert f.coeff_f0 == 0.0

    def test_default_coefficient_ranges(self):
        p = generators.gen_tree(20, 2)
        for f in p.utilities:
            for coef in f.coeffs[:5]:
                assert -5.0 <= coef <= 5.0

    def test_custom_bounds(self):
        p = generators.gen_tree(5, 0, lb=-1.0, ub=2.0)
        for dom in p.domains.values():
            assert (dom.lb, dom.ub) == (-1.0, 2.0)

    def test_too_small(self):
        with pytest.raises(ArgumentError):
            generators.gen_tree(1, 0)


class TestGenGraph:
    def test_connected_and_sized(self):
        import networkx as nx
        for seed in range(10):
            p = generators.gen_graph(12, 0.2, seed)
            g = model.build_constraint_graph(p)
            assert nx.is_connected(nx_copy(g))
            assert g.number_of_edges() >= 11

    def test_deterministic(self):
        a = generators.gen_graph(15, 0.2, 3)
        b = generators.gen_graph(15, 0.2, 3)
        assert model.dumps(a) == model.dumps(b)

    def test_density_scales_with_p1(self):
        sparse = sum(len(generators.gen_graph(20, 0.1, s).utilities) for s in range(5))
        dense = sum(len(generators.gen_graph(20, 0.6, s).utilities) for s in range(5))
        assert dense > sparse

    def test_full_density(self):
        p = generators.gen_graph(6, 1.0, 0)
        assert len(p.utilities) == 15

    def test_invalid_arguments(self):
        with pytest.raises(ArgumentError):
            generators.gen_graph(1, 0.2, 0)
        with pytest.raises(ArgumentError):
            generators.gen_graph(5, 0.0, 0)
        with pytest.raises(ArgumentError):
            generators.gen_graph(5, 1.5, 0)

    def test_naming_scheme(self):
        p = generators.gen_graph(3, 0.5, 0)
        assert p.variables == ("x000", "x001", "x002")
        assert p.agents == ("a000", "a001", "a002")
        assert p.owner["x001"] == "a001"
