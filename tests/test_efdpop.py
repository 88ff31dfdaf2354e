"""Exact functional DPOP on trees."""
import dataclasses
import math

import pytest

from fdcop import generators, model, oracles, runtime
from fdcop.engines import efdpop
from fdcop.engines.efdpop import SCALARS_PER_PIECE, utility_as_piecewise
from fdcop.errors import StructureError, ValidationError
from fdcop.model import ContinuousDomain
from fdcop.piecewise import Unary
from fdcop.runtime import UTIL, EngineConfig, SYSTEM

from conftest import make_problem, quad


class TestUtilityAsPiecewise:
    def test_single_piece_evaluation(self):
        # one piece of the agent's own square and linear terms and f0, for
        # either variable of the constraint
        f = quad("x", "y", a=-1.0, b=2.0, c=-3.0, d=4.0, e=5.0, f0=6.0)
        assert utility_as_piecewise(f, "x", ContinuousDomain(-1, 1)) == Unary(
            "x", ((-1, 1, -1.0, 2.0, 6.0),))
        assert utility_as_piecewise(f, "y", ContinuousDomain(-2, 2)) == Unary(
            "y", ((-2, 2, -3.0, 4.0, 6.0),))


class TestTwoNodeClosedForm:
    def test_concave_pair(self):
        # f(x,y) = -x^2 - y^2 + xy + 2x + 3y; unconstrained optimum from
        # solving the stationarity system: x = 7/3, y = 8/3, value 19/3
        p = make_problem([quad("x", "y", a=-1.0, c=-1.0, e=1.0, b=2.0, d=3.0)])
        result = runtime.run(p, "ef-dpop", EngineConfig())
        assert result.assignment.values["x"] == pytest.approx(7 / 3)
        assert result.assignment.values["y"] == pytest.approx(8 / 3)
        assert result.reported_optimum == pytest.approx(19 / 3)

    def test_boundary_optimum(self):
        # convex in both: optimum at a corner of the box
        p = make_problem([quad("x", "y", a=1.0, c=1.0, e=1.0)],
                         domains={"x": ContinuousDomain(-1, 1),
                                  "y": ContinuousDomain(-1, 1)})
        result = runtime.run(p, "ef-dpop", EngineConfig())
        assert abs(result.assignment.values["x"]) == pytest.approx(1.0)
        assert abs(result.assignment.values["y"]) == pytest.approx(1.0)
        assert result.reported_optimum == pytest.approx(3.0)


class TestAgainstFineGrid:
    @pytest.mark.parametrize("seed", range(10))
    def test_chain_and_trees(self, seed):
        p = generators.gen_tree(5, seed, concave=True)
        result = runtime.run(p, "ef-dpop", EngineConfig())
        utility = model.evaluate_solution(p, result.assignment)
        oracle = oracles.elimination_grid_optimum(p, 2001)
        assert utility >= oracle - 1e-6
        delta = model.gradient_bound(p)
        assert utility - oracle <= len(p.utilities) * 0.1 * delta

    def test_linear_utilities(self):
        p = make_problem([quad("x", "y", b=2.0, d=-3.0),
                          quad("y", "z", b=1.0, d=1.0)])
        result = runtime.run(p, "ef-dpop", EngineConfig())
        # all-linear: optimum at box corners, here x=100, y=-100, z=100
        assert result.assignment.values == {"x": 100.0, "y": -100.0, "z": 100.0}


class TestMissingTerms:
    """Hand-made trees whose constraints lack terms, each constraint in both
    orientations: the message sums then meet zero coefficients."""

    TEMPLATES = {  # (a, b, c, d, e, f0) for the edge (u, v) as written
        "linear-only": (0.0, 2.0, 0.0, -1.0, 0.0, 3.0),
        "no-cross": (-1.0, 2.0, -0.5, 1.0, 0.0, 1.5),
        "no-second-square": (-1.0, 1.0, 0.0, 0.5, 0.3, -2.0),
        "no-first-square": (0.0, 0.5, -2.0, 1.0, -0.3, 2.0),
    }

    # rooted at x2: x1 is x2's child, and x5 is x4's
    @pytest.mark.parametrize("swap", [False, True], ids=["as-written", "swapped"])
    @pytest.mark.parametrize("template", list(TEMPLATES))
    def test_matches_fine_grid(self, template, swap):
        a, b, c, d, e, f0 = self.TEMPLATES[template]
        edges = [("x1", "x2"), ("x2", "x3"), ("x2", "x4"), ("x4", "x5")]
        utilities = [quad(v, u, a=c, b=d, c=a, d=b, e=e, f0=f0) if swap
                     else quad(u, v, a=a, b=b, c=c, d=d, e=e, f0=f0)
                     for u, v in edges]
        p = make_problem(utilities, lb=-10.0, ub=10.0)
        result = runtime.run(p, "ef-dpop", EngineConfig())
        utility = model.evaluate_solution(p, result.assignment)
        assert math.isclose(result.reported_optimum, utility, rel_tol=1e-9, abs_tol=1e-9)
        oracle = oracles.elimination_grid_optimum(p, 2001)
        assert utility >= oracle - 1e-6
        delta = model.gradient_bound(p)
        assert utility - oracle <= len(p.utilities) * 0.1 * delta


class TestOverflow:
    def test_nan_optimum_is_refused(self):
        # every utility on these domains overflows to NaN, so the problem is
        # refused before ef-dpop runs
        with pytest.raises(ValidationError, match="overflows the float range"):
            generators.gen_tree(6, 1, lb=-1e200, ub=1e200)

    def test_inf_optimum_is_refused(self, monkeypatch):
        # each utility is finite, but their sum, the optimum, is not; the
        # summed bound refuses the problem before ef-dpop runs
        with pytest.raises(ValidationError, match="^the utilities' sum overflows"):
            make_problem([quad("x", "y", f0=1e308), quad("y", "z", f0=1e308)])
        p = make_problem([quad("x", "y", f0=1e308), quad("y", "z")])
        p = dataclasses.replace(p, utilities=(p.utilities[0], quad("y", "z", f0=1e308)))
        monkeypatch.setattr(efdpop, "run", lambda *args: pytest.fail("ran"))
        with pytest.raises(ValidationError, match="^the utilities' sum overflows"):
            runtime.run(p, "ef-dpop", EngineConfig())


class TestStructure:
    def test_rejects_cycles(self):
        p = make_problem([quad("x", "y", e=1.0), quad("y", "z", e=1.0),
                          quad("x", "z", e=1.0)])
        with pytest.raises(StructureError):
            runtime.run(p, "ef-dpop", EngineConfig())

    def test_message_sizes_are_piece_multiples(self):
        p = generators.gen_tree(8, 2, concave=True)
        result = runtime.run(p, "ef-dpop", EngineConfig())
        for sender, receiver, kind, size in result.kernel.trace:
            if kind == UTIL and receiver != SYSTEM:
                assert size % SCALARS_PER_PIECE == 0
                assert size > 0
