"""Piecewise polynomial calculus: addition, projection, argmax."""
import itertools
import random

import numpy as np
import pytest

from fdcop import piecewise
from fdcop.errors import (
    ArgumentError,
    CapacityError,
    DomainMismatchError,
    ExactProjectionUnsupportedError,
    OutOfDomainError,
)
from fdcop.piecewise import (
    Box,
    PiecewiseFunction,
    Poly2,
    ResponseKind,
    argmax_unary,
    partition_is_valid,
)


def single(poly_coeffs, ranges):
    return PiecewiseFunction.from_polynomial(Poly2(poly_coeffs), Box(ranges))


def random_quadratic(rng, x, y, lo=-5.0, hi=5.0):
    return Poly2({
        (x, x): rng.uniform(lo, hi), (x,): rng.uniform(lo, hi),
        (y, y): rng.uniform(lo, hi), (y,): rng.uniform(lo, hi),
        tuple(sorted((x, y))): rng.uniform(lo, hi), (): rng.uniform(lo, hi),
    })


class TestPoly2:
    def test_add_collects_terms(self):
        p = Poly2({("x",): 1.0, (): 2.0})
        q = Poly2({("x",): -1.0, ("x", "x"): 3.0})
        s = p.add(q)
        assert s.coefficient(("x",)) == 0.0
        assert ("x",) not in s.coeffs  # zero coefficients dropped
        assert s.coefficient(("x", "x")) == 3.0
        assert s.coefficient(()) == 2.0

    def test_evaluate(self):
        p = Poly2({("x", "x"): 2.0, ("x", "y"): 1.0, (): -1.0})
        assert p.evaluate({"x": 3.0, "y": 4.0}) == 2 * 9 + 12 - 1

    def test_substitute_affine(self):
        # x -> 2y + 1 in x^2 + x: (2y+1)^2 + 2y + 1 = 4y^2 + 6y + 2
        p = Poly2({("x", "x"): 1.0, ("x",): 1.0})
        q = p.substitute("x", 2.0, 1.0, "y")
        assert q.coefficient(("y", "y")) == 4.0
        assert q.coefficient(("y",)) == 6.0
        assert q.coefficient(()) == 2.0

    def test_substitute_constant(self):
        p = Poly2({("x", "y"): 3.0, ("y",): 1.0})
        q = p.substitute("x", 0.0, 2.0)
        assert q.coefficient(("y",)) == 7.0


class TestAdd:
    def test_atomic_range_refinement(self):
        # two 4-piece functions sharing x2: breakpoints {0,6,10} and {0,3,10}
        # refine to x2 atomic ranges [0,3], [3,6], [6,10]
        def pieces_2d(u, v, cuts_u, cuts_v, polys):
            out = []
            cells = list(itertools.product(itertools.pairwise(cuts_u),
                                           itertools.pairwise(cuts_v)))
            for (ru, rv), poly in zip(cells, polys):
                out.append((Box({u: ru, v: rv}), poly))
            dom = Box({u: (cuts_u[0], cuts_u[-1]), v: (cuts_v[0], cuts_v[-1])})
            return PiecewiseFunction.make((u, v), out, dom)

        rng = random.Random(3)
        f12 = pieces_2d("x1", "x2", [0, 4, 10], [0, 6, 10],
                        [random_quadratic(rng, "x1", "x2") for _ in range(4)])
        f23 = pieces_2d("x2", "x3", [0, 3, 10], [0, 7, 10],
                        [random_quadratic(rng, "x2", "x3") for _ in range(4)])
        f123 = piecewise.add(f12, f23)
        assert f123.breakpoints("x2") == [0, 3, 6, 10]
        assert f123.breakpoints("x1") == [0, 4, 10]
        assert f123.breakpoints("x3") == [0, 7, 10]
        assert len(f123.pieces) == 2 * 3 * 2
        assert partition_is_valid(f123)
        for _ in range(200):
            pt = {"x1": rng.uniform(0, 10), "x2": rng.uniform(0, 10),
                  "x3": rng.uniform(0, 10)}
            lhs = piecewise.evaluate(f123, pt)
            rhs = (piecewise.evaluate(f12, {k: pt[k] for k in ("x1", "x2")})
                   + piecewise.evaluate(f23, {k: pt[k] for k in ("x2", "x3")}))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_additive_identity(self):
        f = single({("x", "x"): -1.0, ("x",): 2.0}, {"x": (0.0, 5.0)})
        zero = single({}, {"x": (0.0, 5.0)})
        s = piecewise.add(f, zero)
        assert len(s.pieces) == 1
        assert s.pieces[0][1].coeffs == f.pieces[0][1].coeffs

    def test_pointwise_oracle(self):
        rng = random.Random(11)
        f = single(random_quadratic(rng, "x", "y").coeffs,
                   {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        g = single(random_quadratic(rng, "x", "y").coeffs,
                   {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        s = piecewise.add(f, g)
        for _ in range(1000):
            pt = {"x": rng.random(), "y": rng.random()}
            assert piecewise.evaluate(s, pt) == pytest.approx(
                piecewise.evaluate(f, pt) + piecewise.evaluate(g, pt), abs=1e-9)

    def test_domain_mismatch(self):
        f = single({("x",): 1.0}, {"x": (0.0, 1.0)})
        g = single({("x",): 1.0}, {"x": (0.0, 2.0)})
        with pytest.raises(DomainMismatchError):
            piecewise.add(f, g)

    def test_piece_cap(self):
        cuts = [float(i) for i in range(50)]
        pieces = [(Box({"x": rng}), Poly2({})) for rng in itertools.pairwise(cuts)]
        f = PiecewiseFunction.make(("x",), pieces, Box({"x": (0.0, 49.0)}))
        with pytest.raises(CapacityError):
            piecewise.add(f, f, piece_cap=10)


class TestProject:
    def test_interior_critical_dominates(self):
        # f(x,y) = -x^2 + 2xy + y on [0,10]^2: maximizer x = y, value y^2 + y
        f = single({("x", "x"): -1.0, ("x", "y"): 2.0, ("y",): 1.0},
                   {"x": (0.0, 10.0), "y": (0.0, 10.0)})
        g, responses = piecewise.project(f, "x")
        assert len(g.pieces) == 1
        poly = g.pieces[0][1]
        assert poly.coefficient(("y", "y")) == pytest.approx(1.0)
        assert poly.coefficient(("y",)) == pytest.approx(1.0)
        resp = responses.at({"y": 5.0})
        assert resp.kind is ResponseKind.AFFINE
        assert resp.value(5.0) == pytest.approx(5.0)

    def test_linear_maximizes_at_upper_bound(self):
        f = single({("x",): 1.0, ("y",): 1.0}, {"x": (-5.0, 5.0), "y": (0.0, 1.0)})
        g, responses = piecewise.project(f, "x")
        assert piecewise.evaluate(g, {"y": 0.5}) == pytest.approx(5.5)
        assert responses.at({"y": 0.5}).kind is ResponseKind.UPPER_BOUND

    def test_convex_endpoint_dominance(self):
        # f(x,y) = x^2 on x in [-1,2]: max is 4 at the upper bound
        f = single({("x", "x"): 1.0}, {"x": (-1.0, 2.0), "y": (0.0, 1.0)})
        g, responses = piecewise.project(f, "x")
        assert piecewise.evaluate(g, {"y": 0.3}) == pytest.approx(4.0)
        assert responses.at({"y": 0.3}).kind is ResponseKind.UPPER_BOUND

    def test_projection_sampling_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            f = single(random_quadratic(rng, "x", "y").coeffs,
                       {"x": (0.0, 10.0), "y": (0.0, 10.0)})
            g, responses = piecewise.project(f, "x")
            assert partition_is_valid(g)
            # the 1e-3 grid on [0, 10]; Poly2.evaluate broadcasts over it
            xs = np.arange(10001) * 0.001
            for _ in range(50):
                y = rng.uniform(0.0, 10.0)
                grid_max = float(f.pieces[0][1].evaluate({"x": xs, "y": y}).max())
                proj = piecewise.evaluate(g, {"y": y})
                assert proj >= grid_max - 1e-9
                assert proj <= grid_max + 1.0  # grid is 1e-3 fine
                # best-response consistency
                x_star = responses.at({"y": y}).value(y)
                replay = f.pieces[0][1].evaluate({"x": x_star, "y": y})
                assert replay == pytest.approx(proj, abs=1e-9)

    def test_projected_dominates_endpoints(self):
        rng = random.Random(9)
        for _ in range(10):
            f = single(random_quadratic(rng, "x", "y").coeffs,
                       {"x": (-3.0, 3.0), "y": (-3.0, 3.0)})
            g, _ = piecewise.project(f, "x")
            for _ in range(100):
                y = rng.uniform(-3.0, 3.0)
                proj = piecewise.evaluate(g, {"y": y})
                for x in (-3.0, 3.0):
                    assert proj >= f.pieces[0][1].evaluate({"x": x, "y": y}) - 1e-9

    def test_unsupported_arity(self):
        f = single({("x", "y"): 1.0, ("z",): 1.0},
                   {"x": (0.0, 1.0), "y": (0.0, 1.0), "z": (0.0, 1.0)})
        with pytest.raises(ExactProjectionUnsupportedError):
            piecewise.project(f, "x")

    def test_project_to_constant(self):
        f = single({("x", "x"): -1.0, ("x",): 6.0}, {"x": (0.0, 10.0)})
        g, responses = piecewise.project(f, "x")
        assert g.pieces[0][1].coefficient(()) == pytest.approx(9.0)
        assert responses.at({}).value() == pytest.approx(3.0)

    def test_missing_variable(self):
        f = single({("x",): 1.0}, {"x": (0.0, 1.0)})
        with pytest.raises(ArgumentError):
            piecewise.project(f, "y")


class TestEvaluate:
    def test_constant(self):
        f = single({(): 5.0}, {"x": (0.0, 1.0)})
        assert piecewise.evaluate(f, {"x": 0.25}) == 5.0

    def test_boundary_tie_deterministic(self):
        pieces = (
            (Box({"x": (0.0, 4.0)}), Poly2({("x",): 1.0})),
            (Box({"x": (4.0, 10.0)}), Poly2({("x",): 1.0})),
        )
        f = PiecewiseFunction.make(("x",), pieces, Box({"x": (0.0, 10.0)}))
        located = f.piece_at({"x": 4.0})
        assert located[0].ranges["x"] == (0.0, 4.0)  # canonically first piece
        assert piecewise.evaluate(f, {"x": 4.0}) == 4.0

    def test_out_of_domain(self):
        f = single({("x",): 1.0}, {"x": (0.0, 1.0)})
        with pytest.raises(OutOfDomainError):
            piecewise.evaluate(f, {"x": 2.0})


class TestArgmaxUnary:
    def test_concave_vertex(self):
        # -(y-3)^2 = -y^2 + 6y - 9
        f = single({("y", "y"): -1.0, ("y",): 6.0, (): -9.0}, {"y": (0.0, 10.0)})
        assert argmax_unary(f) == (pytest.approx(3.0), pytest.approx(0.0))

    def test_monotone(self):
        f = single({("y",): 1.0}, {"y": (0.0, 10.0)})
        assert argmax_unary(f) == (10.0, 10.0)

    def test_tie_breaks_to_smallest_value(self):
        pieces = (
            (Box({"y": (0.0, 1.0)}), Poly2({("y", "y"): 1.0})),
            (Box({"y": (1.0, 2.0)}), Poly2({("y",): -1.0, (): 2.0})),
        )
        f = PiecewiseFunction.make(("y",), pieces, Box({"y": (0.0, 2.0)}))
        value, utility = argmax_unary(f)
        assert (value, utility) == (1.0, 1.0)

    def test_requires_unary(self):
        f = single({("x", "y"): 1.0}, {"x": (0.0, 1.0), "y": (0.0, 1.0)})
        with pytest.raises(ArgumentError):
            argmax_unary(f)
