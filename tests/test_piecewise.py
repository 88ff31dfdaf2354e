"""Piecewise quadratic calculus in one variable: addition, projection, argmax."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdcop import piecewise
from fdcop.errors import (
    ArgumentError,
    CapacityError,
    DomainMismatchError,
    OutOfDomainError,
)
from fdcop.model import QuadraticBinaryUtility
from fdcop.piecewise import BestResponse, Response, ResponseKind, Unary, argmax_unary

from conftest import piece_by_scan


def single(var, lo, hi, c2=0.0, c1=0.0, c0=0.0):
    return Unary(var, ((lo, hi, c2, c1, c0),))


def value_at(f, v):
    _, _, c2, c1, c0 = f.piece_at(v)
    return c2 * v * v + c1 * v + c0


def random_quadratic(rng, x, y, lo=-5.0, hi=5.0):
    """f(x, y) with x^2, x, y^2, y, xy and constant coefficients drawn in
    that order."""
    a, b, c, d, e, f0 = (rng.uniform(lo, hi) for _ in range(6))
    return QuadraticBinaryUtility(x, y, a, b, c, d, e, f0)


def own_terms(f, lo, hi):
    """f's square and linear terms in its first variable and its constant."""
    return single(f.first_var, lo, hi, f.coeff_a, f.coeff_b, f.coeff_f0)


class TestUnary:
    def test_pieces_must_tile(self):
        with pytest.raises(ArgumentError):
            Unary("x", ((0.0, 1.0, 0.0, 0.0, 0.0), (2.0, 3.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ArgumentError):
            Unary("x", ((1.0, 0.0, 0.0, 0.0, 0.0),))
        with pytest.raises(ArgumentError):
            Unary("x", ())

    def test_domain(self):
        f = Unary("x", ((0.0, 4.0, 0.0, 1.0, 0.0), (4.0, 10.0, 0.0, 1.0, 0.0)))
        assert f.domain == (0.0, 10.0)


class TestAdd:
    def test_atomic_range_refinement(self):
        # breakpoints {0,6,10} and {0,3,10} refine to [0,3], [3,6], [6,10]
        rng = random.Random(3)

        def draw(cuts):
            return Unary("x", tuple((lo, hi, rng.uniform(-5, 5), rng.uniform(-5, 5),
                                     rng.uniform(-5, 5))
                                    for lo, hi in zip(cuts, cuts[1:])))

        f, g = draw([0.0, 6.0, 10.0]), draw([0.0, 3.0, 10.0])
        s = piecewise.add(f, g)
        assert [p[:2] for p in s.pieces] == [(0.0, 3.0), (3.0, 6.0), (6.0, 10.0)]
        assert s.domain == (0.0, 10.0)
        for _ in range(200):
            v = rng.uniform(0, 10)
            assert value_at(s, v) == pytest.approx(value_at(f, v) + value_at(g, v), abs=1e-9)

    def test_left_operand_added_first(self):
        f = single("x", 0.0, 1.0, 1.0, 2.0, 3.0)
        g = single("x", 0.0, 1.0, 0.5, 0.25, 0.125)
        assert piecewise.add(f, g).pieces == ((0.0, 1.0, 1.0 + 0.5, 2.0 + 0.25, 3.0 + 0.125),)

    def test_additive_identity(self):
        f = single("x", 0.0, 5.0, -1.0, 2.0)
        s = piecewise.add(f, single("x", 0.0, 5.0))
        assert s.pieces == f.pieces

    def test_pointwise_oracle(self):
        rng = random.Random(11)
        f = single("x", 0.0, 1.0, *(rng.uniform(-5, 5) for _ in range(3)))
        g = single("x", 0.0, 1.0, *(rng.uniform(-5, 5) for _ in range(3)))
        s = piecewise.add(f, g)
        for _ in range(1000):
            v = rng.random()
            assert value_at(s, v) == pytest.approx(value_at(f, v) + value_at(g, v), abs=1e-9)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            piecewise.add(single("x", 0.0, 1.0, c1=1.0), single("x", 0.0, 2.0, c1=1.0))

    def test_variable_mismatch(self):
        with pytest.raises(ArgumentError):
            piecewise.add(single("x", 0.0, 1.0), single("y", 0.0, 1.0))

    def test_piece_cap(self, monkeypatch):
        monkeypatch.setattr(piecewise, "PIECE_CAP", 10)
        f = Unary("x", tuple((float(i), float(i + 1), 0.0, 0.0, 0.0) for i in range(49)))
        with pytest.raises(CapacityError, match=r"addition would create 49 pieces \(cap 10\)"):
            piecewise.add(f, f)


class TestProject:
    def test_interior_critical_dominates(self):
        # f(x,y) = -x^2 + 2xy + y on [0,10]^2: maximizer x = y, value y^2 + y
        f = QuadraticBinaryUtility("x", "y", -1.0, 0.0, 0.0, 1.0, 2.0)
        g, responses = piecewise.project(own_terms(f, 0.0, 10.0), f, (0.0, 10.0))
        assert g.var == "y"
        assert len(g.pieces) == 1
        _, _, c2, c1, _ = g.pieces[0]
        assert c2 == pytest.approx(1.0)
        assert c1 == pytest.approx(1.0)
        resp = responses.at(5.0)
        assert resp.kind is ResponseKind.AFFINE
        assert resp.value(5.0) == pytest.approx(5.0)

    def test_affine_substitution(self):
        # -x^2 + 2x + 4xy is maximized at x = 2y + 1, inside x's domain for
        # y in [0, 1]; substituting gives (2y + 1)^2 = 4y^2 + 4y + 1 exactly
        f = QuadraticBinaryUtility("x", "y", -1.0, 2.0, 0.0, 0.0, 4.0)
        g, responses = piecewise.project(own_terms(f, -100.0, 100.0), f, (0.0, 1.0))
        assert g.pieces == ((0.0, 1.0, 4.0, 4.0, 1.0),)
        assert responses.entries == ((0.0, 1.0, Response(ResponseKind.AFFINE, 2.0, 1.0)),)

    def test_endpoint_substitution(self):
        # 3xy + y with x in [0, 2] and y in [1, 2]: x = 2 wins, giving 7y
        f = QuadraticBinaryUtility("x", "y", 0.0, 0.0, 0.0, 1.0, 3.0)
        g, responses = piecewise.project(own_terms(f, 0.0, 2.0), f, (1.0, 2.0))
        assert g.pieces == ((1.0, 2.0, 0.0, 7.0, 0.0),)
        assert responses.at(1.5) == Response(ResponseKind.UPPER_BOUND, 0.0, 2.0)

    def test_linear_maximizes_at_upper_bound(self):
        f = QuadraticBinaryUtility("x", "y", 0.0, 1.0, 0.0, 1.0, 0.0)
        g, responses = piecewise.project(own_terms(f, -5.0, 5.0), f, (0.0, 1.0))
        assert value_at(g, 0.5) == pytest.approx(5.5)
        assert responses.at(0.5).kind is ResponseKind.UPPER_BOUND

    def test_convex_endpoint_dominance(self):
        # f(x,y) = x^2 on x in [-1,2]: max is 4 at the upper bound
        f = QuadraticBinaryUtility("x", "y", 1.0, 0.0, 0.0, 0.0, 0.0)
        g, responses = piecewise.project(own_terms(f, -1.0, 2.0), f, (0.0, 1.0))
        assert value_at(g, 0.3) == pytest.approx(4.0)
        assert responses.at(0.3).kind is ResponseKind.UPPER_BOUND

    def test_projection_sampling_oracle(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_quadratic(rng, "x", "y")
            g, responses = piecewise.project(own_terms(f, 0.0, 10.0), f, (0.0, 10.0))
            assert g.domain == (0.0, 10.0)
            # the 1e-3 grid on [0, 10]; f.evaluate broadcasts over it
            xs = np.arange(10001) * 0.001
            for _ in range(50):
                y = rng.uniform(0.0, 10.0)
                grid_max = float(f.evaluate(xs, y).max())
                proj = value_at(g, y)
                assert proj >= grid_max - 1e-9
                assert proj <= grid_max + 1.0  # grid is 1e-3 fine
                # best-response consistency
                x_star = responses.at(y).value(y)
                assert f.evaluate(x_star, y) == pytest.approx(proj, abs=1e-9)

    def test_projected_dominates_endpoints(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_quadratic(rng, "x", "y")
            g, _ = piecewise.project(own_terms(f, -3.0, 3.0), f, (-3.0, 3.0))
            for _ in range(100):
                y = rng.uniform(-3.0, 3.0)
                proj = value_at(g, y)
                for x in (-3.0, 3.0):
                    assert proj >= f.evaluate(x, y) - 1e-9

    def test_second_variable_eliminated(self):
        # the same function with the scope swapped projects onto the same y
        f = QuadraticBinaryUtility("x", "y", -1.0, 0.0, 0.0, 1.0, 2.0)
        swapped = QuadraticBinaryUtility("y", "x", 0.0, 1.0, -1.0, 0.0, 2.0)
        own = single("x", 0.0, 10.0, -1.0)
        assert (piecewise.project(own, f, (0.0, 10.0))
                == piecewise.project(own, swapped, (0.0, 10.0)))

    def test_missing_variable(self):
        f = QuadraticBinaryUtility("x", "y", 0.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ArgumentError):
            piecewise.project(single("z", 0.0, 1.0, c1=1.0), f, (0.0, 1.0))

    def test_piece_cap(self, monkeypatch):
        monkeypatch.setattr(piecewise, "PIECE_CAP", 1)
        # a convex x: both endpoints win on part of y, so two pieces
        f = QuadraticBinaryUtility("x", "y", 1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(CapacityError, match=r"projection produced 2 pieces \(cap 1\)"):
            piecewise.project(own_terms(f, -1.0, 1.0), f, (-2.0, 2.0))


# piece ends: signed zeros, a tie between two of them, and extremes
ENDS = st.sampled_from([-1e308, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e308])


class TestEvaluate:
    def test_constant(self):
        f = single("x", 0.0, 1.0, c0=5.0)
        assert f.piece_at(0.25) == (0.0, 1.0, 0.0, 0.0, 5.0)
        assert value_at(f, 0.25) == 5.0

    def test_boundary_tie_deterministic(self):
        f = Unary("x", ((0.0, 4.0, 0.0, 1.0, 0.0), (4.0, 10.0, 0.0, 1.0, 0.0)))
        assert f.piece_at(4.0)[:2] == (0.0, 4.0)  # the first piece
        assert value_at(f, 4.0) == 4.0

    def test_out_of_domain(self):
        assert single("x", 0.0, 1.0, c1=1.0).piece_at(2.0) is None

    @given(ends=st.lists(ENDS, min_size=2, max_size=9),
           queries=st.lists(st.one_of(ENDS, st.floats()), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_piece_at_finds_the_first_piece_a_scan_finds(self, ends, queries):
        # repeated ends make zero-width pieces, and neighbours share an end;
        # each piece is told apart by its own c0
        ends = sorted(ends)
        f = Unary("x", tuple((lo, hi, 0.0, 0.0, float(i))
                             for i, (lo, hi) in enumerate(zip(ends, ends[1:]))))
        for v in [*ends, *queries, -math.inf, math.inf, math.nan]:
            assert f.piece_at(v) == piece_by_scan(f, v), v

    def test_best_response_snaps_and_refuses(self):
        resp = Response(ResponseKind.LOWER_BOUND, 0.0, 1.0)
        responses = BestResponse(((0.0, 1.0, resp),))
        assert responses.at(1.0 + 1e-10) is resp
        with pytest.raises(OutOfDomainError):
            responses.at(2.0)


class TestArgmaxUnary:
    def test_concave_vertex(self):
        # -(y-3)^2 = -y^2 + 6y - 9
        f = single("y", 0.0, 10.0, -1.0, 6.0, -9.0)
        assert argmax_unary(f) == (pytest.approx(3.0), pytest.approx(0.0))

    def test_monotone(self):
        assert argmax_unary(single("y", 0.0, 10.0, c1=1.0)) == (10.0, 10.0)

    def test_tie_breaks_to_smallest_value(self):
        f = Unary("y", ((0.0, 1.0, 1.0, 0.0, 0.0), (1.0, 2.0, 0.0, -1.0, 2.0)))
        value, utility = argmax_unary(f)
        assert (value, utility) == (1.0, 1.0)

    def test_nan_everywhere_takes_the_first_candidate(self):
        # as when every candidate's utility overflows: no comparison succeeds
        nan = float("nan")
        f = Unary("y", ((0.0, 1.0, -1.0, 1.0, nan), (1.0, 2.0, 0.0, 1.0, nan)))
        value, utility = argmax_unary(f)
        assert value == 0.0
        assert math.isnan(utility)
