"""`piecewise.project` against a reference that forms every projection
candidate as a `Poly2`, a polynomial kept as a dict of monomials, and takes
their upper envelope with `Poly2` arithmetic. The library computes the same
envelope over plain float coefficients; the two must agree to the byte
(`float.hex`) on pieces and responses."""
import itertools
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from fdcop import piecewise
from fdcop.engines.efdpop import utility_as_piecewise
from fdcop.errors import CapacityError, OutOfDomainError
from fdcop.model import ContinuousDomain, QuadraticBinaryUtility
from fdcop.piecewise import (SNAP_EPS, Response, ResponseKind, Unary,
                             _critical_feasible_range, _quadratic_roots)


@dataclass(frozen=True)
class Poly2:
    """Polynomial of total degree <= 2 over named variables; coefficients
    keyed by sorted monomial tuples, () constant, (v,) linear, (v, v)
    square, (v, w) cross. Zero coefficients are absent."""

    coeffs: dict

    def coefficient(self, mono):
        return self.coeffs.get(tuple(sorted(mono)), 0.0)

    def add(self, other):
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0.0) + c
        return Poly2({m: c for m, c in out.items() if c != 0.0})

    def evaluate(self, point):
        total = 0.0
        for mono, c in sorted(self.coeffs.items()):
            term = c
            for v in mono:
                term *= point[v]
            total += term
        return total

    def substitute(self, var, slope, intercept, new_var):
        """Replace `var` with slope*new_var + intercept."""
        out = {}

        def bump(mono, c):
            if c == 0.0:
                return
            key = tuple(sorted(mono))
            out[key] = out.get(key, 0.0) + c

        for mono, c in self.coeffs.items():
            if var not in mono:
                bump(mono, c)
                continue
            others = tuple(v for v in mono if v != var)
            if len(mono) - len(others) == 1:
                if slope != 0.0:
                    bump(others + (new_var,), c * slope)
                bump(others, c * intercept)
            else:  # var squared
                if slope != 0.0:
                    bump((new_var, new_var), c * slope * slope)
                    bump((new_var,), 2.0 * c * slope * intercept)
                bump((), c * intercept * intercept)
        return Poly2({m: c for m, c in out.items() if c != 0.0})


@dataclass(frozen=True)
class _Candidate:
    lo: float
    hi: float
    poly: Poly2  # unary in the remaining variable
    response: Response


def _reference_envelope(candidates, yl, yh, var):
    cuts = {yl, yh}
    for c in candidates:
        for v in (c.lo, c.hi):
            if yl < v < yh:
                cuts.add(v)
    for ca, cb in itertools.combinations(candidates, 2):
        lo = max(ca.lo, cb.lo)
        hi = min(ca.hi, cb.hi)
        if hi - lo <= 0.0:
            continue
        diff = ca.poly.add(Poly2({m: -c for m, c in cb.poly.coeffs.items()}))
        c2, c1, c0 = (diff.coefficient((var, var)), diff.coefficient((var,)),
                      diff.coefficient(()))
        for root in _quadratic_roots(c2, c1, c0):
            if lo < root < hi:
                cuts.add(root)
    points = sorted(cuts)
    merged = [points[0]]
    for p in points[1:]:
        if p - merged[-1] > SNAP_EPS:
            merged.append(p)
    if merged[-1] != yh:
        merged[-1] = yh

    segments = []
    for lo, hi in itertools.pairwise(merged):
        mid = 0.5 * (lo + hi)
        active = [c for c in candidates
                  if c.lo - SNAP_EPS <= lo and hi <= c.hi + SNAP_EPS]
        if not active:
            raise OutOfDomainError(f"no projection candidate covers [{lo}, {hi}]")
        best = active[0]
        best_val = best.poly.evaluate({var: mid})
        for c in active[1:]:
            val = c.poly.evaluate({var: mid})
            if val > best_val:
                best, best_val = c, val
        segments.append((lo, hi, best.poly, best.response))

    out = []
    for seg in segments:
        if out and out[-1][2].coeffs == seg[2].coeffs and out[-1][3] == seg[3]:
            prev = out.pop()
            out.append((prev[0], seg[1], prev[2], prev[3]))
        else:
            out.append(seg)
    return out


def piece_polynomial(piece, var, f):
    """One piece of `own` in `var` plus f's remaining terms as a Poly2 in f's
    term order: first variable's square and linear, second's, cross,
    constant."""
    _, _, a2, a1, a0 = piece
    x1, x2 = f.first_var, f.second_var
    own_first = var == x1
    terms = [((x1, x1), a2 if own_first else f.coeff_a),
             ((x1,), a1 if own_first else f.coeff_b),
             ((x2, x2), f.coeff_c if own_first else a2),
             ((x2,), f.coeff_d if own_first else a1),
             (tuple(sorted((x1, x2))), f.coeff_e),
             ((), a0)]
    return Poly2({m: c for m, c in terms if c != 0.0})


def reference_project(own, f, other_domain, piece_cap=piecewise.PIECE_CAP):
    """Projection of own + f's remaining terms onto f's other variable."""
    var = own.var
    y = f.other_var(var)
    yl, yh = other_domain
    candidates = []
    for piece in own.pieces:
        xl, xh = piece[0], piece[1]
        poly = piece_polynomial(piece, var, f)
        A = poly.coefficient((var, var))
        B = poly.coefficient((var,))
        E = poly.coefficient((var, y))
        candidates.append(_Candidate(
            yl, yh, poly.substitute(var, 0.0, xl, y),
            Response(ResponseKind.LOWER_BOUND, 0.0, xl)))
        candidates.append(_Candidate(
            yl, yh, poly.substitute(var, 0.0, xh, y),
            Response(ResponseKind.UPPER_BOUND, 0.0, xh)))
        if A < 0.0:
            slope = -E / (2.0 * A)
            intercept = -B / (2.0 * A)
            feasible = _critical_feasible_range(slope, intercept, xl, xh, yl, yh)
            if feasible is not None:
                candidates.append(_Candidate(
                    feasible[0], feasible[1],
                    poly.substitute(var, slope, intercept, y),
                    Response(ResponseKind.AFFINE, slope, intercept)))
    segments = _reference_envelope(candidates, yl, yh, y)
    if len(segments) > piece_cap:
        raise CapacityError(f"projection produced {len(segments)} pieces (cap {piece_cap})")
    return y, [(lo, hi, poly.coefficient((y, y)), poly.coefficient((y,)),
                poly.coefficient(()), resp) for lo, hi, poly, resp in segments]


def hexed(var, segments):
    """The variable, then every piece's bounds, coefficients and response."""
    out = [var]
    for lo, hi, c2, c1, c0, resp in segments:
        out += [float.hex(v) for v in (lo, hi, c2, c1, c0)]
        out += [resp.kind.value, float.hex(resp.slope), float.hex(resp.intercept)]
    return out


def library_outcome(own, f, other_domain):
    try:
        projected, responses = piecewise.project(own, f, other_domain)
    except (CapacityError, OutOfDomainError) as exc:
        return f"{type(exc).__name__}: {exc}"
    assert [e[:2] for e in responses.entries] == [p[:2] for p in projected.pieces]
    return hexed(projected.var, [p + (e[2],) for p, e in
                                 zip(projected.pieces, responses.entries)])


def reference_outcome(own, f, other_domain):
    try:
        return hexed(*reference_project(own, f, other_domain))
    except (CapacityError, OutOfDomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


# Coefficients mix a few round values, so that candidates tie, cancel and
# share coefficients, with arbitrary floats; squares come out concave,
# convex or zero (linear).
COEFF = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                  st.floats(-5.0, 5.0, allow_nan=False))
# cut points on a coarse grid, so that different summands share cuts
CUTS = st.lists(st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
                max_size=3, unique=True)


@st.composite
def unary_pieces(draw, var, lo, hi):
    """A child's message to `var`: one drawn quadratic per interval."""
    cuts = sorted({lo, hi, *(c for c in draw(CUTS) if lo < c < hi)})
    return Unary(var, tuple((a, b, draw(COEFF), draw(COEFF), draw(COEFF))
                            for a, b in itertools.pairwise(cuts)))


@st.composite
def projections(draw):
    """What ef-dpop projects: a binary quadratic between x and y, with x
    first or second, and x's own terms summed with children's messages."""
    xlo, xhi = draw(st.sampled_from([(-2.0, 2.0), (0.0, 1.0), (-1.0, 1.5)]))
    ylo, yhi = draw(st.sampled_from([(-2.0, 2.0), (0.0, 1.0), (-0.5, 1.0)]))
    scope = draw(st.sampled_from([("x", "y"), ("y", "x")]))
    f = QuadraticBinaryUtility(*scope, *(draw(COEFF) for _ in range(6)))
    own = utility_as_piecewise(f, "x", ContinuousDomain(xlo, xhi))
    for _ in range(draw(st.integers(0, 3))):
        own = piecewise.add(own, draw(unary_pieces("x", xlo, xhi)))
    return own, f, (ylo, yhi)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(projections())
def test_project_matches_reference(case):
    assert library_outcome(*case) == reference_outcome(*case)


def test_reference_covers_ties_and_crossings():
    # two equal candidates (a tie) and a crossing inside the interval: the
    # envelope has several segments, and both projections agree on them
    f = QuadraticBinaryUtility("x", "y", 1.0, 0.0, 0.0, 0.0, 1.0)
    own = utility_as_piecewise(f, "x", ContinuousDomain(-1.0, 1.0))
    projected, _ = piecewise.project(own, f, (-2.0, 2.0))
    assert len(projected.pieces) == 2
    assert library_outcome(own, f, (-2.0, 2.0)) == reference_outcome(own, f, (-2.0, 2.0))


def test_reference_follows_the_constraint_order():
    # x second: f's terms in y are summed before x's own, and here the
    # x-first order would round differently
    f = QuadraticBinaryUtility("y", "x", 0.3, 0.2, -0.3, 0.2, -1.0, -1.0)
    own = utility_as_piecewise(f, "x", ContinuousDomain(-1.0, 1.0))
    assert library_outcome(own, f, (0.0, 1.0)) == reference_outcome(own, f, (0.0, 1.0))


def test_negative_zero_terms_are_absent():
    # a -0.0 cross or linear term gives the response a +0.0 slope or
    # intercept, as an absent term does
    dom = ContinuousDomain(-2.0, 2.0)
    for f in (QuadraticBinaryUtility("x", "y", -1.0, 1.0, 0.0, 0.0, -0.0),
              QuadraticBinaryUtility("x", "y", -1.0, -0.0, 0.0, 0.0, 1.0)):
        own = utility_as_piecewise(f, "x", dom)
        assert library_outcome(own, f, (0.0, 1.0)) == reference_outcome(own, f, (0.0, 1.0))
