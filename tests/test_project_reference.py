"""`piecewise.project` against a reference that forms every projection
candidate as a `Poly2` and takes their upper envelope with `Poly2`
arithmetic. The library computes the same envelope over plain float
coefficients; the two must agree to the byte (`repr`) on pieces and
responses."""
import itertools
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from fdcop import piecewise
from fdcop.errors import CapacityError, OutOfDomainError
from fdcop.piecewise import (SNAP_EPS, BestResponse, Box, PiecewiseFunction, Poly2,
                             Response, ResponseKind, _critical_feasible_range,
                             _quadratic_roots, _unary_coeffs)


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
        c2, c1, c0 = _unary_coeffs(diff, var)
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


def reference_project(f, var, piece_cap=piecewise.DEFAULT_PIECE_CAP):
    """Projection of a two-variable function onto its other variable."""
    (y,) = [v for v in f.variables if v != var]
    ybks = f.breakpoints(y)
    out_pieces = []
    out_responses = []
    for yl, yh in itertools.pairwise(ybks):
        ymid = 0.5 * (yl + yh)
        candidates = []
        for box, poly in f.pieces:
            blo, bhi = box.ranges[y]
            if not (blo - SNAP_EPS <= yl and yh <= bhi + SNAP_EPS):
                if not (blo <= ymid <= bhi):
                    continue
            xl, xh = box.ranges[var]
            A = poly.coefficient((var, var))
            B = poly.coefficient((var,))
            E = poly.coefficient(tuple(sorted((var, y))))
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
        if not candidates:
            raise OutOfDomainError(f"no piece covers {y} in [{yl}, {yh}]")
        for lo, hi, poly, resp in _reference_envelope(candidates, yl, yh, y):
            out_pieces.append((Box({y: (lo, hi)}), poly))
            out_responses.append((Box({y: (lo, hi)}), resp))

    merged_pieces = []
    merged_responses = []
    for piece, entry in zip(out_pieces, out_responses):
        if (merged_pieces
                and merged_pieces[-1][1].coeffs == piece[1].coeffs
                and merged_responses[-1][1] == entry[1]
                and merged_pieces[-1][0].ranges[y][1] == piece[0].ranges[y][0]):
            lo = merged_pieces[-1][0].ranges[y][0]
            hi = piece[0].ranges[y][1]
            merged_pieces[-1] = (Box({y: (lo, hi)}), piece[1])
            merged_responses[-1] = (Box({y: (lo, hi)}), entry[1])
        else:
            merged_pieces.append(piece)
            merged_responses.append(entry)

    if len(merged_pieces) > piece_cap:
        raise CapacityError(f"projection produced {len(merged_pieces)} pieces (cap {piece_cap})")

    domain = Box({y: f.domain_box.ranges[y]})
    projected = PiecewiseFunction.make((y,), merged_pieces, domain)
    return projected, BestResponse(tuple(merged_responses))


# Coefficients mix a few round values, so that candidates tie, cancel and
# share coefficients, with arbitrary floats; squares come out concave,
# convex or zero (linear).
COEFF = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                  st.floats(-5.0, 5.0, allow_nan=False))
MONOMIALS = [("x", "x"), ("x",), ("x", "y"), ("y", "y"), ("y",), ()]
# cut points on a coarse grid, so that different summands share cuts
CUTS = st.lists(st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]),
                max_size=3, unique=True)


@st.composite
def poly2(draw, monomials):
    coeffs = {m: draw(COEFF) for m in monomials}
    return Poly2({m: c for m, c in coeffs.items() if c != 0.0})


@st.composite
def unary_pieces(draw, var, lo, hi):
    """A function of `var` alone, one drawn quadratic per interval."""
    cuts = sorted({lo, hi, *(c for c in draw(CUTS) if lo < c < hi)})
    pieces = [(Box({var: rng}), draw(poly2([(var, var), (var,), ()])))
              for rng in itertools.pairwise(cuts)]
    return PiecewiseFunction.make((var,), pieces, Box({var: (lo, hi)}))


@st.composite
def two_variable_functions(draw):
    """A binary quadratic over a box plus unary pieces in each variable, as
    ef-dpop sums a constraint with its children's messages."""
    xlo, xhi = draw(st.sampled_from([(-2.0, 2.0), (0.0, 1.0), (-1.0, 1.5)]))
    ylo, yhi = draw(st.sampled_from([(-2.0, 2.0), (0.0, 1.0), (-0.5, 1.0)]))
    box = Box({"x": (xlo, xhi), "y": (ylo, yhi)})
    f = PiecewiseFunction.from_polynomial(draw(poly2(MONOMIALS)), box)
    for _ in range(draw(st.integers(0, 3))):
        f = piecewise.add(f, draw(unary_pieces("x", xlo, xhi)))
    for _ in range(draw(st.integers(0, 2))):
        f = piecewise.add(f, draw(unary_pieces("y", ylo, yhi)))
    return f


def outcome(project, f, var):
    try:
        return repr(project(f, var))
    except (CapacityError, OutOfDomainError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(two_variable_functions(), st.sampled_from(["x", "y"]))
def test_project_matches_reference(f, var):
    assert outcome(piecewise.project, f, var) == outcome(reference_project, f, var)


def test_reference_covers_ties_and_crossings():
    # two equal candidates (a tie) and a crossing inside the interval: the
    # envelope has several segments, and both projections agree on them
    f = PiecewiseFunction.from_polynomial(
        Poly2({("x", "x"): 1.0, ("x", "y"): 1.0}),
        Box({"x": (-1.0, 1.0), "y": (-2.0, 2.0)}))
    projected, responses = piecewise.project(f, "x")
    assert len(projected.pieces) == 2
    assert repr((projected, responses)) == repr(reference_project(f, "x"))
