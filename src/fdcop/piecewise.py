"""Exact calculus of piecewise degree-<=2 polynomials over axis-aligned boxes.

Supports addition with atomic-range refinement, closed-form projection
(maximization over one variable), evaluation, and unary argmax. Functions are
immutable; every operation returns a new value.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ArgumentError,
    CapacityError,
    DomainMismatchError,
    ExactProjectionUnsupportedError,
    OutOfDomainError,
)

DEFAULT_PIECE_CAP = 100_000

# roots this close to an interval endpoint snap onto it, avoiding sliver pieces
SNAP_EPS = 1e-9

Interval = tuple[float, float]
Monomial = tuple[str, ...]


@dataclass(frozen=True)
class Poly2:
    """Polynomial of total degree <= 2 over named variables.

    Coefficients are keyed by sorted monomial tuples: () for the constant,
    (v,) linear, (v, v) square, (v, w) cross.
    """

    coeffs: dict[Monomial, float]

    @staticmethod
    def constant(c: float) -> Poly2:
        return Poly2({(): c} if c != 0.0 else {})

    @staticmethod
    def zero() -> Poly2:
        return Poly2({})

    def coefficient(self, mono: Monomial) -> float:
        return self.coeffs.get(tuple(sorted(mono)), 0.0)

    def variables(self) -> set[str]:
        return {v for mono in self.coeffs for v in mono}

    def add(self, other: Poly2) -> Poly2:
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, 0.0) + c
        return Poly2({m: c for m, c in out.items() if c != 0.0})

    def evaluate(self, point: dict[str, float]) -> float:
        total = 0.0
        for mono, c in sorted(self.coeffs.items()):
            term = c
            for v in mono:
                term *= point[v]
            total += term
        return total

    def substitute(self, var: str, slope: float, intercept: float,
                   new_var: str | None = None) -> Poly2:
        """Replace `var` with slope*new_var + intercept (affine, degree-safe)."""
        out: dict[Monomial, float] = {}

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
            occurrences = len(mono) - len(others)
            if occurrences == 1:
                if slope != 0.0 and new_var is not None:
                    bump(others + (new_var,), c * slope)
                bump(others, c * intercept)
            else:  # var squared
                if slope != 0.0 and new_var is not None:
                    bump((new_var, new_var), c * slope * slope)
                    bump((new_var,), 2.0 * c * slope * intercept)
                bump((), c * intercept * intercept)
        return Poly2({m: c for m, c in out.items() if c != 0.0})


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box: ordered map variable -> [lo, hi]."""

    ranges: dict[str, Interval]

    def __post_init__(self):
        for var, (lo, hi) in self.ranges.items():
            if lo > hi:
                raise ArgumentError(f"empty range [{lo}, {hi}] for {var!r}")

    def contains(self, point: dict[str, float], tol: float = 0.0) -> bool:
        return all(lo - tol <= point[v] <= hi + tol for v, (lo, hi) in self.ranges.items())

    def corner_key(self) -> tuple:
        return tuple(self.ranges[v] for v in sorted(self.ranges))


class ResponseKind(Enum):
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"
    AFFINE = "affine"


@dataclass(frozen=True)
class Response:
    """Maximizer of the eliminated variable as an affine expression of the
    remaining one; endpoint responses carry slope 0."""

    kind: ResponseKind
    slope: float
    intercept: float

    def value(self, remaining_value: float = 0.0) -> float:
        return self.slope * remaining_value + self.intercept


@dataclass(frozen=True)
class BestResponse:
    """Per projected piece, the winning maximizer expression."""

    entries: tuple[tuple[Box, Response], ...]

    def at(self, point: dict[str, float]) -> Response:
        for box, resp in self.entries:
            if box.contains(point, tol=SNAP_EPS):
                return resp
        raise OutOfDomainError(f"no best-response piece covers {point}")


@dataclass(frozen=True)
class PiecewiseFunction:
    variables: tuple[str, ...]
    pieces: tuple[tuple[Box, Poly2], ...]
    domain_box: Box

    @staticmethod
    def make(variables, pieces, domain_box) -> PiecewiseFunction:
        ordered = tuple(sorted(pieces, key=lambda p: p[0].corner_key()))
        return PiecewiseFunction(tuple(sorted(variables)), ordered, domain_box)

    @staticmethod
    def from_polynomial(poly: Poly2, domain_box: Box) -> PiecewiseFunction:
        variables = tuple(sorted(domain_box.ranges))
        return PiecewiseFunction(variables, ((domain_box, poly),), domain_box)

    def piece_at(self, point: dict[str, float], tol: float = 0.0):
        """First piece (canonical order) whose box contains the point."""
        for box, poly in self.pieces:
            if box.contains(point, tol=tol):
                return box, poly
        return None

    def breakpoints(self, var: str) -> list[float]:
        values = set()
        for box, _ in self.pieces:
            lo, hi = box.ranges[var]
            values.add(lo)
            values.add(hi)
        return sorted(values)


def add(f: PiecewiseFunction, g: PiecewiseFunction,
        piece_cap: int = DEFAULT_PIECE_CAP) -> PiecewiseFunction:
    """Sum of two piecewise functions over the union variable set.

    Shared variables are refined to the union of both functions' breakpoints
    (their atomic ranges); result pieces are the Cartesian product of the
    refined per-variable ranges.
    """
    for var in set(f.variables) & set(g.variables):
        if f.domain_box.ranges[var] != g.domain_box.ranges[var]:
            raise DomainMismatchError(
                f"shared variable {var!r} has domain {f.domain_box.ranges[var]} "
                f"in one operand and {g.domain_box.ranges[var]} in the other"
            )
    variables = sorted(set(f.variables) | set(g.variables))
    cuts: dict[str, list[float]] = {}
    for var in variables:
        values: set[float] = set()
        if var in f.variables:
            values.update(f.breakpoints(var))
        if var in g.variables:
            values.update(g.breakpoints(var))
        cuts[var] = sorted(values)

    count = 1
    for var in variables:
        count *= max(1, len(cuts[var]) - 1)
    if count > piece_cap:
        raise CapacityError(f"addition would create {count} pieces (cap {piece_cap})")

    pieces = []
    axes = [list(itertools.pairwise(cuts[var])) for var in variables]
    for cell in itertools.product(*axes):
        box = Box({var: rng for var, rng in zip(variables, cell)})
        mid = {var: 0.5 * (rng[0] + rng[1]) for var, rng in zip(variables, cell)}
        fp = f.piece_at({v: mid[v] for v in f.variables})
        gp = g.piece_at({v: mid[v] for v in g.variables})
        if fp is None or gp is None:
            raise OutOfDomainError("operand does not cover a refined cell")
        pieces.append((box, fp[1].add(gp[1])))
    domain = Box({var: (cuts[var][0], cuts[var][-1]) for var in variables})
    return PiecewiseFunction.make(variables, pieces, domain)


def evaluate(f: PiecewiseFunction, point: dict[str, float]) -> float:
    """Evaluate at a point inside the domain box; boundary ties resolve to the
    canonically first piece."""
    if not f.domain_box.contains(point):
        raise OutOfDomainError(f"{point} lies outside {f.domain_box}")
    located = f.piece_at(point)
    if located is None:
        raise OutOfDomainError(f"no piece covers {point}")
    return located[1].evaluate(point)


@dataclass(frozen=True)
class _Candidate:
    lo: float
    hi: float
    poly: Poly2  # unary in the remaining variable
    response: Response
    order: tuple  # deterministic tie-break


def _quadratic_roots(c2: float, c1: float, c0: float) -> list[float]:
    if c2 == 0.0:
        if c1 == 0.0:
            return []
        return [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    return [(-c1 - s) / (2.0 * c2), (-c1 + s) / (2.0 * c2)]


def _unary_coeffs(poly: Poly2, var: str) -> tuple[float, float, float]:
    return (poly.coefficient((var, var)), poly.coefficient((var,)), poly.coefficient(()))


def _critical_feasible_range(slope: float, intercept: float,
                             xl: float, xh: float,
                             yl: float, yh: float) -> Interval | None:
    """y-range where xl <= slope*y + intercept <= xh, intersected with [yl, yh]."""
    if slope == 0.0:
        return (yl, yh) if xl - SNAP_EPS <= intercept <= xh + SNAP_EPS else None
    a = (xl - intercept) / slope
    b = (xh - intercept) / slope
    lo, hi = (a, b) if a <= b else (b, a)
    lo, hi = max(lo, yl), min(hi, yh)
    if hi - lo <= SNAP_EPS:
        return None
    return (lo, hi)


def _envelope(candidates: list[_Candidate], yl: float, yh: float, var: str):
    """Upper envelope of quadratic candidates over [yl, yh].

    Returns a list of (lo, hi, poly, response) with the pointwise-largest
    candidate on each subinterval.
    """
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
    # snap near-coincident cut points together
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


def project(f: PiecewiseFunction, var: str,
            piece_cap: int = DEFAULT_PIECE_CAP) -> tuple[PiecewiseFunction, BestResponse]:
    """Maximize f over `var`, returning the projected function and the
    closed-form best responses of the eliminated variable.

    Per piece the candidates are the two endpoint substitutions plus, when
    the piece is concave in `var`, the interior critical point; the result on
    each refined interval of the remaining variable is their upper envelope.
    """
    if var not in f.variables:
        raise ArgumentError(f"{var!r} is not a variable of this function")
    remaining = [v for v in f.variables if v != var]
    if len(remaining) >= 2:
        raise ExactProjectionUnsupportedError(
            f"exact projection supports at most one remaining variable, "
            f"got {len(remaining)} ({remaining})"
        )

    if not remaining:
        value, utility = argmax_unary(f)
        box = Box({})
        resp = Response(ResponseKind.AFFINE, 0.0, value)
        projected = PiecewiseFunction((), ((box, Poly2.constant(utility)),), box)
        return projected, BestResponse(((box, resp),))

    y = remaining[0]
    ybks = f.breakpoints(y)
    out_pieces = []
    out_responses = []
    for yl, yh in itertools.pairwise(ybks):
        ymid = 0.5 * (yl + yh)
        candidates: list[_Candidate] = []
        for idx, (box, poly) in enumerate(f.pieces):
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
                Response(ResponseKind.LOWER_BOUND, 0.0, xl), (idx, 0)))
            candidates.append(_Candidate(
                yl, yh, poly.substitute(var, 0.0, xh, y),
                Response(ResponseKind.UPPER_BOUND, 0.0, xh), (idx, 1)))
            if A < 0.0:
                slope = -E / (2.0 * A)
                intercept = -B / (2.0 * A)
                feasible = _critical_feasible_range(slope, intercept, xl, xh, yl, yh)
                if feasible is not None:
                    candidates.append(_Candidate(
                        feasible[0], feasible[1],
                        poly.substitute(var, slope, intercept, y),
                        Response(ResponseKind.AFFINE, slope, intercept), (idx, 2)))
        if not candidates:
            raise OutOfDomainError(f"no piece covers {y} in [{yl}, {yh}]")
        for lo, hi, poly, resp in _envelope(candidates, yl, yh, y):
            out_pieces.append((Box({y: (lo, hi)}), poly))
            out_responses.append((Box({y: (lo, hi)}), resp))

    # merge equal neighbors across the outer y-interval seams
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


def argmax_unary(f: PiecewiseFunction) -> tuple[float, float]:
    """Global maximizer of a one-variable piecewise function; ties go to the
    smallest value."""
    if len(f.variables) != 1:
        raise ArgumentError(f"argmax_unary needs a unary function, got {f.variables}")
    var = f.variables[0]
    best_val = None
    best_util = -math.inf
    for box, poly in f.pieces:
        lo, hi = box.ranges[var]
        c2, c1, _ = _unary_coeffs(poly, var)
        points = [lo, hi]
        if c2 < 0.0:
            vertex = -c1 / (2.0 * c2)
            if lo < vertex < hi:
                points.append(vertex)
        for p in points:
            u = poly.evaluate({var: p})
            if u > best_util or (u == best_util and (best_val is None or p < best_val)):
                best_util = u
                best_val = p
    return best_val, best_util


def partition_is_valid(f: PiecewiseFunction, tol: float = 1e-12) -> bool:
    """Interval-sweep audit: pieces tile the domain box with disjoint interiors."""
    if not f.variables:
        return len(f.pieces) == 1
    cuts = {var: sorted(set(f.breakpoints(var))) for var in f.variables}
    for var in f.variables:
        dlo, dhi = f.domain_box.ranges[var]
        if abs(cuts[var][0] - dlo) > tol or abs(cuts[var][-1] - dhi) > tol:
            return False
    axes = [list(itertools.pairwise(cuts[var])) for var in f.variables]
    for cell in itertools.product(*axes):
        mid = {var: 0.5 * (rng[0] + rng[1]) for var, rng in zip(f.variables, cell)}
        covering = [box for box, _ in f.pieces if box.contains(mid)]
        if len(covering) != 1:
            return False
    return True
