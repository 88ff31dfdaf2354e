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


def _unary_substitute(poly: Poly2, var: str, slope: float,
                      intercept: float) -> tuple[float, float, float]:
    """(c2, c1, c0) in the other variable y of a two-variable polynomial with
    `var` replaced by slope*y + intercept: the coefficients of
    `poly.substitute(var, slope, intercept, y)`, from the same nonzero
    products added in the same order."""
    acc = [0.0, 0.0, 0.0]  # by degree in y

    def bump(degree, c):
        if c != 0.0:
            acc[degree] += c

    for mono, c in poly.coeffs.items():
        occurrences = mono.count(var)
        degree = len(mono) - occurrences
        if occurrences == 0:
            bump(degree, c)
        elif occurrences == 1:
            if slope != 0.0:
                bump(degree + 1, c * slope)
            bump(degree, c * intercept)
        else:  # var squared
            if slope != 0.0:
                bump(2, c * slope * slope)
                bump(1, 2.0 * c * slope * intercept)
            bump(0, c * intercept * intercept)
    return acc[2], acc[1], acc[0]


def _unary_value(coeffs: tuple[float, float, float], y: float) -> float:
    """c2*y^2 + c1*y + c0, summed term by term as `Poly2.evaluate` does."""
    c2, c1, c0 = coeffs
    total = 0.0
    if c0 != 0.0:
        total += c0
    if c1 != 0.0:
        total += c1 * y
    if c2 != 0.0:
        total += c2 * y * y
    return total


def _envelope(candidates: list[tuple], yl: float, yh: float) -> list[tuple]:
    """Upper envelope of quadratic candidates over [yl, yh].

    A candidate is plain data: (lo, hi, (c2, c1, c0) in the remaining
    variable, (poly, slope, intercept) that rebuilds it as a Poly2, (kind,
    slope, intercept) of the eliminated variable's response). Returns the
    pointwise-largest candidate on each subinterval, with lo and hi narrowed
    to it; equal neighbours are merged.
    """
    cuts = {yl, yh}
    for lo, hi, *_ in candidates:
        for v in (lo, hi):
            if yl < v < yh:
                cuts.add(v)
    for ca, cb in itertools.combinations(candidates, 2):
        lo = max(ca[0], cb[0])
        hi = min(ca[1], cb[1])
        if hi - lo <= 0.0:
            continue
        (a2, a1, a0), (b2, b1, b0) = ca[2], cb[2]
        for root in _quadratic_roots(a2 + -b2, a1 + -b1, a0 + -b0):
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

    out: list[tuple] = []
    for lo, hi in itertools.pairwise(merged):
        mid = 0.5 * (lo + hi)
        best = best_val = None
        for c in candidates:
            if c[0] - SNAP_EPS <= lo and hi <= c[1] + SNAP_EPS:
                val = _unary_value(c[2], mid)
                if best is None or val > best_val:
                    best, best_val = c, val
        if best is None:
            raise OutOfDomainError(f"no projection candidate covers [{lo}, {hi}]")
        if out and out[-1][2] == best[2] and out[-1][4] == best[4]:
            out[-1] = (out[-1][0], hi) + out[-1][2:]
        else:
            out.append((lo, hi) + best[2:])
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
    square, linear, cross = (var, var), (var,), tuple(sorted((var, y)))
    ybks = f.breakpoints(y)
    segments: list[tuple] = []
    for yl, yh in itertools.pairwise(ybks):
        ymid = 0.5 * (yl + yh)
        candidates: list[tuple] = []
        for box, poly in f.pieces:
            blo, bhi = box.ranges[y]
            if not (blo - SNAP_EPS <= yl and yh <= bhi + SNAP_EPS):
                if not (blo <= ymid <= bhi):
                    continue
            xl, xh = box.ranges[var]
            candidates.append((yl, yh, _unary_substitute(poly, var, 0.0, xl),
                               (poly, 0.0, xl), (ResponseKind.LOWER_BOUND, 0.0, xl)))
            candidates.append((yl, yh, _unary_substitute(poly, var, 0.0, xh),
                               (poly, 0.0, xh), (ResponseKind.UPPER_BOUND, 0.0, xh)))
            A = poly.coeffs.get(square, 0.0)
            if A < 0.0:
                slope = -poly.coeffs.get(cross, 0.0) / (2.0 * A)
                intercept = -poly.coeffs.get(linear, 0.0) / (2.0 * A)
                feasible = _critical_feasible_range(slope, intercept, xl, xh, yl, yh)
                if feasible is not None:
                    candidates.append((
                        *feasible, _unary_substitute(poly, var, slope, intercept),
                        (poly, slope, intercept), (ResponseKind.AFFINE, slope, intercept)))
        if not candidates:
            raise OutOfDomainError(f"no piece covers {y} in [{yl}, {yh}]")
        for seg in _envelope(candidates, yl, yh):
            # merge equal neighbors across the outer y-interval seams; the
            # later neighbour's polynomial and response are kept
            if (segments and segments[-1][2] == seg[2] and segments[-1][4] == seg[4]
                    and segments[-1][1] == seg[0]):
                segments[-1] = (segments[-1][0],) + seg[1:]
            else:
                segments.append(seg)

    if len(segments) > piece_cap:
        raise CapacityError(f"projection produced {len(segments)} pieces (cap {piece_cap})")

    pieces = []
    responses = []
    for lo, hi, _, (poly, slope, intercept), response in segments:
        box = Box({y: (lo, hi)})
        pieces.append((box, poly.substitute(var, slope, intercept, y)))
        responses.append((box, Response(*response)))
    domain = Box({y: f.domain_box.ranges[y]})
    projected = PiecewiseFunction.make((y,), pieces, domain)
    return projected, BestResponse(tuple(responses))


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
