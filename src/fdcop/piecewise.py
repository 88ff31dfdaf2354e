"""Exact calculus of ef-dpop's messages: piecewise quadratics in one variable.

A `Unary` is a function of one variable, a sorted tuple of pieces
`(lo, hi, c2, c1, c0)` meaning c2*v^2 + c1*v + c0 on [lo, hi]. On a tree of
binary quadratic utilities every UTIL message is one: an agent `add`s its
children's messages to the own-variable terms of the constraint with its
parent, then `project`s the constraint's remaining terms onto the parent's
variable in closed form. Values are immutable; every operation returns a
new one.
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .errors import ArgumentError, CapacityError, DomainMismatchError, OutOfDomainError

# work guard on the pieces of one sum or projection
PIECE_CAP = 100_000

# roots this close to an interval endpoint snap onto it, avoiding sliver pieces
SNAP_EPS = 1e-9

Interval = tuple[float, float]
Piece = tuple[float, float, float, float, float]  # lo, hi, c2, c1, c0


@dataclass(frozen=True)
class Unary:
    """Piecewise quadratic in `var`; pieces are sorted by `lo` and tile their
    span."""

    var: str
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ArgumentError(f"a function of {self.var!r} needs at least one piece")
        for lo, hi, *_ in self.pieces:
            if lo > hi:
                raise ArgumentError(f"empty range [{lo}, {hi}] for {self.var!r}")
        for prev, nxt in itertools.pairwise(self.pieces):
            if prev[1] != nxt[0]:
                raise ArgumentError(f"pieces of {self.var!r} do not tile: "
                                    f"[..., {prev[1]}] then [{nxt[0]}, ...]")

    @property
    def domain(self) -> Interval:
        return self.pieces[0][0], self.pieces[-1][1]

    def piece_at(self, v: float) -> Piece | None:
        """First piece whose closed interval holds v: as the pieces tile, the
        first whose upper end is at or past v, if it starts at or before v."""
        i = bisect.bisect_left(self.pieces, v, key=operator.itemgetter(1))
        return self.pieces[i] if i < len(self.pieces) and self.pieces[i][0] <= v else None


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

    def value(self, remaining_value: float) -> float:
        return self.slope * remaining_value + self.intercept


@dataclass(frozen=True)
class BestResponse:
    """Per projected piece `(lo, hi, response)`, the winning maximizer."""

    entries: tuple[tuple[float, float, Response], ...]

    def at(self, v: float) -> Response:
        for lo, hi, resp in self.entries:
            if lo - SNAP_EPS <= v <= hi + SNAP_EPS:
                return resp
        raise OutOfDomainError(f"no best-response piece covers {v}")


def add(f: Unary, g: Unary) -> Unary:
    """Sum of two functions of the same variable, cut on the union of both
    breakpoint sets; on each cell f's coefficient is added first."""
    if f.var != g.var:
        raise ArgumentError(f"cannot add a function of {f.var!r} to one of {g.var!r}")
    if f.domain != g.domain:
        raise DomainMismatchError(
            f"shared variable {f.var!r} has domain {f.domain} "
            f"in one operand and {g.domain} in the other"
        )
    cuts = sorted({v for lo, hi, *_ in f.pieces + g.pieces for v in (lo, hi)})
    count = max(1, len(cuts) - 1)
    if count > PIECE_CAP:
        raise CapacityError(f"addition would create {count} pieces (cap {PIECE_CAP})")

    pieces = []
    for lo, hi in itertools.pairwise(cuts):
        mid = 0.5 * (lo + hi)
        fp, gp = f.piece_at(mid), g.piece_at(mid)
        if fp is None or gp is None:
            raise OutOfDomainError("operand does not cover a refined cell")
        pieces.append((lo, hi, fp[2] + gp[2], fp[3] + gp[3], fp[4] + gp[4]))
    return Unary(f.var, tuple(pieces))


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


def _substitute(terms, slope: float, intercept: float) -> tuple[float, float, float]:
    """(c2, c1, c0) in y of the sum of c * x^i * y^j over `terms` (i, j, c)
    with x replaced by slope*y + intercept. Terms with c == 0.0 and zero
    products are skipped; the rest are added in term order."""
    acc = [0.0, 0.0, 0.0]  # by degree in y

    def bump(degree, c):
        if c != 0.0:
            acc[degree] += c

    for i, j, c in terms:
        if c == 0.0:
            continue
        if i == 0:
            bump(j, c)
        elif i == 1:
            if slope != 0.0:
                bump(j + 1, c * slope)
            bump(j, c * intercept)
        else:  # x squared
            if slope != 0.0:
                bump(2, c * slope * slope)
                bump(1, 2.0 * c * slope * intercept)
            bump(0, c * intercept * intercept)
    return acc[2], acc[1], acc[0]


def _unary_value(coeffs: tuple[float, float, float], y: float) -> float:
    """c2*y^2 + c1*y + c0, summed from the constant up, zero terms skipped."""
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
    variable, (kind, slope, intercept) of the eliminated variable's
    response). Returns the pointwise-largest candidate on each subinterval,
    the first one on ties, with lo and hi narrowed to it; neighbours equal in
    both coefficients and response are merged.
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
        if out and out[-1][2] == best[2] and out[-1][3] == best[3]:
            out[-1] = (out[-1][0], hi) + out[-1][2:]
        else:
            out.append((lo, hi) + best[2:])
    return out


def project(own: Unary, constraint, other_domain: Interval) -> tuple[Unary, BestResponse]:
    """Maximize `own` plus `constraint`'s remaining terms over own's variable.

    `own` holds the constraint's own-variable terms and constant plus the
    children's messages; `constraint` is the binary quadratic between own's
    variable x and the other variable y, whose domain is `other_domain`. Per
    piece of `own` the candidates are x at its two endpoints plus, when the
    piece is concave in x, the interior critical point x(y); the result is
    their upper envelope over y, returned with the maximizer on each piece.
    Each piece's terms are summed in the order the constraint lists them.
    """
    x = own.var
    y = constraint.other_var(x)
    _, _, y_square, y_linear, cross, _ = constraint.oriented(x)
    yl, yh = other_domain
    x_first = x == constraint.first_var
    y_terms = ((0, 2, y_square), (0, 1, y_linear))
    candidates: list[tuple] = []
    for xl, xh, a2, a1, a0 in own.pieces:
        # (i, j, c) for c * x^i * y^j: first variable, second, cross, constant
        x_terms = ((2, 0, a2), (1, 0, a1))
        terms = ((x_terms + y_terms) if x_first else (y_terms + x_terms)) \
            + ((1, 1, cross), (0, 0, a0))
        candidates.append((yl, yh, _substitute(terms, 0.0, xl),
                           (ResponseKind.LOWER_BOUND, 0.0, xl)))
        candidates.append((yl, yh, _substitute(terms, 0.0, xh),
                           (ResponseKind.UPPER_BOUND, 0.0, xh)))
        if a2 < 0.0:
            # a zero term is absent, so a -0.0 cannot sign the response's zero
            slope = -cross / (2.0 * a2) if cross != 0.0 else 0.0
            intercept = -a1 / (2.0 * a2) if a1 != 0.0 else 0.0
            feasible = _critical_feasible_range(slope, intercept, xl, xh, yl, yh)
            if feasible is not None:
                candidates.append((*feasible, _substitute(terms, slope, intercept),
                                   (ResponseKind.AFFINE, slope, intercept)))

    segments = _envelope(candidates, yl, yh)
    if len(segments) > PIECE_CAP:
        raise CapacityError(f"projection produced {len(segments)} pieces (cap {PIECE_CAP})")
    projected = Unary(y, tuple((lo, hi, *coeffs) for lo, hi, coeffs, _ in segments))
    responses = BestResponse(tuple((lo, hi, Response(*resp)) for lo, hi, _, resp in segments))
    return projected, responses


def argmax_unary(f: Unary) -> tuple[float, float]:
    """Global maximizer of a one-variable piecewise function and its value;
    ties go to the smallest value. When no candidate compares (all values
    NaN) the first candidate, f's lower bound, is returned."""
    best_val = None
    best_util = -math.inf
    for lo, hi, c2, c1, c0 in f.pieces:
        points = [lo, hi]
        if c2 < 0.0:
            vertex = -c1 / (2.0 * c2)
            if lo < vertex < hi:
                points.append(vertex)
        for p in points:
            u = _unary_value((c2, c1, c0), p)
            if u > best_util or (u == best_util and (best_val is None or p < best_val)):
                best_util = u
                best_val = p
    if best_val is None:
        lo, _, c2, c1, c0 = f.pieces[0]
        return lo, _unary_value((c2, c1, c0), lo)
    return best_val, best_util
