"""Shared machinery for the engines: the UTIL table type, domain
discretization, the one max-plus grid join (dpop's UTIL tables and hcms's
function-to-variable messages), closed-form 1-D maximization, and the
UTIL/VALUE message schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError, CapacityError, ProtocolError
from ..model import ContinuousDomain, QuadraticBinaryUtility
from ..runtime import SYSTEM, UTIL, VALUE, Kernel
from ..pseudotree import PseudoTree


@dataclass(frozen=True)
class UtilTable:
    """Rows of (separator value tuple, utility) over an ordered variable list."""

    separator_vars: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], float], ...]

    def scalar_size(self) -> int:
        return len(self.rows) * (len(self.separator_vars) + 1)

    def value_set(self, var: str) -> list[float]:
        j = self.separator_vars.index(var)
        return sorted({values[j] for values, _ in self.rows})


def discretize(domain: ContinuousDomain, d: int) -> list[float]:
    """d evenly spaced points including both endpoints; the midpoint for d=1.

    Refuses (ArgumentError) a domain on which the d points are not finite and
    strictly increasing: one too narrow for its magnitude, where neighbours
    round to the same float, or one whose width overflows."""
    if d < 1:
        raise ArgumentError(f"point count must be at least 1, got {d}")
    if d == 1:
        points = [domain.lb + domain.width / 2.0]
    else:
        step = domain.width / (d - 1)
        points = [domain.lb + i * step for i in range(d - 1)]
        points.append(domain.ub)
    if not (all(map(math.isfinite, points)) and all(a < b for a, b in zip(points, points[1:]))):
        raise ArgumentError(f"cannot place {d} distinct finite points on "
                            f"[{domain.lb!r}, {domain.ub!r}]")
    return points


def check_grid_cap(var: str, own_pts: list[float], sep_grids: list[list[float]],
                   row_cap: int) -> None:
    """Refuse, before it is built, a grid table of d^(|sep|+1) rows above the cap."""
    cells = len(own_pts) * math.prod(len(g) for g in sep_grids)
    if cells > row_cap:
        raise CapacityError(f"{var}: grid table would hold {cells} rows (cap {row_cap})")


def grid_join(var: str, own_pts: list[float], sep_vars: tuple[str, ...],
              sep_grids: list[list[float]], children: list[tuple[tuple[str, ...], np.ndarray]],
              constraints: list[QuadraticBinaryUtility]) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus join of one agent's grid table, maximized over its own grid.

    The joint table lies over sorted(sep_vars + (var,)), one axis per variable
    holding its grid. Starting from zeros, each child's utilities (in the
    given order) and then each constraint is added cell-wise, so every cell
    sums in the order of a per-cell loop. Returns (utils, best), one entry per
    separator tuple in itertools.product(*sep_grids) order: the maximum over
    own_pts and the index of the first, i.e. smallest, point that reaches it.

    A child is (names, array): its variables, a sorted subset of the axes, and
    its utilities with one axis per name holding that variable's grid;
    otherwise ProtocolError.
    """
    grids = dict(zip(sep_vars, sep_grids))
    grids[var] = own_pts
    axes = sorted(grids)

    def along(w: str) -> np.ndarray:
        """w's grid as a 1-D array along its own axis, to broadcast."""
        return np.array(grids[w]).reshape([len(grids[w]) if a == w else 1 for a in axes])

    total = np.zeros([len(grids[w]) for w in axes])
    for names, utils in children:
        if [w for w in axes if w in names] != list(names):
            raise ProtocolError(f"{var}: child utilities over {names} do not lie over "
                                f"a sorted subset of {tuple(axes)}")
        utils = np.asarray(utils, dtype=float)
        if utils.shape != tuple(len(grids[w]) for w in names):
            raise ProtocolError(f"{var}: child utilities of shape {utils.shape} do not "
                                f"match the grids of {names}")
        total += utils.reshape([len(grids[w]) if w in names else 1 for w in axes])
    for f in constraints:
        total += f.evaluate(along(f.first_var), along(f.second_var))

    own = axes.index(var)
    others = [a for a in range(len(axes)) if a != own]
    cells = total.transpose(others + [own]).reshape(-1, len(own_pts))
    best = cells.argmax(axis=1)
    return cells[np.arange(len(best)), best], best


def argmax_quadratic_1d(c2: float, c1: float, lo: float, hi: float) -> float:
    """Maximizer of c2*x^2 + c1*x over [lo, hi]; ties go to the smaller point."""
    candidates = [lo, hi]
    if c2 < 0.0:
        vertex = -c1 / (2.0 * c2)
        if lo < vertex < hi:
            candidates.append(vertex)
    best_x, best_v = None, None
    for x in sorted(candidates):
        v = c2 * x * x + c1 * x
        if best_v is None or v > best_v:
            best_x, best_v = x, v
    return best_x


def best_own_response(utilities: list[QuadraticBinaryUtility], var: str,
                      fixed: dict[str, float], domain: ContinuousDomain) -> float:
    """Closed-form maximizer over `var` of the summed utilities, with every
    other scoped variable pinned by `fixed`."""
    c2 = 0.0
    c1 = 0.0
    for f in utilities:
        other_val = fixed[f.other_var(var)]
        if var == f.first_var:
            c2 += f.coeff_a
            c1 += f.coeff_b + f.coeff_e * other_val
        else:
            c2 += f.coeff_c
            c1 += f.coeff_d + f.coeff_e * other_val
    return argmax_quadratic_1d(c2, c1, domain.lb, domain.ub)


def util_value_protocol(kernel: Kernel, tree: PseudoTree, util_fn, value_fn):
    """Run the two DPOP phases over the kernel.

    util_fn(var, child_payloads) returns (payload, scalar_size) for non-root
    agents and the reported optimum (a float) at the root. value_fn(var,
    sep_values) returns the agent's own value. Exactly 2|X| messages are
    exchanged: every agent's UTIL goes up (the root reports its optimum to the
    system endpoint) and every agent receives exactly one VALUE (the root's
    comes from the system kick-off).
    """
    kernel.phase("util")
    optimum = None
    for var in tree.post_order():
        msgs = kernel.collect(var, UTIL)
        child_payloads = sorted(((m.sender, m.payload) for m in msgs), key=lambda p: p[0])
        if var == tree.root:
            optimum = util_fn(var, child_payloads)
            kernel.send(var, SYSTEM, UTIL, {"optimum": optimum}, 1)
        else:
            payload, size = util_fn(var, child_payloads)
            kernel.send(var, tree.parent[var], UTIL, payload, size)

    kernel.phase("value")
    kernel.send(SYSTEM, tree.root, VALUE, {}, 0)
    values: dict[str, float] = {}
    for var in tree.pre_order():
        msg = kernel.collect(var, VALUE)[0]
        sep_values = dict(msg.payload)
        own = value_fn(var, sep_values)
        values[var] = own
        known = dict(sep_values)
        known[var] = own
        for child in tree.children[var]:
            payload = {w: known[w] for w in sorted(tree.separator[child])}
            kernel.send(var, child, VALUE, payload, len(payload))
    return values, optimum
