"""Reference grid optima for `fdcop verify`, the benchmark's quality checks
and the test suite.

These recompute grid optima by variable elimination, without touching the
engine code paths, so engine results can be checked against an independent
calculation.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, CapacityError
from .model import Problem

# work guard on the cells of one elimination factor
CELL_CAP = 50_000_000


def oracle_grid(lb: float, ub: float, d: int) -> list[float]:
    if d < 1:
        raise ArgumentError(f"point count must be at least 1, got {d}")
    if d == 1:
        return [lb + (ub - lb) / 2.0]
    step = (ub - lb) / (d - 1)
    return [lb + i * step for i in range(d - 1)] + [ub]


def elimination_grid_optimum(problem: Problem, d: int) -> float:
    """Grid optimum by max-plus variable elimination (min-degree order)."""
    variables = sorted(problem.variables)
    grids = {v: np.array(oracle_grid(problem.domains[v].lb, problem.domains[v].ub, d))
             for v in variables}

    factors: list[tuple[tuple[str, ...], np.ndarray]] = []
    for f in problem.utilities:
        scope = tuple(sorted(f.scope))
        gi = grids[f.first_var]
        gj = grids[f.second_var]
        a, b, c, dd, e, f0 = f.coeffs
        if scope[0] == f.first_var:
            vi, vj = gi[:, None], gj[None, :]
        else:
            vi, vj = gi[None, :], gj[:, None]
        arr = a * vi * vi + b * vi + c * vj * vj + dd * vj + e * vi * vj + f0
        factors.append((scope, arr))

    adjacency = {v: set() for v in variables}
    for scope, _ in factors:
        for u in scope:
            for w in scope:
                if u != w:
                    adjacency[u].add(w)

    remaining = set(variables)
    constant = 0.0
    while remaining:
        v = min(remaining, key=lambda u: (len(adjacency[u] & remaining), u))
        involved = [F for F in factors if v in F[0]]
        factors = [F for F in factors if v not in F[0]]
        if not involved:
            remaining.discard(v)
            continue
        union = sorted({u for scope, _ in involved for u in scope})
        cells = math.prod(len(grids[u]) for u in union)
        if cells > CELL_CAP:
            raise CapacityError(f"elimination would build a {cells}-cell factor")
        acc = np.zeros([len(grids[u]) for u in union])
        pos = {u: i for i, u in enumerate(union)}
        for scope, arr in involved:
            shape = [1] * len(union)
            perm = sorted(range(len(scope)), key=lambda i: pos[scope[i]])
            arr = np.transpose(arr, axes=perm)
            for src, u in enumerate(sorted(scope, key=pos.get)):
                shape[pos[u]] = arr.shape[src]
            acc = acc + arr.reshape(shape)
        reduced = acc.max(axis=pos[v])
        new_scope = tuple(u for u in union if u != v)
        if new_scope:
            factors.append((new_scope, reduced))
        else:
            constant += float(reduced)
        # connect v's neighbors so later degree counts reflect fill-in
        neighbors = {u for u in union if u != v}
        for u in neighbors:
            adjacency[u] |= neighbors - {u}
        remaining.discard(v)

    for scope, arr in factors:
        constant += float(arr.max())
    return constant
