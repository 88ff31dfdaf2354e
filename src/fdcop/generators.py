"""Seeded random instance generators: uniform-attachment trees and G(n, p1)
graphs with connectivity repair, both carrying random binary quadratic
utilities over [-100, 100] interval domains."""
from __future__ import annotations

import random

from .errors import ArgumentError
from .model import ContinuousDomain, Problem, QuadraticBinaryUtility

DEFAULT_LB = -100.0
DEFAULT_UB = 100.0
COEFF_RANGE = (-5.0, 5.0)
CONCAVE_RANGE = (-5.0, -0.1)


def gen_utility(rng: random.Random, first_var: str, second_var: str,
                concave: bool = False) -> QuadraticBinaryUtility:
    """Random quadratic: a..e uniform on [-5, 5] (a and c on [-5, -0.1] in
    concave mode), f0 = 0. Coefficients are drawn in a fixed a,b,c,d,e order
    so instances are reproducible byte for byte."""
    lo, hi = COEFF_RANGE
    clo, chi = CONCAVE_RANGE
    a = rng.uniform(clo, chi) if concave else rng.uniform(lo, hi)
    b = rng.uniform(lo, hi)
    c = rng.uniform(clo, chi) if concave else rng.uniform(lo, hi)
    d = rng.uniform(lo, hi)
    e = rng.uniform(lo, hi)
    return QuadraticBinaryUtility(first_var, second_var, a, b, c, d, e, 0.0)


def _names(n: int) -> tuple[list[str], list[str]]:
    return [f"x{i:03d}" for i in range(n)], [f"a{i:03d}" for i in range(n)]


def _assemble(n: int, edges: list[tuple[int, int]], rng: random.Random,
              lb: float, ub: float, concave: bool) -> Problem:
    variables, agents = _names(n)
    domains = {v: ContinuousDomain(lb, ub) for v in variables}
    owner = {v: a for v, a in zip(variables, agents)}
    utilities = tuple(
        gen_utility(rng, variables[i], variables[j], concave)
        for i, j in sorted((min(e), max(e)) for e in edges)
    )
    problem = Problem(agents=tuple(agents), variables=tuple(variables),
                      domains=domains, utilities=utilities, owner=owner)
    problem.validate()
    return problem


def gen_tree(n: int, seed: int, lb: float = DEFAULT_LB, ub: float = DEFAULT_UB,
             concave: bool = False) -> Problem:
    """Uniform random attachment tree: node i >= 1 attaches to a uniformly
    random earlier node. One utility per edge."""
    if n < 2:
        raise ArgumentError(f"a tree needs at least 2 nodes, got {n}")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return _assemble(n, edges, rng, lb, ub, concave)


def gen_graph(n: int, p1: float, seed: int, lb: float = DEFAULT_LB,
              ub: float = DEFAULT_UB, concave: bool = False) -> Problem:
    """G(n, p1) random graph; disconnected draws are repaired by adding a
    uniform random edge between components until connected."""
    if n < 2:
        raise ArgumentError(f"a graph needs at least 2 nodes, got {n}")
    if not 0.0 < p1 <= 1.0:
        raise ArgumentError(f"edge probability must be in (0, 1], got {p1}")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p1]

    # union-find over components, bridged with uniform random cross edges; a
    # cross edge joins two components, so it is never already an edge
    parent = list(range(n))
    components = n

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> bool:
        nonlocal components
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
        components -= 1
        return True

    for i, j in edges:
        union(i, j)
    while components > 1:
        i, j = rng.randrange(n), rng.randrange(n)
        if union(i, j):
            edges.append((min(i, j), max(i, j)))
    return _assemble(n, edges, rng, lb, ub, concave)
