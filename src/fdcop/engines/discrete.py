"""Discrete DPOP baseline: fixed-grid UTIL tables, then standard VALUE
propagation.

Each agent builds its table with one dense max-plus join over its grid
(`common.grid_join`): the children's tables, each checked to hold one row per
grid tuple of its variables and turned into an array, and its own constraints
are broadcast over the axes sorted(separator + own variable), summed
cell-wise in a fixed order, and maximized over the own axis, ties going to
the smallest grid point. The VALUE phase reads the own point chosen for the
ancestors' grid tuple.
"""
from __future__ import annotations

import itertools

import numpy as np

from ..errors import ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import UtilTable, check_grid_cap, discretize, grid_join, util_value_protocol


def joint_utility(x: float, var: str, sep_vars: tuple[str, ...],
                  sep_values: tuple[float, ...], lookups, constraints) -> float:
    """Own value + separator context scored against child tables and the
    agent's own constraints, in a fixed summation order (children sorted by
    id, then constraints sorted by the other variable's id)."""
    assign = dict(zip(sep_vars, sep_values))
    assign[var] = x
    total = 0.0
    for lookup in lookups:
        total = total + lookup(assign)
    for f in constraints:
        total = total + f.value_at(assign)
    return total


def child_array(var: str, table: UtilTable,
                grids: dict[str, list[float]]) -> tuple[tuple[str, ...], np.ndarray]:
    """A child's UTIL table as `grid_join`'s (names, array), one axis per
    variable in the table's order. Refuses (ProtocolError) a table whose keys
    are not the grid tuples of its variables in itertools.product order."""
    names = table.separator_vars
    if (any(w not in grids for w in names) or [values for values, _ in table.rows]
            != list(itertools.product(*(grids[w] for w in names)))):
        raise ProtocolError(f"{var}: child table over {names} is not the grid "
                            f"of its variables")
    return names, np.array([u for _, u in table.rows]).reshape([len(grids[w]) for w in names])


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    d = config.points
    state: dict[str, tuple] = {}

    def util_fn(var, child_payloads):
        ctx = contexts[var]
        sep_vars = tuple(sorted(ctx.separator))
        own_pts = discretize(ctx.own_domain(), d)
        sep_grids = [discretize(ctx.domain_of(w), d) for w in sep_vars]
        check_grid_cap(var, own_pts, sep_grids, config.row_cap)

        constraints = sorted(
            (f for w in sep_vars if (f := ctx.constraint_with(w)) is not None),
            key=lambda f: f.other_var(var),
        )
        grids = dict(zip(sep_vars + (var,), [*sep_grids, own_pts]))
        children = [child_array(var, payload, grids) for _, payload in child_payloads]
        utils, best = grid_join(var, own_pts, sep_vars, sep_grids, children, constraints)
        positions = [{v: i for i, v in enumerate(g)} for g in sep_grids]
        state[var] = (sep_vars, positions, own_pts, best)

        if var == tree.root:
            return float(utils[0])
        payload = UtilTable(sep_vars, tuple(zip(itertools.product(*sep_grids), utils.tolist())))
        return payload, payload.scalar_size()

    def value_fn(var, sep_values):
        sep_vars, positions, own_pts, best = state[var]
        try:
            key = tuple(sep_values[w] for w in sep_vars)
        except KeyError as exc:
            raise ProtocolError(f"{var}: missing ancestor value {exc}") from exc
        row = 0  # the key's index in itertools.product order
        for index, v in zip(positions, key):
            if v not in index:
                raise ProtocolError(f"{var}: received off-grid ancestor values {key}")
            row = row * len(index) + index[v]
        return own_pts[best[row]]

    return util_value_protocol(kernel, tree, util_fn, value_fn)
