"""Discrete DPOP baseline: fixed-grid UTIL tables, then standard VALUE
propagation.

Each agent scores every grid tuple of its separator against every point of
its own grid with the join kernel (`common.join`): the children's tables,
each checked to hold its variables' grid as its rows and gathered by
variable name at every cell, and then its own constraints, summed cell-wise
in a fixed order. The agent maximizes over its own points, ties going to the
smallest. The VALUE phase reads the own point chosen for the ancestors' grid
tuple.
"""
from __future__ import annotations

import numpy as np

from ..errors import ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import UtilSum, UtilTable, join, plan_util, product_grid, util_value_protocol


def joint_utility(x: float, var: str, sep_vars: tuple[str, ...],
                  sep_values: tuple[float, ...], constraints) -> float:
    """Own value + separator context scored against the agent's own
    constraints, summed in the given order."""
    assign = dict(zip(sep_vars, sep_values))
    assign[var] = x
    total = 0.0
    for f in constraints:
        total = total + f.value_at(assign)
    return total


def child_array(var: str, table: UtilTable,
                grids: dict[str, list[float]]) -> tuple[tuple[str, ...], np.ndarray]:
    """A child's UTIL table as (names, array), one axis per variable in the
    table's order. Refuses (ProtocolError) a table whose variables are not a
    sorted subset of the grids' without repeats, or whose rows are not the
    grid tuples of its variables in `product_grid` order."""
    names = table.separator_vars
    if any(w not in grids for w in names) or list(names) != sorted(set(names)):
        raise ProtocolError(f"{var}: child table over {names} does not lie over "
                            f"a sorted subset of {tuple(sorted(grids))}")
    if not np.array_equal(table.rows, product_grid([grids[w] for w in names])[1]):
        raise ProtocolError(f"{var}: child table over {names} is not the grid "
                            f"of its variables")
    return names, table.utils.reshape([len(grids[w]) for w in names])


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    state: dict[str, tuple] = {}
    # every table is a grid, so the plan refuses any table above the cap
    # before the first message
    with kernel.phase("util"):
        plan = plan_util(contexts, tree, config.points, config.row_cap)

    def util_fn(var, child_payloads):
        ctx = contexts[var]
        sep_vars = ctx.separator
        grids = plan(var).grids
        own_pts = grids[var]
        sep_grids = [grids[w] for w in sep_vars]

        constraints = [f for w in sep_vars if (f := ctx.constraint_with(w))]  # sorted by w
        index, rows = product_grid(sep_grids)
        # every variable's grid index at each (row, own point) cell
        at = {w: index[:, j:j + 1] for j, w in enumerate(sep_vars)}
        at[var] = np.arange(len(own_pts)).reshape(1, len(own_pts))
        children = [array[tuple(at[w] for w in names)] for names, array in
                    (child_array(var, payload, grids) for payload in child_payloads)]
        [cells] = join([UtilSum(var, own_pts, sep_vars, rows, children, constraints)])
        best = cells.argmax(axis=1)  # the first maximum: the smallest point
        utils = cells[np.arange(len(best)), best]
        positions = [{v: i for i, v in enumerate(g)} for g in sep_grids]
        state[var] = (positions, own_pts, best)

        if var == tree.root:
            return float(utils[0])
        payload = UtilTable(sep_vars, rows, utils)
        return payload, payload.scalar_size()

    def value_fn(var, key):
        positions, own_pts, best = state[var]
        row = 0  # the key's index in product_grid order
        for index, v in zip(positions, key):
            if v not in index:
                raise ProtocolError(f"{var}: received off-grid ancestor values {key}")
            row = row * len(index) + index[v]
        return own_pts[best[row]]

    return util_value_protocol(kernel, tree, util_fn, value_fn)
