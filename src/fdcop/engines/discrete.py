"""Discrete DPOP baseline: fixed-grid UTIL tables, then standard VALUE
propagation.

Each agent sums, for every grid tuple of its separator and every point of
its own grid, the children's tables, gathered by variable name, and then its
own constraints, in a fixed order; the max-plus projection (`common.join`)
keeps each tuple's best own point, ties going to the smallest, and that
point's utility. Every table is computed before the first
message, one pseudo-tree height at a time (`common.computed_ahead`), so a
child's table is the grid of its variables by construction, and an agent
that receives any other refuses. A height joins in runs of at most
`row_cap` cells (`common.joined`). The VALUE phase reads the own point
chosen for the ancestors' grid tuple.
"""
from __future__ import annotations

import numpy as np

from ..errors import ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import (UtilSum, UtilTable, computed_ahead, joined, plan_util, product_grid,
                     util_value_protocol)


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


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    state: dict[str, np.ndarray] = {}  # var -> its best own point's index per grid row

    def agent_sum(var, tables) -> UtilSum:
        """An agent's grid sum over its children's tables."""
        ctx = contexts[var]
        sep_vars = ctx.separator
        grids = plan(var).grids
        constraints = [f for w in sep_vars if (f := ctx.constraint_with(w))]  # sorted by w
        index, rows = product_grid([grids[w] for w in sep_vars])
        # every variable's grid index at each (row, own point) cell
        at = {w: index[:, j:j + 1] for j, w in enumerate(sep_vars)}
        at[var] = np.arange(len(grids[var])).reshape(1, len(grids[var]))
        children = [t.utils.reshape([len(grids[w]) for w in t.separator_vars])[
            tuple(at[w] for w in t.separator_vars)] for t in tables]
        return UtilSum(var, grids[var], sep_vars, rows, children, constraints)

    def steps(agents, inputs):
        """Each agent's grid table, or the optimum at the root."""
        for s, best, utils in joined(map(agent_sum, agents, inputs), config.row_cap):
            state[s.var] = best
            yield float(utils[0]) if s.var == tree.root else UtilTable(s.sep_vars, s.rows, utils)

    # every table is a grid, so planning every agent refuses any table above
    # the cap before the first message, and every table is computed then
    with kernel.phase("util"):
        plan = plan_util(contexts, tree, config.points, config.row_cap)
        for var in tree.post_order:
            plan(var)
        util_fn = computed_ahead(tree, tree.post_order, steps)

    def value_fn(var, key):
        grids = plan(var).grids
        row = 0  # the key's index in product_grid order
        for w, v in zip(contexts[var].separator, key):
            if v not in grids[w]:
                raise ProtocolError(f"{var}: received off-grid ancestor values {key}")
            row = row * len(grids[w]) + grids[w].index(v)
        return grids[var][state[var][row]]

    return util_value_protocol(kernel, tree, util_fn, value_fn)
