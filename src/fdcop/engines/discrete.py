"""Discrete DPOP baseline: fixed-grid UTIL tables with exact addition and
projection over the grid, then standard VALUE propagation."""
from __future__ import annotations

import itertools
import math

from ..errors import ProtocolError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import UtilTable, check_grid_cap, discretize, util_value_protocol


def child_lookup(table: UtilTable):
    """Exact-key lookup into a child's grid table."""
    index = dict(table.rows)

    def lookup(assign: dict[str, float]) -> float:
        key = tuple(assign[w] for w in table.separator_vars)
        if key not in index:
            raise ProtocolError(f"tuple {key} missing from child table over {table.separator_vars}")
        return index[key]

    return lookup


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


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    d = config.points
    state: dict[str, dict] = {}

    def util_fn(var, child_payloads):
        ctx = contexts[var]
        sep_vars = tuple(sorted(ctx.separator))
        own_pts = discretize(ctx.own_domain(), d)
        sep_grids = [discretize(ctx.domain_of(w), d) for w in sep_vars]
        check_grid_cap(var, own_pts, sep_grids, config.row_cap)

        lookups = [child_lookup(payload) for _, payload in child_payloads]
        constraints = sorted(
            (f for w in sep_vars if (f := ctx.constraint_with(w)) is not None),
            key=lambda f: f.other_var(var),
        )

        table: dict[tuple[float, ...], tuple[float, float]] = {}
        for sep_values in itertools.product(*sep_grids):
            best_u, best_x = -math.inf, None
            for x in own_pts:  # ascending, so ties keep the smallest point
                u = joint_utility(x, var, sep_vars, sep_values, lookups, constraints)
                if u > best_u:
                    best_u, best_x = u, x
            table[sep_values] = (best_u, best_x)
        state[var] = {"sep_vars": sep_vars, "table": table}

        if var == tree.root:
            return table[()][0]
        payload = UtilTable(sep_vars, tuple((t, u) for t, (u, _) in sorted(table.items())))
        return payload, payload.scalar_size()

    def value_fn(var, sep_values):
        info = state[var]
        try:
            key = tuple(sep_values[w] for w in info["sep_vars"])
        except KeyError as exc:
            raise ProtocolError(f"{var}: missing ancestor value {exc}") from exc
        if key not in info["table"]:
            raise ProtocolError(f"{var}: received off-grid ancestor values {key}")
        return info["table"][key][1]

    return util_value_protocol(kernel, tree, util_fn, value_fn)
