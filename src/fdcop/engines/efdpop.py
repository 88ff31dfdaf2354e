"""Exact functional DPOP: every UTIL message is a `piecewise.Unary`, a
piecewise quadratic in the receiving parent's variable. An agent adds its
children's messages to the own-variable terms of the constraint with its
parent and projects the constraint's remaining terms onto the parent in closed
form; the VALUE phase replays the stored best responses. Tree-structured
problems only."""
from __future__ import annotations

from .. import piecewise
from ..errors import ProtocolError, StructureError
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import util_value_protocol

# scalars per transmitted piece of a unary quadratic: 2 bounds + 3 coefficients
SCALARS_PER_PIECE = 5


def utility_as_piecewise(f, var, dom) -> piecewise.Unary:
    """One-piece function of `var` over `dom`: f's square and linear terms in
    `var` and its constant."""
    square, linear, _, _, _, constant = f.oriented(var)
    return piecewise.Unary(var, ((dom.lb, dom.ub, square, linear, constant),))


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    if not tree.is_tree():
        raise StructureError(
            "ef-dpop handles tree-structured constraint graphs only; "
            "the pseudo-tree has backedges"
        )
    # the root's value, or a non-root agent's piecewise.BestResponse
    state: dict[str, object] = {}

    def util_fn(var, child_payloads):
        ctx = contexts[var]
        own_dom = ctx.own_domain()

        total = constraint = None
        if var != tree.root:
            constraint = ctx.constraint_with(ctx.parent)
            if constraint is None:
                raise StructureError(f"{var}: no constraint to parent {ctx.parent}")
            total = utility_as_piecewise(constraint, var, own_dom)
        for child_fn in child_payloads:
            total = child_fn if total is None else piecewise.add(total, child_fn)

        if var == tree.root:
            if total is None:
                # a lone variable: nothing to maximize, dpop's smallest-point tie-break
                state[var] = own_dom.lb
                return 0.0
            state[var], utility = piecewise.argmax_unary(total)
            return utility

        parent_dom = ctx.domain_of(ctx.parent)
        projected, state[var] = piecewise.project(
            total, constraint, (parent_dom.lb, parent_dom.ub))
        return projected, SCALARS_PER_PIECE * len(projected.pieces)

    def value_fn(var, key):
        if var == tree.root:
            return state[var]
        (parent_value,) = key  # a tree agent's separator is its parent
        dom = contexts[var].own_domain()
        x = state[var].at(parent_value).value(parent_value)
        if x < dom.lb - 1e-12 or x > dom.ub + 1e-12:
            raise ProtocolError(f"{var}: best response {x} escapes the domain")
        return dom.clamp(x)

    return util_value_protocol(kernel, tree, util_fn, value_fn)
