"""Exact functional DPOP: UTIL messages carry piecewise quadratic functions,
addition and projection are symbolic, and the VALUE phase replays the stored
closed-form best responses. Tree-structured problems only."""
from __future__ import annotations

from .. import piecewise
from ..errors import ProtocolError, StructureError
from ..piecewise import Box, PiecewiseFunction, Poly2
from ..runtime import EngineConfig, Kernel
from ..pseudotree import PseudoTree
from .common import util_value_protocol

# scalars per transmitted piece of a unary quadratic: 2 bounds + 3 coefficients
SCALARS_PER_PIECE = 5


def utility_as_piecewise(f, dom_first, dom_second) -> PiecewiseFunction:
    """Single-piece representation of a binary quadratic utility."""
    xi, xj = f.first_var, f.second_var
    coeffs = {
        (xi, xi): f.coeff_a,
        (xi,): f.coeff_b,
        (xj, xj): f.coeff_c,
        (xj,): f.coeff_d,
        tuple(sorted((xi, xj))): f.coeff_e,
        (): f.coeff_f0,
    }
    poly = Poly2({m: c for m, c in coeffs.items() if c != 0.0})
    box = Box({xi: (dom_first.lb, dom_first.ub), xj: (dom_second.lb, dom_second.ub)})
    return PiecewiseFunction.from_polynomial(poly, box)


def run(contexts, tree: PseudoTree, kernel: Kernel, config: EngineConfig):
    if not tree.is_tree():
        raise StructureError(
            "ef-dpop handles tree-structured constraint graphs only; "
            "the pseudo-tree has backedges"
        )
    state: dict[str, dict] = {}

    def util_fn(var, child_payloads):
        ctx = contexts[var]
        own_dom = ctx.own_domain()

        total = None
        if var != tree.root:
            parent = ctx.parent
            constraint = ctx.constraint_with(parent)
            if constraint is None:
                raise StructureError(f"{var}: no constraint to parent {parent}")
            dom_first = own_dom if constraint.first_var == var else ctx.domain_of(parent)
            dom_second = ctx.domain_of(parent) if constraint.second_var == parent else own_dom
            total = utility_as_piecewise(constraint, dom_first, dom_second)
        for _, child_fn in child_payloads:
            total = child_fn if total is None else piecewise.add(total, child_fn, config.piece_cap)

        if var == tree.root:
            if total is None:
                # a lone variable: nothing to maximize, dpop's smallest-point tie-break
                state[var] = {"value": own_dom.lb}
                return 0.0
            value, utility = piecewise.argmax_unary(total)
            state[var] = {"value": value}
            return utility

        projected, responses = piecewise.project(total, var, config.piece_cap)
        state[var] = {"responses": responses}
        return projected, SCALARS_PER_PIECE * len(projected.pieces)

    def value_fn(var, sep_values):
        ctx = contexts[var]
        if var == tree.root:
            return state[var]["value"]
        parent = ctx.parent
        if parent not in sep_values:
            raise ProtocolError(f"{var}: parent value missing from VALUE payload")
        parent_value = sep_values[parent]
        response = state[var]["responses"].at({parent: parent_value})
        dom = ctx.own_domain()
        x = response.value(parent_value)
        if x < dom.lb - 1e-12 or x > dom.ub + 1e-12:
            raise ProtocolError(f"{var}: best response {x} escapes the domain")
        return dom.clamp(x)

    return util_value_protocol(kernel, tree, util_fn, value_fn)
