"""Hybrid continuous max-sum baseline.

Max-sum on the factor graph, one function node per binary utility hosted by
the owner of its lexicographically smaller variable. Each iteration exchanges
variable-to-function and function-to-variable vectors over the variables'
current sample sets, then every sample takes one clamped gradient step using
the best partner value reported by each adjacent function. Variables decide
positionally: the sample index with the best summed incoming vector wins,
ties going to the smallest index.

Samples, q and r vectors and partners are read-only float arrays, one entry
per sample. Variable-node sums past the float range go to inf or NaN
silently.

The variable nodes run as a few array programs an iteration, over slots: a
slot is one (edge, variable) pair, the slots grouped by variable in id order
and each variable's edges in order. The latest r vectors and partners are
one (slots, d) array each, whose rows are filled only from the
function-to-variable messages each variable collects. Every float is the one
a per-variable loop gives (`tests/conftest.py`'s `MaxSumVariables`):
- a slot's skip-sum adds its variable's other r vectors in edge order to
  +0.0, one (count, degree, d) stack per degree (`skip_sums`);
- its q vector is the skip-sum centered on its mean, whose sum runs left to
  right (`cumsum`) on every interpreter;
- each slot's partial is `QuadraticBinaryUtility.partial`'s
  `2.0 * a * own + b + e * partner` over `oriented` coefficients, and a
  variable's gradient adds its slots' partials in edge order to +0.0
  (`edge_sums`);
- every sample moves by one `common.clamped_step` over the (variables, d)
  sample array, the one step rule of af/caf-dpop too.
A variable-to-function payload's `values` and `q` are read-only row views of
the iteration's sample and q arrays.

A function node's message to one endpoint, r[i] = max_j f(x_i, y_j) + q[j]
with the first maximizing partner, is the max-plus projection that dpop and
af/caf-dpop build their UTIL tables with (`common.join`): the endpoint's
samples are the rows, the partner's samples the candidates and the partner's
q vector the one contribution. An iteration gathers every function node's
two sums, then joins them all in runs within the row cap (`common.joined`).
"""
from __future__ import annotations

import numpy as np

from ..errors import CapacityError, ProtocolError
from ..model import left_sum
from ..runtime import MS_FUNCTION_TO_VARIABLE, MS_VARIABLE_TO_FUNCTION, EngineConfig, Kernel
from .common import UtilSum, clamped_step, grid_cache, joined


def frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def edge_sums(groups, rows: np.ndarray, n: int) -> np.ndarray:
    """Per variable, +0.0 plus its slots' rows in edge order: an (n, d) array
    over the `groups` of `by_degree`; a variable of degree 0 sums to zeros."""
    out = np.zeros((n, rows.shape[1]))
    for members, slots in groups:
        total = np.zeros((len(members), rows.shape[1]))
        for column in slots.T:
            total += rows[column]
        out[members] = total
    return out


def skip_sums(groups, rows: np.ndarray) -> np.ndarray:
    """Per slot, +0.0 plus its variable's other slots' rows in edge order:
    each degree's (count, degree, d) stack adds its k-th row to every row
    but the k-th, in turn."""
    out = np.empty_like(rows)
    for _, slots in groups:
        stack = rows[slots]
        total = np.zeros(stack.shape)
        for k in range(slots.shape[1]):
            total[:, :k] += stack[:, k:k + 1]
            total[:, k + 1:] += stack[:, k:k + 1]
        out[slots] = total
    return out


def by_degree(degrees: list[int]):
    """The variables of each degree above 0, by degree: their indices and
    their slots, a (count, degree) array whose rows run in edge order."""
    first = np.cumsum([0, *degrees[:-1]])
    groups = []
    for degree in sorted(set(degrees) - {0}):
        members = np.array([i for i, g in enumerate(degrees) if g == degree])
        groups.append((members, first[members, None] + np.arange(degree)))
    return groups


def run(contexts, graph, kernel: Kernel, config: EngineConfig):
    d = config.points
    variables = sorted(contexts)
    edges = sorted(graph.edges())  # each (u, v) with u < v

    if edges and d * d > config.row_cap:  # refused before any sample, like dpop
        raise CapacityError(f"function nodes would join {d * d} cells each (cap {config.row_cap})")
    grid = grid_cache()
    domains = [contexts[v].own_domain() for v in variables]
    samples = frozen(np.array([grid(dom, d) for dom in domains]))
    lb = np.array([[dom.lb] for dom in domains])
    ub = np.array([[dom.ub] for dom in domains])
    incident = {v: [] for v in variables}
    for e in edges:
        for v in e:
            incident[v].append(e)
    # each endpoint's own utility over each of its edges, looked up once
    constraint = {(e, v): contexts[v].constraint_with(e[0] if v == e[1] else e[1])
                  for e in edges for v in e}

    slots = [(e, v) for v in variables for e in incident[v]]
    slot_of = {s: i for i, s in enumerate(slots)}
    owner = np.array([i for i, v in enumerate(variables) for _ in incident[v]], dtype=np.intp)
    groups = by_degree([len(incident[v]) for v in variables])
    # each slot's var^2, var and var x partner coefficients, as (slots, 1) columns
    square, linear, _, _, cross, _ = np.array(
        [constraint[s].oriented(s[1]) for s in slots]).reshape(len(slots), 6, 1).transpose(1, 0, 2)
    r = np.zeros((len(slots), d))
    partner = np.zeros((len(slots), d))

    for _ in range(config.iterations):
        # variable nodes: q = mean-centered sum of the other functions' vectors
        with np.errstate(over="ignore", invalid="ignore"):
            q = skip_sums(groups, r)
            q -= q.cumsum(axis=1)[:, -1:] / d
        rows = list(samples)
        for (e, v), i, q_row in zip(slots, owner.tolist(), frozen(q)):
            payload = {"edge": e, "values": rows[i], "q": q_row}
            kernel.send(v, e[0], MS_VARIABLE_TO_FUNCTION, payload, d)

        # function nodes: r[i] = max_j f(x_i, y_j) + q_y[j], plus the argmax;
        # every node's two sums are gathered and checked before any join
        sends, sums = [], []
        for host in variables:
            by_edge: dict[tuple, dict[str, dict]] = {}
            for m in kernel.collect(host, MS_VARIABLE_TO_FUNCTION):
                by_edge.setdefault(m.payload["edge"], {})[m.sender] = m.payload
            for e, inputs in sorted(by_edge.items()):
                if set(inputs) != set(e):
                    raise ProtocolError(f"function node {e} is missing a q message")
                f = constraint[(e, host)]
                if f is None:
                    raise ProtocolError(f"host {host} has no utility over {e}")
                for v in e:
                    w = e[0] if v == e[1] else e[1]
                    sends.append((host, v, e))
                    sums.append(UtilSum(w, inputs[w]["values"], (v,),
                                        inputs[v]["values"].reshape(d, 1), [inputs[w]["q"]], [f]))
        for (host, v, e), (s, best, utils) in zip(sends, joined(sums, config.row_cap)):
            payload = {"edge": e, "values": frozen(utils), "argmax": frozen(s.candidates[best])}
            kernel.send(host, v, MS_FUNCTION_TO_VARIABLE, payload, d)

        # variable nodes: store the vectors, then move every sample one step
        for v in variables:
            for m in kernel.collect(v, MS_FUNCTION_TO_VARIABLE):
                i = slot_of[(m.payload["edge"], v)]
                r[i], partner[i] = m.payload["values"], m.payload["argmax"]
        with np.errstate(over="ignore", invalid="ignore"):
            partials = 2.0 * square * samples[owner] + linear + cross * partner
            grad = edge_sums(groups, partials, len(variables))
            samples = frozen(clamped_step(samples, samples + config.alpha * grad, lb, ub))

    with np.errstate(over="ignore", invalid="ignore"):
        best = edge_sums(groups, r, len(variables)).argmax(axis=1)
    values = dict(zip(variables, samples[np.arange(len(variables)), best].tolist()))

    # reporting convenience for the runner; not part of the message protocol
    return values, left_sum(constraint[(e, e[0])].value_at(values) for e in edges)
