"""Hybrid continuous max-sum baseline.

Max-sum on the factor graph, one function node per binary utility hosted by
the owner of its lexicographically smaller variable. Each iteration exchanges
variable-to-function and function-to-variable vectors over the variables'
current sample sets, then every sample takes one clamped gradient step using
the best partner value reported by each adjacent function. Variables decide
positionally: the sample index with the best summed incoming vector wins,
ties going to the smallest index.

A function node's message to one endpoint, r[i] = max_j f(x_i, y_j) + q[j]
with the first maximizing partner, runs on the join kernel that dpop and
af/caf-dpop build their UTIL tables with (`common.join`): the endpoint's
samples are the rows, the partner's samples the candidates and the partner's
q vector the one contribution.
"""
from __future__ import annotations

import numpy as np

from ..errors import CapacityError, ProtocolError
from ..runtime import (
    MS_FUNCTION_TO_VARIABLE,
    MS_VARIABLE_TO_FUNCTION,
    EngineConfig,
    Kernel,
)
from .common import discretize, join


def run(contexts, graph, kernel: Kernel, config: EngineConfig):
    d = config.points
    variables = sorted(contexts)
    edges = sorted(graph.edges())  # each (u, v) with u < v

    samples = {v: list(discretize(contexts[v].own_domain(), d)) for v in variables}
    if edges and d * d > config.row_cap:  # refused before the first message, like dpop
        raise CapacityError(f"function nodes would join {d * d} cells each (cap {config.row_cap})")
    incident = {v: [] for v in variables}
    for e in edges:
        for v in e:
            incident[v].append(e)
    # each endpoint's own utility over each of its edges, looked up once
    constraint = {(e, v): contexts[v].constraint_with(e[0] if v == e[1] else e[1])
                  for e in edges for v in e}
    r_store = {(e, v): [0.0] * d for e in edges for v in e}
    partner_at = {}

    for _ in range(config.iterations):
        # variable nodes: q = mean-centered sum of the other functions' vectors
        for v in variables:
            for e in incident[v]:
                q = [0.0] * d
                for other in incident[v]:
                    if other == e:
                        continue
                    r = r_store[(other, v)]
                    q = [a + b for a, b in zip(q, r)]
                mean = sum(q) / d
                q = [a - mean for a in q]
                payload = {"edge": e, "var": v, "values": list(samples[v]), "q": q}
                kernel.send(v, e[0], MS_VARIABLE_TO_FUNCTION, payload, d)

        # function nodes: r[i] = max_j f(x_i, y_j) + q_y[j], plus the argmax
        for host in variables:
            msgs = kernel.collect(host, MS_VARIABLE_TO_FUNCTION)
            by_edge: dict[tuple, dict[str, dict]] = {}
            for m in msgs:
                by_edge.setdefault(m.payload["edge"], {})[m.payload["var"]] = m.payload
            for e, inputs in sorted(by_edge.items()):
                if set(inputs) != set(e):
                    raise ProtocolError(f"function node {e} is missing a q message")
                f = constraint[(e, host)]
                if f is None:
                    raise ProtocolError(f"host {host} has no utility over {e}")
                for v in e:
                    w = e[0] if v == e[1] else e[1]
                    xs, ys = inputs[v]["values"], inputs[w]["values"]
                    cells = join(w, ys, (v,), np.array(xs).reshape(len(xs), 1),
                                 [inputs[w]["q"]], [f])
                    best = cells.argmax(axis=1)  # the first maximum: the smallest index
                    payload = {"edge": e, "values": cells[np.arange(len(xs)), best].tolist(),
                               "argmax": [ys[j] for j in best.tolist()]}
                    kernel.send(host, v, MS_FUNCTION_TO_VARIABLE, payload, d)

        # variable nodes: store the vectors, then move every sample one step
        for v in variables:
            for m in kernel.collect(v, MS_FUNCTION_TO_VARIABLE):
                e = m.payload["edge"]
                r_store[(e, v)] = m.payload["values"]
                partner_at[(e, v)] = m.payload["argmax"]
        for v in variables:
            dom = contexts[v].own_domain()
            terms = [(partner_at[(e, v)], constraint[(e, v)]) for e in incident[v]]
            moved = []
            for i, x in enumerate(samples[v]):
                grad = 0.0
                for partners, f in terms:
                    if f.first_var == v:
                        grad += f.partial(v, x, partners[i])
                    else:
                        grad += f.partial(v, partners[i], x)
                moved.append(dom.clamp(x + config.alpha * grad))
            samples[v] = moved

    values = {}
    for v in variables:
        belief = [0.0] * d
        for e in incident[v]:
            belief = [a + b for a, b in zip(belief, r_store[(e, v)])]
        best_i = 0
        for i in range(1, d):
            if belief[i] > belief[best_i]:
                best_i = i
        values[v] = samples[v][best_i]

    # reporting convenience for the runner; not part of the message protocol
    total = 0.0
    for e in edges:
        total += constraint[(e, e[0])].value_at(values)
    return values, total
