"""Hybrid continuous max-sum baseline.

Max-sum on the factor graph, one function node per binary utility hosted by
the owner of its lexicographically smaller variable. Each iteration exchanges
variable-to-function and function-to-variable vectors over the variables'
current sample sets, then every sample takes one clamped gradient step using
the best partner value reported by each adjacent function. Variables decide
positionally: the sample index with the best summed incoming vector wins,
ties going to the smallest index.

Samples, q and r vectors and partners are read-only float arrays, one entry
per sample. A q vector's mean sums it left to right, on every interpreter.
Variable-node sums past the float range go to inf or NaN silently. Every
sample step is `common.clamped_step`, the one step rule of af/caf-dpop too.

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
from .common import UtilSum, clamped_step, discretize, joined


def frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def run(contexts, graph, kernel: Kernel, config: EngineConfig):
    d = config.points
    variables = sorted(contexts)
    edges = sorted(graph.edges())  # each (u, v) with u < v

    if edges and d * d > config.row_cap:  # refused before any sample, like dpop
        raise CapacityError(f"function nodes would join {d * d} cells each (cap {config.row_cap})")
    samples = {v: frozen(np.array(discretize(contexts[v].own_domain(), d))) for v in variables}
    incident = {v: [] for v in variables}
    for e in edges:
        for v in e:
            incident[v].append(e)
    # each endpoint's own utility over each of its edges, looked up once
    constraint = {(e, v): contexts[v].constraint_with(e[0] if v == e[1] else e[1])
                  for e in edges for v in e}
    r_store = {(e, v): np.zeros(d) for e in edges for v in e}
    partner_at = {}

    def summed(v, skip=None):
        """0.0 plus v's stored r vectors in edge order, but the one over `skip`."""
        total = np.zeros(d)
        for e in incident[v]:
            if e != skip:
                total += r_store[(e, v)]
        return total

    for _ in range(config.iterations):
        # variable nodes: q = mean-centered sum of the other functions' vectors
        with np.errstate(over="ignore", invalid="ignore"):
            for v in variables:
                for e in incident[v]:
                    q = summed(v, skip=e)
                    q -= q.cumsum()[-1] / d
                    payload = {"edge": e, "values": samples[v], "q": frozen(q)}
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
        for (host, v, e), (s, partner, r) in zip(sends, joined(sums, config.row_cap)):
            payload = {"edge": e, "values": frozen(r), "argmax": frozen(s.candidates[partner])}
            kernel.send(host, v, MS_FUNCTION_TO_VARIABLE, payload, d)

        # variable nodes: store the vectors, then move every sample one step
        for v in variables:
            for m in kernel.collect(v, MS_FUNCTION_TO_VARIABLE):
                r_store[(m.payload["edge"], v)] = m.payload["values"]
                partner_at[(m.payload["edge"], v)] = m.payload["argmax"]
        with np.errstate(over="ignore", invalid="ignore"):
            for v in variables:
                x, grad = samples[v], np.zeros(d)
                for e in incident[v]:
                    f, ys = constraint[(e, v)], partner_at[(e, v)]
                    grad += f.partial(v, x, ys) if f.first_var == v else f.partial(v, ys, x)
                dom = contexts[v].own_domain()
                samples[v] = frozen(clamped_step(x, x + config.alpha * grad, dom.lb, dom.ub))

    with np.errstate(over="ignore", invalid="ignore"):
        values = {v: float(samples[v][summed(v).argmax()]) for v in variables}

    # reporting convenience for the runner; not part of the message protocol
    return values, left_sum(constraint[(e, e[0])].value_at(values) for e in edges)
