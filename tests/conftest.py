"""Shared builders for small hand-made problem instances."""
import networkx as nx
import numpy as np
import pytest

from fdcop.engines.common import UtilTable
from fdcop.model import ContinuousDomain, Problem, QuadraticBinaryUtility


def make_problem(utilities, lb=-100.0, ub=100.0, domains=None):
    """Problem over the variables mentioned by the utilities, one agent each."""
    variables = sorted({v for f in utilities for v in f.scope})
    agents = tuple(f"a_{v}" for v in variables)
    dom = {v: ContinuousDomain(lb, ub) for v in variables}
    if domains:
        dom.update(domains)
    problem = Problem(
        agents=agents,
        variables=tuple(variables),
        domains=dom,
        utilities=tuple(utilities),
        owner={v: f"a_{v}" for v in variables},
    )
    problem.validate()
    return problem


def util_table(separator_vars, rows):
    """A UtilTable from ((values...), utility) pairs."""
    values = np.array([v for v, _ in rows], dtype=float).reshape(len(rows), len(separator_vars))
    return UtilTable(separator_vars, values, np.array([u for _, u in rows], dtype=float))


def nx_copy(graph):
    """A `networkx.Graph` with a `ConstraintGraph`'s nodes and edges in its
    order, for tests that use networkx as an oracle."""
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes)
    copy.add_edges_from(graph.edges())
    return copy


def quad(first, second, a=0.0, b=0.0, c=0.0, d=0.0, e=0.0, f0=0.0):
    return QuadraticBinaryUtility(first, second, a, b, c, d, e, f0)


@pytest.fixture
def chain3():
    """x1 - x2 - x3 with concave quadratics."""
    return make_problem([
        quad("x1", "x2", a=-1.0, c=-1.0, e=1.0, b=2.0),
        quad("x2", "x3", a=-2.0, c=-1.0, e=-1.0, d=3.0),
    ])
