"""The per-Problem utility index, and byte-identity of engine outputs.

The golden digests pin assignments, message traces and reported optima of
fixed runs, so a change that alters any engine's numerics or message
schedule shows here even though it is deterministic from run to run.
"""
import dataclasses
import hashlib

import pytest

from fdcop import generators, model, pseudotree, runtime
from fdcop.runtime import EngineConfig

from conftest import make_problem, quad


def run_digest(problem, engine, config):
    """sha256 over the assignment (float.hex), the trace and the optimum."""
    result = runtime.run(problem, engine, config)
    h = hashlib.sha256()
    for var in sorted(result.assignment.values):
        h.update(f"{var}={float.hex(result.assignment.values[var])}\n".encode())
    for line in result.kernel.trace_lines():
        h.update(line.encode() + b"\n")
    h.update(float.hex(result.reported_optimum).encode())
    return h.hexdigest()


TREE = generators.gen_tree(200, seed=3, concave=True)
HCMS_GRAPH = generators.gen_graph(30, 0.1, seed=4, concave=True)
WIDTH2_GRAPH = generators.gen_graph(14, 0.2, seed=3)  # induced width 2
# induced width 3: agents joining several children, separators of 2-3 variables
WIDTH3_GRAPH = generators.gen_graph(16, 0.2, seed=1)

GOLDEN = [
    (TREE, "dpop", EngineConfig(),
     "d14d0cf1f91e7732743808c2d0e9c195591dcca31a6dad809169dbdf5ecc8f8c"),
    (TREE, "ef-dpop", EngineConfig(),
     "97e36cd83f9790d9e2c119c2330783210ff3ed0a7619c02b65e683283c7229f2"),
    (TREE, "af-dpop", EngineConfig(),
     "b5085f4c8f289756a5aabf1f2eeca1f33ba9902adc50993562cc8ea5a1882916"),
    (HCMS_GRAPH, "hcms", EngineConfig(points=5, iterations=3),
     "3064f3af2fbaa2a63de43d0d7249bfc33266db2696bd4523de4a04ba4e3060f0"),
    (WIDTH2_GRAPH, "dpop", EngineConfig(),
     "72f79c41ac97938cbe20acd5c21965684fe4aba3aebcc7247d079de7466c5e75"),
    (WIDTH2_GRAPH, "af-dpop", EngineConfig(),
     "d6cbb8b465dde1a0faf2e1ce50ca9540b557923e813f22aa7453cf750b8a265f"),
    (WIDTH2_GRAPH, "caf-dpop", EngineConfig(),
     "afa9e5c948b8c2bd4e0325c50ae29dfccdf9fc1125bec20ab195774b59236879"),
    (WIDTH3_GRAPH, "af-dpop", EngineConfig(),
     "f50ebea2a4529b4003b89ffa54b8bdfa2bb42f1307a2fc6bd1b26be7e00960da"),
    (WIDTH3_GRAPH, "caf-dpop", EngineConfig(k_clusters=4),
     "fb27f0572f8bbc04a5f4fe74d86b35ae72f5fff1f620603ca530b006d4796d39"),
    (WIDTH3_GRAPH, "af-dpop", EngineConfig(interpolation="nearest"),
     "27dbe7e8b8c80493d3c16440a7a5fe63038072693a7a3a839dd1287590311153"),
    (WIDTH3_GRAPH, "af-dpop", EngineConfig(moves=0),
     "2f02bbb2c5af006a865ccea6191c311ce338aecb3ebb33e356ae1e36a353d2e8"),
    # the same digest as af-dpop(moves=0) above: the two engines agree at width 3
    (WIDTH3_GRAPH, "dpop", EngineConfig(),
     "2f02bbb2c5af006a865ccea6191c311ce338aecb3ebb33e356ae1e36a353d2e8"),
    (WIDTH3_GRAPH, "dpop", EngineConfig(points=5),
     "af5375fe4d6087dbb304ef3c563c7cd1e6f3161419fae4c1aef80a2bbee354e1"),
    (WIDTH3_GRAPH, "dpop", EngineConfig(points=2),
     "c78c9c9a27f71b26d4eaca2f26d85876c394f491ef9bc824f28fe235940a31b9"),
]


@pytest.mark.parametrize("problem, engine, config, expected", GOLDEN,
                         ids=[f"{len(g[0].variables)}-{g[1]}" for g in GOLDEN])
def test_golden_digest(problem, engine, config, expected):
    assert run_digest(problem, engine, config) == expected


def test_width2_instance():
    tree = pseudotree.build(model.build_constraint_graph(WIDTH2_GRAPH))
    assert tree.induced_width == 2


def test_width3_instance():
    tree = pseudotree.build(model.build_constraint_graph(WIDTH3_GRAPH))
    assert tree.induced_width == 3
    joins = [v for v in WIDTH3_GRAPH.variables if v != tree.root and len(tree.children[v]) >= 2]
    assert joins
    assert max(len(tree.separator[c]) for v in joins for c in tree.children[v]) >= 2


class TestUtilityIndex:
    def test_between_is_symmetric_and_identical(self):
        p = HCMS_GRAPH
        for f in p.utilities:
            u, v = f.scope
            assert p.utility_between(u, v) is f
            assert p.utility_between(v, u) is f

    def test_between_missing(self):
        p = make_problem([quad("x1", "x2", a=-1.0), quad("x2", "x3", c=-1.0)])
        assert p.utility_between("x1", "x3") is None
        assert p.utility_between("x1", "x1") is None
        assert p.utility_between("x1", "nope") is None
        assert p.utility_between("nope", "also-nope") is None

    def test_first_utility_per_pair_wins(self):
        first = quad("x1", "x2", a=-1.0)
        second = quad("x2", "x1", a=-2.0)
        p = model.Problem(agents=("a1", "a2"), variables=("x1", "x2"),
                          domains={v: model.ContinuousDomain(0.0, 1.0) for v in ("x1", "x2")},
                          utilities=(first, second), owner={"x1": "a1", "x2": "a2"})
        assert p.utility_between("x2", "x1") is first

    def test_replace_rebuilds_index(self):
        p = make_problem([quad("x1", "x2", a=-1.0), quad("x2", "x3", c=-1.0)])
        g = quad("x1", "x3", e=1.0)
        q = dataclasses.replace(p, utilities=p.utilities[:1] + (g,))
        assert q.utility_between("x3", "x1") is g
        assert q.utility_between("x2", "x3") is None
        assert p.utility_between("x2", "x3") is p.utilities[1]

    def test_equality_repr_and_dict_ignore_index(self):
        a = generators.gen_graph(12, 0.3, seed=7)
        b = generators.gen_graph(12, 0.3, seed=7)
        assert a == b
        assert repr(a) == repr(b)
        assert "_by_pair" not in repr(a)
        assert model.problem_to_dict(a) == model.problem_to_dict(b)
        assert model.loads(model.dumps(a)) == a


def payload_digest(problem, engine, config, monkeypatch):
    """run_digest extended by the repr of every UTIL payload in send order, so
    a change to a message's content shows even when its size does not."""
    payloads = []
    send = runtime.Kernel.send

    def recording_send(self, sender, receiver, kind, payload, scalar_size):
        if kind == runtime.UTIL:
            payloads.append(repr(payload))
        send(self, sender, receiver, kind, payload, scalar_size)

    monkeypatch.setattr(runtime.Kernel, "send", recording_send)
    h = hashlib.sha256(run_digest(problem, engine, config).encode())
    for text in payloads:
        h.update(text.encode() + b"\n")
    return h.hexdigest()


NONCONCAVE_TREE = generators.gen_tree(120, seed=11)
UNIT_TREE = generators.gen_tree(120, seed=12, lb=0.0, ub=1.0)

GOLDEN_PAYLOADS = [
    (NONCONCAVE_TREE, "ef-dpop", EngineConfig(),
     "ff5152d98eccd60d16f960791cdd2ab22948cb1273d58d28f0afb31f905fa9fd"),
    (UNIT_TREE, "ef-dpop", EngineConfig(),
     "6f8ffb82bbab54929c6c45c753aeb909f6f90a3d38de206f209eae951e4a3043"),
    (WIDTH3_GRAPH, "af-dpop", EngineConfig(),
     "344ff394c014756bca216b25d1e40d7c11b8e0d81f541f5c1e689fd72f8ec94b"),
    (WIDTH3_GRAPH, "caf-dpop", EngineConfig(k_clusters=4),
     "bdaf944a892462ee305039bc31c49cc7ce6108633b0d194c5643ccc3d9cebf49"),
]


@pytest.mark.parametrize("problem, engine, config, expected", GOLDEN_PAYLOADS,
                         ids=["nonconcave-tree-ef-dpop", "unit-tree-ef-dpop",
                              "16-af-dpop", "16-caf-dpop"])
def test_golden_payload_digest(problem, engine, config, expected, monkeypatch):
    assert payload_digest(problem, engine, config, monkeypatch) == expected
