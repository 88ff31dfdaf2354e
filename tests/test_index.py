"""The per-Problem utility index, and byte-identity of engine outputs.

The golden digests pin assignments, message traces and reported optima of
fixed runs, so a change that alters any engine's numerics or message
schedule shows here even though it is deterministic from run to run.
"""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fdcop import generators, model, piecewise, pseudotree, runtime
from fdcop.engines import hcms
from fdcop.engines.common import UtilTable
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
        # the constraint graph is derived afresh too
        assert q.graph is not p.graph
        assert "x1" in q.graph.neighbors("x3") and "x3" not in q.graph.neighbors("x2")
        assert "x3" in p.graph.neighbors("x2") and "x3" not in p.graph.neighbors("x1")

    def test_equality_repr_and_dict_ignore_index(self):
        a = generators.gen_graph(12, 0.3, seed=7)
        b = generators.gen_graph(12, 0.3, seed=7)
        assert a == b
        assert repr(a) == repr(b)
        assert "_by_pair" not in repr(a)
        assert "graph=" not in repr(a)
        assert model.problem_to_dict(a) == model.problem_to_dict(b)
        assert model.loads(model.dumps(a)) == a
        # a different graph object, even one of another problem, changes nothing
        assert a.graph is not b.graph
        object.__setattr__(b, "graph", model.ConstraintGraph((), ()))
        assert a == b
        assert repr(a) == repr(b)
        assert model.problem_to_dict(a) == model.problem_to_dict(b)


def payload_text(payload):
    """An ef-dpop message as its variable and the float.hex of every piece
    scalar; a dpop/af/caf table as its variables and the float.hex of every
    coordinate and utility, row by row; an hcms message as its edge and the
    float.hex of each of its vectors, named; the root's optimum by repr."""
    if isinstance(payload, piecewise.Unary):
        return " ".join([payload.var] + [float.hex(v) for p in payload.pieces for v in p])
    if isinstance(payload, UtilTable):
        scalars = np.column_stack([payload.rows, payload.utils]).ravel().tolist()
        return " ".join([*payload.separator_vars] + [float.hex(v) for v in scalars])
    if "edge" in payload:
        return " ".join([*payload["edge"]] + [
            f"{key}: " + " ".join(float.hex(float(v)) for v in payload[key])
            for key in ("values", "q", "argmax") if key in payload])
    return repr(payload)


def payload_digest(problem, engine, config, monkeypatch):
    """run_digest extended by the text of every UTIL and max-sum payload in
    send order, so a change to a message's content shows even when its size
    does not."""
    payloads = []
    send = runtime.Kernel.send

    def recording_send(self, sender, receiver, kind, payload, scalar_size):
        if kind in (runtime.UTIL, runtime.MS_VARIABLE_TO_FUNCTION,
                    runtime.MS_FUNCTION_TO_VARIABLE):
            payloads.append(payload_text(payload))
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
     "69c01c7829c583063913fae224cdb0fb87dfa27cddfadf8a0a6c3995b09cff90"),
    (UNIT_TREE, "ef-dpop", EngineConfig(),
     "0134c039a6b2f0b759980719334ec8173541571a62fd595cdfef2a9a24915ad3"),
    (TREE, "dpop", EngineConfig(),
     "e18dcb33a193fe5f4054f5ef2ba4fb0953784a107aab8f231b0613f17e2ab7d3"),
    (WIDTH3_GRAPH, "dpop", EngineConfig(),
     "a29ce291fc925f7f6088ebda05161d83cd85d96cf32bdcd22a64fc509b2c4162"),
    (WIDTH3_GRAPH, "af-dpop", EngineConfig(),
     "048150dbe978316ffe98934f1bd011558041badee2de1e39bb46a166023852c1"),
    (WIDTH3_GRAPH, "caf-dpop", EngineConfig(k_clusters=4),
     "7490543fa66fbeeca8e5d45e336f8c11d8e7f84c39d6ef1ce91a3bbc2d0675b0"),
    # the tree workload's af-dpop config: about half the agents are leaves
    (TREE, "af-dpop", EngineConfig(points=3, moves=10, alpha=0.001),
     "eb9d9c35fc5202d0ebab5a03cfdb0934723b2953f70b8712c15167a5cfdb982c"),
    # leaf rows clamp to their bounds and stop at different moves
    (WIDTH3_GRAPH, "caf-dpop", EngineConfig(alpha=1.0),
     "34d314cb24cf3fad9b111e98ffb3fc4db3efb75da0b127345b039f92ed6294a8"),
    (UNIT_TREE, "af-dpop", EngineConfig(),
     "89943e259dca00e7a87944f3ce17d06b49c74a8e4619f6950e93e56ed1e66717"),
    # k = 2 is below a tree table's 3 rows, so every sent table is k-means'
    (TREE, "caf-dpop", EngineConfig(points=3, moves=10, alpha=0.001, k_clusters=2),
     "513b5238441d83aa03c99540c284f95fb0b23803d62985b688c28db67629e4a8"),
    (HCMS_GRAPH, "hcms", EngineConfig(points=5, iterations=3),
     "520f23326a7846b1a33394985f09eb220273f9180ed28a7a63d5e40b0de7a429"),
    # q vectors of 10 entries, which numpy's pairwise np.sum would reorder
    (HCMS_GRAPH, "hcms", EngineConfig(points=10, iterations=2),
     "62a4790d0d72cc9900a9cd0b13b1f396cc6ffde9229d6b4587675a5541a9c8ca"),
]


@pytest.mark.parametrize("problem, engine, config, expected", GOLDEN_PAYLOADS,
                         ids=["nonconcave-tree-ef-dpop", "unit-tree-ef-dpop", "200-dpop",
                              "16-dpop", "16-af-dpop", "16-caf-dpop", "200-af-dpop-tree-workload",
                              "16-caf-dpop-alpha1", "unit-tree-af-dpop", "200-caf-dpop-k2",
                              "30-hcms", "30-hcms-d10"])
def test_golden_payload_digest(problem, engine, config, expected, monkeypatch):
    assert payload_digest(problem, engine, config, monkeypatch) == expected


def test_sums_do_not_depend_on_the_interpreter(monkeypatch):
    """From Python 3.12 on the builtin `sum` compensates its rounding;
    `math.fsum` stands in for it here. hcms's messages and the evaluated
    utility still come out as the golden run pins them on older Pythons."""
    problem, engine, config, expected = GOLDEN_PAYLOADS[-2]
    assignment = runtime.run(problem, engine, config).assignment
    monkeypatch.setattr(model, "sum", math.fsum, raising=False)
    monkeypatch.setattr(hcms, "sum", math.fsum, raising=False)
    assert float.hex(model.evaluate_solution(problem, assignment)) == "0x1.b37fcd8a1313ep+3"
    assert payload_digest(problem, engine, config, monkeypatch) == expected
