"""The constraint graph each Problem derives once, against networkx as an oracle."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest

from fdcop import generators, model, pseudotree, runtime
from fdcop.errors import StructureError, ValidationError

from conftest import quad

SRC = Path(__file__).resolve().parent.parent / "src"


def nx_build(problem):
    """Oracle: the networkx graph the library built before it had its own."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(problem.variables))
    for f in problem.utilities:
        graph.add_edge(f.first_var, f.second_var)
    return graph


def unvalidated(utilities, variables=None):
    """A Problem over `variables` (default: those the utilities name),
    constructed but not validated."""
    if variables is None:
        variables = sorted({v for f in utilities for v in f.scope})
    return model.Problem(agents=tuple(f"a_{v}" for v in variables), variables=tuple(variables),
                         domains={v: model.ContinuousDomain(-1.0, 1.0) for v in variables},
                         utilities=tuple(utilities), owner={v: f"a_{v}" for v in variables})


def generated_problems():
    """60 instances: 30 from `gen_tree` and 30 from `gen_graph`, most of the
    latter with cycles."""
    trees = [generators.gen_tree(2 + seed, seed) for seed in range(30)]
    graphs = [generators.gen_graph(3 + seed % 14, 0.1 + 0.05 * (seed % 6), seed)
              for seed in range(30)]
    return trees + graphs


DISCONNECTED = unvalidated([quad("a", "b", e=1.0), quad("c", "d", e=1.0), quad("d", "e", b=1.0)])


def assert_same_graph(ours, theirs):
    assert ours.nodes == tuple(theirs.nodes)
    assert ours.number_of_nodes() == theirs.number_of_nodes()
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert {frozenset(e) for e in ours.edges()} == {frozenset(e) for e in theirs.edges()}
    assert all(u < v for u, v in ours.edges())
    for v in theirs.nodes:
        assert v in ours.nodes
        assert ours.neighbors(v) == tuple(sorted(theirs.neighbors(v)))
        assert ours.degree(v) == theirs.degree(v)
    for u in theirs.nodes:
        for v in theirs.nodes:
            assert (v in ours.neighbors(u)) == theirs.has_edge(u, v)
    assert "nope" not in ours.nodes and "nope" not in ours.neighbors(ours.nodes[0])


class TestAgainstNetworkx:
    def test_generated_instances(self):
        problems = generated_problems()
        assert len(problems) == 60
        assert sum(not pseudotree.build(p.graph).is_tree() for p in problems) >= 15
        for p in problems:
            theirs = nx_build(p)
            assert_same_graph(p.graph, theirs)
            assert model.build_constraint_graph(p) is p.graph
            assert pseudotree.build(p.graph) == pseudotree.build(theirs)

    def test_connectivity_verdicts(self):
        for p in generated_problems() + [DISCONNECTED]:
            theirs = nx_build(p)
            if nx.is_connected(theirs):
                p.validate()
            else:
                with pytest.raises(ValidationError, match="^constraint graph is disconnected$"):
                    p.validate()
                with pytest.raises(StructureError):
                    pseudotree.build(p.graph)
                with pytest.raises(StructureError):
                    pseudotree.build(theirs)
        assert not nx.is_connected(nx_build(DISCONNECTED))

    def test_hand_made_shapes(self):
        cases = [
            DISCONNECTED,
            # two utilities over one pair give one edge
            unvalidated([quad("x", "y", e=1.0), quad("y", "x", a=1.0), quad("y", "z", b=1.0)]),
            # an isolated variable is a node of degree 0
            unvalidated([quad("x", "y", e=1.0)], variables=["x", "w", "y"]),
            unvalidated([], variables=["x"]),
        ]
        for p in cases:
            assert_same_graph(p.graph, nx_build(p))


class TestInvalidProblems:
    def test_undeclared_variable_is_refused_by_validate(self):
        # constructing the problem adds the stray node, as networkx did
        p = unvalidated([quad("x", "y", e=1.0), quad("y", "ghost", e=1.0)], variables=["x", "y"])
        assert p.graph.nodes == ("x", "y", "ghost")
        assert_same_graph(p.graph, nx_build(p))
        with pytest.raises(ValidationError, match="^utility references undeclared variable 'ghost'$"):
            p.validate()
        with pytest.raises(ValidationError, match="undeclared variable 'ghost'"):
            runtime.run(p, "dpop")


class TestBuiltOnce:
    @pytest.fixture
    def constructions(self, monkeypatch):
        count = []
        init = model.ConstraintGraph.__init__

        def counting_init(self, *args, **kwargs):
            count.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(model.ConstraintGraph, "__init__", counting_init)
        return count

    def test_one_per_problem(self, constructions):
        p = generators.gen_graph(10, 0.3, seed=2)
        assert len(constructions) == 1
        assert model.loads(model.dumps(p)).graph is not p.graph
        assert len(constructions) == 2

    def test_none_in_validate_or_a_run(self, constructions):
        tree = generators.gen_tree(200, seed=1)
        constructions.clear()
        tree.validate()
        for engine in model.ENGINE_KINDS:
            result = runtime.run(tree, engine, keep_trace=False)
            assert runtime.audit_isolation(result.kernel, tree, result.tree).ok
        assert constructions == []


def test_no_networkx_import(tmp_path):
    """The library never imports networkx: not on import, not in any engine,
    not in the CLI. A fresh interpreter, since this one has imported it."""
    path = tmp_path / "p.json"
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import fdcop
        from fdcop import cli, generators, model, runtime
        graph = generators.gen_graph(8, 0.3, seed=2)
        tree = generators.gen_tree(8, seed=2, concave=True)
        for engine in model.ENGINE_KINDS:
            runtime.run(tree if engine == "ef-dpop" else graph, engine)
        model.save(graph, {str(path)!r})
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", {str(path)!r}]) == 0
        assert "networkx" not in sys.modules, "networkx was imported"
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
