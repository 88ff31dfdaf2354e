"""perfbench's layer wrappers against the library they wrap.

`perfbench/tracing.py` wraps library functions by module, owner and attribute
name. Deleting or renaming one of them breaks `perfbench/run.py --trace 1`
but nothing else in the library's suite, so these tests install the wrappers,
drive every engine through them, and remove them again.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from fdcop import generators, model, runtime
from fdcop.engines import afdpop
from fdcop.runtime import EngineConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_and_remove(tracing):
    instrumentation = tracing.Instrumentation(tracing.Tracer()).install()
    saved = list(instrumentation._saved)
    try:
        assert saved
        assert all(owner.__dict__[attr] is not original for owner, attr, original in saved)
    finally:
        instrumentation.remove()
    assert all(owner.__dict__[attr] is original for owner, attr, original in saved)


def test_every_engine_runs_through_the_wrappers(tracing):
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer).install()
    try:
        tree = generators.gen_tree(6, seed=1, concave=True)
        graph = generators.gen_graph(8, 0.3, seed=2)
        for engine in model.ENGINE_KINDS:
            problem = tree if engine == "ef-dpop" else graph
            runtime.run(problem, engine, EngineConfig(k_clusters=2), keep_trace=False)
    finally:
        instrumentation.remove()
    for name in ("common.util_value_protocol", "discrete.util_fn", "efdpop.value_fn",
                 "afdpop.interp", "afdpop.cluster", "afdpop.leaf_move",
                 "discrete.joint_utility", "common.best_own_response",
                 "piecewise.add", "piecewise.project", "hcms.run"):
        assert tracer.calls.get(name, 0) > 0, name


def test_table_counters_match_the_work(tracing, monkeypatch):
    """perfbench counts the rows `cluster_tuples` takes and the queries
    `_interp_many` answers from the shape of their arguments; a recorder
    installed under its wrappers counts the same work from the table's
    utilities and the query tuples."""
    counted = {"afdpop.cluster.rows_in": 0, "afdpop.interp.queries": 0}
    interp, cluster = afdpop._interp_many, afdpop.cluster_tuples

    def record_interp(table, queries, method):
        counted["afdpop.interp.queries"] += sum(1 for _ in queries)
        return interp(table, queries, method)

    def record_cluster(table, *args, **kwargs):
        counted["afdpop.cluster.rows_in"] += table.utils.size
        return cluster(table, *args, **kwargs)

    monkeypatch.setattr(afdpop, "_interp_many", record_interp)
    monkeypatch.setattr(afdpop, "cluster_tuples", record_cluster)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer).install()
    try:
        graph = generators.gen_graph(12, 0.2, seed=1)
        for engine in ("af-dpop", "caf-dpop"):
            runtime.run(graph, engine, EngineConfig(k_clusters=3), keep_trace=False)
    finally:
        instrumentation.remove()
    assert all(counted.values())
    assert {name: tracer.counters[name] for name in counted} == counted
