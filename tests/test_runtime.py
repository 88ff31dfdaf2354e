"""Simulated message-passing kernel: accounting, isolation, determinism."""
import math

import pytest

from fdcop import generators, model, pseudotree, runtime
from fdcop.engines import discrete
from fdcop.errors import ArgumentError, CapacityError, ProtocolError
from fdcop.runtime import SYSTEM, UTIL, VALUE, EngineConfig, Kernel


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig()

    @pytest.mark.parametrize("kwargs", [
        {"points": 0}, {"moves": -1}, {"alpha": 0.0}, {"alpha": float("nan")},
        {"alpha": float("inf")}, {"k_clusters": 0}, {"iterations": 0},
        {"interpolation": "cubic"},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ArgumentError):
            EngineConfig(**kwargs)


class TestKernel:
    def test_counts_and_sizes(self):
        k = Kernel()
        k.send("a", "b", UTIL, {"rows": []}, 12)
        k.send("b", "a", VALUE, {}, 3)
        assert k.stats.total_messages == 2
        assert k.stats.messages_by_kind == {UTIL: 1, VALUE: 1}
        assert k.stats.total_scalars == 15
        assert k.stats.max_message_scalars == 12

    def test_collect_filters_by_kind_in_order(self):
        k = Kernel()
        k.send("a", "c", UTIL, 1, 0)
        k.send("b", "c", VALUE, 2, 0)
        k.send("b", "c", UTIL, 3, 0)
        utils = k.collect("c", UTIL)
        assert [m.payload for m in utils] == [1, 3]
        assert [m.payload for m in k.collect("c", VALUE)] == [2]
        assert k.collect("c", UTIL) == []

    def test_rejects_unknown_kind(self):
        with pytest.raises(ArgumentError):
            Kernel().send("a", "b", "GOSSIP", None, 0)

    def test_trace_lines(self):
        k = Kernel()
        k.send("a", "b", UTIL, None, 4)
        assert k.trace_lines() == ["0,a,b,UTIL,4"]


class TestRun:
    def test_message_totals_dpop_family(self):
        p = generators.gen_tree(10, 0)
        for engine in ("dpop", "ef-dpop", "af-dpop", "caf-dpop"):
            result = runtime.run(p, engine, EngineConfig(points=3))
            assert result.stats.total_messages == 20, engine
            assert result.stats.messages_by_kind[UTIL] == 10
            assert result.stats.messages_by_kind[VALUE] == 10

    def test_message_totals_hcms(self):
        p = generators.gen_graph(10, 0.3, 1)
        g = model.build_constraint_graph(p)
        for iters in (1, 3):
            result = runtime.run(p, "hcms", EngineConfig(iterations=iters))
            assert result.stats.total_messages == 4 * iters * g.number_of_edges()

    def test_unknown_engine(self):
        p = generators.gen_tree(3, 0)
        with pytest.raises(ArgumentError):
            runtime.run(p, "simplex", EngineConfig())

    def test_assignment_is_feasible(self):
        p = generators.gen_graph(8, 0.3, 2)
        for engine in ("dpop", "af-dpop", "caf-dpop", "hcms"):
            result = runtime.run(p, engine, EngineConfig(points=3))
            model.evaluate_solution(p, result.assignment)  # raises if not

    @pytest.mark.parametrize("engine", model.ENGINE_KINDS)
    def test_one_variable_problem(self, engine):
        p = model.Problem(agents=("a",), variables=("x",),
                          domains={"x": model.ContinuousDomain(-3.0, 5.0)},
                          utilities=(), owner={"x": "a"})
        result = runtime.run(p, engine, EngineConfig())
        x = result.assignment["x"]
        assert math.isfinite(x) and p.domains["x"].contains(x)
        assert result.reported_optimum == 0.0

    def test_determinism(self):
        p = generators.gen_graph(8, 0.3, 3)
        cfg = EngineConfig(points=3, moves=5, seed=7)
        r1 = runtime.run(p, "caf-dpop", cfg)
        r2 = runtime.run(p, "caf-dpop", cfg)
        assert r1.assignment.values == r2.assignment.values
        assert r1.kernel.trace == r2.kernel.trace
        assert r1.reported_optimum == r2.reported_optimum

    def test_capacity_error_carries_stats(self):
        p = generators.gen_graph(12, 0.4, 0)
        with pytest.raises(CapacityError) as err:
            runtime.run(p, "dpop", EngineConfig(points=9, row_cap=100))
        assert err.value.stats is not None
        assert err.value.stats.total_messages >= 0

    def test_phase_timings_recorded(self):
        p = generators.gen_tree(5, 0)
        result = runtime.run(p, "dpop", EngineConfig())
        assert {"pseudotree", "util", "value"} <= set(result.stats.phase_timings)


class TestOutcomeCheck:
    """`run` refuses an engine outcome that is not a finite, in-domain
    assignment of every variable with a finite optimum."""

    @pytest.fixture
    def problem(self):
        return generators.gen_tree(4, 0)

    def patch_engine(self, monkeypatch, values, optimum=0.0):
        monkeypatch.setattr(discrete, "run", lambda *args: (values, optimum))

    def test_nan_value(self, monkeypatch, problem):
        self.patch_engine(monkeypatch, {v: float("nan") for v in problem.variables})
        with pytest.raises(ProtocolError, match=r"dpop: value nan of x000 lies outside"):
            runtime.run(problem, "dpop", EngineConfig())

    def test_out_of_domain_value(self, monkeypatch, problem):
        values = {v: 0.0 for v in problem.variables}
        values["x002"] = 100.5
        self.patch_engine(monkeypatch, values)
        with pytest.raises(ProtocolError, match="x002"):
            runtime.run(problem, "dpop", EngineConfig())

    def test_missing_value(self, monkeypatch, problem):
        values = {v: 0.0 for v in problem.variables if v != "x003"}
        self.patch_engine(monkeypatch, values)
        with pytest.raises(ProtocolError, match="dpop: no value for x003"):
            runtime.run(problem, "dpop", EngineConfig())

    @pytest.mark.parametrize("optimum", [float("inf"), float("nan")])
    def test_non_finite_optimum(self, monkeypatch, problem, optimum):
        self.patch_engine(monkeypatch, {v: 0.0 for v in problem.variables}, optimum)
        with pytest.raises(ProtocolError, match="dpop: reported optimum"):
            runtime.run(problem, "dpop", EngineConfig())


class TestAuditIsolation:
    def test_all_engines_pass(self):
        p = generators.gen_graph(8, 0.3, 5)
        for engine in ("dpop", "af-dpop", "caf-dpop", "hcms"):
            result = runtime.run(p, engine, EngineConfig(points=3))
            report = runtime.audit_isolation(result.kernel, p, result.tree)
            assert report.ok, (engine, report.violations[:3])

    def test_ef_dpop_passes_on_trees(self):
        p = generators.gen_tree(8, 5)
        result = runtime.run(p, "ef-dpop", EngineConfig())
        assert runtime.audit_isolation(result.kernel, p, result.tree).ok

    def test_negative_control(self):
        # an agent reading a non-neighbor's domain must be flagged
        p = generators.gen_tree(6, 0)
        tree = pseudotree.build(model.build_constraint_graph(p))
        kernel = Kernel()
        post = tree.post_order()
        leaf = post[0]
        far = next(v for v in post
                   if v != leaf and v not in tree.separator[leaf]
                   and leaf not in tree.separator[v])
        ctx = runtime.AgentContext(kernel, p, tree, leaf)
        ctx.domain_of(far)
        report = runtime.audit_isolation(kernel, p, tree)
        assert not report.ok
        assert (leaf, f"domain:{far}") in report.violations
