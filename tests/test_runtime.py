"""Simulated message-passing kernel: accounting, isolation, determinism."""
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fdcop import cli, generators, model, pseudotree, runtime
from fdcop.engines import common, discrete
from fdcop.errors import ArgumentError, CapacityError, ProtocolError
from fdcop.runtime import SYSTEM, UTIL, VALUE, EngineConfig, Kernel


class TestEngineConfig:
    def test_defaults_valid(self):
        EngineConfig()

    @pytest.mark.parametrize("kwargs", [
        {"points": 0}, {"moves": -1}, {"alpha": 0.0}, {"alpha": float("nan")},
        {"alpha": float("inf")}, {"k_clusters": 0}, {"iterations": 0},
        {"interpolation": "cubic"},
        # counts are integers, bools aside, so NaN, inf or a fraction fails here
        # and not as a traceback inside an engine
        {"points": 2.5}, {"points": float("nan")}, {"points": True},
        {"moves": float("nan")}, {"moves": float("inf")}, {"moves": 2.5},
        {"k_clusters": float("nan")}, {"iterations": float("nan")},
        {"row_cap": float("nan")},
        # alpha is a real number and seed an integer, bools aside, so a string
        # or None fails here and not as a TypeError
        {"alpha": "0.1"}, {"alpha": None}, {"alpha": True},
        {"seed": None}, {"seed": 1.5}, {"seed": "x"}, {"seed": True},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ArgumentError):
            EngineConfig(**kwargs)

    def test_numpy_integers_pass(self):
        config = EngineConfig(points=np.int64(2), row_cap=np.int32(100))
        assert config.points == 2 and config.row_cap == 100

    def test_numpy_and_integer_alphas_and_seeds_pass(self):
        config = EngineConfig(alpha=np.float32(0.5), seed=np.int64(3))
        assert config.alpha == 0.5 and config.seed == 3
        assert EngineConfig(alpha=1, seed=-2).alpha == 1

    def test_readme_lists_every_knob(self):
        """The backticked names that open the bullets of README's "Key knobs
        in `EngineConfig`" list are exactly the config's fields."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("Key knobs in `EngineConfig`:\n\n", 1)[1].split("\n\n", 1)[0]
        listed = [name for item in section.split("\n- ")
                  for name in re.findall(r"`(\w+)`", item.split(" — ", 1)[0])]
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(EngineConfig))


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

    def test_phase_adds_the_time_inside_its_block(self, monkeypatch):
        ticks = iter([1.0, 3.0, 10.0, 14.0])
        monkeypatch.setattr(runtime.time, "perf_counter", lambda: next(ticks))
        k = Kernel()
        with k.phase("util"):
            pass
        with pytest.raises(CapacityError), k.phase("util"):
            raise CapacityError("refused")
        assert k.stats.phase_timings == {"util": 6.0}

    def test_trace_lines(self):
        k = Kernel()
        k.send("a", "b", UTIL, None, 4)
        assert k.trace_lines() == ["0,a,b,UTIL,4"]

    def test_trace_keeps_one_tuple_per_message(self):
        k = Kernel()
        k.send("a", "b", UTIL, None, 4)
        k.send("b", "a", VALUE, None, 1)
        assert k.trace == [("a", "b", UTIL, 4), ("b", "a", VALUE, 1)]
        assert k.trace_lines() == ["0,a,b,UTIL,4", "1,b,a,VALUE,1"]
        untraced = Kernel(keep_trace=False)
        untraced.send("a", "b", UTIL, None, 4)
        assert untraced.trace == [] and untraced.stats.total_messages == 1


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
        x = result.assignment.values["x"]
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
        assert "util" in err.value.stats.phase_timings

    def test_phase_timings_recorded(self):
        p = generators.gen_tree(5, 0)
        result = runtime.run(p, "dpop", EngineConfig())
        assert {"pseudotree", "util", "value"} <= set(result.stats.phase_timings)


class TestCapacityRefusals:
    """The refusing jobs of the benchmark's `capacity` workload: each text,
    and the statistics up to the refusal. dpop's comes from the size plan,
    before the first message; af's and caf's come from tables only the run
    computes."""

    @pytest.mark.parametrize("args, engine, config, message, messages, scalars", [
        ((20, 0.1, 2), "af-dpop", EngineConfig(points=4, moves=10, alpha=0.001),
         "interpolation workload 146496x2688 exceeds the pair cap", 13, 14_496),
        ((30, 0.1, 5), "caf-dpop", EngineConfig(points=4, k_clusters=10, moves=10, alpha=0.001),
         "x022: grid table would hold 57600000 rows (cap 10000000)", 14, 536),
        ((14, 0.6, 0), "dpop", EngineConfig(points=7),
         "x010: grid table would hold 40353607 rows (cap 10000000)", 0, 0),
    ], ids=["af-dpop", "caf-dpop", "dpop"])
    def test_refusal_text_and_partial_stats(self, args, engine, config, message, messages,
                                            scalars):
        n, p1, seed = args
        p = generators.gen_graph(n, p1, seed=seed, concave=engine != "dpop")
        with pytest.raises(CapacityError) as err:
            runtime.run(p, engine, config, keep_trace=False)
        assert str(err.value) == message
        assert (err.value.stats.total_messages, err.value.stats.total_scalars) == (messages,
                                                                                  scalars)


class TestSizePlan:
    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop"])
    @pytest.mark.parametrize("moves", [0, 10])
    def test_each_agent_reads_each_separator_domain_once(self, engine, moves):
        p = generators.gen_graph(12, 0.4, 0, concave=True)
        reads = runtime.run(p, engine, EngineConfig(moves=moves)).kernel.reads
        tree = p.tree
        assert sorted(reads) == sorted((v, f"domain:{w}") for v in p.variables
                                       for w in tree.separator[v])

    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop", "hcms"])
    def test_an_over_cap_grid_is_refused_before_any_grid_is_built(self, monkeypatch, engine):
        # a million points a variable: building even one grid would take
        # longer than refusing; every engine's grids come from
        # `common.grid_cache`, which calls `common.discretize`
        built = []
        real = common.discretize

        def discretize(domain, d):
            built.append(d)
            return real(domain, d)

        monkeypatch.setattr(common, "discretize", discretize)
        with pytest.raises(CapacityError):
            runtime.run(generators.gen_graph(30, 0.1, seed=1), engine,
                        EngineConfig(points=10**6))
        assert built == []

    @pytest.mark.parametrize("engine", ["dpop", "af-dpop", "caf-dpop", "hcms"])
    def test_the_cap_comes_before_a_domain_too_narrow_for_the_points(self, engine):
        # [1, 1 + 1 ulp] holds 2 distinct points, not 3
        p = generators.gen_tree(4, seed=0)
        narrow = model.ContinuousDomain(1.0, math.nextafter(1.0, 2.0))
        p = model.Problem(agents=p.agents, variables=p.variables,
                          domains={v: narrow for v in p.variables}, utilities=p.utilities,
                          owner=p.owner)
        with pytest.raises(ArgumentError, match="cannot place 3 distinct finite points"):
            runtime.run(p, engine, EngineConfig(points=3))
        with pytest.raises(CapacityError) as err:
            runtime.run(p, engine, EngineConfig(points=3, row_cap=8))
        assert err.value.stats.total_messages == 0

    def test_plan_refuses_inside_the_util_phase(self):
        p = generators.gen_graph(14, 0.6, seed=0)
        with pytest.raises(CapacityError) as err:
            runtime.run(p, "af-dpop", EngineConfig(points=7, moves=0))
        assert err.value.stats.total_messages == 0
        assert set(err.value.stats.phase_timings) == {"pseudotree", "util"}


class TestOneTreePerProblem:
    """A problem builds its pseudo-tree once, on first use, and every run,
    audit and CLI command on it reads that one tree."""

    def test_one_build_across_runs_audit_and_cli(self, monkeypatch, capsys):
        p = generators.gen_tree(6, 1, concave=True)
        builds = []
        real_build = pseudotree.build

        def counting_build(graph):
            builds.append(graph)
            return real_build(graph)

        monkeypatch.setattr(pseudotree, "build", counting_build)
        p.validate()
        for engine in model.DPOP_FAMILY * 2:
            result = runtime.run(p, engine, EngineConfig())
            assert runtime.audit_isolation(result.kernel, p, result.tree).ok
        assert all(ok for _, ok, _ in cli.verify_problem(p, 3))
        monkeypatch.setattr(generators, "gen_tree", lambda *args, **kwargs: p)
        assert cli.main(["generate", "tree", "-n", "6"]) == cli.EXIT_OK
        capsys.readouterr()
        assert builds == [p.graph]

    def test_result_reads_the_problem_tree(self):
        p = generators.gen_graph(7, 0.4, 3)
        for engine in ("dpop", "af-dpop", "caf-dpop"):
            assert runtime.run(p, engine, EngineConfig()).tree is p.tree
        assert runtime.run(p, "hcms", EngineConfig()).tree is None

    def test_derived_tree_is_not_part_of_the_problem(self):
        p = generators.gen_tree(5, 2)
        q = dataclasses.replace(p)
        tree = p.tree
        assert q.tree is not tree and q.tree == tree
        assert p == q and repr(p) == repr(q)
        assert model.problem_to_dict(p) == model.problem_to_dict(generators.gen_tree(5, 2))


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
        post = tree.post_order
        leaf = post[0]
        far = next(v for v in post
                   if v != leaf and v not in tree.separator[leaf]
                   and leaf not in tree.separator[v])
        ctx = runtime.AgentContext(kernel, p, tree, leaf)
        ctx.domain_of(far)
        report = runtime.audit_isolation(kernel, p, tree)
        assert not report.ok
        assert (leaf, f"domain:{far}") in report.violations


class TestReadLog:
    def test_only_domain_reads_by_name_are_logged(self):
        # an agent's own domain, constraints and tree data are not logged
        p = generators.gen_tree(8, 5)
        reads = {engine: runtime.run(p, engine, EngineConfig()).kernel.reads
                 for engine in ("dpop", "ef-dpop", "af-dpop", "hcms")}
        for log in reads.values():
            for agent, key in log:
                assert key.startswith("domain:") and key != f"domain:{agent}"
        assert reads["dpop"] and reads["hcms"] == []
