"""Tests of the benchmark itself: span arithmetic, metric extraction on tiny
instances, and negative controls for the correctness checks.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from fdcop import EngineConfig, model  # noqa: E402
from fdcop.generators import gen_graph, gen_tree  # noqa: E402
from tracing import Instrumentation, Tracer, module_self  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    # outer 0..10 holds two children, 1..3 and 4..6
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))

    def outer():
        tracer.timed("m.child", lambda: None)
        tracer.timed("m.child", lambda: None)

    tracer.timed("m.outer", outer)
    assert tracer.calls == {"m.outer": 1, "m.child": 2}
    assert tracer.total == {"m.outer": 10.0, "m.child": 4.0}
    assert tracer.self_time == {"m.outer": 6.0, "m.child": 4.0}
    assert module_self(tracer.self_time, "m") == 10.0
    assert module_self(tracer.self_time, "other") == 0.0
    (c1, c2, o) = tracer.spans
    assert o[1] == "m.outer" and o[4] == -1
    assert c1[4] == c2[4] == o[0]


def test_aggregate_only_calls_count_but_leave_no_span():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 5.0, 9.0))
    tracer.timed("afdpop.run", lambda: tracer.timed("model.evaluate", lambda: None))
    assert [s[1] for s in tracer.spans] == ["afdpop.run"]
    assert tracer.self_time["afdpop.run"] == 6.0
    assert tracer.total["model.evaluate"] == 3.0


def _instance(problem):
    return workloads._instance("tiny", problem)


def _traced(jobs):
    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        runs = [runner.run_job(j, call=lambda fn, *a: tracer.timed("runtime.run", fn, *a))
                for j in jobs]
    finally:
        instrumentation.remove()
    return runs, bench.layer_metrics(tracer.snapshot())


def test_layer_counts_match_the_work_computed_from_the_input():
    inst = _instance(gen_graph(7, 0.5, seed=3, concave=True))
    dpop = workloads.Job(inst, "dpop", EngineConfig(points=3))
    runs, m = _traced([dpop])
    assert runs[0].status == workloads.OK
    assert m["discrete.joint_utility.calls"] == workloads.grid_cells(inst.tree, 3)
    assert m["runtime.send.calls"] == workloads.predicted_messages(dpop)
    assert m["traced_solve_s"] > m["discrete.joint_utility_s"] > 0.0

    hcms = workloads.Job(inst, "hcms", EngineConfig(points=3, iterations=2))
    runs, m = _traced([hcms])
    edges = inst.graph.number_of_edges()
    # the inner loop, then one value_at per edge for the reported total
    assert m["model.evaluate.calls"] == workloads.hcms_cells(inst.graph, hcms.config) + edges
    assert m["hcms.self_s"] > 0.0 and m["pseudotree.build_s"] == 0.0


def test_every_engine_feeds_its_layers_and_the_wrappers_come_off():
    original = model.Problem.__dict__["utility_between"]
    tree = _instance(gen_tree(8, seed=1, concave=True))
    jobs = [workloads.Job(tree, "ef-dpop", EngineConfig()),
            workloads.Job(tree, "af-dpop", EngineConfig(points=3, moves=2, alpha=0.001)),
            workloads.Job(tree, "caf-dpop", EngineConfig(points=3, k_clusters=2, moves=2,
                                                         alpha=0.001))]
    runs, m = _traced(jobs)
    assert [r.status for r in runs] == [workloads.OK] * 3
    assert m["piecewise.project.calls"] == len(tree.problem.variables) - 1
    assert m["piecewise.pieces_out"] >= m["piecewise.project.calls"]
    assert m["afdpop.leaf_move.calls"] > 0 and m["afdpop.cluster.calls"] > 0
    assert m["afdpop.cluster.rows_in"] > 2 * m["afdpop.cluster.calls"] - 1
    assert m["efdpop.self_s"] > 0.0 and m["afdpop.self_s"] > 0.0
    assert m["common.util_value_protocol_s"] > 0.0
    assert model.Problem.__dict__["utility_between"] is original


def test_untraced_metrics_split_time_by_engine_and_phase():
    inst = _instance(gen_tree(6, seed=2, concave=True))
    jobs = [workloads.Job(inst, "dpop", EngineConfig(points=3)),
            workloads.Job(inst, "hcms", EngineConfig(points=3))]
    (runs,) = bench.timed_passes(jobs, 0.0, [])
    m = bench.untraced_metrics(runs)
    assert m["solve_s"] == pytest.approx(m["dpop_s"] + m["hcms_s"])
    assert m["ef-dpop_s"] == 0.0
    assert m["runtime.phase.util_s"] > 0.0 and m["runtime.phase.maxsum_s"] > 0.0
    phases = sum(v for k, v in m.items() if k.startswith("runtime.phase."))
    assert m["runtime.run_overhead_s"] == pytest.approx(m["solve_s"] - phases)


def test_correct_jobs_pass_every_check():
    inst = _instance(gen_tree(6, seed=4, concave=True))
    jobs = [workloads.Job(inst, "dpop", EngineConfig(points=3)),
            workloads.Job(inst, "ef-dpop", EngineConfig())]
    ledger = bench.Ledger()
    reference = bench.check_pass(jobs, oracle_kinds=True)
    again = bench.check_pass(jobs, oracle_kinds=False)
    bench.record([reference, again] + bench.timed_passes(jobs, 0.0, []), reference, ledger)
    assert ledger.failures == [] and ledger.attempted == 6
    assert all(len(r["trace_digest"]) == 64 for r in reference)


def test_negative_control_wrong_expected_outcome_is_a_failure():
    inst = _instance(gen_tree(6, seed=4, concave=True))
    wrong = workloads.Job(inst, "dpop", EngineConfig(points=3), expected=workloads.CAPACITY)
    right = workloads.Job(inst, "ef-dpop", EngineConfig())
    ledger = bench.Ledger()
    reference = bench.check_pass([wrong, right], oracle_kinds=False)
    bench.record([reference], reference, ledger)
    assert ledger.attempted == 2
    assert len(ledger.failures) == 1 and "expected capacity, got ok" in ledger.failures[0]

    refused = workloads.Job(inst, "dpop", EngineConfig(points=3, row_cap=2))
    r = runner.run_job(refused)
    assert r.status == workloads.CAPACITY and r.stats is not None
    assert runner.outcome_problems(r)


def test_negative_control_oracle_and_digest_mismatches_are_failures():
    inst = _instance(gen_tree(6, seed=4, concave=True))
    job = workloads.Job(inst, "dpop", EngineConfig(points=3))
    good = runner.run_job(job, keep_trace=True)
    assert runner.quality_problems([good], oracle_kinds=True) == []
    off = dataclasses.replace(good, result=dataclasses.replace(
        good.result, reported_optimum=good.result.reported_optimum + 1.0))
    assert runner.quality_problems([off], oracle_kinds=True)

    reference = bench.check_pass([job], oracle_kinds=True)
    tampered = dict(reference[0], digest="0" * 64, trace_digest="1" * 64)
    ledger = bench.Ledger()
    bench.record([reference, [tampered]], reference, ledger)
    assert ledger.attempted == 2 and len(ledger.failures) == 1
    assert "assignment digest" in ledger.failures[0]
    assert "message trace" in ledger.failures[0]


def test_every_job_run_gets_a_speed_probe():
    inst = _instance(gen_tree(6, seed=2, concave=True))
    jobs = [workloads.Job(inst, "dpop", EngineConfig(points=3)),
            workloads.Job(inst, "ef-dpop", EngineConfig())]
    probes = []
    passes = bench.timed_passes(jobs, 0.0, probes)
    assert len(passes) == 1 and len(probes) == bench.PROBES_PER_PASS
    assert all(p > 0.0 for p in probes)


def test_an_exception_from_the_library_is_a_failed_run_not_a_crash():
    cyclic = _instance(gen_graph(6, 0.8, seed=1, concave=True))
    r = runner.run_job(workloads.Job(cyclic, "ef-dpop", EngineConfig()))
    assert r.status == "StructureError" and r.stats is None
    assert runner.outcome_problems(r) == [f"expected ok, got StructureError {r.error}"]
