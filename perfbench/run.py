"""Pinned benchmark of the fdcop solvers.

    python3 perfbench/run.py --workload tree --seed 1 --seconds 15 --trace 0

Runs one workload (see workloads.py) against the library in ``src/``, from
this single process and with no worker threads, and prints what it measured.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, every job with its digests, the per-engine times and
the exact work counts.

``--trace 0`` measures the end-to-end metrics with tracing off. Set-up is
timed three times, in fresh interpreters (import, instance generation, the
first cold ``run()``). An untimed check pass with ``keep_trace=True`` takes
the assignment and message-trace digests and runs the grid oracles; then
every job runs once per pass, passes repeating for ``--seconds``, and each
metric is the median over passes. Every timed run is compared with the
check pass.

``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
passes with the layer wrappers of tracing.py installed, and prints the
per-layer metrics; the spans go to ``perfbench/out/``.

Times are scaled to a reference speed; see PROBE_REF_S. perfbench/README.md
lists the workloads, the checks and every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# runner, workloads and tracing import fdcop, so they are imported inside the
# functions that need them: set-up timing has to include the first import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_SAMPLES = 3
PROBES_AROUND_SETUP = 10
PROBES_PER_PASS = 20
SETUP_TIMEOUT_S = 60
ENGINES = ("dpop", "ef-dpop", "af-dpop", "caf-dpop", "hcms")
# workloads whose dpop optimum is checked against the grid oracle
ORACLE_WORKLOADS = ("tree", "graph")

# Seconds speed_probe() takes, as the median of its runs on the host where
# the benchmark was defined (2 vCPUs shared with other tenants, Python
# 3.11.7). Every time the benchmark reports is scaled to that speed: a
# measured time t becomes t * PROBE_REF_S / (median probe time of the run).
# That host alternates, for seconds to minutes at a time, between two speeds
# about 1.7x apart. In one 60 s measurement, over 10 s windows, raw job times
# spread by +-12% and scaled ones by +-2-4%; in another, whose slowdowns hit
# the jobs and the probe unevenly, scaling gained nothing. The raw times are
# printed on the "wall" line.
PROBE_REF_S = 0.0019


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop of tuple, dict and float work,
    the mix the engines spend their time in. It calls nothing in fdcop."""
    start = time.perf_counter()
    table: dict[tuple[int, int], float] = {}
    for i in range(5000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0.0) + i * 0.5
    return time.perf_counter() - start


def setup(workload: str, seed: int):
    """Import the library, build the workload and run its first job cold.
    Returns the seconds taken, the median speed probe around it, the jobs
    and the first run."""
    probes = [speed_probe() for _ in range(PROBES_AROUND_SETUP)]
    start = time.perf_counter()
    import runner
    import workloads

    jobs = workloads.WORKLOADS[workload](seed)
    first = runner.run_job(jobs[0])
    seconds = time.perf_counter() - start
    probes += [speed_probe() for _ in range(PROBES_AROUND_SETUP)]
    return seconds, statistics.median(probes), jobs, first


def setup_in_fresh_interpreter(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, median probe) measured in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["probe_s"]


def probe_before(jobs, probes: list[float]) -> None:
    """Speed probes before a job: at least one, and about PROBES_PER_PASS a pass."""
    probes.extend(speed_probe() for _ in range(-(-PROBES_PER_PASS // len(jobs))))


def timed_passes(jobs, seconds: float, probes: list[float]):
    """Run every job once per pass until ``seconds`` have passed, with speed
    probes before each job; each run is reduced to a summary at once, so no
    pass's results stay alive."""
    import runner

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runs = []
        for job in jobs:
            probe_before(jobs, probes)
            runs.append(summarize(runner.run_job(job)))
        passes.append(runs)
    return passes


def summarize(r) -> dict:
    import runner

    s = r.stats
    return {
        "job": r.job,
        "seconds": r.seconds,
        "status": r.status,
        "digest": r.assignment_digest,
        "stats": r.stats_key,
        "messages": s.total_messages if s else 0,
        "scalars": s.total_scalars if s else 0,
        "max_scalars": s.max_message_scalars if s else 0,
        "phases": dict(s.phase_timings) if s else {},
        "problems": runner.outcome_problems(r),
    }


def pass_seconds(runs, engine: str | None = None) -> float:
    return sum(r["seconds"] for r in runs if engine is None or r["job"].engine == engine)


def median_of(passes, fn) -> float:
    return statistics.median(fn(runs) for runs in passes)


def median_by_name(rows: list[dict]) -> dict:
    """Per-name median over passes; counts repeat exactly, so they stay ints."""
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        ints = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if ints else statistics.median(values)
    return out


class Ledger:
    """Counts job runs and the runs whose outcome was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


def check_pass(jobs, oracle_kinds: bool, audit=None) -> list[dict]:
    """One untimed run of every job with keep_trace=True: summaries with the
    trace digest, the utility reached, the read-log length, and the problems
    found by the oracles and, if given, the isolation audit."""
    import runner
    from fdcop import evaluate_solution

    runs = [runner.run_job(job, keep_trace=True) for job in jobs]
    summaries = [summarize(r) for r in runs]
    position = {id(r): i for i, r in enumerate(runs)}
    for r, problem in runner.quality_problems(runs, oracle_kinds):
        summaries[position[id(r)]]["problems"].append(problem)
    for r, s in zip(runs, summaries):
        if r.result is None:
            continue
        s["trace_digest"] = runner.trace_digest(r)
        s["utility"] = evaluate_solution(r.job.instance.problem, r.result.assignment)
        s["reads"] = len(r.result.kernel.reads)
        if audit is not None:
            report = audit(r)
            if not report.ok:
                s["problems"].append(f"isolation audit: {report.violations[:3]}")
    return summaries


def record(passes, reference, ledger: Ledger) -> None:
    """Enter every run in the ledger. A run that is not the reference must
    reproduce its assignment digest, message statistics and, where both kept
    one, message-trace digest."""
    for runs in passes:
        for r, ref in zip(runs, reference):
            problems = list(r["problems"])
            if r is not ref:
                if r["digest"] != ref["digest"]:
                    problems.append("assignment digest differs from the check pass")
                if r["stats"] != ref["stats"]:
                    problems.append("message statistics differ from the check pass")
                if r.get("trace_digest", ref.get("trace_digest")) != ref.get("trace_digest"):
                    problems.append("message trace differs from the check pass")
            ledger.add(r["job"].name, problems)


def work_counts(jobs) -> dict:
    import workloads

    return {
        "discrete.cells": sum(workloads.grid_cells(j.instance.tree, j.config.points)
                              for j in jobs if j.engine == "dpop"),
        "hcms.cells": sum(workloads.hcms_cells(j.instance.graph, j.config)
                          for j in jobs if j.engine == "hcms"),
        "predicted_messages": sum(workloads.predicted_messages(j) for j in jobs
                                  if j.expected == workloads.OK),
    }


def message_metrics(reference) -> dict:
    return {
        "messages": sum(r["messages"] for r in reference),
        "total_scalars": sum(r["scalars"] for r in reference),
    }


def blas_threads() -> str:
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    where the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def print_jobs(reference, passes) -> None:
    for i, ref in enumerate(reference):
        times = [runs[i]["seconds"] for runs in passes]
        print(f"job {ref['job'].name} expected={ref['job'].expected} got={ref['status']} "
              f"median_wall_s={statistics.median(times):.6f} n={len(times)} "
              f"messages={ref['messages']} scalars={ref['scalars']} "
              f"max_scalars={ref['max_scalars']} assignment_sha256={ref['digest']} "
              f"trace_sha256={ref.get('trace_digest', '-')}")


def measure(args, ledger: Ledger) -> dict:
    """--trace 0: the end-to-end metrics."""
    setups = [setup_in_fresh_interpreter(args.workload, args.seed)
              for _ in range(SETUP_SAMPLES - 1)]
    seconds, probe_s, jobs, first = setup(args.workload, args.seed)
    setups.append((seconds, probe_s))
    reference = check_pass(jobs, oracle_kinds=args.workload in ORACLE_WORKLOADS)
    probes: list[float] = []
    passes = timed_passes(jobs, args.seconds, probes)
    record([reference, [summarize(first)]] + passes, reference, ledger)

    scale = PROBE_REF_S / statistics.median(probes)
    raw_solve = median_of(passes, pass_seconds)
    print("env " + json.dumps(environment(args)))
    print_jobs(reference, passes)
    per_engine = {f"{e}_s": scale * median_of(passes, lambda runs, e=e: pass_seconds(runs, e))
                  for e in ENGINES if any(j.engine == e for j in jobs)}
    print("engines (scaled) " + json.dumps(per_engine))
    print("work " + json.dumps(work_counts(jobs)))
    print(f"wall solve_s={raw_solve!r} probe_s={statistics.median(probes)!r} "
          f"probes={len(probes)} passes={len(passes)} "
          f"setup_s={[round(s, 6) for s, _ in setups]} "
          f"setup_probe_s={[round(p, 6) for _, p in setups]}")
    print(f"utility {sum(r.get('utility', 0.0) for r in reference)!r}")
    return {
        "solve_s": scale * raw_solve,
        "setup_s": statistics.median(s * PROBE_REF_S / p for s, p in setups),
        **message_metrics(reference),
    }


def layer_metrics(snap: dict) -> dict:
    """Per-layer figures of one traced pass."""
    from tracing import module_self

    calls, total, self_time, counters = (snap["calls"], snap["total"], snap["self"],
                                         snap["counters"])
    return {
        "model.validate_s": total.get("model.validate", 0.0),
        "model.graph_s": total.get("model.graph", 0.0),
        "model.utility_between.calls": calls.get("model.utility_between", 0),
        "model.utility_between_s": total.get("model.utility_between", 0.0),
        "model.evaluate.calls": calls.get("model.evaluate", 0),
        "model.evaluate_s": total.get("model.evaluate", 0.0),
        "pseudotree.build_s": total.get("pseudotree.build", 0.0),
        "runtime.send.calls": calls.get("runtime.send", 0),
        "runtime.send_s": total.get("runtime.send", 0.0),
        "runtime.collect_s": total.get("runtime.collect", 0.0),
        "common.util_value_protocol_s": self_time.get("common.util_value_protocol", 0.0),
        "common.best_own_response.calls": calls.get("common.best_own_response", 0),
        "common.best_own_response_s": total.get("common.best_own_response", 0.0),
        "discrete.joint_utility.calls": calls.get("discrete.joint_utility", 0),
        "discrete.joint_utility_s": total.get("discrete.joint_utility", 0.0),
        "afdpop.interp.calls": calls.get("afdpop.interp", 0),
        "afdpop.interp.queries": counters.get("afdpop.interp.queries", 0),
        "afdpop.interp_s": total.get("afdpop.interp", 0.0),
        "afdpop.cluster.calls": calls.get("afdpop.cluster", 0),
        "afdpop.cluster.rows_in": counters.get("afdpop.cluster.rows_in", 0),
        "afdpop.cluster_s": total.get("afdpop.cluster", 0.0),
        "afdpop.leaf_move.calls": calls.get("afdpop.leaf_move", 0),
        "afdpop.leaf_move_s": total.get("afdpop.leaf_move", 0.0),
        "piecewise.add.calls": calls.get("piecewise.add", 0),
        "piecewise.add_s": total.get("piecewise.add", 0.0),
        "piecewise.project.calls": calls.get("piecewise.project", 0),
        "piecewise.project_s": total.get("piecewise.project", 0.0),
        "piecewise.pieces_out": counters.get("piecewise.pieces_out", 0),
        "hcms.self_s": module_self(self_time, "hcms"),
        "afdpop.self_s": module_self(self_time, "afdpop"),
        "efdpop.self_s": module_self(self_time, "efdpop"),
        "traced_solve_s": total.get("runtime.run", 0.0),
    }


def untraced_metrics(runs) -> dict:
    """Per-engine times and the kernel's phase split of one untraced pass."""
    out = {f"{e}_s": float(pass_seconds(runs, e)) for e in ENGINES}
    for phase in ("pseudotree", "util", "value", "maxsum"):
        out[f"runtime.phase.{phase}_s"] = sum(r["phases"].get(phase, 0.0) for r in runs)
    out["runtime.run_overhead_s"] = sum(r["seconds"] - sum(r["phases"].values()) for r in runs)
    out["solve_s"] = pass_seconds(runs)
    return out


def traced_passes(jobs, seconds: float, probes: list[float], tracer):
    """Like timed_passes, with each run inside a ``runtime.run`` span. Returns
    the passes, the tracer's aggregates of each pass, and per job the
    seconds spent in ``Problem.utility_between`` and in the whole run."""
    import runner

    def traced_run(fn, *run_args):
        return tracer.timed("runtime.run", fn, *run_args)

    passes, snapshots, lookups = [], [], {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runs = []
        for job in jobs:
            probe_before(jobs, probes)
            tracer.job = f"pass{len(passes)}/{job.name}"
            before = tracer.total.get("model.utility_between", 0.0)
            runs.append(summarize(runner.run_job(job, call=traced_run)))
            lookup = tracer.total.get("model.utility_between", 0.0) - before
            lookups.setdefault(job.name, []).append((lookup, runs[-1]["seconds"]))
        snapshots.append(tracer.snapshot())
        tracer.reset()
        passes.append(runs)
    return passes, snapshots, lookups


def print_lookup_shares(jobs, untraced, lookups) -> None:
    """Share of each engine's time spent in Problem.utility_between, the
    O(|F|) scan that profiling blamed for most of the tree and maxsum time."""
    for engine in ENGINES:
        names = [job.name for job in jobs if job.engine == engine]
        if not names:
            continue
        lookup = sum(statistics.median(a for a, _ in lookups[n]) for n in names)
        traced_s = sum(statistics.median(b for _, b in lookups[n]) for n in names)
        untraced_s = median_of(untraced, lambda runs: pass_seconds(runs, engine))
        print(f"model.utility_between under {engine}: {lookup:.4f} s wall, "
              f"{lookup / traced_s:.3f} of its traced time, "
              f"{lookup / untraced_s:.3f} of its untraced time")


def write_spans(tracer, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(out, "w") as fh:
        for span_id, name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")
    print(f"spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")


def traced(args, ledger: Ledger, units: dict[str, str]) -> dict:
    """--trace 1: the per-layer metrics."""
    import workloads
    from fdcop import runtime
    from tracing import Instrumentation, Tracer

    _, _, jobs, first = setup(args.workload, args.seed)
    audit_seconds = []

    def audit(r):
        start = time.perf_counter()
        report = runtime.audit_isolation(r.result.kernel, r.job.instance.problem, r.result.tree)
        audit_seconds.append(time.perf_counter() - start)
        return report

    reference = check_pass(jobs, args.workload in ORACLE_WORKLOADS, audit=audit)
    probes: list[float] = []
    untraced = timed_passes(jobs, args.seconds / 2.0, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        tracer.job = "setup"
        workloads.WORKLOADS[args.workload](args.seed)
        gen_s = tracer.total.get("generators.gen", 0.0)
        tracer.reset()
        traced_runs, snapshots, lookups = traced_passes(jobs, args.seconds / 2.0, probes, tracer)
    finally:
        instrumentation.remove()

    again = check_pass(jobs, oracle_kinds=False)
    record([reference, [summarize(first)], again] + untraced + traced_runs, reference, ledger)

    work = work_counts(jobs)
    metrics = {**median_by_name([layer_metrics(snap) for snap in snapshots]),
               **median_by_name([untraced_metrics(runs) for runs in untraced])}
    metrics["generators.gen_s"] = gen_s
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["runtime.reads"] = sum(r.get("reads", 0) for r in reference)
    metrics["runtime.audit_s"] = sum(audit_seconds)
    metrics["discrete.cells"] = work["discrete.cells"]
    metrics["hcms.cells"] = work["hcms.cells"]
    metrics["max_message_scalars"] = max(r["max_scalars"] for r in reference)
    metrics["utility"] = sum(r.get("utility", 0.0) for r in reference)
    metrics["trace.overhead_s"] = metrics.pop("traced_solve_s") - metrics.pop("solve_s")
    scale = PROBE_REF_S / statistics.median(probes)

    print("env " + json.dumps(environment(args)))
    print_jobs(reference, untraced)
    print("work " + json.dumps(work))
    print(f"wall probe_s={statistics.median(probes)!r}; times in the result are scaled by {scale!r}")
    print_lookup_shares(jobs, untraced, lookups)
    write_spans(tracer, args.workload, args.seed)
    return {k: v * scale if units.get(k) == "s" else v for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tree", "graph", "maxsum", "capacity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fdcop" / "__init__.py").is_file():
        print(f"perfbench: no fdcop sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        seconds, probe_s, _, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "probe_s": probe_s}))
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    ledger = Ledger()
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = traced(args, ledger, units) if args.trace else measure(args, ledger)
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for failure in ledger.failures:
        print("FAILED " + failure)
    print(f"fail_ratio {len(ledger.failures)}/{ledger.attempted}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
