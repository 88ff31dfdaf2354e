"""Running jobs, and checking what they return.

A job run is timed around ``fdcop.run`` alone; digests and checks are taken
after the clock stops.
"""
from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass

from fdcop import evaluate_solution, oracles, run
from fdcop.errors import CapacityError

from workloads import CAPACITY, OK, Job, predicted_messages

# reported optima are sums of a few thousand terms taken in another order
# than the oracle's, so they agree to rounding, not bit for bit
REL_TOL = 1e-9


@dataclass
class JobRun:
    job: Job
    seconds: float
    status: str  # OK, CAPACITY, or the name of an unexpected exception
    stats: object  # RunStats, partial for a refusal; None for other errors
    result: object = None  # RunResult when the job completed
    error: str = ""

    @property
    def assignment_digest(self) -> str:
        """sha256 of the assignment, or of the error message of a refusal."""
        if self.result is not None:
            text = "\n".join(f"{v}={float(x).hex()}" for v, x in
                             sorted(self.result.assignment.values.items()))
        else:
            text = f"{self.status}:{self.error}"
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def stats_key(self) -> tuple:
        s = self.stats
        if s is None:
            return ()
        return (s.total_messages, tuple(sorted(s.messages_by_kind.items())),
                s.total_scalars, s.max_message_scalars)


def run_job(job: Job, keep_trace: bool = False, call=None) -> JobRun:
    """Run one job; ``call`` lets a tracer wrap the call to ``fdcop.run``."""
    args = (job.instance.problem, job.engine, job.config, keep_trace)
    start = time.perf_counter()
    try:
        result = call(run, *args) if call else run(*args)
    except CapacityError as exc:
        return JobRun(job, time.perf_counter() - start, CAPACITY, exc.stats, error=str(exc))
    except Exception as exc:  # any other exception is a wrong outcome, not a crash
        return JobRun(job, time.perf_counter() - start, type(exc).__name__, None,
                      error="".join(traceback.format_exception_only(exc)).strip())
    return JobRun(job, time.perf_counter() - start, OK, result.stats, result=result)


def trace_digest(job_run: JobRun) -> str:
    """sha256 of the message trace of a completed run made with keep_trace=True."""
    return hashlib.sha256("\n".join(job_run.result.kernel.trace_lines()).encode()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def outcome_problems(job_run: JobRun) -> list[str]:
    """Checks every run of a job must pass: the expected outcome, a finite
    in-domain assignment, and the analytic message count."""
    job = job_run.job
    if job_run.status != job.expected:
        return [f"expected {job.expected}, got {job_run.status} {job_run.error}".strip()]
    if job_run.stats is None:
        return ["no run statistics attached"]
    if job_run.status != OK:
        return []
    problems = []
    problem = job.instance.problem
    values = job_run.result.assignment.values
    if sorted(values) != sorted(problem.variables):
        problems.append("assignment does not cover the variables")
    for var, x in values.items():
        if not (math.isfinite(x) and problem.domains[var].contains(x)):
            problems.append(f"{var}={x} is not a finite in-domain value")
    if job_run.stats.total_messages != predicted_messages(job):
        problems.append(f"{job_run.stats.total_messages} messages, "
                        f"predicted {predicted_messages(job)}")
    return problems


def quality_problems(runs: list[JobRun], oracle_kinds: bool) -> list[tuple[JobRun, str]]:
    """Checks made once per workload, outside any timing: on tree and graph
    instances dpop's optimum equals the grid oracle, and ef-dpop's optimum
    equals its solution's utility and is no lower than dpop's."""
    out = []
    dpop_opt = {}
    for r in runs:
        if r.status != OK or r.job.engine != "dpop" or not oracle_kinds:
            continue
        opt = r.result.reported_optimum
        dpop_opt[r.job.instance.label] = opt
        oracle = oracles.elimination_grid_optimum(r.job.instance.problem, r.job.config.points)
        if not _close(opt, oracle):
            out.append((r, f"dpop optimum {opt!r} != grid oracle {oracle!r}"))
    for r in runs:
        if r.status != OK or r.job.engine != "ef-dpop":
            continue
        opt = r.result.reported_optimum
        value = evaluate_solution(r.job.instance.problem, r.result.assignment)
        if not _close(opt, value):
            out.append((r, f"ef-dpop optimum {opt!r} != its utility {value!r}"))
        base = dpop_opt.get(r.job.instance.label)
        if base is not None and opt < base and not _close(opt, base):
            out.append((r, f"ef-dpop optimum {opt!r} < dpop optimum {base!r}"))
    return out
