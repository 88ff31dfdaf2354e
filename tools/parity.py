"""Output parity of the solvers on the benchmark's jobs.

    python3 tools/parity.py --seeds 1 2 3
    python3 tools/parity.py --seeds 1 --workloads tree graph

Runs every job of perfbench/workloads.py's workloads at the given seeds
against the library in this checkout's `src/`, with the message trace kept,
and prints one sha256 per workload and seed and one over them all. A job
adds its status (`ok`, or the exception's type), and, for a run that ends
in an exception, its text and the messages sent up to it; for a run that
finishes, its assignment and reported optimum as `float.hex` and its trace
lines. Two checkouts whose digests agree gave byte-identical outputs. Each
line also gives the workload's total messages and scalars.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fdcop import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def job_text(job) -> tuple[str, int, int]:
    """One job's outcome as text, and its message and scalar counts."""
    try:
        result = run(job.instance.problem, job.engine, job.config, True)
    except Exception as exc:  # a refusal's outcome is its type, text and count
        stats = getattr(exc, "stats", None)
        messages, scalars = (stats.total_messages, stats.total_scalars) if stats else (0, 0)
        return f"{type(exc).__name__}\n{exc}\n{messages}", messages, scalars
    values = sorted(result.assignment.values.items())
    lines = ["ok", *(f"{v}={float(x).hex()}" for v, x in values),
             f"optimum={float(result.reported_optimum).hex()}", *result.kernel.trace_lines()]
    return "\n".join(lines), result.stats.total_messages, result.stats.total_scalars


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    for name in args.workloads:
        for seed in args.seeds:
            digest, messages, scalars, jobs = hashlib.sha256(), 0, 0, 0
            for job in WORKLOADS[name](seed):
                text, m, s = job_text(job)
                digest.update(f"{job.name}\n{text}\n".encode())
                messages, scalars, jobs = messages + m, scalars + s, jobs + 1
            total.update(digest.digest())
            print(f"{name} seed={seed} jobs={jobs} messages={messages} scalars={scalars} "
                  f"sha256={digest.hexdigest()}", flush=True)
    print(f"all sha256={total.hexdigest()}")


if __name__ == "__main__":
    main()
