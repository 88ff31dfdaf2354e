"""Command-line front door: generate instances, solve them with any engine,
run benchmark matrices, and verify the analytic properties.

Exit codes: 0 success, 2 invalid input, 3 capacity exceeded, 4 verification
failure, 5 any other library error (an engine error).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

from . import generators, model, oracles, runtime
from .errors import (ArgumentError, CapacityError, FdcopError, StructureError,
                     ValidationError)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_ENGINE = 5

ROW_FIELDS = ("kind", "n", "p1", "engine", "d", "moves", "alpha", "k", "iters",
              "seed", "status", "utility", "messages", "total_scalars",
              "max_message_scalars", "wall_time")

DEFAULTS = runtime.EngineConfig()  # the default of every engine flag

# points per variable of `fdcop verify`'s grid oracle
ORACLE_POINTS = 200


class OutputError(Exception):
    """An output file that cannot be written."""

    def __init__(self, path):
        super().__init__(f"cannot write {path}")


def _check_out_dir(path) -> None:
    """Refuse, before any work, an output path whose directory does not exist."""
    if path and not Path(path).parent.is_dir():
        raise OutputError(path)


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing `path` as a failed write."""
    try:
        yield
    except OSError as exc:
        raise OutputError(path) from exc


def _config_from_args(args) -> runtime.EngineConfig:
    return runtime.EngineConfig(
        points=args.points, alpha=args.alpha, moves=args.moves,
        k_clusters=args.clusters, iterations=args.iters,
        interpolation=args.interp, seed=args.seed,
    )


def _add_engine_flags(parser):
    parser.add_argument("--engine", default="dpop", choices=model.ENGINE_KINDS)
    parser.add_argument("-d", "--points", type=int, default=DEFAULTS.points)
    parser.add_argument("--moves", type=int, default=DEFAULTS.moves)
    parser.add_argument("--alpha", type=float, default=DEFAULTS.alpha)
    parser.add_argument("-k", "--clusters", type=int, default=DEFAULTS.k_clusters)
    parser.add_argument("--iters", type=int, default=DEFAULTS.iterations)
    parser.add_argument("--interp", default=DEFAULTS.interpolation,
                        choices=runtime.INTERPOLATIONS)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)


def cmd_generate(args) -> int:
    _check_out_dir(args.out)
    if args.kind == "tree":
        problem = generators.gen_tree(args.n, args.seed, concave=args.concave)
    else:
        problem = generators.gen_graph(args.n, args.p1, args.seed, concave=args.concave)
    width = problem.tree.induced_width
    if args.out:
        with _writing(args.out):
            model.save(problem, args.out)
    else:
        print(model.dumps(problem))
    print(f"variables={len(problem.variables)} constraints={len(problem.utilities)} "
          f"pseudo_tree_width={width}", file=sys.stderr)
    return EXIT_OK


def _solve_report(problem, engine, config, result) -> dict:
    m = model.hypercube_size(problem, config.points)
    if math.isfinite(m):
        error_discrete = model.error_bound_discrete(problem, m)
        error_af = model.error_bound_af(problem, m, config.moves, config.alpha)
    else:  # a domain whose width overflows
        error_discrete = error_af = math.inf
    bounds = {
        "gradient_delta": model.gradient_bound(problem),
        "hypercube_m": m,
        "error_bound_discrete": error_discrete,
        "error_bound_af": error_af,
        "predicted_messages": model.predicted_message_count(
            engine, problem.graph, config.iterations),
    }
    return {
        "engine": engine,
        # the knobs a flag sets; row_cap has none
        "config": {k: v for k, v in dataclasses.asdict(config).items() if k != "row_cap"},
        "utility": model.evaluate_solution(problem, result.assignment),
        "reported_optimum": result.reported_optimum,
        "assignment": dict(sorted(result.assignment.values.items())),
        "stats": dataclasses.asdict(result.stats),
        # strict JSON has no inf or NaN: a bound past the float range is null
        "bounds": {k: v if math.isfinite(v) else None for k, v in bounds.items()},
    }


def cmd_solve(args) -> int:
    _check_out_dir(args.out)
    problem = model.load(args.problem)
    config = _config_from_args(args)
    result = runtime.run(problem, args.engine, config, keep_trace=False)
    report = _solve_report(problem, args.engine, config, result)
    text = json.dumps(report, indent=2)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _bench_cell(kind, n, p1, engine, config, seed):
    if kind == "tree":
        problem = generators.gen_tree(n, seed, concave=True)
    else:
        problem = generators.gen_graph(n, p1, seed, concave=True)
    start = time.perf_counter()
    try:
        result = runtime.run(problem, engine, config, keep_trace=False)
        status = "ok"
        utility = model.evaluate_solution(problem, result.assignment)
        stats = result.stats
    except CapacityError as exc:
        status, utility, stats = "capacity", None, exc.stats
    except StructureError:
        status, utility, stats = "unsupported", None, None
    wall = time.perf_counter() - start
    return {
        "kind": kind, "n": n, "p1": p1 if kind == "graph" else "",
        "engine": engine, "d": config.points, "moves": config.moves,
        "alpha": config.alpha, "k": config.k_clusters, "iters": config.iterations,
        "seed": seed, "status": status,
        "utility": repr(utility) if utility is not None else "---",
        "messages": stats.total_messages if stats else "---",
        "total_scalars": stats.total_scalars if stats else "---",
        "max_message_scalars": stats.max_message_scalars if stats else "---",
        "wall_time": f"{wall:.6f}",
    }


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def cmd_bench(args) -> int:
    _check_out_dir(args.out)
    engines = [e for e in args.engines.split(",") if e]
    for e in engines:
        if e not in model.ENGINE_KINDS:
            raise ArgumentError(f"unknown engine {e!r}")
    # an empty matrix would write header-only files and exit 0
    for flag, values in (("--engines", engines), ("-n", args.n), ("-d", args.d),
                         ("--moves", args.moves)):
        if not values:
            raise ArgumentError(f"bench {flag} lists no values")
    if args.seeds < 1:
        raise ArgumentError(f"bench --seeds must be at least 1, got {args.seeds}")
    seeds = list(range(args.seeds))
    base = runtime.EngineConfig(alpha=args.alpha, k_clusters=args.clusters,
                                iterations=args.iters, interpolation=args.interp)

    rows = []
    for engine in engines:
        for n in sorted(args.n):
            for d in args.d:
                for moves in args.moves:
                    config = dataclasses.replace(base, points=d, moves=moves)
                    for seed in seeds:
                        rows.append(_bench_cell(args.kind, n, args.p1, engine,
                                                config, seed))
    rows.sort(key=lambda r: (r["engine"], r["n"], r["d"], r["moves"], r["seed"]))

    out = Path(args.out)
    with _writing(out), out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)

    agg_path = out.with_name(out.stem + "-agg.csv")
    cells: dict[tuple, list[dict]] = {}
    for r in rows:
        key = (r["kind"], r["n"], r["p1"], r["engine"], r["d"], r["moves"],
               r["alpha"], r["k"], r["iters"])
        cells.setdefault(key, []).append(r)
    with _writing(agg_path), agg_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "n", "p1", "engine", "d", "moves", "alpha", "k",
                         "iters", "runs", "completed", "mean_utility",
                         "mean_messages", "mean_total_scalars"])
        for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
            group = cells[key]
            ok = [r for r in group if r["status"] == "ok"]
            if ok:
                mean_u = repr(model.left_sum(float(r["utility"]) for r in ok) / len(ok))
                mean_m = repr(sum(int(r["messages"]) for r in ok) / len(ok))
                mean_s = repr(sum(int(r["total_scalars"]) for r in ok) / len(ok))
            else:
                mean_u = mean_m = mean_s = "---"
            writer.writerow(list(key) + [len(group), len(ok), mean_u, mean_m, mean_s])
    print(f"wrote {len(rows)} rows to {out} and aggregates to {agg_path}")
    return EXIT_OK


def verify_problem(problem, d: int) -> list[tuple[str, bool, str]]:
    """Run the analytic checks on one instance; returns (name, ok, detail).

    The grid oracle is computed first, so an instance too large for it is
    refused (CapacityError) before any engine runs."""
    checks = []
    oracle = oracles.elimination_grid_optimum(problem, ORACLE_POINTS)
    is_tree = problem.tree.is_tree()
    m = model.hypercube_size(problem, d)

    engines = list(model.DPOP_FAMILY) + ["hcms"]
    if not is_tree:
        engines.remove("ef-dpop")

    config = runtime.EngineConfig(points=d)
    results = {}
    for engine in engines:
        try:
            results[engine] = runtime.run(problem, engine, config)
        except CapacityError as exc:
            checks.append((f"{engine} run", False, f"capacity: {exc}"))

    for engine, result in results.items():
        predicted = model.predicted_message_count(engine, problem.graph, 1)
        ok = result.stats.total_messages == predicted
        checks.append((f"message count {engine}", ok,
                       f"measured {result.stats.total_messages}, predicted {predicted}"))
        audit = runtime.audit_isolation(result.kernel, problem, result.tree)
        checks.append((f"isolation audit {engine}", audit.ok,
                       f"{len(audit.violations)} violations"))

    if "dpop" in results:
        u = model.evaluate_solution(problem, results["dpop"].assignment)
        bound = model.error_bound_discrete(problem, m)
        checks.append(("discrete error bound", oracle - u <= bound + 1e-9,
                       f"gap {oracle - u:.6g} <= bound {bound:.6g}"))
    if "af-dpop" in results:
        u = model.evaluate_solution(problem, results["af-dpop"].assignment)
        bound = model.error_bound_af(problem, m, config.moves, config.alpha)
        checks.append(("af error bound", oracle - u <= bound + 1e-9,
                       f"gap {oracle - u:.6g} <= bound {bound:.6g}"))

    if is_tree and "dpop" in results:
        af0 = runtime.run(problem, "af-dpop", dataclasses.replace(config, moves=0))
        same = af0.assignment.values == results["dpop"].assignment.values
        checks.append(("no-move reduction", same, "af-dpop(moves=0) vs dpop assignment"))

    if "ef-dpop" in results:
        result = results["ef-dpop"]
        u = model.evaluate_solution(problem, result.assignment)
        reported = result.reported_optimum
        ok = (math.isclose(reported, u, rel_tol=1e-9)
              and u >= oracle - 1e-9 * max(1.0, abs(oracle)))
        checks.append(("ef-dpop exactness", ok,
                       f"reported {reported:.9g} = utility {u:.9g} "
                       f">= {ORACLE_POINTS}-point grid optimum {oracle:.9g}"))

    if "caf-dpop" in results:
        result = results["caf-dpop"]
        worst = 0
        for sender, receiver, kind, size in result.kernel.trace:
            if kind != runtime.UTIL or receiver == runtime.SYSTEM:
                continue
            arity = len(result.tree.separator[sender])
            worst = max(worst, size // (arity + 1))
        checks.append(("caf row cap", worst <= config.k_clusters,
                       f"max UTIL rows {worst} <= k {config.k_clusters}"))
    return checks


def cmd_verify(args) -> int:
    problem = model.load(args.problem)
    if len(problem.variables) > 8:
        print("verify expects a small instance (at most 8 variables)", file=sys.stderr)
        return EXIT_INVALID
    checks = verify_problem(problem, args.points)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failed += 1
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(checks)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdcop")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random problem instance")
    p.add_argument("kind", choices=("tree", "graph"))
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--p1", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concave", action="store_true")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one engine on one problem")
    p.add_argument("problem")
    _add_engine_flags(p)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark matrix")
    p.add_argument("--kind", choices=("tree", "graph"), default="tree")
    p.add_argument("-n", type=_int_list, default="10,20", help="comma-separated sizes")
    p.add_argument("--p1", type=float, default=0.2)
    p.add_argument("--engines", default="dpop,af-dpop,caf-dpop,hcms")
    p.add_argument("-d", type=_int_list, default=str(DEFAULTS.points),
                   help="comma-separated point counts")
    p.add_argument("--moves", type=_int_list, default=str(DEFAULTS.moves),
                   help="comma-separated move counts")
    p.add_argument("--alpha", type=float, default=DEFAULTS.alpha)
    p.add_argument("-k", "--clusters", type=int, default=DEFAULTS.k_clusters)
    p.add_argument("--iters", type=int, default=DEFAULTS.iterations)
    p.add_argument("--interp", default=DEFAULTS.interpolation, choices=runtime.INTERPOLATIONS)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check the analytic properties on an instance")
    p.add_argument("problem")
    p.add_argument("-d", "--points", type=int, default=DEFAULTS.points)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ArgumentError, StructureError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        if exc.stats is not None:
            print(f"partial stats: messages={exc.stats.total_messages} "
                  f"scalars={exc.stats.total_scalars}", file=sys.stderr)
        return EXIT_CAPACITY
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # an input that is missing, a directory, or not readable
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_INVALID
    except FdcopError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
