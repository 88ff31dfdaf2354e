"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its measured quantities; pytest -v
adds the per-test pass/fail verdict.
"""
import csv
import random
import statistics
import time

import pytest

from fdcop import cli, generators, model, oracles, piecewise, runtime
from fdcop.errors import CapacityError
from fdcop.runtime import SYSTEM, UTIL, EngineConfig

from conftest import brute_force_grid_optimum


def trend_config(**overrides):
    base = dict(points=3, moves=10, alpha=0.001, interpolation="nearest")
    base.update(overrides)
    return EngineConfig(**base)


def utility_of(problem, engine, config):
    result = runtime.run(problem, engine, config, keep_trace=False)
    return model.evaluate_solution(problem, result.assignment)


def test_01_exactness_oracle():
    """EF-DPOP matches a 2001-point dynamic program on 50 concave trees."""
    start = time.perf_counter()
    worst_below, worst_above = 0.0, 0.0
    for i in range(50):
        n = 2 + i % 5  # sizes 2..6
        p = generators.gen_tree(n, 1000 + i, concave=True)
        u = utility_of(p, "ef-dpop", EngineConfig())
        oracle = oracles.elimination_grid_optimum(p, 2001)
        delta = model.gradient_bound(p)
        slack = len(p.utilities) * 0.1 * delta
        assert u >= oracle - 1e-6, f"instance {i}: {u} < oracle {oracle}"
        assert u - oracle <= slack, f"instance {i}: gap {u - oracle} > {slack}"
        worst_below = min(worst_below, u - oracle)
        worst_above = max(worst_above, u - oracle)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 50 trees, gap range [{worst_below:.3g}, "
          f"{worst_above:.3g}], {elapsed:.1f}s")


def test_02_grid_optimality():
    """Discrete DPOP equals exhaustive grid enumeration on 50 instances."""
    for i in range(50):
        d = 2 + i % 4  # 2..5
        if i % 2 == 0:
            p = generators.gen_tree(3 + i % 6, 2000 + i)  # sizes 3..8
        else:
            p = generators.gen_graph(3 + i % 6, 0.4, 2000 + i)
        u = utility_of(p, "dpop", EngineConfig(points=d))
        optimum, _ = brute_force_grid_optimum(p, d)
        assert abs(u - optimum) <= 1e-6, f"instance {i}: {u} vs {optimum}"
    print("criterion 2 PASS: 50 instances, max deviation <= 1e-6")


def test_03_discrete_error_bound():
    """Discrete DPOP's optimality gap respects |F|*m*delta."""
    worst = 0.0
    for i in range(50):
        p = generators.gen_tree(2 + i % 3, 3000 + i)  # sizes 2..4
        d = 3
        u = utility_of(p, "dpop", EngineConfig(points=d))
        oracle = oracles.elimination_grid_optimum(p, 2001)
        bound = model.error_bound_discrete(p, model.hypercube_size(p, d))
        gap = oracle - u
        assert gap <= bound + 1e-9, f"instance {i}: gap {gap} > bound {bound}"
        worst = max(worst, gap / bound if bound else 0.0)
    print(f"criterion 3 PASS: 50 instances, worst gap/bound ratio {worst:.3f}")


def test_04_af_error_bound():
    """AF-DPOP's optimality gap respects |F|*(m + |A|*moves*alpha*delta)*delta."""
    worst = 0.0
    for i in range(50):
        p = generators.gen_tree(2 + i % 3, 3000 + i)
        d, moves, alpha = 3, 5 + 5 * (i % 4), 0.01  # moves in {5,10,15,20}
        u = utility_of(p, "af-dpop", EngineConfig(points=d, moves=moves, alpha=alpha))
        oracle = oracles.elimination_grid_optimum(p, 2001)
        m = model.hypercube_size(p, d)
        bound = model.error_bound_af(p, m, moves, alpha)
        gap = oracle - u
        assert gap <= bound + 1e-9, f"instance {i}: gap {gap} > bound {bound}"
        worst = max(worst, gap / bound if bound else 0.0)
    print(f"criterion 4 PASS: 50 instances, worst gap/bound ratio {worst:.3f}")


def test_05_message_counts():
    """Measured message totals match 2|X| and 4k|E| on a benchmark matrix."""
    checked = 0
    for seed in range(3):
        for kind, n in (("tree", 5), ("tree", 10), ("graph", 6), ("graph", 10)):
            if kind == "tree":
                p = generators.gen_tree(n, seed, concave=True)
            else:
                p = generators.gen_graph(n, 0.2, seed, concave=True)
            g = model.build_constraint_graph(p)
            engines = ["dpop", "af-dpop", "caf-dpop"]
            if kind == "tree":
                engines.append("ef-dpop")
            for engine in engines:
                r = runtime.run(p, engine, trend_config(), keep_trace=False)
                assert r.stats.total_messages == 2 * n, (engine, kind, n, seed)
                checked += 1
            for iters in (1, 2):
                r = runtime.run(p, "hcms", EngineConfig(points=3, iterations=iters),
                                keep_trace=False)
                expected = 4 * iters * g.number_of_edges()
                assert r.stats.total_messages == expected, (kind, n, seed, iters)
                checked += 1
    print(f"criterion 5 PASS: {checked} runs, all totals exact")


def test_06_message_sizes():
    """CAF UTIL messages stay at <= k rows; AF tables outgrow the base grid."""
    k, d = 10, 3
    af_exceeded = False
    for seed in range(5):
        p = generators.gen_graph(10, 0.2, seed, concave=True)
        caf = runtime.run(p, "caf-dpop", trend_config(k_clusters=k))
        for sender, receiver, kind, size in caf.kernel.trace:
            if kind == UTIL and receiver != SYSTEM:
                arity = len(caf.tree.separator[sender])
                rows = size // (arity + 1)
                assert rows <= k, f"seed {seed}: {sender} sent {rows} rows"
        af = runtime.run(p, "af-dpop", trend_config())
        for sender, receiver, kind, size in af.kernel.trace:
            if kind == UTIL and receiver != SYSTEM:
                arity = len(af.tree.separator[sender])
                if size // (arity + 1) > d ** arity:
                    af_exceeded = True
    assert af_exceeded, "no AF-DPOP table ever exceeded the base grid size"
    print(f"criterion 6 PASS: CAF rows <= {k} on 5 graphs; AF growth observed")


def test_07_tree_trends():
    """On trees: AF-DPOP(10) > discrete DPOP > HCMS; AF improves with moves."""
    seeds = range(20)
    problems = [generators.gen_tree(20, s, concave=True) for s in seeds]
    means = {}
    for engine in ("dpop", "hcms"):
        means[engine] = statistics.mean(
            utility_of(p, engine, trend_config()) for p in problems)
    sweep = []
    for moves in (5, 10, 15, 20):
        sweep.append(statistics.mean(
            utility_of(p, "af-dpop", trend_config(moves=moves)) for p in problems))
    af10 = sweep[1]
    assert af10 > means["dpop"] > means["hcms"]
    inversions = sum(1 for a, b in zip(sweep, sweep[1:]) if b < a - 1e-9)
    assert inversions <= 1, f"sweep {sweep} has {inversions} inversions"
    print(f"criterion 7 PASS: af(10)={af10:.1f} > dpop={means['dpop']:.1f} > "
          f"hcms={means['hcms']:.1f}; sweep {[round(v, 1) for v in sweep]}")


def test_08_graph_trends():
    """On G(n,0.2): CAF between discrete DPOP and AF where all complete, and
    CAF completes on an instance where AF hits the capacity cap."""
    # quality half: n=10, k=30 leaves clustering active on some instances
    per_engine = {"dpop": [], "af-dpop": [], "caf-dpop": []}
    clustering_fired = False
    for seed in range(20):
        p = generators.gen_graph(10, 0.2, seed, concave=True)
        for engine in per_engine:
            r = runtime.run(p, engine, trend_config(k_clusters=30), keep_trace=False)
            per_engine[engine].append(model.evaluate_solution(p, r.assignment))
        if per_engine["caf-dpop"][-1] != per_engine["af-dpop"][-1]:
            clustering_fired = True
    means = {e: statistics.mean(us) for e, us in per_engine.items()}
    lo = min(means["dpop"], means["af-dpop"])
    hi = max(means["dpop"], means["af-dpop"])
    assert lo <= means["caf-dpop"] <= hi, means
    assert clustering_fired, "clustering never altered a solution"

    # completion half: n=16, seed 4 overflows AF but not CAF with k=10
    p = generators.gen_graph(16, 0.2, 4, concave=True)
    with pytest.raises(CapacityError):
        runtime.run(p, "af-dpop", trend_config(k_clusters=10), keep_trace=False)
    caf = runtime.run(p, "caf-dpop", trend_config(k_clusters=10), keep_trace=False)
    assert caf.stats.total_messages == 32
    print(f"criterion 8 PASS: means dpop={means['dpop']:.1f} <= "
          f"caf={means['caf-dpop']:.1f} <= af={means['af-dpop']:.1f}; "
          f"n=16 instance: af capacity error, caf completed")


def test_09_points_trend():
    """Mean utility is nondecreasing in d for every completing engine."""
    seeds = range(20)
    problems = [generators.gen_tree(10, s) for s in seeds]
    summary = {}
    for engine in ("dpop", "ef-dpop", "af-dpop", "caf-dpop", "hcms"):
        means = []
        for d in (1, 3, 9):
            us = [utility_of(p, engine, trend_config(points=d, k_clusters=30))
                  for p in problems]
            means.append(statistics.mean(us))
        assert means[0] <= means[1] + 1e-9 and means[1] <= means[2] + 1e-9, (
            engine, means)
        summary[engine] = [round(v, 1) for v in means]
    print(f"criterion 9 PASS: {summary}")


def test_10_reductions():
    """AF(moves=0) equals discrete DPOP; CAF(k >= rows) equals AF, on trees."""
    for seed in range(10):
        p = generators.gen_tree(8, seed)
        cfg0 = EngineConfig(points=3, moves=0)
        dpop = runtime.run(p, "dpop", cfg0, keep_trace=False)
        af0 = runtime.run(p, "af-dpop", cfg0, keep_trace=False)
        assert af0.assignment.values == dpop.assignment.values, seed
        cfg = trend_config(k_clusters=10**9)
        af = runtime.run(p, "af-dpop", cfg, keep_trace=False)
        caf = runtime.run(p, "caf-dpop", cfg, keep_trace=False)
        assert caf.assignment.values == af.assignment.values, seed
    print("criterion 10 PASS: both reductions exact on 10 trees")


def test_11_numerical_hygiene():
    """Analytic gradients match finite differences; piecewise ops match
    pointwise sampling."""
    rng = random.Random(99)
    h = 1e-5
    for case in range(1000):
        f = model.QuadraticBinaryUtility(
            "x", "y",
            rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5),
            rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
        vi, vj = rng.uniform(-100, 100), rng.uniform(-100, 100)
        for var in ("x", "y"):
            analytic = f.partial(var, vi, vj)
            if var == "x":
                numeric = (f.evaluate(vi + h, vj) - f.evaluate(vi - h, vj)) / (2 * h)
            else:
                numeric = (f.evaluate(vi, vj + h) - f.evaluate(vi, vj - h)) / (2 * h)
            scale = max(1.0, abs(analytic))
            assert abs(analytic - numeric) <= 1e-4 * scale, (case, var)

    def rand_unary():
        lo, hi = 0.0, 10.0
        cuts = sorted({lo, hi, *(round(rng.uniform(lo, hi), 1) for _ in range(2))})
        return piecewise.Unary("y", tuple(
            (a, b, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            for a, b in zip(cuts, cuts[1:])))

    def value_at(f, v):
        _, _, c2, c1, c0 = f.piece_at(v)
        return c2 * v * v + c1 * v + c0

    for _ in range(20):
        f, g = rand_unary(), rand_unary()
        s = piecewise.add(f, g)
        for _ in range(50):
            y = rng.uniform(0, 10)
            assert abs(value_at(s, y) - (value_at(f, y) + value_at(g, y))) <= 1e-9

        f2 = model.QuadraticBinaryUtility(
            "x", "y", *(rng.uniform(-5, 5) for _ in range(6)))
        own = piecewise.Unary("x", ((0.0, 10.0, f2.coeff_a, f2.coeff_b, f2.coeff_f0),))
        proj, _ = piecewise.project(own, f2, (0.0, 10.0))
        xs = [i * 0.001 for i in range(10001)]
        for _ in range(10):
            y = rng.uniform(0, 10)
            grid = max(f2.evaluate(x, y) for x in xs)
            val = value_at(proj, y)
            assert val >= grid - 1e-9
            assert val - grid <= 1.0
    print("criterion 11 PASS: 1000 gradient cases and piecewise sampling oracles")


def test_12_determinism(tmp_path):
    """Identical (problem, engine, config, seed) reruns are byte-identical."""
    def bench_rows(path):
        cli.main(["bench", "--kind", "graph", "-n", "6,8", "--p1", "0.2",
                  "--engines", "dpop,af-dpop,caf-dpop,hcms", "--seeds", "3",
                  "--alpha", "0.001", "--interp", "nearest",
                  "-o", str(path)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_time")  # the only nondeterministic column
        return rows

    first = bench_rows(tmp_path / "a.csv")
    second = bench_rows(tmp_path / "b.csv")
    assert first == second
    assert len(first) == 2 * 4 * 3
    print(f"criterion 12 PASS: {len(first)} result rows byte-identical across reruns")
