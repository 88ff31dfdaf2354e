"""Workloads: lists of (instance, engine, config) jobs built from a seed.

Instances are picked by properties of the input (size, induced width, grid
cells, edge count), never by how a job turns out, so that two seeds give
workloads of about the same size and the figures of different seeds can be
compared.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from fdcop import EngineConfig, generators, model, pseudotree

OK = "ok"
CAPACITY = "capacity"


@dataclass(frozen=True)
class Instance:
    label: str
    problem: model.Problem
    graph: object
    tree: pseudotree.PseudoTree


@dataclass(frozen=True)
class Job:
    instance: Instance
    engine: str
    config: EngineConfig
    expected: str = OK

    @property
    def name(self) -> str:
        return f"{self.instance.label}/{self.engine}"


def _instance(label: str, problem: model.Problem) -> Instance:
    graph = model.build_constraint_graph(problem)
    return Instance(label, problem, graph, pseudotree.build(graph))


def grid_cells(tree: pseudotree.PseudoTree, d: int) -> int:
    """Cells the grid join evaluates: sum over agents of d^(|sep| + 1)."""
    return sum(d ** (len(sep) + 1) for sep in tree.separator.values())


def hcms_cells(graph, config: EngineConfig) -> int:
    """Utility evaluations of max-sum: 2 * iterations * |E| * d^2."""
    return 2 * config.iterations * graph.number_of_edges() * config.points ** 2


def predicted_messages(job: Job) -> int:
    return model.predicted_message_count(job.engine, job.instance.graph,
                                         job.config.iterations)


# --- tree: width 1, per-agent Python overhead --------------------------------

def tree(seed: int) -> list[Job]:
    inst = _instance(f"tree2000-s{seed}", generators.gen_tree(2000, seed=seed, concave=True))
    return [
        Job(inst, "dpop", EngineConfig(points=5)),
        Job(inst, "ef-dpop", EngineConfig()),
        Job(inst, "af-dpop", EngineConfig(points=3, moves=10, alpha=0.001)),
    ]


# --- graph: multi-dimensional tables, the join and interpolation ------------

# (induced width, lowest and highest grid cells at d=9, instances). Cells at
# one width vary about fourfold between draws; the bands keep the join work
# of every instance near its slot's centre. Width 4 is left to the capacity
# workload: one width-4 instance costs as much as twenty of width 3, so its
# draw alone would set the workload's time.
GRAPH_SLOTS = (
    (2, 3_000, 5_000, 4),
    (3, 15_000, 25_000, 24),
)
GRAPH_D = 9


def graph(seed: int) -> list[Job]:
    rng = random.Random(f"graph:{seed}")
    instances = []
    for width, lo, hi, count in GRAPH_SLOTS:
        found = 0
        while found < count:
            s = rng.randrange(2**31)
            inst = _instance(f"g20-s{s}", generators.gen_graph(20, 0.1, seed=s, concave=True))
            if (inst.tree.induced_width == width
                    and lo <= grid_cells(inst.tree, GRAPH_D) <= hi):
                instances.append(inst)
                found += 1
    jobs = []
    for inst in instances:
        jobs.append(Job(inst, "dpop", EngineConfig(points=GRAPH_D)))
        jobs.append(Job(inst, "af-dpop", EngineConfig(points=3, moves=10, alpha=0.001)))
        jobs.append(Job(inst, "caf-dpop", EngineConfig(points=4, k_clusters=10, moves=10,
                                                      alpha=0.001)))
    return jobs


# --- maxsum: many small messages ----------------------------------------------

# gen_graph(100, 0.05) has about 248 edges; max-sum work is linear in |E|,
# so the instance is drawn until |E| falls in a band around that mean.
MAXSUM_EDGES = (244, 252)


def maxsum(seed: int) -> list[Job]:
    rng = random.Random(f"maxsum:{seed}")
    while True:
        s = rng.randrange(2**31)
        problem = generators.gen_graph(100, 0.05, seed=s, concave=True)
        if MAXSUM_EDGES[0] <= len(problem.utilities) <= MAXSUM_EDGES[1]:
            break
    inst = _instance(f"g100-s{s}", problem)
    return [Job(inst, "hcms", EngineConfig(points=10, iterations=5, alpha=0.001))]


# --- capacity: typed refusals -------------------------------------------------

def capacity(seed: int) -> list[Job]:
    """Jobs that must end in CapacityError. The instances are pinned, so the
    seed does not change them: only the dpop refusal can be predicted from
    the input (some d^(|sep|+1) exceeds row_cap), and whether af-dpop or
    caf-dpop runs into a cap depends on table contents that only the run
    computes. The cheapest job comes first, because set-up runs it cold."""
    af = _instance("g20-s2", generators.gen_graph(20, 0.1, seed=2, concave=True))
    caf = _instance("g30-s5", generators.gen_graph(30, 0.1, seed=5, concave=True))
    # the instance of tests/test_cli.py::test_capacity_exit
    dp = _instance("g14p06-s0", generators.gen_graph(14, 0.6, seed=0))
    return [
        Job(af, "af-dpop", EngineConfig(points=4, moves=10, alpha=0.001), CAPACITY),
        Job(caf, "caf-dpop", EngineConfig(points=4, k_clusters=10, moves=10, alpha=0.001),
            CAPACITY),
        Job(dp, "dpop", EngineConfig(points=7), CAPACITY),
    ]


WORKLOADS = {"tree": tree, "graph": graph, "maxsum": maxsum, "capacity": capacity}
