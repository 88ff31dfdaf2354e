"""UTIL by pseudo-tree height (`common.computed_ahead`): af/caf-dpop's move
rules that stacking must keep, dpop's joins by height within the row cap,
af's leaves at height 0, the payloads each agent is computed from, the
refusal order, the oracle on heights of several agents, and the per-agent
scores oracle against heights scored as one."""
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings, strategies as st

from fdcop import generators, runtime
from fdcop.engines import afdpop, common
from fdcop.engines.afdpop import Step, _snap_column, agents_move, score
from fdcop.engines.common import _add_up, discretize
from fdcop.errors import CapacityError, FdcopError, ProtocolError, ValidationError
from fdcop.model import ContinuousDomain
from fdcop.runtime import UTIL, EngineConfig, Kernel

from conftest import (agent_scores, hex_floats, make_problem, quad, scalar_agent_move,
                      scalar_moves, scoring_step, sent_util_tables, star, util_table)

ONE = ContinuousDomain(-1.0, 1.0)
WIDE = ContinuousDomain(-10.0, 10.0)
BELOW = math.nextafter(1e-9, 0.0)


def heights_of(tree):
    """Each agent's distance to the deepest leaf below it."""
    height = {}
    for var in tree.post_order:
        height[var] = 1 + max((height[c] for c in tree.children[var]), default=-1)
    return height


def hex_rows(rows):
    return [[float.hex(float(v)) for v in row] for row in rows]


def pending(var, columns, rows, best_own):
    """The `Step` that moves `rows` for `var`; each column is (separator
    variable, grid points, constraint or None, domain), and `best_own` gives
    the own value at each grid tuple."""
    return Step(var, None, tuple(w for w, _, _, _ in columns), tuple(d for _, _, _, d in columns),
                tuple(f for _, _, f, _ in columns), np.array(rows, dtype=float),
                points=tuple(np.array(p) for _, p, _, _ in columns),
                best_own=np.array(best_own, dtype=float))


def oracle_rows(agent, columns, alpha, moves):
    """`scalar_moves` of `scalar_agent_move`, row by row."""
    names = tuple(w for w, _, _, _ in columns)
    sep_sets = {w: list(p) for w, p, _, _ in columns}
    own_at = {t: agent.best_own[i] for t, i in
              zip(itertools.product(*(p for _, p, _, _ in columns)), np.ndindex(agent.best_own.shape))}
    constraints = {w: f for w, _, f, _ in columns if f is not None}
    domains = {w: d for w, _, _, d in columns}

    def move(t):
        return scalar_agent_move(t, names, sep_sets, own_at, constraints, alpha, agent.var, domains)
    return [scalar_moves(tuple(row), move, moves) for row in agent.rows.tolist()]


@pytest.fixture(params=["one at a time", "stacked"])
def stacking(request, monkeypatch):
    """Run `agents_move` per agent, or with every batch stacked."""
    monkeypatch.setattr(afdpop, "STACK_MIN", 10**9 if request.param == "one at a time" else 1)
    return request.param


class TestMoveRules:
    """The stop rule and the snap tie, per agent and on the stacked rows of
    agents whose columns hold different numbers of grid points."""

    # a: every row's partial is exactly 1e-9, so the row at 0.0 changes by
    # exactly 1e-9 and moves again; b: its first column's partial is just
    # below 1e-9, and its second column has no constraint, so the row at
    # (0.0, 0.0) stops after one move
    A = [("s", [-1.0, 0.0, 1.0], quad("a", "s", d=1e-9), ONE)]
    B = [("s", [0.0, 1.0], quad("s", "b", b=BELOW), ONE), ("u", [-1.0, 0.0, 1.0], None, ONE)]
    # c and d: the partial is the own value (own x other = 1), so a row's
    # snap decides its step; 1.0 lies exactly between c's points 0 and 2,
    # and d's row (0.0, 2.0) between -1 and 1 and between 0 and 4
    C = [("s", [0.0, 2.0], quad("c", "s", e=1.0), WIDE)]
    D = [("s", [-3.0, -1.0, 1.0, 3.0], quad("d", "s", e=1.0), WIDE),
         ("u", [0.0, 4.0], quad("u", "d", e=1.0), WIDE)]
    # e: one grid point, so every row snaps to it
    E = [("s", [5.0], quad("e", "s", e=1.0), WIDE)]
    # f: three columns of 2, 3 and 2 points, each row on its own grid tuple
    F = [("s", [-2.0, 2.0], quad("f", "s", e=1.0), WIDE),
         ("u", [-1.0, 0.0, 1.0], quad("f", "u", e=-1.0), WIDE),
         ("w", [0.0, 3.0], quad("w", "f", d=0.5, e=1.0), WIDE)]

    def agents(self):
        return [pending("a", self.A, [[-1.0], [0.0], [1.0]], [0.0, 0.0, 0.0]),
                pending("b", self.B, [[0.0, 0.0], [1.0, -1.0]], np.zeros((2, 3))),
                pending("c", self.C, [[1.0], [0.0], [2.0]], [-0.25, 0.25]),
                pending("d", self.D, [[0.0, 2.0], [-2.0, 1.0], [3.0, 4.0]],
                        np.arange(8.0).reshape(4, 2) / 4.0 - 1.0),
                pending("e", self.E, [[5.0], [3.0]], [0.5]),
                pending("f", self.F, list(itertools.product([-2.0, 2.0], [-1.0, 0.0, 1.0], [0.0, 3.0])),
                        np.arange(12.0).reshape(2, 3, 2) / 8.0 - 0.7)]

    def test_matches_the_scalar_oracle(self, stacking):
        agents = self.agents()
        for alpha, moves in ((1.0, 1), (1.0, 3), (0.5, 10)):
            moved = agents_move(agents, alpha, moves)
            for agent, columns, rows in zip(agents, (self.A, self.B, self.C, self.D, self.E, self.F),
                                            moved):
                assert hex_rows(rows) == hex_rows(oracle_rows(agent, columns, alpha, moves)), \
                    agent.var

    def test_a_change_of_exactly_1e_9_moves_again(self, stacking):
        a, b = agents_move(self.agents()[:2], 1.0, 3)
        assert a[1, 0] == (1e-9 + 1e-9) + 1e-9
        assert b[0].tolist() == [BELOW, 0.0]

    def test_a_tie_snaps_to_the_lower_point(self, stacking):
        assert _snap_column(np.array([0.0, 2.0]), np.array([1.0])).tolist() == [0]
        assert _snap_column(np.array([-3.0, -1.0, 1.0, 3.0]), np.array([0.0, 2.0])).tolist() == [1, 2]
        c, d = agents_move(self.agents()[2:4], 1.0, 1)
        # c's tie takes the own value of 0, not 2's 0.25
        assert c[0].tolist() == [0.75]
        # d's tie is the grid tuple (-1, 0): index (1, 0), own value -0.5
        assert d[0].tolist() == [-0.5, 1.5]


class TestComputedAhead:
    def test_one_stacked_move_per_height(self, monkeypatch):
        # gen_tree(200)'s agents with children all move ahead, by height
        p = generators.gen_tree(200, seed=3, concave=True)
        tree = p.tree
        height = heights_of(tree)
        batches = []
        real = afdpop.agents_move

        def record(agents, alpha, moves):
            batches.append([a.var for a in agents])
            return real(agents, alpha, moves)

        monkeypatch.setattr(afdpop, "agents_move", record)
        runtime.run(p, "af-dpop", EngineConfig(moves=10, alpha=0.001))
        inner = [v for v in tree.post_order if tree.children[v] and v != tree.root]
        assert sum(batches, []) == sorted(inner, key=lambda v: height[v])
        assert [len({height[v] for v in batch}) for batch in batches] == [1] * len(batches)
        assert max(map(len, batches)) >= afdpop.STACK_MIN

    def test_dpop_joins_one_height_per_call(self, monkeypatch):
        p = generators.gen_tree(200, seed=3)
        height = heights_of(p.tree)
        calls = []
        real = common.join

        def record(sums):
            calls.append([s.var for s in sums])
            return real(sums)

        monkeypatch.setattr(common, "join", record)
        runtime.run(p, "dpop", EngineConfig(points=3))
        assert sorted(sum(calls, [])) == sorted(p.tree.post_order)
        assert [len({height[v] for v in call}) for call in calls] == [1] * len(calls)
        assert len(calls) == max(height.values()) + 1

    def test_dpop_joins_a_height_in_runs_within_the_row_cap(self, monkeypatch):
        # 41 leaves of 30 x 30 = 900 cells each: under a cap of 2,000 cells
        # height 0 joins two leaves at a time, 21 calls, and the root one
        p = star(41)
        config = EngineConfig(points=30, row_cap=2_000)
        alone = runtime.run(p, "dpop", dataclasses.replace(config, row_cap=10**7))
        calls = []
        real = common.join

        def record(sums):
            calls.append(sum(len(s.rows) * len(s.candidates) for s in sums))
            return real(sums)

        monkeypatch.setattr(common, "join", record)
        result = runtime.run(p, "dpop", config)
        assert calls == [1_800] * 20 + [900, 30]
        assert hex_floats(result.assignment.values.values()) == hex_floats(
            alone.assignment.values.values())
        assert float.hex(result.reported_optimum) == float.hex(alone.reported_optimum)
        assert result.kernel.trace_lines() == alone.kernel.trace_lines()

    def test_af_moves_every_leaf_sure_to_finish_in_one_call(self, monkeypatch):
        # a `graph` benchmark instance whose walk stops at the sixth agent in
        # post-order, with three leaves after it
        p = generators.gen_graph(20, 0.1, seed=854469256, concave=True)
        tree = p.tree
        walks, calls = [], []
        real_walk, real_move = afdpop._sure_to_finish, afdpop.leaf_move

        def walk(*args):
            walks.append(real_walk(*args))
            return walks[-1]

        def move(leaves, alpha, moves):
            calls.append((sys._getframe(1).f_code.co_name, [leaf.var for leaf in leaves]))
            return real_move(leaves, alpha, moves)

        monkeypatch.setattr(afdpop, "_sure_to_finish", walk)
        monkeypatch.setattr(afdpop, "leaf_move", move)
        runtime.run(p, "af-dpop", EngineConfig(points=3, moves=10, alpha=0.001))
        [sure] = walks
        stop = next(i for i, v in enumerate(tree.post_order) if v not in sure)
        leaves = [v for v in tree.post_order if not tree.children[v] and v != tree.root]
        assert stop == 5 and len([v for v in leaves if tree.post_order.index(v) > stop]) == 3
        assert [v for v in sure if not tree.children[v]] == leaves
        assert calls == [("util_steps", leaves)]

    @pytest.mark.parametrize("problem", [
        lambda: generators.gen_tree(200, seed=3), lambda: generators.gen_graph(12, 0.3, seed=2)],
        ids=["tree", "graph"])
    def test_without_moves_af_scores_one_height_per_call_before_the_first_message(
            self, monkeypatch, problem):
        # every table is a grid that fits the cap, so every non-root agent is
        # sure to finish and is scored ahead, a height at a time; on the
        # graph, the bounds that moved tables need would stop after 3 agents
        p = problem()
        tree = p.tree
        height = heights_of(tree)
        calls, sent = [], []
        real_score, real_send = afdpop.score, Kernel.send

        def record(jobs, method, row_cap):
            if not sent:
                calls.append([scorer.var for scorer, _ in jobs])
            return real_score(jobs, method, row_cap)

        def send(kernel, *args):
            sent.append(args)
            real_send(kernel, *args)

        monkeypatch.setattr(afdpop, "score", record)
        monkeypatch.setattr(Kernel, "send", send)
        runtime.run(p, "af-dpop", EngineConfig(moves=0))
        assert sorted(sum(calls, [])) == sorted(v for v in tree.post_order if v != tree.root)
        assert [len({height[v] for v in call}) for call in calls] == [1] * len(calls)
        assert len(calls) == height[tree.root]

    @pytest.mark.parametrize("engine, moves", [
        ("dpop", 3), ("af-dpop", 3), ("caf-dpop", 3), ("af-dpop", 0), ("caf-dpop", 0)],
        ids=["dpop", "af-dpop", "caf-dpop", "af-dpop-moves0", "caf-dpop-moves0"])
    def test_a_table_comes_only_from_the_payloads_received(self, monkeypatch, engine, moves):
        # a payload that is a copy of the table its child computed is not
        # the table the parent was computed from
        real_send = Kernel.send

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            if kind == UTIL and receiver != runtime.SYSTEM:
                payload = type(payload)(payload.separator_vars, payload.rows, payload.utils)
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        monkeypatch.setattr(Kernel, "send", send)
        with pytest.raises(ProtocolError, match=r"computed from other tables than it received$"):
            runtime.run(generators.gen_tree(12, seed=1), engine, EngineConfig(moves=moves))


# the capacity workload's af and caf jobs: in each, an agent of lower
# height follows the refusing agent in post-order
REFUSALS = [
    ((20, 0.1, 2), "af-dpop", EngineConfig(points=4, moves=10, alpha=0.001), "x000",
     r"^interpolation workload 146496x2688 exceeds the pair cap$", 13, ["x019"]),
    ((30, 0.1, 5), "caf-dpop", EngineConfig(points=4, k_clusters=10, moves=10, alpha=0.001), "x022",
     r"^x022: grid table would hold 57600000 rows \(cap 10000000\)$", 14, ["x009", "x010"]),
]


class TestRefusalOrder:
    """A refusal comes at its agent's turn with the parent commit's text and
    message count, and no agent after it in post-order joins or
    interpolates; under caf, no agent with children, since the leaves after
    it are sure to finish and are clustered ahead, at height 0. A lookup of
    a child's table is charged to the child's parent, and a clustering
    interpolation to the table's own agent. A table's agent is known by its
    rows: those `leaf_move` gave it, those it scored last (`score`), which
    are its table's, and those of a table clustered from them."""

    @pytest.mark.parametrize("shape, engine, config, refusing, text, messages, later", REFUSALS,
                             ids=["af", "caf"])
    def test_no_agent_after_the_refusal_works(self, monkeypatch, shape, engine, config, refusing,
                                              text, messages, later):
        n, p1, seed = shape
        p = generators.gen_graph(n, p1, seed=seed, concave=True)
        tree = p.tree
        height = heights_of(tree)
        order = tree.post_order.index
        assert all(order(v) > order(refusing) and height[v] < height[refusing] for v in later)

        owner, worked, clustering, joins = {}, set(), [], []
        real = {name: getattr(afdpop, name) for name in
                ("_lookups", "_interp_many", "cluster_tuples", "leaf_move", "score")}
        real_join = common.join

        def join(sums):
            joins.append(sums)
            worked.update(s.var for s in sums)
            return real_join(sums)

        def charge(table):
            agent = owner[id(table.rows)]
            worked.add(agent if clustering else tree.parent[agent])

        def lookups(requests, method):
            for table, _ in requests:
                charge(table)
            return real["_lookups"](requests, method)

        def interp(table, queries, method):
            charge(table)
            return real["_interp_many"](table, queries, method)

        def cluster(table, *args):
            clustering.append(table)
            try:
                out = real["cluster_tuples"](table, *args)
            finally:
                clustering.pop()
            owner[id(out.rows)] = owner[id(table.rows)]
            return out

        def leaf_move(leaves, *args):
            tables = real["leaf_move"](leaves, *args)
            owner.update((id(t.rows), leaf.var) for leaf, t in zip(leaves, tables))
            return tables

        def score(jobs, method, row_cap):
            owner.update((id(rows), scorer.var) for scorer, rows in jobs)
            return real["score"](jobs, method, row_cap)

        monkeypatch.setattr(common, "join", join)
        for name, wrapper in (("_lookups", lookups), ("_interp_many", interp),
                              ("cluster_tuples", cluster), ("leaf_move", leaf_move),
                              ("score", score)):
            monkeypatch.setattr(afdpop, name, wrapper)
        with pytest.raises(CapacityError, match=text) as exc:
            runtime.run(p, engine, config)
        assert exc.value.stats.total_messages == messages
        assert joins
        before = tree.post_order[:order(refusing)]
        assert {v for v in before if tree.children[v]} <= worked
        after = [v for v in worked if order(v) > order(refusing)]
        if engine == "caf-dpop":
            after = [v for v in after if tree.children[v]]
        assert after == []


@st.composite
def branching_problems(draw):
    """A connected problem of two or three branches x0 - a - b, each with one
    or two leaves below b, on domains of different widths and signs. The
    first branch has no back edge, the second one to three (from b to x0,
    from a leaf to x0 or a), the third up to three; so the agents b, of
    height 1 when x0 is the root, have separators of different widths and
    value sets of different sizes."""
    names, edges = ["x0"], []
    for i in range(draw(st.integers(2, 3))):
        a, b = f"a{i}", f"b{i}"
        leaves = [f"c{i}{j}" for j in range(draw(st.integers(1, 2)))]
        names += [a, b, *leaves]
        edges += [("x0", a), (a, b)] + [(b, c) for c in leaves]
        back = [("x0", b)] + [(w, c) for c in leaves for w in ("x0", a)]
        edges += draw(st.lists(st.sampled_from(back), unique=True, min_size=int(i == 1),
                               max_size=3 if i else 0))
    coeffs = st.one_of(st.floats(-5.0, 5.0), st.integers(-2, 2).map(float), st.just(-0.0))
    utilities = [quad(v, w, *draw(st.tuples(*[coeffs] * 5))) for v, w in edges]
    domains = {v: draw(st.sampled_from([ContinuousDomain(-1.0, -0.0), ContinuousDomain(-0.0, 2.0),
                                        ContinuousDomain(0.0, 1.0), ContinuousDomain(-5.0, 3.0)]))
               for v in names}
    try:
        return make_problem(utilities, domains=domains)
    except ValidationError:
        reject()


class TestHeightOracle:
    """On stacked heights of several agents with separators of different
    widths and different value-set sizes (and with a lone agent stacked or
    moved alone), every agent sends the rows the scalar oracle moves from
    its grid, to the last bit."""

    @given(problem=branching_problems(), points=st.integers(2, 4),
           alpha=st.sampled_from([1e-3, 0.1, 1.0]), moves=st.integers(1, 6),
           stack_min=st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_matches_the_scalar_oracle(self, problem, points, alpha, moves, stack_min):
        grid_joins, batches = {}, []
        real_join, real_move = common.join, afdpop.agents_move

        def join(sums):
            out = real_join(sums)
            for s, (best, _) in zip(sums, out):
                grid_joins.setdefault(s.var, (s.candidates, s.rows.copy(), best))
            return out

        def record(agents, alpha, moves):
            batches.append(agents)
            return real_move(agents, alpha, moves)

        with pytest.MonkeyPatch.context() as mp:
            tables = sent_util_tables(mp)
            mp.setattr(common, "join", join)
            mp.setattr(afdpop, "agents_move", record)
            mp.setattr(afdpop, "STACK_MIN", stack_min)
            try:
                runtime.run(problem, "af-dpop", EngineConfig(points=points, moves=moves,
                                                             alpha=alpha))
            except FdcopError:
                pass
        # some height stacks agents of different separator widths and
        # different value-set sizes
        assume(any(len({len(a.points) for a in batch}) > 1
                   and len({max(map(len, a.points)) for a in batch}) > 1 for batch in batches))
        tree = problem.tree
        assert grid_joins
        for var, (candidates, grid, best) in grid_joins.items():
            if var not in tables:
                continue
            sep_vars = tree.separator[var]
            sep_sets = {w: sorted(set(grid[:, j].tolist())) for j, w in enumerate(sep_vars)}
            own_at = {tuple(row): candidates[i] for row, i in zip(grid.tolist(), best.tolist())}
            constraints = {w: f for w in sep_vars if (f := problem.utility_between(var, w))}

            def move(t):
                return scalar_agent_move(t, sep_vars, sep_sets, own_at, constraints, alpha, var,
                                         problem.domains)

            expected = [scalar_moves(tuple(row), move, moves) for row in grid.tolist()]
            assert hex_rows(tables[var].rows.tolist()) == hex_rows(expected), var


# few values, so tables repeat rows (with different utilities), mix -0.0
# with 0.0, and queries hit rows exactly; values that do not sum exactly, so
# a sum's order shows in its last bit; utilities near the float limit
# overflow an interpolation, which then takes the non-finite fallback
VALUES = [-1.0, -0.0, 0.0, 1 / 3, 0.7, 2.0]
UTILS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([math.pi, -1 / 3, 2 / 7, math.e]),
                  st.sampled_from([1.7e308, -1.7e308, 9e307]))


@st.composite
def scoring_heights(draw):
    """Two to five agents of one variable "x", each with a separator of
    zero to two of ("s", "t"), zero to three child tables of 1-9 rows drawn
    from a shared pool (so lookups of one shape stack), candidates that hold
    every child's values of x, constraints with some separator variables,
    and two rounds of separator tuples to score."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        names = tuple(sorted({"x", *draw(st.lists(st.sampled_from("st"), unique=True))}))
        rows = draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * len(names)),
                             min_size=1, max_size=9))
        pool.append(util_table(names, [(r, draw(UTILS)) for r in rows]))
    agents = []
    for _ in range(draw(st.integers(2, 5))):
        sep_vars = ("s", "t")[:draw(st.integers(0, 2))]
        fits = [t for t in pool if set(t.separator_vars) <= {"x", *sep_vars}]
        tables = draw(st.lists(st.sampled_from(fits), max_size=3)) if fits else []
        candidates = sorted(set().union(*(t.value_set("x") for t in tables),
                                        draw(st.sets(st.sampled_from(VALUES), max_size=3)))
                            or {0.5})
        coeffs = st.tuples(*[st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0])] * 5)
        constraints = [quad(*(("x", w) if draw(st.booleans()) else (w, "x")), *draw(coeffs))
                       for w in sep_vars if draw(st.booleans())]
        rounds = []
        for _ in range(2):
            rows = draw(st.lists(st.tuples(*[st.sampled_from(VALUES)] * len(sep_vars)),
                                 min_size=1, max_size=6))
            rounds.append(np.array(rows, dtype=float).reshape(len(rows), len(sep_vars)))
        agents.append((sep_vars, tables, candidates, constraints, rounds))
    return agents


def joined_sums(monkeypatch):
    """Each `UtilSum` that `common.join` is given from now on, in order."""
    sums, real_join = [], common.join

    def join(run):
        sums.extend(run)
        return real_join(run)

    monkeypatch.setattr(common, "join", join)
    return sums


class TestScoreOracle:
    """A height's agents scored as one (`score`) get, bit for bit, the scores
    each gets scored alone by the per-agent oracle, round after round (so
    a child's last lookup is reused as it was), and every agent with
    children of a run sends the table, and answers VALUE with the value,
    that the oracle gives it."""

    @given(agents=scoring_heights(), method=st.sampled_from(["idw", "nearest"]))
    @settings(max_examples=300, deadline=None)
    def test_a_height_scores_as_each_agent_alone(self, agents, method):
        steps = [scoring_step("x", candidates, sep_vars, constraints, tables)
                   for sep_vars, tables, candidates, constraints, _ in agents]
        oracles = [agent_scores("x", candidates, sep_vars, constraints, tables, method)
                   for sep_vars, tables, candidates, constraints, _ in agents]
        with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
            joins = joined_sums(mp)
            for r in range(2):
                got = score([(s, a[4][r]) for s, a in zip(steps, agents)], method, 10**7)
                sums = list(joins)
                joins.clear()
                assert len(sums) == len(agents)
                for s, (best, utils), oracle, agent in zip(sums, got, oracles, agents):
                    expected = oracle(agent[4][r])
                    assert [hex_floats(row) for row in _add_up(s).tolist()] == [
                        hex_floats(row) for row in expected.tolist()]
                    assert best.tolist() == expected.argmax(axis=1).tolist()
                    assert hex_floats(utils) == hex_floats(expected.max(axis=1))

    def test_the_non_finite_fallback_is_taken_per_lookup(self, monkeypatch):
        # two agents whose children's utilities overflow the weighted sum at
        # queries 0.5 from their rows; the two lookups stack
        child = [util_table(("x",), [((0.0,), 1.7e308), ((1.0,), 1.0)]),
                 util_table(("x",), [((0.0,), -3.0), ((1.0,), 1.7e308)])]
        agents = [((), [t], [0.0, 0.5, 1.0], []) for t in child]
        fallbacks, real_clamp = [], afdpop.clamp

        def clamp(*args):
            fallbacks.append(args)
            return real_clamp(*args)

        monkeypatch.setattr(afdpop, "clamp", clamp)
        stacked, real_batch = [], afdpop._interp_batch

        def batch(points, utils, queries, method):
            stacked.append(points.ndim)
            return real_batch(points, utils, queries, method)

        monkeypatch.setattr(afdpop, "_interp_batch", batch)
        joins = joined_sums(monkeypatch)
        got = score([(scoring_step("x", c, sep, f, t), np.zeros((1, 0)))
                     for sep, t, c, f in agents], "idw", 10**7)
        assert stacked == [3] and len(fallbacks) == 2 and len(joins) == len(agents)
        for s, (best, utils), (sep, t, c, f) in zip(joins, got, agents):
            expected = agent_scores("x", c, sep, f, t, "idw")(np.zeros((1, 0)))
            # every cell, the fallback's at candidate 0.5 among them
            [cells] = _add_up(s).tolist()
            assert all(map(math.isfinite, cells))
            assert hex_floats(cells) == hex_floats(expected[0])
            assert best.tolist() == [expected[0].argmax()]
            assert hex_floats(utils) == hex_floats(expected[0].max(keepdims=True))

    @given(problem=branching_problems(), points=st.integers(1, 3),
           alpha=st.sampled_from([1e-3, 0.1, 1.0, 1e3]), moves=st.integers(1, 4),
           method=st.sampled_from(["idw", "nearest"]))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_every_agent_with_children_matches_the_oracle(self, problem, points, alpha, moves,
                                                          method):
        heights, real_score = [], afdpop.score

        def record(jobs, how, row_cap):
            heights.append(len(jobs))
            return real_score(jobs, how, row_cap)

        with pytest.MonkeyPatch.context() as mp:
            tables = sent_util_tables(mp)
            mp.setattr(afdpop, "score", record)
            try:
                result = runtime.run(problem, "af-dpop", EngineConfig(
                    points=points, moves=moves, alpha=alpha, interpolation=method))
            except FdcopError:
                reject()
        # some height scores several agents as one
        assume(max(heights) > 1)
        tree, values = problem.tree, result.assignment.values
        for var in tree.post_order:
            children = sorted(tree.children[var])
            if not children:
                continue
            received = [tables[c] for c in children]
            sep_vars = tree.separator[var]
            sets = {}
            for t in received:
                for w in t.separator_vars:
                    sets[w] = sorted(set(sets.get(w, ())) | set(t.value_set(w)))
            for w in (var, *sep_vars):
                sets.setdefault(w, discretize(problem.domains[w], points))
            candidates = sets[var]
            constraints = {w: f for w in sep_vars if (f := problem.utility_between(var, w))}
            oracle = agent_scores(var, candidates, sep_vars, list(constraints.values()), received,
                                  method)
            with np.errstate(over="ignore", invalid="ignore"):
                grid = list(itertools.product(*(sets[w] for w in sep_vars)))
                best = oracle(grid).argmax(axis=1).tolist()
                if var != tree.root:
                    own_at = {t: candidates[i] for t, i in zip(grid, best)}

                    def move(t):
                        return scalar_agent_move(t, sep_vars, sets, own_at, constraints, alpha,
                                                 var, problem.domains)

                    rows = [scalar_moves(t, move, moves) for t in grid]
                    utils = oracle(rows).max(axis=1)
                    assert hex_rows(tables[var].rows.tolist()) == hex_rows(rows), var
                    assert hex_floats(tables[var].utils) == hex_floats(utils), var
                query = tuple(values[w] for w in sep_vars)
                own = problem.domains[var].clamp(candidates[int(oracle([query])[0].argmax())])
            assert float.hex(values[var]) == float.hex(own), var
