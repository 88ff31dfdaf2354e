"""Hybrid continuous max-sum baseline."""
import dataclasses

import numpy as np
import pytest

from fdcop import cli, generators, model, runtime
from fdcop.engines import common, hcms
from fdcop.errors import CapacityError
from fdcop.runtime import (
    MS_FUNCTION_TO_VARIABLE,
    MS_VARIABLE_TO_FUNCTION,
    EngineConfig,
    Kernel,
)

from conftest import MaxSumVariables, hex_floats, make_problem, quad, star
from test_properties import assert_typed_error_or_finite_in_domain_assignment


def chain3_unit():
    """x1 - x2 - x3 on [-1, 1]."""
    return make_problem([quad("x1", "x2", a=-1.0, e=1.0), quad("x2", "x3", c=-1.0, e=0.5)],
                        lb=-1.0, ub=1.0)


def nan_gradient_problem():
    """x's partials are 2 * 1e308 * 0 = inf * 0 = NaN at x = 0, and
    inf - inf = NaN beyond."""
    return make_problem([quad("x", "y", a=1e308), quad("x", "z", a=-1e308)], lb=0.0, ub=0.5)


class TestRowCap:
    def test_refused_before_the_first_message(self):
        with pytest.raises(CapacityError, match=r"^function nodes would join 25 cells each "
                                                r"\(cap 20\)$") as exc:
            runtime.run(chain3_unit(), "hcms", EngineConfig(points=5, row_cap=20))
        assert exc.value.stats.total_messages == 0

    def test_a_join_at_the_cap_runs(self):
        result = runtime.run(chain3_unit(), "hcms", EngineConfig(points=4, row_cap=16))
        assert result.stats.total_messages == 4 * 2

    def test_cli_exits_before_any_message(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        model.save(chain3_unit(), path)
        for engine in ("hcms", "dpop"):
            code = cli.main(["solve", str(path), "--engine", engine, "-d", "200000"])
            err = capsys.readouterr().err
            assert code == cli.EXIT_CAPACITY, err
            assert "partial stats: messages=0 scalars=0" in err


class TestJoins:
    """An iteration gathers every function node's two sums and joins them
    all, in runs within the row cap (`common.joined`)."""

    @staticmethod
    def joins(monkeypatch, problem, config):
        calls = []
        real = common.join

        def record(sums):
            calls.append(sum(len(s.rows) * len(s.candidates) for s in sums))
            return real(sums)

        monkeypatch.setattr(common, "join", record)
        return calls, runtime.run(problem, "hcms", config)

    def test_one_join_per_iteration(self, monkeypatch):
        p = generators.gen_graph(12, 0.3, seed=2)
        calls, _ = self.joins(monkeypatch, p, EngineConfig(points=4, iterations=3))
        assert calls == [2 * len(p.utilities) * 16] * 3

    def test_runs_within_the_row_cap_change_no_output(self, monkeypatch):
        # 82 sums of 10 x 10 cells: a cap of 250 joins two at a time
        p = star(41)
        config = EngineConfig(points=10, iterations=2, row_cap=250)
        alone = runtime.run(p, "hcms", dataclasses.replace(config, row_cap=10**7))
        calls, result = self.joins(monkeypatch, p, config)
        assert calls == [200] * 82
        assert [float.hex(x) for x in result.assignment.values.values()] == [
            float.hex(x) for x in alone.assignment.values.values()]
        assert float.hex(result.reported_optimum) == float.hex(alone.reported_optimum)
        assert result.kernel.trace_lines() == alone.kernel.trace_lines()


class TestMessageSchedule:
    def test_counts_per_iteration(self):
        p = generators.gen_graph(10, 0.3, 2)
        g = model.build_constraint_graph(p)
        e = g.number_of_edges()
        for iters in (1, 2, 4):
            result = runtime.run(p, "hcms", EngineConfig(iterations=iters))
            kinds = result.stats.messages_by_kind
            assert kinds[MS_VARIABLE_TO_FUNCTION] == 2 * iters * e
            assert kinds[MS_FUNCTION_TO_VARIABLE] == 2 * iters * e
            assert result.stats.total_messages == 4 * iters * e

    def test_message_size_is_sample_count(self):
        p = generators.gen_tree(5, 1)
        for d in (1, 3, 9):
            result = runtime.run(p, "hcms", EngineConfig(points=d))
            for _, _, _, size in result.kernel.trace:
                assert size == d

    def test_function_hosted_by_smaller_endpoint(self):
        # every q message goes to the smaller endpoint of some incident edge
        p = generators.gen_graph(8, 0.3, 3)
        g = model.build_constraint_graph(p)
        hosts = {min(u, v) for u, v in g.edges()}
        result = runtime.run(p, "hcms", EngineConfig())
        for sender, receiver, kind, _ in result.kernel.trace:
            if kind == MS_VARIABLE_TO_FUNCTION:
                assert receiver in hosts
                assert receiver in g.neighbors(sender) or sender == receiver


class TestSolutionQuality:
    def test_two_node_concave(self):
        # with d=3 the center sample at 0 moves toward the optimum and wins
        p = make_problem([quad("x", "y", a=-1.0, c=-1.0, b=2.0, d=2.0)])
        result = runtime.run(p, "hcms", EngineConfig(points=3, alpha=0.1))
        u = model.evaluate_solution(p, result.assignment)
        # optimum is f(1,1) = 2; one iteration should land near it
        assert u > 0.0

    def test_values_feasible(self):
        p = generators.gen_graph(9, 0.3, 6)
        result = runtime.run(p, "hcms", EngineConfig(points=9, alpha=0.01))
        for v, value in result.assignment.values.items():
            assert p.domains[v].contains(value)

    def test_reported_optimum_matches_evaluation(self):
        p = generators.gen_graph(8, 0.3, 4)
        result = runtime.run(p, "hcms", EngineConfig(points=3))
        assert result.reported_optimum == pytest.approx(
            model.evaluate_solution(p, result.assignment))

    def test_determinism(self):
        p = generators.gen_graph(8, 0.3, 5)
        cfg = EngineConfig(points=3, iterations=3, alpha=0.005)
        r1 = runtime.run(p, "hcms", cfg)
        r2 = runtime.run(p, "hcms", cfg)
        assert r1.assignment.values == r2.assignment.values
        assert r1.kernel.trace == r2.kernel.trace


class TestPastTheFloatRange:
    """Sums and steps past the float range end where the scalar loops ended
    them, with no RuntimeWarning."""

    @pytest.mark.parametrize("problem", [generators.gen_tree(8, 1),
                                         generators.gen_graph(6, 0.5, 1)],
                             ids=["tree", "graph"])
    def test_largest_finite_alpha(self, problem):
        result = runtime.run(problem, "hcms", EngineConfig(alpha=1e308))
        assert all(problem.domains[v].contains(x) for v, x in result.assignment.values.items())

    def test_nan_gradient_ends_at_the_lower_bound(self):
        # a NaN step keeps the sample, and x's best sample is its lower bound
        result = runtime.run(nan_gradient_problem(), "hcms", EngineConfig(points=3))
        assert result.assignment.values == {"x": 0.0, "y": 0.0, "z": 0.0}
        assert result.reported_optimum == 0.0

    def test_a_step_that_ties_a_negative_zero_bound_keeps_the_bound(self):
        # x climbs -x^2 on [-1, -0.0]: its sample at -1 steps past ub to -0.0,
        # where the gradient is 0.0, so the next step is -0.0 + 0.0 = 0.0; as
        # in min(ub, max(lb, step)) the tie goes to ub, sign and all
        p = make_problem([quad("x", "y", a=-1.0)], lb=-1.0, ub=-0.0)
        result = runtime.run(p, "hcms", EngineConfig(points=2, iterations=3, alpha=1.0))
        assert float.hex(result.assignment.values["x"]) == "-0x0.0p+0"


def per_cell(f, v, xs, ys, qy):
    """A function node's message to v, cell by cell: per sample x of v, the
    best f(x, y) + q[j] over the partner's samples, and the first partner
    that reaches it."""
    r, best_partner = [], []
    for x in xs:
        best_u, best_y = None, None
        for y, qv in zip(ys, qy):
            u = (f.evaluate(x, y) if f.first_var == v else f.evaluate(y, x)) + qv
            if best_u is None or u > best_u:
                best_u, best_y = u, y
        r.append(best_u)
        best_partner.append(best_y)
    return r, best_partner


class TestPerCellReference:
    """Every function-to-variable message equals the per-cell loop on the
    q messages it answers, float for float. Generated problems have f0 = 0.0,
    so the join's 0.0 + q + f and the loop's f + q agree even in the sign of
    a zero. No array of a max-sum payload can be written to."""

    @staticmethod
    def run_checked(monkeypatch, problem, config):
        latest_q, checked = {}, []
        real_send = Kernel.send

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            assert not any(a.flags.writeable for k, a in payload.items() if k != "edge")
            if kind == MS_VARIABLE_TO_FUNCTION:
                latest_q[(payload["edge"], sender)] = payload
            elif kind == MS_FUNCTION_TO_VARIABLE:
                e, v = payload["edge"], receiver
                w = e[0] if v == e[1] else e[1]
                own, other = latest_q[(e, v)], latest_q[(e, w)]
                r, partners = per_cell(problem.utility_between(v, w), v,
                                       own["values"], other["values"], other["q"])
                assert [float.hex(u) for u in payload["values"]] == [float.hex(u) for u in r]
                assert ([float.hex(y) for y in payload["argmax"]]
                        == [float.hex(y) for y in partners])
                checked.append((e, v, payload, other["values"]))
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        monkeypatch.setattr(Kernel, "send", send)
        result = runtime.run(problem, "hcms", config)
        assert len(checked) == result.stats.messages_by_kind[MS_FUNCTION_TO_VARIABLE]
        return checked

    @pytest.mark.parametrize("config", [EngineConfig(points=5, iterations=3),
                                        EngineConfig(points=1, iterations=2)],
                             ids=["golden", "points1"])
    def test_golden_graph(self, monkeypatch, config):
        # the graph of the hcms golden digest in test_index.py
        p = generators.gen_graph(30, 0.1, seed=4, concave=True)
        self.run_checked(monkeypatch, p, config)

    def test_tied_partners_go_to_the_first_sample(self, monkeypatch):
        # f(x, y) = -x^2 is flat in y, and so is y's other utility, so y's q
        # towards x's edge stays zero and every partner of x ties
        p = make_problem([quad("x", "y", a=-1.0), quad("y", "z", c=-1.0, d=2.0)])
        checked = self.run_checked(monkeypatch, p, EngineConfig(points=4, iterations=3))
        to_x = [(payload, ys) for e, v, payload, ys in checked if v == "x"]
        assert len(to_x) == 3
        for payload, ys in to_x:
            assert payload["argmax"].tolist() == [ys[0]] * 4


class TestVariableNodeReference:
    """Every variable-to-function message's samples and q vector, every
    iteration's moved samples and the decisions equal the per-variable loops
    of `conftest.MaxSumVariables`, fed the function-to-variable messages as
    they were sent, float for float."""

    @staticmethod
    def run_checked(monkeypatch, problem, config):
        oracle = MaxSumVariables(problem, config.points)
        variables = sorted(problem.variables)
        moved, expected, checked = [], [], []
        pending = []  # r messages since the oracle's last step
        real_send, real_step = Kernel.send, hcms.clamped_step

        def catch_up():
            if pending:
                oracle.step(config.alpha)
                expected.append([hex_floats(oracle.samples[v]) for v in variables])
                pending.clear()

        def send(kernel, sender, receiver, kind, payload, scalar_size):
            if kind == MS_VARIABLE_TO_FUNCTION:
                catch_up()
                e = payload["edge"]
                assert hex_floats(payload["values"]) == hex_floats(oracle.samples[sender])
                assert hex_floats(payload["q"]) == hex_floats(oracle.q(sender, e)), (sender, e)
                checked.append((sender, e))
            elif kind == MS_FUNCTION_TO_VARIABLE:
                oracle.receive(payload["edge"], receiver, payload)
                pending.append(receiver)
            real_send(kernel, sender, receiver, kind, payload, scalar_size)

        def step(current, step, lb, ub):
            out = real_step(current, step, lb, ub)
            moved.append([hex_floats(row) for row in out])
            return out

        monkeypatch.setattr(Kernel, "send", send)
        monkeypatch.setattr(hcms, "clamped_step", step)
        result = runtime.run(problem, "hcms", config)
        catch_up()
        assert len(checked) == result.stats.messages_by_kind[MS_VARIABLE_TO_FUNCTION]
        assert len(expected) == config.iterations
        assert moved == expected
        assert {v: float.hex(x) for v, x in result.assignment.values.items()} == {
            v: float.hex(oracle.decision(v)) for v in variables}
        return result

    @pytest.mark.parametrize("config", [EngineConfig(points=5, iterations=3),
                                        EngineConfig(points=1, iterations=2)],
                             ids=["golden", "points1"])
    def test_golden_graph(self, monkeypatch, config):
        p = generators.gen_graph(30, 0.1, seed=4, concave=True)
        self.run_checked(monkeypatch, p, config)

    def test_tied_partners(self, monkeypatch):
        p = make_problem([quad("x", "y", a=-1.0), quad("y", "z", c=-1.0, d=2.0)])
        self.run_checked(monkeypatch, p, EngineConfig(points=4, iterations=3))

    def test_a_300_leaf_star(self, monkeypatch):
        # the centre's q vectors each skip one of 300 r vectors
        self.run_checked(monkeypatch, star(300), EngineConfig(points=4, iterations=3, alpha=0.1))

    def test_nan_gradient(self, monkeypatch):
        result = self.run_checked(monkeypatch, nan_gradient_problem(),
                                  EngineConfig(points=3, iterations=3))
        assert result.assignment.values == {"x": 0.0, "y": 0.0, "z": 0.0}

    @pytest.mark.parametrize("problem", [generators.gen_tree(8, 1),
                                         generators.gen_graph(6, 0.5, 1)],
                             ids=["tree", "graph"])
    def test_largest_finite_alpha(self, monkeypatch, problem):
        self.run_checked(monkeypatch, problem, EngineConfig(alpha=1e308, iterations=3))

    def test_a_negative_zero_bound(self, monkeypatch):
        p = make_problem([quad("x", "y", a=-1.0)], lb=-1.0, ub=-0.0)
        self.run_checked(monkeypatch, p, EngineConfig(points=2, iterations=3, alpha=1.0))

    def test_upper_bounds_of_either_zero(self, monkeypatch):
        # equal domains, but y's last sample is -0.0 and x's and z's 0.0
        p = make_problem([quad("x", "y", a=-1.0, e=0.5), quad("y", "z", c=-1.0)], lb=-2.0,
                         ub=0.0, domains={"y": model.ContinuousDomain(-2.0, -0.0)})
        self.run_checked(monkeypatch, p, EngineConfig(points=3, iterations=2))


class TestVariableNodeProtocol:
    def test_a_rewritten_r_vector_reaches_the_next_q(self, monkeypatch):
        # x2's first r vector over (x1, x2) is rewritten in transit: x2's
        # next q towards (x2, x3) sums it, centered, and its next q towards
        # (x1, x2) skips it
        bump = np.array([0.0, 0.0, 8.0, 0.0])
        real = Kernel.send

        def q_vectors(rewrite):
            sent, rewritten = {}, []

            def send(kernel, sender, receiver, kind, payload, scalar_size):
                if (rewrite and not rewritten and kind == MS_FUNCTION_TO_VARIABLE
                        and receiver == "x2" and payload["edge"] == ("x1", "x2")):
                    payload = {**payload, "values": hcms.frozen(payload["values"] + bump)}
                    rewritten.append(payload)
                if kind == MS_VARIABLE_TO_FUNCTION:
                    sent.setdefault((sender, payload["edge"]), []).append(payload["q"])
                real(kernel, sender, receiver, kind, payload, scalar_size)

            monkeypatch.setattr(Kernel, "send", send)
            runtime.run(chain3_unit(), "hcms", EngineConfig(points=4, iterations=2))
            assert len(rewritten) == rewrite
            return sent

        clean, rewritten = q_vectors(False), q_vectors(True)
        assert hex_floats(rewritten[("x2", ("x1", "x2"))][1]) == hex_floats(
            clean[("x2", ("x1", "x2"))][1])
        change = rewritten[("x2", ("x2", "x3"))][1] - clean[("x2", ("x2", "x3"))][1]
        assert change == pytest.approx(bump - bump.mean())

    def test_one_step_per_iteration(self, monkeypatch):
        calls = []
        real = hcms.clamped_step

        def step(current, step, lb, ub):
            calls.append((current.shape, np.shape(lb), np.shape(ub)))
            return real(current, step, lb, ub)

        monkeypatch.setattr(hcms, "clamped_step", step)
        runtime.run(generators.gen_graph(12, 0.3, seed=2), "hcms",
                    EngineConfig(points=4, iterations=3))
        assert calls == [((12, 4), (12, 1), (12, 1))] * 3


class TestHighDegree:
    """A 300-leaf star: one variable's 300 r vectors per skip-sum."""

    def test_outcome_laws(self):
        p, config = star(300), EngineConfig(points=3, iterations=2)
        result = runtime.run(p, "hcms", config)
        assert result.stats.total_messages == 4 * 2 * 300
        assert_typed_error_or_finite_in_domain_assignment(p, config, "hcms")
        # the power-of-two law: every coefficient times 8 and alpha over 8
        scaled = dataclasses.replace(p, utilities=tuple(
            model.QuadraticBinaryUtility(f.first_var, f.second_var, *(8.0 * c for c in f.coeffs))
            for f in p.utilities))
        again = runtime.run(scaled, "hcms", dataclasses.replace(config, alpha=config.alpha / 8))
        assert again.assignment.values == result.assignment.values
        assert again.reported_optimum == 8.0 * result.reported_optimum
