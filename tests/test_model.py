"""Problem representation, bound calculators, and serialization."""
import json
import math
import random

import pytest

from fdcop import generators, model, runtime
from fdcop.engines import afdpop, discrete, efdpop, hcms
from fdcop.errors import (
    ArgumentError,
    IncompleteSolutionError,
    InfeasibleValueError,
    ValidationError,
)
from fdcop.model import Assignment, ContinuousDomain, QuadraticBinaryUtility

from conftest import make_problem, quad


class TestContinuousDomain:
    def test_width_and_contains(self):
        dom = ContinuousDomain(-2.0, 3.0)
        assert dom.width == 5.0
        assert dom.contains(-2.0) and dom.contains(3.0) and dom.contains(0.0)
        assert not dom.contains(3.0001)

    def test_clamp(self):
        dom = ContinuousDomain(0.0, 1.0)
        assert dom.clamp(-5.0) == 0.0
        assert dom.clamp(0.5) == 0.5
        assert dom.clamp(2.0) == 1.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            ContinuousDomain(1.0, 1.0)
        with pytest.raises(ValidationError):
            ContinuousDomain(2.0, 1.0)
        with pytest.raises(ValidationError):
            ContinuousDomain(0.0, math.inf)


class TestQuadraticBinaryUtility:
    def test_evaluate_matches_formula(self):
        f = quad("x", "y", a=1.0, b=2.0, c=3.0, d=4.0, e=5.0, f0=6.0)
        vi, vj = 1.5, -2.0
        expected = (1.0 * vi * vi + 2.0 * vi + 3.0 * vj * vj
                    + 4.0 * vj + 5.0 * vi * vj + 6.0)
        assert f.evaluate(vi, vj) == expected
        assert f.value_at({"x": vi, "y": vj}) == expected

    def test_partials(self):
        f = quad("x", "y", a=1.0, b=2.0, c=3.0, d=4.0, e=5.0)
        assert f.partial("x", 1.0, 2.0) == 2.0 * 1.0 + 2.0 + 5.0 * 2.0
        assert f.partial("y", 1.0, 2.0) == 6.0 * 2.0 + 4.0 + 5.0 * 1.0
        with pytest.raises(ArgumentError):
            f.partial("z", 0.0, 0.0)

    def test_other_var(self):
        f = quad("x", "y", e=1.0)
        assert f.other_var("x") == "y"
        assert f.other_var("y") == "x"
        with pytest.raises(ArgumentError):
            f.other_var("z")

    def test_oriented(self):
        f = quad("x", "y", a=1.0, b=2.0, c=3.0, d=4.0, e=5.0, f0=6.0)
        assert f.oriented("x") == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert f.oriented("y") == (3.0, 4.0, 1.0, 2.0, 5.0, 6.0)
        with pytest.raises(ArgumentError, match=r"^'z' is not in the scope of this utility$"):
            f.oriented("z")

    def test_rejects_self_loop_and_nonfinite(self):
        with pytest.raises(ValidationError):
            quad("x", "x", e=1.0)
        with pytest.raises(ValidationError):
            quad("x", "y", a=math.nan)


class TestProblemValidation:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError):
            make_problem([quad("x", "y", e=1.0), quad("y", "x", e=2.0)])

    def test_same_utility_twice_rejected(self):
        f = quad("x", "y", e=1.0)
        with pytest.raises(ValidationError, match=r"^duplicate utility over pair \['x', 'y'\]$"):
            make_problem([f, quad("y", "z", e=1.0), f])

    def test_no_variables_rejected(self):
        p = model.Problem(agents=(), variables=(), domains={}, utilities=(), owner={})
        with pytest.raises(ValidationError, match="^a problem needs at least one variable$"):
            p.validate()

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            make_problem([quad("a", "b", e=1.0), quad("c", "d", e=1.0)])

    @pytest.mark.parametrize("engine", model.ENGINE_KINDS)
    def test_utility_over_a_variable_with_a_domain_but_undeclared(self, engine):
        # "z" has a domain but is not a variable: no agent owns it, so no
        # engine could give it a value
        dom = ContinuousDomain(-1.0, 1.0)
        p = model.Problem(agents=("ax", "ay"), variables=("x", "y"),
                          domains={"x": dom, "y": dom, "z": dom},
                          utilities=(quad("x", "y", e=1.0), quad("y", "z", e=1.0)),
                          owner={"x": "ax", "y": "ay"})
        with pytest.raises(ValidationError, match="^utility references undeclared variable 'z'$"):
            runtime.run(p, engine)

    def test_owner_must_be_bijective(self):
        p = make_problem([quad("x", "y", e=1.0)])
        bad = model.Problem(agents=p.agents, variables=p.variables,
                            domains=p.domains, utilities=p.utilities,
                            owner={"x": "a_x", "y": "a_x"})
        with pytest.raises(ValidationError):
            bad.validate()

    def test_utility_that_overflows_on_its_domains(self):
        # finite coefficients and bounds, but a*x^2 overflows at the bounds
        with pytest.raises(ValidationError,
                           match=r"^utility over \['x', 'y'\] overflows the float range"):
            make_problem([quad("x", "y", a=-1.0)], lb=-1.7e308, ub=1.7e308)
        with pytest.raises(ValidationError, match="overflows the float range"):
            generators.gen_graph(6, 0.5, seed=1, lb=-1e200, ub=1e200)
        # |b|M + |d|M stays finite there, and tiny coefficients keep a*x^2 finite
        make_problem([quad("x", "y", b=0.5, d=-0.25)], lb=-1.7e308, ub=1.7e308)
        make_problem([quad("x", "y", a=1e-300, e=-1e-300)], lb=-1e200, ub=1e200)
        # the bound takes each variable's own domain
        make_problem([quad("x", "y", b=1.0, c=1.0, e=1.0)],
                     domains={"x": ContinuousDomain(-1e300, -1e290)})
        with pytest.raises(ValidationError, match="overflows"):
            make_problem([quad("x", "y", a=1.0)],
                         domains={"x": ContinuousDomain(-1e300, -1e290)})

    @pytest.mark.parametrize("engine", model.ENGINE_KINDS)
    def test_overflow_is_refused_before_any_work(self, monkeypatch, engine):
        p = generators.gen_graph(6, 0.5, seed=1)
        wide = model.Problem(agents=p.agents, variables=p.variables,
                             domains={v: ContinuousDomain(-1e200, 1e200) for v in p.variables},
                             utilities=p.utilities, owner=p.owner)
        for module in (afdpop, discrete, efdpop, hcms):
            monkeypatch.setattr(module, "run", lambda *args, **kwargs: pytest.fail("ran"))
        with pytest.raises(ValidationError, match="overflows the float range"):
            runtime.run(wide, engine)


class TestEvaluateSolution:
    def test_zero_factor(self):
        p = make_problem([quad("x", "y", e=1.0)])
        assert model.evaluate_solution(p, Assignment({"x": 0.0, "y": 7.0})) == 0.0

    def test_direct_sum(self):
        p = make_problem([quad("x", "y", b=1.0, d=1.0),
                          quad("y", "z", b=1.0, d=1.0)])
        total = model.evaluate_solution(p, Assignment({"x": 1.0, "y": 2.0, "z": 3.0}))
        assert total == (1 + 2) + (2 + 3)

    def test_per_constraint_reevaluation(self):
        from fdcop import generators
        p = generators.gen_tree(20, 42)
        rng = random.Random(1)
        values = {v: rng.uniform(-100, 100) for v in p.variables}
        total = model.evaluate_solution(p, Assignment(values))
        assert len(p.utilities) == 19
        assert total == pytest.approx(sum(f.value_at(values) for f in p.utilities))

    def test_additive_partition(self):
        p = make_problem([quad("x", "y", a=-1.0, e=2.0),
                          quad("y", "z", c=-1.0, d=1.0),
                          quad("x", "z", b=3.0)])
        values = {"x": 1.0, "y": -2.0, "z": 3.0}
        part1 = sum(f.value_at(values) for f in p.utilities[:2])
        part2 = sum(f.value_at(values) for f in p.utilities[2:])
        assert model.evaluate_solution(p, Assignment(values)) == pytest.approx(part1 + part2)

    def test_left_to_right_float_sum(self):
        # a compensated sum (math.fsum, or sum from Python 3.12) gives 1.0
        assert model.left_sum([1e16, 1.0, -1e16]) == 0.0
        assert float.hex(model.left_sum([])) == "0x0.0p+0"
        p = model.Problem(agents=("a",), variables=("x",),
                          domains={"x": ContinuousDomain(0.0, 1.0)}, utilities=(),
                          owner={"x": "a"})
        assert float.hex(model.evaluate_solution(p, Assignment({"x": 0.5}))) == "0x0.0p+0"

    def test_errors(self):
        p = make_problem([quad("x", "y", e=1.0)])
        with pytest.raises(IncompleteSolutionError):
            model.evaluate_solution(p, Assignment({"x": 0.0}))
        with pytest.raises(InfeasibleValueError):
            model.evaluate_solution(p, Assignment({"x": 0.0, "y": 101.0}))


class TestConstraintGraph:
    def test_path(self):
        p = make_problem([quad("x1", "x2", e=1.0), quad("x2", "x3", e=1.0)])
        g = model.build_constraint_graph(p)
        assert sorted(g.nodes) == ["x1", "x2", "x3"]
        assert g.number_of_edges() == 2

    def test_edge_count_matches_utilities(self):
        from fdcop import generators
        p = generators.gen_graph(20, 0.2, 0)
        g = model.build_constraint_graph(p)
        assert g.number_of_edges() == len(p.utilities)


class TestGradientBound:
    def test_symmetric_corner(self):
        p = make_problem([quad("x", "y", a=1.0, c=1.0)],
                         domains={"x": ContinuousDomain(-1, 1),
                                  "y": ContinuousDomain(-1, 1)})
        assert model.gradient_bound(p) == 4.0

    def test_product_corner(self):
        p = make_problem([quad("x", "y", e=1.0)],
                         domains={"x": ContinuousDomain(0, 2),
                                  "y": ContinuousDomain(0, 2)})
        assert model.gradient_bound(p) == 4.0

    def test_mixed_case_41(self):
        # f(x,y) = -x^2 + 2xy + y on [0,10]^2; max corner value 41 at (10,0)
        p = make_problem([quad("x", "y", a=-1.0, e=2.0, d=1.0)],
                         domains={"x": ContinuousDomain(0, 10),
                                  "y": ContinuousDomain(0, 10)})
        assert model.gradient_bound(p) == pytest.approx(41.0)

    def test_dominates_sampled_gradients(self):
        rng = random.Random(7)
        for _ in range(20):
            f = quad("x", "y",
                     a=rng.uniform(-5, 5), b=rng.uniform(-5, 5),
                     c=rng.uniform(-5, 5), d=rng.uniform(-5, 5),
                     e=rng.uniform(-5, 5))
            p = make_problem([f])
            bound = model.gradient_bound(p)  # the one utility's bound
            for _ in range(500):
                vi = rng.uniform(-100, 100)
                vj = rng.uniform(-100, 100)
                mag = abs(f.partial("x", vi, vj)) + abs(f.partial("y", vi, vj))
                assert mag <= bound + 1e-9


class TestErrorBounds:
    def test_discrete_direct(self):
        p = make_problem([quad("x", "y", e=1.0), quad("y", "z", e=1.0),
                          quad("x", "z", e=1.0)])
        delta = model.gradient_bound(p)
        assert model.error_bound_discrete(p, 2.0) == pytest.approx(3 * 2.0 * delta)

    def test_af_moves_zero_collapses(self):
        p = make_problem([quad("x", "y", a=-1.0, e=1.0)])
        assert model.error_bound_af(p, 1.5, 0, 0.5) == model.error_bound_discrete(p, 1.5)

    def test_af_monotone_in_moves(self):
        p = make_problem([quad("x", "y", a=-1.0, e=1.0), quad("y", "z", c=-1.0)])
        values = [model.error_bound_af(p, 1.0, k, 0.01) for k in (5, 10, 15, 20)]
        assert values == sorted(values)

    def test_argument_errors(self):
        p = make_problem([quad("x", "y", e=1.0)])
        for m in (0.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                model.error_bound_discrete(p, m)
            with pytest.raises(ArgumentError):
                model.error_bound_af(p, m, 1, 0.1)
        with pytest.raises(ArgumentError):
            model.error_bound_af(p, 1.0, -1, 0.1)
        for alpha in (0.0, math.nan, math.inf):
            with pytest.raises(ArgumentError):
                model.error_bound_af(p, 1.0, 3, alpha)


class TestPredictedMessageCount:
    def test_formulas(self):
        from fdcop import generators
        p = generators.gen_graph(20, 0.2, 3)
        g = model.build_constraint_graph(p)
        assert model.predicted_message_count("dpop", g) == 40
        assert model.predicted_message_count("af-dpop", g) == 40
        assert model.predicted_message_count("hcms", g, 2) == 8 * g.number_of_edges()
        with pytest.raises(ArgumentError):
            model.predicted_message_count("hcms", g, 0)
        with pytest.raises(ArgumentError):
            model.predicted_message_count("nope", g)


class TestHypercubeSize:
    def test_three_points(self):
        p = make_problem([quad("x", "y", e=1.0)])
        assert model.hypercube_size(p, 3) == pytest.approx(100.0)

    def test_single_point_is_width(self):
        p = make_problem([quad("x", "y", e=1.0)])
        assert model.hypercube_size(p, 1) == pytest.approx(200.0)


class TestSerialization:
    def test_round_trip_exact(self):
        from fdcop import generators
        p = generators.gen_graph(8, 0.3, 5)
        q = model.loads(model.dumps(p))
        assert q.variables == p.variables
        assert q.agents == p.agents
        assert q.utilities == p.utilities
        assert q.domains == p.domains

    def test_malformed_documents(self):
        text = model.dumps(make_problem([quad("x", "y", e=1.0)]))
        doc = json.loads(text)
        del doc["agents"]
        short = json.loads(text)
        short["constraints"][0]["coeffs"] = short["constraints"][0]["coeffs"][:5]
        for bad in ("not json {", json.dumps(doc), json.dumps(short), "[1, 2]"):
            with pytest.raises(ValidationError):
                model.loads(bad)

    def test_file_round_trip(self, tmp_path):
        p = make_problem([quad("x", "y", a=-1.0 / 3.0, e=0.1)])
        path = tmp_path / "problem.json"
        model.save(p, path)
        assert model.load(path).utilities == p.utilities
