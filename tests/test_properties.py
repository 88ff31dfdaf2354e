"""Property tests over random problems and configs: every engine ends in a
typed error, or in a finite, in-domain assignment with the predicted number
of messages; and scaling every utility by a power of two scales the run's
optimum by it and leaves everything else alone."""
import dataclasses
import math
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from fdcop import model, runtime
from fdcop.errors import FdcopError
from fdcop.model import ContinuousDomain, Problem, QuadraticBinaryUtility
from fdcop.runtime import EngineConfig

COEFFS = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))


@st.composite
def problems(draw):
    """Connected problems of 2-7 variables: a random spanning tree plus extra
    edges. Bounds sit on a quarter grid in [-50, 50] and widths span
    1e-3..1e3, far from the magnitudes where interpolation weights overflow."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    variables = tuple(f"x{i}" for i in range(n))
    domains = {}
    for v in variables:
        lb = draw(st.integers(-200, 200)) / 4
        domains[v] = ContinuousDomain(lb, lb + draw(st.floats(1e-3, 1e3)))
    utilities = tuple(
        QuadraticBinaryUtility(variables[a], variables[b], *(draw(COEFFS) for _ in range(6)))
        for a, b in sorted(edges))
    return Problem(agents=tuple(f"a{i}" for i in range(n)), variables=variables,
                   domains=domains, utilities=utilities,
                   owner={v: f"a{i}" for i, v in enumerate(variables)})


CONFIGS = st.builds(EngineConfig, points=st.integers(1, 5), moves=st.integers(0, 5),
                    k_clusters=st.integers(1, 5), iterations=st.integers(1, 2),
                    interpolation=st.sampled_from(["idw", "nearest"]))


def assert_typed_error_or_finite_in_domain_assignment(problem, config, engine):
    try:
        result = runtime.run(problem, engine, config, keep_trace=False)
    except FdcopError:
        return
    values = result.assignment.values
    assert set(values) == set(problem.variables)
    for var, x in values.items():
        assert math.isfinite(x) and problem.domains[var].contains(x), (var, x)
    assert math.isfinite(result.reported_optimum)
    graph = model.build_constraint_graph(problem)
    assert result.stats.total_messages == model.predicted_message_count(
        engine, graph, config.iterations)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(problem=problems(), config=CONFIGS, engine=st.sampled_from(model.ENGINE_KINDS))
def test_typed_error_or_finite_in_domain_assignment(problem, config, engine):
    assert_typed_error_or_finite_in_domain_assignment(problem, config, engine)


def summed_bound(problem) -> float:
    """The bound `Problem.validate` puts on the utilities' sum: each term's
    largest magnitude on the domain box, summed over the terms and utilities."""
    total = 0.0
    for f in problem.utilities:
        mi, mj = (max(abs(problem.domains[v].lb), abs(problem.domains[v].ub)) for v in f.scope)
        a, b, c, d, e, f0 = map(abs, f.coeffs)
        total += a * mi * mi + b * mi + c * mj * mj + d * mj + e * mi * mj + f0
    return total


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(problem=problems(), config=CONFIGS, engine=st.sampled_from(model.ENGINE_KINDS))
def test_valid_problems_at_the_float_limit(problem, config, engine):
    """Every coefficient times the power of two 2^k that lifts the summed
    bound into [2^1023, float max]: the largest problem `validate` accepts,
    within a factor of two (problems where a coefficient would overflow
    first are left out). Each engine still ends in a typed error or a
    finite, in-domain assignment with the predicted message count."""
    graph = model.build_constraint_graph(problem)
    assume(engine != "ef-dpop" or graph.number_of_edges() == len(problem.variables) - 1)
    bound = summed_bound(problem)
    assume(bound > 0.0)
    # no larger k keeps the bound, and every coefficient, below 2^1024
    k = min(1024 - math.frexp(x)[1] for f in problem.utilities for x in (bound, *f.coeffs) if x)
    lifted = dataclasses.replace(problem, utilities=tuple(
        QuadraticBinaryUtility(f.first_var, f.second_var, *(math.ldexp(c, k) for c in f.coeffs))
        for f in problem.utilities))
    # scaling is exact away from the subnormal range, where it may round up
    assume(2.0 ** 1023 <= summed_bound(lifted) <= sys.float_info.max)
    lifted.validate()
    assert_typed_error_or_finite_in_domain_assignment(lifted, config, engine)


@pytest.mark.parametrize("engine", model.ENGINE_KINDS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(problem=problems(), config=CONFIGS, j=st.integers(-20, 20))
def test_power_of_two_scaling(problem, config, engine, j):
    """Every coefficient times 2^j, and alpha divided by 2^j so that each
    move steps as far: the run gives the same assignment (or the same typed
    error) and exactly 2^j times the optimum. Coefficients up to 1e6 on these
    domains keep every utility inside the overflow bound for |j| <= 20.
    Scaling is exact only away from the subnormal range, so coefficients
    below 1e-100 are left out."""
    assume(all(c == 0.0 or abs(c) > 1e-100 for f in problem.utilities for c in f.coeffs))
    scale = 2.0 ** j
    scaled = dataclasses.replace(problem, utilities=tuple(
        QuadraticBinaryUtility(f.first_var, f.second_var, *(c * scale for c in f.coeffs))
        for f in problem.utilities))
    outcomes = []
    for p, cfg in ((problem, config), (scaled, dataclasses.replace(config,
                                                                   alpha=config.alpha / scale))):
        try:
            outcomes.append(runtime.run(p, engine, cfg, keep_trace=False))
        except FdcopError as exc:
            outcomes.append((type(exc), str(exc)))
    base, result = outcomes
    if isinstance(base, tuple):
        assert result == base
        return
    assert result.assignment.values == base.assignment.values
    assert result.reported_optimum == scale * base.reported_optimum
