"""Property tests over random problems and configs: every engine ends in a
typed error, or in a finite, in-domain assignment with the predicted number
of messages; and scaling every utility by a power of two scales the run's
optimum by it and leaves everything else alone."""
import dataclasses
import math

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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(problem=problems(), config=CONFIGS, engine=st.sampled_from(model.ENGINE_KINDS))
def test_typed_error_or_finite_in_domain_assignment(problem, config, engine):
    try:
        result = runtime.run(problem, engine, config, keep_trace=False)
    except FdcopError:
        return
    values = result.assignment.values
    assert set(values) == set(problem.variables)
    for var, x in values.items():
        assert math.isfinite(x) and problem.domains[var].contains(x), (var, x)
    graph = model.build_constraint_graph(problem)
    assert result.stats.total_messages == model.predicted_message_count(
        engine, graph, config.iterations)


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
