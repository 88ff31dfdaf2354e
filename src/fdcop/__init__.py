"""Solvers for distributed constraint optimization over continuous variables.

Exact functional DPOP on trees, gradient-move approximations for general
graphs, and discrete-grid baselines, all running on a deterministic simulated
message-passing runtime that measures communication exactly.
"""
from .model import (
    Assignment,
    ContinuousDomain,
    Problem,
    QuadraticBinaryUtility,
    build_constraint_graph,
    error_bound_af,
    error_bound_discrete,
    evaluate_solution,
    gradient_bound,
    hypercube_size,
    predicted_message_count,
)
from .runtime import EngineConfig, RunResult, RunStats, audit_isolation, run

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ContinuousDomain",
    "EngineConfig",
    "Problem",
    "QuadraticBinaryUtility",
    "RunResult",
    "RunStats",
    "audit_isolation",
    "build_constraint_graph",
    "error_bound_af",
    "error_bound_discrete",
    "evaluate_solution",
    "gradient_bound",
    "hypercube_size",
    "predicted_message_count",
    "run",
]
