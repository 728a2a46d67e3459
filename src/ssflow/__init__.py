"""Simulation-based optimisation under steady-state constraints."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    FlowConfig,
    FlowState,
    ModelSpec,
    ObjectiveSpec,
    RunResult,
    StopReason,
    validate_model,
)
from .flow import FlowProblem, manifold_residual, run_flow  # noqa: F401
