"""Regularized Hermite moment method for the 1-D Boltzmann-BGK equation."""

from .indices import AxisymmetricLayout, enumerate_indices
from .scenarios import Scenario, SolverBreakdown, TauModel, shock_structure, shock_tube
from .solver import SimState, SolverConfig

__all__ = [
    "AxisymmetricLayout", "enumerate_indices",
    "Scenario", "SolverBreakdown", "TauModel", "shock_tube", "shock_structure",
    "SimState", "SolverConfig",
]

__version__ = "0.1.0"
