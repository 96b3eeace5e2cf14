"""Regularized Hermite moment method for the 1-D Boltzmann-BGK equation."""

from .indices import AxisymmetricLayout, enumerate_indices
from .state import UnphysicalStateError
from .scenarios import Scenario, TauModel, shock_structure, shock_tube
from .solver import SimState, SolverBreakdown, SolverConfig

__all__ = [
    "AxisymmetricLayout", "enumerate_indices",
    "UnphysicalStateError",
    "Scenario", "TauModel", "shock_tube", "shock_structure",
    "SimState", "SolverBreakdown", "SolverConfig",
]

__version__ = "0.1.0"
