"""Regularized Hermite moment method for the 1-D Boltzmann-BGK equation."""

from .indices import AxisymmetricLayout, MomentLayout, enumerate_indices, shift
from .state import MacroState, StressHeat, UnphysicalStateError
from .scenarios import Scenario, TauModel, shock_structure, shock_tube
from .solver import SimState, SolverBreakdown, SolverConfig

__all__ = [
    "AxisymmetricLayout", "MomentLayout", "enumerate_indices", "shift",
    "MacroState", "StressHeat", "UnphysicalStateError",
    "Scenario", "TauModel", "shock_tube", "shock_structure",
    "SimState", "SolverBreakdown", "SolverConfig",
]

__version__ = "0.1.0"
