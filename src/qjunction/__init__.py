"""Steady-state heat transport and quantum correlations of two coupled
qubits held between two thermal reservoirs.

The package solves the secular population dynamics of an XY-coupled qubit
pair in closed form, evaluates the steady-state heat current, and computes
concurrence, mutual information, classical correlation and quantum discord
of the resulting X state, for boson or spin reservoirs of arbitrary
temperatures and coupling asymmetry.
"""

from .baths import BathKind
from .experiments import (
    RectificationPoint,
    SweepRow,
    SweepSpec,
    SweepVariable,
    rectification_scan,
    run_sweep,
    solve_point,
    sudden_death_temperature,
)
from .model import DegeneratePhysicsError, SystemParams
from .solver import NonUniqueSteadyStateError

__version__ = "0.1.0"

__all__ = [
    "BathKind",
    "DegeneratePhysicsError",
    "NonUniqueSteadyStateError",
    "RectificationPoint",
    "SweepRow",
    "SweepSpec",
    "SweepVariable",
    "SystemParams",
    "rectification_scan",
    "run_sweep",
    "solve_point",
    "sudden_death_temperature",
]
