"""Steady states of acceptance criteria 08 and 11 from the Hamiltonian alone.

``oracles.hamiltonian_route`` shares no code with ``qjunction``: it
diagonalizes the 4x4 system Hamiltonian numerically, takes the sigma^x
matrix elements of each qubit in that eigenbasis, forms secular (Pauli)
golden-rule rates for either reservoir statistics, and reads the stationary
state off the null space of the resulting generator. Agreement with
``solve_point`` at every point of the two criteria's sweeps shows that the
solver computes the documented model there, so what those criteria assert
is a statement about the model and not about the implementation. The same
sweeps, run through ``run_sweep``, check the array kernel against the route
on its own.
"""

import numpy as np
import pytest

from oracles import hamiltonian_route
from qjunction import (
    BathKind,
    SweepSpec,
    SweepVariable,
    SystemParams,
    run_sweep,
    solve_point,
)


def _criterion_08(eps, kap):
    return SweepSpec(SystemParams(eps, kap), BathKind.SPIN, 1.0, 1.0,
                     SweepVariable.T_RIGHT, 0.01, 1.5, 100, t_left=1.5)


def _criterion_11(gamma_right):
    return SweepSpec(SystemParams(0.2, 2.0), BathKind.BOSON, 1.0, gamma_right,
                     SweepVariable.DELTA_T, -0.975, 0.975, 79, t_avg=1.0)


SWEEPS = {
    "08-readme-splitting": _criterion_08(0.2, 1.0),
    "08-inverted-splitting": _criterion_08(1.0, 0.2),
    "11-symmetric": _criterion_11(1.0),
    "11-asymmetric": _criterion_11(0.05),
    # an inverted system near its ground state |2>: P2 rounds to 1, where a
    # marginal formed as 1 - P2 + P3 used to round to 0 and divide by zero
    "inverted-cold-equilibrium": SweepSpec(
        SystemParams(5.954701267431026, 1.7404260738509987), BathKind.BOSON,
        0.0913021561683142, 8.507008375527063, SweepVariable.T_COMMON,
        0.02706805755050545, 0.11255325738694712, 1024),
}


def _temperatures(spec):
    """(T_L, T_R) at each grid point, built here rather than read off run_sweep."""
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.count)]
    if spec.variable is SweepVariable.T_RIGHT:
        return [(spec.t_left, v) for v in values]
    if spec.variable is SweepVariable.DELTA_T:
        return [(spec.t_avg + v, spec.t_avg - v) for v in values]
    return [(v, v) for v in values]


def _worst_deviation(spec, rows):
    eps, kap = spec.params.epsilon, spec.params.kappa
    worst_pop = worst_j = 0.0
    for row in rows:
        pops, current = hamiltonian_route(eps, kap, spec.kind.value, spec.gamma_left,
                                          spec.gamma_right, row.t_left, row.t_right)
        worst_pop = max(worst_pop, np.max(np.abs([row.p1, row.p2, row.p3, row.p4] - pops)))
        worst_j = max(worst_j, abs(row.heat_current - current))
    return worst_pop, worst_j


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_solver_matches_hamiltonian_route(name):
    spec = SWEEPS[name]
    rows = [solve_point(spec.params, spec.kind, spec.gamma_left, spec.gamma_right, tl, tr)
            for tl, tr in _temperatures(spec)]
    worst_pop, worst_j = _worst_deviation(spec, rows)
    print(f"{name}: max |P - route| = {worst_pop:.1e}, max |J_L - route| = {worst_j:.1e}")
    assert worst_pop < 1e-12
    assert worst_j < 1e-12


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_hamiltonian_route(name):
    spec = SWEEPS[name]
    rows = run_sweep(spec)
    assert [(row.t_left, row.t_right) for row in rows] == _temperatures(spec)
    assert np.all(np.isfinite(rows))
    worst_pop, worst_j = _worst_deviation(spec, rows)
    print(f"{name}: max |P - route| = {worst_pop:.1e}, max |J_L - route| = {worst_j:.1e}")
    assert worst_pop < 1e-12
    assert worst_j < 1e-12
