from typing import NamedTuple

import numpy as np
import pytest

from qjunction import BathKind, SystemParams, baths, correlations, solve_point
from qjunction.solver import transport_kernel


def gibbs_populations(params: SystemParams, temperature: float) -> np.ndarray:
    """Independent equilibrium oracle: populations proportional to e^{-E/T}.

    The energies of labels 1..4 are (-kappa, -epsilon, epsilon, kappa), as
    the model documents them.
    """
    eps, kap = params.epsilon, params.kappa
    energies = np.array([-kap, -eps, eps, kap])
    weights = np.exp(-energies / temperature)
    return weights / weights.sum()


def random_system(rng, min_gap=0.05):
    """Draw a nondegenerate (epsilon, kappa) pair, inverted systems included."""
    eps = rng.uniform(0.05, 2.0)
    kap = rng.uniform(0.05, 2.0)
    while abs(kap - eps) < min_gap:
        kap = rng.uniform(0.05, 2.0)
    return SystemParams(epsilon=eps, kappa=kap)


class Measures(NamedTuple):
    concurrence: float
    mutual_information: float
    classical_correlation: float
    discord: float
    k_coefficient: float


def measures(pops) -> Measures:
    """The correlation measures and K of any population vector (P1, P2, P3, P4).

    They come from the closed forms that ``solve_point`` runs on a point, so
    states no junction reaches (Dirichlet draws, the singlet) can be tested too;
    on those the classical correlation is a lower bound (the ``correlations``
    module docstring says where it is exact).
    """
    return Measures(*correlations._measures(baths._FLOATS, *map(float, pops)))


def gaps(params: SystemParams):
    """(omega_a, omega_b, inverted) of the junction as the solver takes them.

    The gaps are the frequencies ``transport_kernel`` evaluates the rates at,
    channel a first; channel a is inverted when the junction relaxes into
    state |2> at T = 0.
    """
    omegas = []
    float_pair = baths._FLOATS.pair

    def pair(kind, gamma, omega, temperature):
        omegas.append(omega)
        return float_pair(kind, gamma, omega, temperature)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baths._FLOATS, "pair", pair)
        transport_kernel(params, BathKind.BOSON, 1.0, 1.0, 1.0, 1.0)
    ground = solve_point(params, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
    return omegas[0], omegas[2], ground.p2 == 1.0
