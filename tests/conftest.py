from typing import NamedTuple

import numpy as np
import pytest

from oracles import exact_point
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


def exact_boson(eps, kap, gl, gr, tl, tr):
    """P1..P4 and J_L of a boson point, as floats, from ``oracles.exact_point``."""
    exact = [float(value) for value in exact_point(eps, kap, "boson", gl, gr, tl, tr)]
    return exact[:4], exact[4]


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


def measures(fa, ga, fb, gb) -> Measures:
    """The correlation measures of the steady state of channel weights (fa, ga, fb, gb).

    They come from the closed forms that ``solve_point`` runs on a point; the
    state's populations are :func:`populations` of the same weights.
    """
    return Measures(*correlations._measures(baths._FLOATS, float(fa), float(ga),
                                            float(fb), float(gb)))


def populations(fa, ga, fb, gb):
    """P1..P4 of the channel weights: (fa fb, ga fb, fa gb, ga gb)."""
    return fa * fb, ga * fb, fa * gb, ga * gb


def channel_weights(pops):
    """(fa, ga, fb, gb) of a product state's populations (P1, P2, P3, P4)."""
    p1, p2, p3, p4 = pops
    return p1 + p3, p2 + p4, p1 + p2, p3 + p4


def random_weights(rng, count):
    """``count`` draws of channel weights (fa, 1 - fa, fb, 1 - fb), each weight a
    multiple of 2**-52, so that every complement is exact."""
    fa, fb = rng.integers(0, 2 ** 52 + 1, size=(2, count)) / 2.0 ** 52
    return [(a, 1.0 - a, b, 1.0 - b) for a, b in zip(fa.tolist(), fb.tolist())]


def gaps(params: SystemParams):
    """(omega_a, omega_b, inverted) of the junction as the solver takes them.

    The gaps are the frequencies ``transport_kernel`` evaluates each bath's
    omega/T at, channel a first; channel a is inverted when the junction
    relaxes into state |2> at T = 0.
    """
    omegas = []
    float_exponent = baths._FLOATS.exponent

    def exponent(gamma, omega, temperature):
        omegas.append(omega)
        return float_exponent(gamma, omega, temperature)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baths._FLOATS, "exponent", exponent)
        transport_kernel(params, BathKind.BOSON, 1.0, 1.0, 1.0, 2.0)
    ground = solve_point(params, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
    return omegas[0], omegas[2], ground.p2 == 1.0
