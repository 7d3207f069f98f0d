import numpy as np

from qjunction import SystemParams


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
