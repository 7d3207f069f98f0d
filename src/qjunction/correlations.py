"""Quantum correlation measures of the steady state.

The stationary state is an X state in the product basis, so concurrence,
mutual information, classical correlation and discord all reduce to closed
forms in the four eigenstate populations. Entropies are in bits, with the
0 log 0 = 0 convention throughout. Each closed form ships with a
brute-force counterpart (:func:`wootters_concurrence`,
:func:`classical_correlation_grid`) computed from the density matrix
itself, kept deliberately independent of the fast path.
:func:`correlation_kernel` evaluates the same closed forms over a whole
grid of rate sets at once.

The measured side of the classical correlation follows the X-state
prescription: the optimum over projective measurements is taken as the
better of the z-axis and equatorial measurements. The state is symmetric
under qubit exchange, so which qubit is measured does not matter. That
two-branch prescription is exact only on a subclass of X states; the grid
oracle exists to flag (not fail) inputs where an intermediate measurement
axis does better.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import density_matrix_uncoupled
from .solver import NonUniqueSteadyStateError


@dataclass(frozen=True)
class CorrelationReport:
    """All four measures for one steady state, plus the auxiliary coefficient K."""

    concurrence: float
    mutual_information: float
    classical_correlation: float
    discord: float
    k_coefficient: float


def _four(pops) -> tuple[float, float, float, float]:
    p1, p2, p3, p4 = map(float, pops)
    return p1, p2, p3, p4


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


# Each closed form is written once, on plain floats, for the public functions
# and correlation_report alike; ``m`` is (u, v, u log2 u, v log2 v), the
# marginal terms they share.


def _marginals(p1, p2, p3, p4):
    # twice the marginal eigenvalues, (1 + P2 - P3) and (1 - P2 + P3)
    s14 = p1 + p4
    return s14 + 2.0 * p2, s14 + 2.0 * p3


def _marginal_terms(p1: float, p2: float, p3: float, p4: float):
    u, v = _marginals(p1, p2, p3, p4)
    return u, v, _xlog2x(u), _xlog2x(v)


def _concurrence(p1: float, p2: float, p3: float, p4: float) -> float:
    root = math.sqrt(p2 * p3)
    return max(2.0 * max(p1, p4, root) - p1 - p4 - 2.0 * root, 0.0)


def _k(p1: float, p2: float, p3: float, p4: float) -> float:
    return math.hypot(p2 - p3, p1 - p4)


def _mutual_information(p1: float, p2: float, p3: float, p4: float, m) -> float:
    _, _, xu, xv = m
    return (
        2.0
        - xu
        - xv
        + _xlog2x(p1)
        + _xlog2x(p2)
        + _xlog2x(p3)
        + _xlog2x(p4)
    )


def _marginal_entropy(m) -> float:
    _, _, xu, xv = m
    return 1.0 - 0.5 * (xu + xv)


def _conditional_term(w: float, num: float, den: float) -> float:
    return -w * math.log2(num / den) if w > 0.0 else 0.0


def _conditional_entropy_z(p1: float, p2: float, p3: float, p4: float, m) -> float:
    # measurement along z: outcome weights u/2 and v/2, diagonal conditional states
    u, v, _, _ = m
    half = 0.5 * (p1 + p4)
    return (
        _conditional_term(p2, 2.0 * p2, u)
        + _conditional_term(half, p1 + p4, u)
        + _conditional_term(half, p1 + p4, v)
        + _conditional_term(p3, 2.0 * p3, v)
    )


def _conditional_entropy_x(k: float) -> float:
    # equatorial measurement: both outcomes yield spectrum (1 +- K)/2
    return 1.0 - 0.5 * (_xlog2x(1.0 - k) + _xlog2x(1.0 + k))


def _classical_correlation(p1: float, p2: float, p3: float, p4: float, m, k) -> float:
    s_z = _conditional_entropy_z(p1, p2, p3, p4, m)
    s_x = _conditional_entropy_x(k)
    return max(_marginal_entropy(m) - min(s_z, s_x), 0.0)


def concurrence(pops) -> float:
    """Concurrence of the steady state from its populations.

    C = max(2 P_max - P1 - P4 - 2 sqrt(P2 P3), 0) with
    P_max = max(P1, P4, sqrt(P2 P3)); zero exactly for separable states.
    """
    return _concurrence(*_four(pops))


def mutual_information(pops) -> float:
    """Quantum mutual information I = S(A) + S(B) - S(AB), in bits.

    Both marginals are diagonal with eigenvalues u/2 and v/2, where
    u = P1 + P4 + 2 P2 and v = P1 + P4 + 2 P3 (that is, 1 +- (P2 - P3)),
    and the joint spectrum is the populations themselves, which gives

        I = 2 - log2[u^u v^v] + sum_n P_n log2 P_n.

    u and v are formed as sums of populations, never as 1 - P2 + P3, so a
    side that carries weight never rounds to zero.
    """
    p = _four(pops)
    return _mutual_information(*p, _marginal_terms(*p))


def k_coefficient(pops) -> float:
    """K = sqrt((P2 - P3)^2 + (P1 - P4)^2), in [0, 1]."""
    return _k(*_four(pops))


def classical_correlation(pops) -> float:
    """Classical correlation C_cl = S(B) - min over measurements of S(B|A).

    The minimum runs over the z-axis branch and the equatorial branch of
    projective measurements, the two candidates that are optimal for this
    state family.
    """
    p = _four(pops)
    return _classical_correlation(*p, _marginal_terms(*p), _k(*p))


def discord(pops) -> float:
    """Quantum discord Q = I - C_cl, clamped at zero within rounding noise."""
    return correlation_report(pops).discord


def correlation_report(pops) -> CorrelationReport:
    """Bundle all four correlation measures for one population vector."""
    p = _four(pops)
    m = _marginal_terms(*p)
    k = _k(*p)
    i = _mutual_information(*p, m)
    c_cl = _classical_correlation(*p, m, k)
    q = i - c_cl
    if q < 0.0 and q > -1e-12:
        q = 0.0
    return CorrelationReport(
        concurrence=_concurrence(*p),
        mutual_information=i,
        classical_correlation=c_cl,
        discord=q,
        k_coefficient=k,
    )


# --------------------------------------------------------------------------
# array kernel: the closed forms above over a whole grid at once


def _xlog2x_arr(x: np.ndarray) -> np.ndarray:
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _conditional_term_arr(w, num, den) -> np.ndarray:
    # -w log2(num/den) where w > 0, else 0; as the inner term of
    # _conditional_entropy_z
    return -w * np.log2(num / den, out=np.zeros_like(w), where=w > 0.0)


def correlation_kernel(rates, a_inverted: bool) -> np.ndarray:
    """Steady-state populations and correlation measures over a grid.

    ``rates`` is the tuple of eight rate arrays returned by
    ``solver.transport_kernel``; ``a_inverted`` is True when epsilon >
    kappa. Returns an (8, n) array with rows P1, P2, P3, P4, concurrence,
    discord, mutual information and classical correlation, each by the
    closed form that ``solver.steady_populations`` and
    :func:`correlation_report` use for one point. Raises
    ``NonUniqueSteadyStateError`` where a channel carries no rates and
    ``ValueError`` where a value is not finite.
    """
    ld_a, lu_a, rd_a, ru_a, ld_b, lu_b, rd_b, ru_b = rates
    down_a, up_a = ld_a + rd_a, lu_a + ru_a
    w12, w21 = (up_a, down_a) if a_inverted else (down_a, up_a)
    w13, w31 = ld_b + rd_b, lu_b + ru_b
    da, db = w12 + w21, w13 + w31
    stuck = (da == 0.0) | (db == 0.0)
    if stuck.any():
        raise NonUniqueSteadyStateError(
            f"a channel carries no rates at grid point {int(np.argmax(stuck))}; "
            "the stationary state is not unique"
        )
    out = np.empty((8, da.size))
    p1, p2, p3, p4, conc, disc, mi, ccl = out
    with np.errstate(all="ignore"):
        fa, fb = w12 / da, w13 / db
        np.multiply(fa, fb, out=p1)
        np.multiply(1.0 - fa, fb, out=p2)
        np.multiply(fa, 1.0 - fb, out=p3)
        np.multiply(1.0 - fa, 1.0 - fb, out=p4)

        root = np.sqrt(p2 * p3)
        top = np.maximum(np.maximum(p1, p4), root)
        np.maximum(2.0 * top - p1 - p4 - 2.0 * root, 0.0, out=conc)

        u, v = _marginals(p1, p2, p3, p4)
        xu, xv = _xlog2x_arr(u), _xlog2x_arr(v)
        mi[:] = (
            2.0 - xu - xv
            + _xlog2x_arr(p1) + _xlog2x_arr(p2) + _xlog2x_arr(p3) + _xlog2x_arr(p4)
        )

        s14 = p1 + p4
        half = 0.5 * s14
        s_z = (
            _conditional_term_arr(p2, 2.0 * p2, u)
            + _conditional_term_arr(half, s14, u)
            + _conditional_term_arr(half, s14, v)
            + _conditional_term_arr(p3, 2.0 * p3, v)
        )
        k = np.hypot(p2 - p3, p1 - p4)
        s_x = 1.0 - 0.5 * (_xlog2x_arr(1.0 - k) + _xlog2x_arr(1.0 + k))
        marginal = 1.0 - 0.5 * (xu + xv)
        np.maximum(marginal - np.minimum(s_z, s_x), 0.0, out=ccl)

        np.subtract(mi, ccl, out=disc)
        disc[(disc < 0.0) & (disc > -1e-12)] = 0.0
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"populations or correlations not finite at grid point {i}")
    return out


# --------------------------------------------------------------------------
# brute-force routes


_SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix (Wootters route).

    Square roots of the eigenvalues of rho (sigma_y x sigma_y) rho*
    (sigma_y x sigma_y), sorted descending; C = max(0, l1 - l2 - l3 - l4).
    """
    rho = np.asarray(rho, dtype=complex)
    flipped = _SIGMA_YY @ rho.conj() @ _SIGMA_YY
    ev = np.linalg.eigvals(rho @ flipped)
    # tiny negative eigenvalues are rounding artefacts of the non-normal product
    lam = np.sqrt(np.abs(np.sort(ev.real)))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def concurrence_brute_force(pops) -> float:
    """Wootters concurrence evaluated on the reconstructed density matrix."""
    return wootters_concurrence(density_matrix_uncoupled(pops))


def classical_correlation_grid(pops, n_theta: int = 200, n_phi: int = 200) -> float:
    """Classical correlation by grid search over projective measurements.

    Minimizes the measured conditional entropy over measurement axes
    n(theta, phi) on one qubit (the state is exchange symmetric, so the
    side is immaterial). A finite grid can only overestimate the true
    minimum, so the result is a lower bound on the classical correlation
    up to grid resolution. For a two-outcome measurement on an X state the
    outcome weight and the conditional spectrum are available in closed
    form, which keeps the scan a pure array computation.
    """
    p1, p2, p3, p4 = _four(pops)
    c = 0.5 * (p1 + p4)
    d = 0.5 * (p4 - p1)
    theta = np.linspace(0.0, 0.5 * np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    ct = np.broadcast_to(np.cos(theta)[:, None], (n_theta, n_phi))
    st = np.broadcast_to(np.sin(theta)[:, None], (n_theta, n_phi))
    # |off-diagonal| of the conditional state; phi only rotates its phase
    beta2 = (0.5 * d * st) ** 2
    cond = np.zeros((n_theta, n_phi))
    for s in (1.0, -1.0):
        alpha = 0.5 * (p2 * (1.0 + s * ct) + c * (1.0 - s * ct))
        gamma = 0.5 * (c * (1.0 + s * ct) + p3 * (1.0 - s * ct))
        weight = alpha + gamma
        radius = np.sqrt((alpha - gamma) ** 2 + 4.0 * beta2)
        lam_hi = np.clip(0.5 * (weight + radius), 0.0, None)
        lam_lo = np.clip(0.5 * (weight - radius), 0.0, None)
        cond += _xlog2x_arr(weight) - _xlog2x_arr(lam_hi) - _xlog2x_arr(lam_lo)
    return _marginal_entropy(_marginal_terms(p1, p2, p3, p4)) - float(cond.min())
