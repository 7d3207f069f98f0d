"""Quantum correlation measures of the steady state.

The stationary state is an X state in the product basis, so concurrence,
mutual information, classical correlation and discord all reduce to closed
forms in the four eigenstate populations. Entropies are in bits, with the
0 log 0 = 0 convention throughout. :func:`correlation_report` evaluates
them for one state and :func:`correlation_kernel` over a whole grid of rate
sets at once. Their brute-force counterparts, computed from the density
matrix itself (the Wootters construction and a grid search over
measurements), live in ``tests/oracles.py``, which shares no code with this
module.

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

from .solver import NonUniqueSteadyStateError


@dataclass(frozen=True)
class CorrelationReport:
    """All four measures for one steady state, plus the auxiliary coefficient K."""

    concurrence: float
    mutual_information: float
    classical_correlation: float
    discord: float
    k_coefficient: float


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _marginals(p1, p2, p3, p4):
    # twice the marginal eigenvalues, (1 + P2 - P3) and (1 - P2 + P3)
    s14 = p1 + p4
    return s14 + 2.0 * p2, s14 + 2.0 * p3


def _conditional_term(w: float, num: float, den: float) -> float:
    return -w * math.log2(num / den) if w > 0.0 else 0.0


def correlation_report(pops) -> CorrelationReport:
    """All four correlation measures of one population vector (P1, P2, P3, P4).

    - Concurrence C = max(2 P_max - P1 - P4 - 2 sqrt(P2 P3), 0) with
      P_max = max(P1, P4, sqrt(P2 P3)); zero exactly for separable states.
    - Mutual information I = S(A) + S(B) - S(AB). Both marginals are
      diagonal with eigenvalues u/2 and v/2, where u = P1 + P4 + 2 P2 and
      v = P1 + P4 + 2 P3 (that is, 1 +- (P2 - P3)), and the joint spectrum
      is the populations themselves, so I = 2 - log2[u^u v^v] +
      sum_n P_n log2 P_n. u and v are formed as sums of populations, never
      as 1 - P2 + P3, so a side that carries weight never rounds to zero.
    - Classical correlation C_cl = S(B) - min S(B|A), the minimum taken over
      the z-axis and the equatorial projective measurements, the two
      candidates that are optimal for this state family.
    - Discord Q = I - C_cl, clamped at zero within rounding noise.
    - K = sqrt((P2 - P3)^2 + (P1 - P4)^2), in [0, 1].
    """
    p1, p2, p3, p4 = map(float, pops)
    u, v = _marginals(p1, p2, p3, p4)
    xu, xv = _xlog2x(u), _xlog2x(v)
    k = math.hypot(p2 - p3, p1 - p4)
    i = 2.0 - xu - xv + _xlog2x(p1) + _xlog2x(p2) + _xlog2x(p3) + _xlog2x(p4)
    # measurement along z: outcome weights u/2 and v/2, diagonal conditional states
    half = 0.5 * (p1 + p4)
    s_z = (
        _conditional_term(p2, 2.0 * p2, u)
        + _conditional_term(half, p1 + p4, u)
        + _conditional_term(half, p1 + p4, v)
        + _conditional_term(p3, 2.0 * p3, v)
    )
    # equatorial measurement: both outcomes yield spectrum (1 +- K)/2
    s_x = 1.0 - 0.5 * (_xlog2x(1.0 - k) + _xlog2x(1.0 + k))
    s_b = 1.0 - 0.5 * (xu + xv)
    c_cl = max(s_b - min(s_z, s_x), 0.0)
    q = i - c_cl
    if q < 0.0 and q > -1e-12:
        q = 0.0
    root = math.sqrt(p2 * p3)
    return CorrelationReport(
        concurrence=max(2.0 * max(p1, p4, root) - p1 - p4 - 2.0 * root, 0.0),
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
    # _conditional_term elementwise
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
