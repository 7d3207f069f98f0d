"""Brute-force reference routes for the closed forms of ``qjunction``.

Each route works from the Hamiltonian or the density matrix itself and
imports nothing from ``qjunction`` (``tests/test_surface.py`` checks this),
so agreement with the solver is evidence about the physics, not a second
reading of the same algebra:

- :func:`hamiltonian_route` diagonalizes the 4x4 system Hamiltonian
  numerically, takes the sigma^x matrix elements of each qubit in that
  eigenbasis, forms secular (Pauli) golden-rule rates for either reservoir
  statistics, and reads the stationary state off the null space of the
  resulting generator;
- :func:`wootters_concurrence` is the concurrence of an arbitrary two-qubit
  density matrix, and :func:`density_matrix_uncoupled` the steady state in
  the product basis;
- :func:`classical_correlation_grid` minimizes the measured conditional
  entropy over a grid of projective measurements, and
  :func:`classical_correlation_refined` refines its best angle by a
  golden-section search;
- :func:`x_state_measures` gives the four correlation measures of an X
  state's populations in mpmath, the classical correlation from the better
  of the z-axis and the equatorial measurement
  (:func:`conditional_entropies`), and :func:`exact_point` every output
  field of a point (populations, current and measures) for either
  reservoir statistics, at a precision set by the inputs, where
  floating-point rates would overflow or cancel.
"""

import math
from typing import NamedTuple

import mpmath
import numpy as np

# product basis |dd>, |du>, |ud>, |uu>, qubit 1 (left bath) first; sigma^z|d> = -|d>
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SZ = np.diag([-1.0, 1.0])
_I2 = np.eye(2)
_SX1, _SX2 = np.kron(_SX, _I2), np.kron(_I2, _SX)
_ZZ = np.kron(_SZ, _I2) + np.kron(_I2, _SZ)
_XY = (np.kron(_SX, _SX) + np.kron(_SY, _SY)).real
# documented labels 1..4: singlet, |dd>, |uu>, triplet
_R = np.sqrt(0.5)
_LABELS = np.array([[0, _R, -_R, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, _R, _R, 0]])


def eigenbasis(eps, kap):
    """Energies and eigenvectors of H_S, columns in documented label order 1..4."""
    energies, vecs = np.linalg.eigh(0.5 * eps * _ZZ + 0.5 * kap * _XY)
    order = np.argsort(np.argmax((_LABELS @ vecs) ** 2, axis=0))
    return energies[order], vecs[:, order]


def squared_elements(eps, kap):
    """|<m|sigma^x|n>|^2 of the left and the right qubit, indexed [bath, m, n] by label."""
    _, vecs = eigenbasis(eps, kap)
    return np.stack([(vecs.T @ op @ vecs) ** 2 for op in (_SX1, _SX2)])


def _bath_rate(kind, gamma, temperature, released):
    """Golden-rule rate of a jump that hands energy ``released`` to the bath."""
    x = abs(released) / temperature
    if kind == "boson":
        n = 1.0 / np.expm1(x)
        return gamma * (n + 1.0 if released > 0.0 else n)
    n = 1.0 / (np.exp(x) + 1.0)
    return gamma * (1.0 - n if released > 0.0 else n)


def hamiltonian_route(eps, kap, kind, gamma_left, gamma_right, t_left, t_right):
    """Populations (P1..P4, documented labels) and J_L from the Hamiltonian.

    ``kind`` is "boson" or "spin"; both temperatures must be positive.
    """
    energies, _ = eigenbasis(eps, kap)
    elem2 = squared_elements(eps, kap)
    baths = ((gamma_left, t_left), (gamma_right, t_right))
    w = np.zeros((2, 4, 4))  # w[bath, m, n]: rate n -> m
    for b, (gamma, temperature) in enumerate(baths):
        for m in range(4):
            for n in range(4):
                if m != n and elem2[b, m, n] > 1e-12:
                    w[b, m, n] = elem2[b, m, n] * _bath_rate(
                        kind, gamma, temperature, energies[n] - energies[m])
    generator = w.sum(axis=0)
    generator -= np.diag(generator.sum(axis=0))
    p = np.linalg.svd(generator)[2][-1]
    p = p / p.sum()
    current = float(np.sum((energies[:, None] - energies[None, :]) * w[0] * p[None, :]))
    return p, current


def density_matrix_uncoupled(pops) -> np.ndarray:
    """Steady-state density matrix in the product basis |dd>, |du>, |ud>, |uu>.

    ``pops`` holds the eigenstate populations (P1, P2, P3, P4), assumed
    normalized. The eigenbasis-diagonal state turns into an X-form matrix:
    corners P2 and P3, and a central block mixing the singlet and triplet
    populations,

        [[ (P1+P4)/2, (P4-P1)/2 ],
         [ (P4-P1)/2, (P1+P4)/2 ]].

    Its eigenvalues are exactly {P2, P1, P4, P3}.
    """
    p1, p2, p3, p4 = (float(x) for x in pops)
    c = 0.5 * (p1 + p4)
    d = 0.5 * (p4 - p1)
    return np.array(
        [
            [p2, 0.0, 0.0, 0.0],
            [0.0, c, d, 0.0],
            [0.0, d, c, 0.0],
            [0.0, 0.0, 0.0, p3],
        ]
    )


_SIGMA_YY = np.kron(_SY, _SY).real


def _psd_root(m: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian positive semidefinite matrix, by eigh."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix (Wootters route).

    The l_i are the eigenvalues of sqrt(sqrt(rho) rho~ sqrt(rho)), with
    rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y), sorted descending;
    C = max(0, l1 - l2 - l3 - l4). They are taken as the singular values of
    sqrt(rho) sqrt(rho~), never as square roots of the eigenvalues of the
    non-normal rho rho~, whose rounding of order 1e-16 would put a small l_i
    about 1e-8 off.
    """
    root = _psd_root(np.asarray(rho, dtype=complex))
    lam = np.linalg.svd(root @ (_SIGMA_YY @ root.conj() @ _SIGMA_YY), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def _measured_side(pops):
    """S(B) and the conditional entropy S(B|A) of the measurements at polar angles theta.

    ``pops`` is one population vector, or a stack of them, one per row; then
    each state is a row of the results, and theta may hold a row of angles
    per state.
    """
    p1, p2, p3, p4 = np.asarray(pops, dtype=float).T[..., None]
    c = 0.5 * (p1 + p4)
    d = 0.5 * (p4 - p1)
    s_b = -_xlog2x(np.array([p2 + c, c + p3])).sum(axis=0)

    def conditional(theta):
        ct, st = np.cos(theta), np.sin(theta)
        # |off-diagonal| of the conditional state
        beta2 = (0.5 * d * st) ** 2
        cond = 0.0
        for s in (1.0, -1.0):
            alpha = 0.5 * (p2 * (1.0 + s * ct) + c * (1.0 - s * ct))
            gamma = 0.5 * (c * (1.0 + s * ct) + p3 * (1.0 - s * ct))
            weight = alpha + gamma
            radius = np.sqrt((alpha - gamma) ** 2 + 4.0 * beta2)
            lam_hi = np.clip(0.5 * (weight + radius), 0.0, None)
            lam_lo = np.clip(0.5 * (weight - radius), 0.0, None)
            cond = cond + (_xlog2x(weight) - _xlog2x(lam_hi) - _xlog2x(lam_lo))
        return cond

    return s_b, conditional


def classical_correlation_grid(pops, n_theta: int = 200) -> float:
    """Classical correlation by grid search over projective measurements.

    Minimizes the measured conditional entropy over measurement axes at
    ``n_theta`` polar angles theta in [0, pi/2] on one qubit (the state is
    exchange symmetric, so the side is immaterial) and subtracts it from the
    entropy of the other qubit's diagonal marginal, diag(P2 + c, c + P3)
    with c = (P1 + P4)/2. The azimuth phi of the axis only rotates the
    phase of the conditional states' off-diagonal element, so the
    conditional entropy does not depend on it and no phi is scanned.
    A finite grid can only overestimate the true minimum, so the result is
    a lower bound on the classical correlation up to grid resolution. For a
    two-outcome measurement on an X state the outcome weight and the
    conditional spectrum are available in closed form, which keeps the
    scan a pure array computation.
    """
    s_b, conditional = _measured_side(pops)
    return float(s_b[0] - conditional(np.linspace(0.0, 0.5 * np.pi, n_theta)).min())


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def classical_correlation_refined(states, n_theta: int = 200, steps: int = 40) -> np.ndarray:
    """:func:`classical_correlation_grid` of each row of ``states``, refined between grid angles.

    For each state a golden-section search on theta runs for ``steps``
    steps between the two grid neighbours of its best grid angle, which
    narrows that bracket to 0.618**steps of its width. The result is the
    classical correlation of the best axis found, on the grid or off it,
    so it is never below the grid's value.
    """
    s_b, conditional = _measured_side(states)
    theta = np.linspace(0.0, 0.5 * np.pi, n_theta)
    cond = conditional(theta)
    best = cond.argmin(axis=1)
    lo = theta[np.maximum(best - 1, 0)][:, None]
    hi = theta[np.minimum(best + 1, n_theta - 1)][:, None]
    for _ in range(steps):
        x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        f1, f2 = conditional(x1), conditional(x2)
        # keep the part of the bracket that holds the lower of the two
        hi, lo = np.where(f1 <= f2, x2, hi), np.where(f1 <= f2, lo, x1)
    found = np.minimum(f1, f2)[:, 0]
    return s_b[:, 0] - np.minimum(cond.min(axis=1), found)


class ExactPoint(NamedTuple):
    """Every output field of one point, as mpmath values (see :func:`exact_point`)."""

    p1: mpmath.mpf
    p2: mpmath.mpf
    p3: mpmath.mpf
    p4: mpmath.mpf
    heat_current: mpmath.mpf
    concurrence: mpmath.mpf
    discord: mpmath.mpf
    mutual_information: mpmath.mpf
    classical_correlation: mpmath.mpf


def _occupation(kind, omega, temperature):
    # n = 1/(e^x - 1) (boson) or 1/(e^x + 1) (spin) at x = omega/T, 0 at T = 0
    if temperature == 0.0:
        return mpmath.mpf(0)
    x = mpmath.mpf(omega) / mpmath.mpf(temperature)
    return 1 / mpmath.expm1(x) if kind == "boson" else 1 / (mpmath.exp(x) + 1)


def _mp_xlog2x(t):
    return t * mpmath.log(t, 2) if t > 0 else mpmath.mpf(0)


def conditional_entropies(p1, p2, p3, p4):
    """(S_z, S_x) of mpmath populations: the conditional entropies, in bits,
    of the z-axis and the equatorial measurement of one qubit.

    S_z is summed as its four conditional terms, -w log2(conditional weight
    / outcome weight), not from x log2 x of the marginal and joint weights.
    """
    def conditional(w, num, den):
        return -w * mpmath.log(num / den, 2) if w > 0 else mpmath.mpf(0)

    s14 = p1 + p4
    u, v = s14 + 2 * p2, s14 + 2 * p3
    s_z = (conditional(p2, 2 * p2, u) + conditional(s14 / 2, s14, u)
           + conditional(s14 / 2, s14, v) + conditional(p3, 2 * p3, v))
    k = mpmath.sqrt((p2 - p3) ** 2 + (p1 - p4) ** 2)
    return s_z, 1 - (_mp_xlog2x(1 - k) + _mp_xlog2x(1 + k)) / 2


def x_state_measures(p1, p2, p3, p4):
    """(C, Q, I, C_cl) of the X state of mpmath populations P1..P4, from its
    density-matrix forms: C = max(|P1 - P4| - 2 sqrt(P2 P3), 0), I = S(A) +
    S(B) - S(AB), and C_cl = S(B) less the lesser of
    :func:`conditional_entropies`."""
    u, v = p1 + p4 + 2 * p2, p1 + p4 + 2 * p3  # twice the marginal eigenvalues
    s_b = 1 - (_mp_xlog2x(u) + _mp_xlog2x(v)) / 2
    mutual = 2 * s_b + sum(map(_mp_xlog2x, (p1, p2, p3, p4)))
    c_cl = max(s_b - min(conditional_entropies(p1, p2, p3, p4)), 0)
    conc = max(abs(p1 - p4) - 2 * mpmath.sqrt(p2 * p3), 0)
    return conc, mutual - c_cl, mutual, c_cl


def exact_point(eps, kap, kind, gl, gr, tl, tr, digits=None):
    """P1..P4, J_L and the four correlation measures of one point, in mpmath.

    ``kind`` is "boson" or "spin". Everything is formed from the parameters
    (as the exact rationals of their floats) with mpmath at ``digits``
    significant digits, at the float gaps the solver takes, |kappa - epsilon|
    and kappa + epsilon. Channel c of gap omega has, per bath, up rate Gamma n
    and down rate Gamma (n + 1) (boson) or Gamma (1 - n) (spin), with n the
    occupation of omega at the bath's temperature, so it carries J_c = omega
    Gamma_L Gamma_R (n_L - n_R) / (2 sum of its rates), and its side holding
    state 1 has weight down/total (up/total when inverted). The measures are
    those of the density matrix of the product of the two channel weights.

    By default the precision follows the inputs: 80 digits, plus twice
    log10(T/omega) at the hotter bath and the narrower gap, plus the decimal
    exponent of the smallest nonzero channel weight. A hot bath makes n_L -
    n_R (spin) and the measures, which fall like (omega/T)^2, differences of
    terms of order 1; a cold one leaves a state within a tiny weight of a
    pure state, and measures as small as that weight. So each value keeps
    some 80 digits of its own, however small it is.
    """
    if digits is not None:
        return _exact_point(digits, eps, kap, kind, gl, gr, tl, tr)[0]
    gap, hot = min(abs(kap - eps), kap + eps), max(tl, tr)
    digits = 80 + (max(0, 2 * math.ceil(math.log10(hot) - math.log10(gap))) if hot else 0)
    point, weights = _exact_point(digits, eps, kap, kind, gl, gr, tl, tr)
    smallest = min((w for w in weights if w > 0), default=1)
    extra = max(0, int(mpmath.ceil(-mpmath.log10(smallest))))
    return _exact_point(digits + extra, eps, kap, kind, gl, gr, tl, tr)[0] if extra else point


def _exact_point(digits, eps, kap, kind, gl, gr, tl, tr):
    # (ExactPoint, the channel weights) at the given working precision
    with mpmath.workdps(digits):
        current, weights = mpmath.mpf(0), []
        g_l, g_r = mpmath.mpf(gl), mpmath.mpf(gr)
        for omega, inverted in ((abs(kap - eps), eps > kap), (kap + eps, False)):
            n_l, n_r = (_occupation(kind, omega, t) for t in (tl, tr))
            sign = 1 if kind == "boson" else -1  # down = Gamma (1 + sign n)
            down = g_l * (1 + sign * n_l) + g_r * (1 + sign * n_r)
            up = g_l * n_l + g_r * n_r
            total = down + up
            if total:
                current += mpmath.mpf(omega) * g_l * g_r * (n_l - n_r) / (2 * total)
            weights.append((up / total, down / total) if inverted else (down / total, up / total))
        (fa, ga), (fb, gb) = weights
        pops = (fa * fb, ga * fb, fa * gb, ga * gb)
        return ExactPoint(*pops, current, *x_state_measures(*pops)), (fa, ga, fb, gb)
