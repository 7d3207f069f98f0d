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
  entropy over a grid of projective measurements;
- :func:`exact_boson_point` evaluates the boson steady state and current in
  exact rational arithmetic, where floating-point rates would overflow.
"""

import math
from fractions import Fraction

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


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return x * np.log2(x, out=np.zeros_like(x), where=x > 0.0)


def classical_correlation_grid(pops, n_theta: int = 200, n_phi: int = 200) -> float:
    """Classical correlation by grid search over projective measurements.

    Minimizes the measured conditional entropy over measurement axes
    n(theta, phi) on one qubit (the state is exchange symmetric, so the
    side is immaterial) and subtracts it from the entropy of the other
    qubit's diagonal marginal, diag(P2 + c, c + P3) with c = (P1 + P4)/2.
    A finite grid can only overestimate the true minimum, so the result is
    a lower bound on the classical correlation up to grid resolution. For a
    two-outcome measurement on an X state the outcome weight and the
    conditional spectrum are available in closed form, which keeps the
    scan a pure array computation.
    """
    p1, p2, p3, p4 = (float(x) for x in pops)
    c = 0.5 * (p1 + p4)
    d = 0.5 * (p4 - p1)
    s_b = -float(_xlog2x(np.array([p2 + c, c + p3])).sum())
    theta = np.linspace(0.0, 0.5 * np.pi, n_theta)
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
        cond += _xlog2x(weight) - _xlog2x(lam_hi) - _xlog2x(lam_lo)
    return s_b - float(cond.min())


def exact_boson_point(eps, kap, gl, gr, tl, tr):
    """P1..P4 and J_L from the occupation form, in exact rational arithmetic.

    Only the Bose factors n = 1/expm1(omega/T) are floats. Channel c of gap
    omega has down rates Gamma (n + 1) and up rates Gamma n, so it carries
    J_c = omega Gamma_L Gamma_R (n_L - n_R) / (2 sum of its rates), and its
    side holding state 1 has weight down/total (up/total when inverted).
    """
    current, weights = Fraction(0), []
    for omega, inverted in ((abs(kap - eps), eps > kap), (kap + eps, False)):
        n_l, n_r = (Fraction(1.0 / math.expm1(omega / t)) for t in (tl, tr))
        down = Fraction(gl) * (n_l + 1) + Fraction(gr) * (n_r + 1)
        up = Fraction(gl) * n_l + Fraction(gr) * n_r
        current += Fraction(omega) * Fraction(gl) * Fraction(gr) * (n_l - n_r) / (2 * (down + up))
        weights.append((up if inverted else down) / (down + up))
    fa, fb = weights
    pops = [fa * fb, (1 - fa) * fb, fa * (1 - fb), (1 - fa) * (1 - fb)]
    return [float(p) for p in pops], float(current)
