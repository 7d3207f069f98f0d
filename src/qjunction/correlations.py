"""Quantum correlation measures of the steady state.

The stationary state is an X state in the product basis, so concurrence,
mutual information, classical correlation and discord all reduce to closed
forms in the four eigenstate populations. Entropies are in bits, with the
0 log 0 = 0 convention throughout. For populations (P1, P2, P3, P4):

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
  candidates that are optimal for this state family. With x = p log2 p,
  S(B) = 1 - (x(u) + x(v))/2, the z branch gives S(B|A) = (x(u) +
  x(v))/2 - (P2 + P3) - x(P2) - x(P3) - x(P1 + P4) (Ali, Rau & Alber,
  PRA 81, 042105) and the equatorial one 1 - (x(1 - K) + x(1 + K))/2.
- Discord Q = I - C_cl, clamped at zero within rounding noise.
- K = sqrt((P2 - P3)^2 + (P1 - P4)^2), in [0, 1].

``_measures`` writes them once, for floats and numpy arrays alike:
``experiments.solve_point`` runs it on one point's populations and
:func:`correlation_kernel` on a grid's. Their brute-force counterparts,
computed from the density matrix itself (the Wootters construction and a
search over measurements), live in ``tests/oracles.py``, which shares no
code with this module.

The measured side of the classical correlation follows the X-state
prescription: the optimum over projective measurements is taken as the
better of the z-axis and equatorial measurements. The state is symmetric
under qubit exchange, so which qubit is measured does not matter. That
two-branch prescription is exact only on a subclass of X states. On this
model's steady states ``tests/test_correlations.py`` asserts it: a scan of
measurement angles, refined by golden-section search, finds no axis that
beats C_cl by more than 1e-12 on 344 states. On general X states,
acceptance criterion 13 only flags draws where another axis does better.
"""

from .baths import _arrays
from .solver import NonUniqueSteadyStateError, _product_state, _sides


def _measures(ops, p1, p2, p3, p4):
    # (C, I, C_cl, Q, K) of P1..P4, for one state (ops = _FLOATS) or a
    # chunk (baths._arrays()); augmented assignments act in place on the arrays made
    # here, never on p1..p4, and rebind floats; each is dropped at its last use
    xlog2x = ops.xlog2x
    s14 = p1 + p4
    # x log2 x of u = s14 + 2 P2 and v = s14 + 2 P3, twice the marginal eigenvalues
    xu, xv = xlog2x(s14 + 2.0 * p2), xlog2x(s14 + 2.0 * p3)
    x2, x3 = xlog2x(p2), xlog2x(p3)
    i = 2.0 - xu
    i -= xv
    i += xlog2x(p1)
    i += x2
    i += x3
    i += xlog2x(p4)
    s_b = xu + xv  # S(B) = 1 - (x(u) + x(v))/2
    s_b *= -0.5
    s_b += 1.0
    # along z: (x(u) + x(v))/2 - (P2 + P3) - x(P2) - x(P3) - x(P1 + P4), x(u) - 2 P2
    # and x(v) - 2 P3 formed first, which cancel exactly near pure state 2 or 3
    s_z = xu
    s_z -= 2.0 * p2
    xv -= 2.0 * p3
    s_z += xv
    s_z *= 0.5
    s_z -= x2
    s_z -= x3
    s_z -= xlog2x(s14)
    del xu, xv, x2, x3, s14
    # equatorial measurement: both outcomes yield spectrum (1 +- K)/2
    k = ops.hypot(p2 - p3, p1 - p4)
    s_x = xlog2x(1.0 - k)
    s_x += xlog2x(1.0 + k)
    s_x *= -0.5
    s_x += 1.0
    c_cl = ops.maximum(s_b - ops.minimum(s_z, s_x), 0.0)
    del s_b, s_z, s_x
    q = i - c_cl
    q = ops.select((q < 0.0) & (q > -1e-12), 0.0, q)
    root = ops.sqrt(p2 * p3)
    top = ops.maximum(ops.maximum(p1, p4), root)
    top *= 2.0
    top -= p1
    top -= p4
    root *= 2.0
    top -= root
    return ops.maximum(top, 0.0), i, c_cl, q, k


def correlation_kernel(rates, a_inverted: bool, offset: int = 0, out=None):
    """Steady-state populations and correlation measures over a grid.

    ``rates`` is the tuple of eight arrays returned by
    ``solver.transport_kernel`` on a grid; ``a_inverted`` is True when
    epsilon > kappa. Computes P1, P2, P3, P4 by the closed form of the
    ``solver`` module, then concurrence, discord, mutual information and
    classical correlation by those above, and returns ``out`` with the
    values written into its eight rows (an (8, n) array, or eight float
    arrays as long as the rates, such as rows of a larger table), or a new
    (8, n) array where ``out`` is None. Raises ``NonUniqueSteadyStateError``
    where a channel carries no rates, then ``ValueError`` where a value is
    not finite, naming the grid point by its index plus ``offset``.
    """
    import numpy as np
    w12, da, w13, db = _sides(a_inverted, *rates)
    stuck = (da == 0.0) | (db == 0.0)
    if stuck.any():
        raise NonUniqueSteadyStateError(
            f"a channel carries no rates at grid point {offset + int(np.argmax(stuck))}; "
            "the stationary state is not unique"
        )
    if out is None:
        out = np.empty((8, w12.size))
    with np.errstate(all="ignore"):
        for row, value in zip(out, _product_state(w12, da, w13, db)):
            row[...] = value
        conc, mi, ccl, disc, _ = _measures(_arrays(), *out[:4])
        for row, value in zip(out[4:], (conc, disc, mi, ccl)):
            row[...] = value
        # finite values here are at most 2, so the sum is finite where all eight are
        total = out[0] + out[1]
        for row in out[2:]:
            total += row
    finite = np.isfinite(total)
    if not finite.all():
        i = offset + int(np.argmin(finite))
        raise ValueError(f"populations or correlations not finite at grid point {i}")
    return out
