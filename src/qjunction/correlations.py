"""Quantum correlation measures of the steady state.

The stationary state is an X state in the product basis, so concurrence,
mutual information, classical correlation and discord all reduce to closed
forms in the four eigenstate populations. Entropies are in bits, with the
0 log 0 = 0 convention throughout. For populations (P1, P2, P3, P4):

- Concurrence C = max(2 P_max - P1 - P4 - 2 sqrt(P2 P3), 0) with
  P_max = max(P1, P4); zero exactly for separable states. The general
  X-state form also lets sqrt(P2 P3) be P_max, where C is 0 either way.
- Mutual information I = S(A) + S(B) - S(AB). Both marginals are
  diagonal with eigenvalues u/2 and v/2, where u = P1 + P4 + 2 P2 and
  v = P1 + P4 + 2 P3 (that is, 1 +- (P2 - P3)), and the joint spectrum
  is the populations themselves, so I = 2 - log2[u^u v^v] +
  sum_n P_n log2 P_n. u and v are formed as sums of populations, never
  as 1 - P2 + P3, so a side that carries weight never rounds to zero.
- Classical correlation C_cl = max(S(B) - S_x, 0): S(B) = 1 - (x(u) +
  x(v))/2 with x(p) = p log2 p, and S_x = 1 - (x(1 - K) + x(1 + K))/2 is
  the conditional entropy of the equatorial measurement (see below).
- Discord Q = I - C_cl, clamped at zero within rounding noise.
- K = sqrt((P2 - P3)^2 + (P1 - P4)^2), in [0, 1].

``_measures`` writes them once, for floats and numpy arrays alike:
``experiments.solve_point`` runs it on one point's populations and
:func:`correlation_kernel` on a grid's. Their brute-force counterparts,
computed from the density matrix itself (the Wootters construction and a
search over measurements), live in ``tests/oracles.py``, which shares no
code with this module.

Why the equatorial measurement alone: on an X state the optimum over
measurements of one qubit is the better of it and the z-axis measurement
(Ali, Rau & Alber, PRA 81, 042105 (2010); Chen et al., PRA 84, 042313
(2011)), but a steady state is a product of two channel weights, so
P1 P4 = P2 P3, and then S_z >= S_x. Proof: take x = P3 - P2 >= 0 (qubit
exchange flips its sign), w = (P1 - P4)^2 in [0, (1 - x)^2], K^2 = x^2 + w,
e_u = x - w/(1 + x), e_d = x + w/(1 - x), g(r) = h((1 + r)/2) with h the
binary entropy. Then S_x = g(K), S_z = ((1 + x) g(e_u) + (1 - x) g(e_d))/2,
and Phi = S_z - S_x (i) is 0 at w = 0, where e_u = e_d = K; (ii) is
h(p)/(2 - p) - h(q) >= 0 at w = (1 - x)^2, with p = 2x/(1 + x) and q <= 1/2
solving q(1 - q) = p(1 - p)/(2 - p)^2 <= p(1 - p), as h(q)/sqrt(q(1 - q)) is
nondecreasing on (0, 1/2] (its log-derivative has the sign of psi = 2q(1 -
q)h' - (1 - 2q)h, with psi'' = (1 - 2q)h'' <= 0 and psi(0+) = psi(1/2) = 0);
(iii) is concave in w: ln 2 Phi_ww = -1/(2(1 + x)(1 - e_u^2)) - 1/(2(1 -
x)(1 - e_d^2)) + (1/(1 - K^2) - artanh(K)/K)/(4K^2), whose last term is at
most 1/(4(1 - K^2)) (artanh K >= K), which the e_d term outweighs, since
(1 - x)(2(1 - K^2) - (1 - x)(1 - e_d^2)) = w^2 - 2(1 - x)^2 w + (1 - x^2)^2
has discriminant -16x(1 - x)^2 <= 0. A concave Phi with nonnegative ends is
nonnegative. On a general X state this C_cl is a lower bound (criterion 13
reports the gap); ``tests/test_correlations.py`` checks S_z >= S_x at 50
digits and scans measurement angles on 344 ``solve_point`` states.
"""

from .baths import _arrays
from .solver import NonUniqueSteadyStateError, _product_state, _sides


def _measures(ops, p1, p2, p3, p4):
    # (C, I, C_cl, Q, K) of P1..P4, for one state (ops = _FLOATS) or a
    # chunk (baths._arrays()); augmented assignments act in place on the arrays made
    # here, never on p1..p4, and rebind floats; each is dropped at its last use
    xlog2x = ops.xlog2x
    # x log2 x of u = P1 + P4 + 2 P2 and v = P1 + P4 + 2 P3, twice the marginal eigenvalues
    xu, xv = xlog2x(p1 + p4 + 2.0 * p2), xlog2x(p1 + p4 + 2.0 * p3)
    i = 2.0 - xu
    i -= xv
    i += xlog2x(p1)
    i += xlog2x(p2)
    i += xlog2x(p3)
    i += xlog2x(p4)
    c_cl = xu + xv  # S(B) = 1 - (x(u) + x(v))/2
    del xu, xv
    c_cl *= -0.5
    c_cl += 1.0
    # minus S_x: the equatorial measurement leaves spectrum (1 +- K)/2 on both outcomes
    k = ops.hypot(p2 - p3, p1 - p4)
    s_x = xlog2x(1.0 - k)
    s_x += xlog2x(1.0 + k)
    s_x *= -0.5
    s_x += 1.0
    c_cl -= s_x
    del s_x
    c_cl = ops.maximum(c_cl, 0.0)
    q = i - c_cl
    q = ops.select((q < 0.0) & (q > -1e-12), 0.0, q)
    root = ops.sqrt(p2 * p3)
    top = ops.maximum(p1, p4)
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
