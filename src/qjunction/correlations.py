"""Quantum correlation measures of the steady state.

The stationary state is an X state in the product basis, and a product of
two channel weights (``solver``): P1 = fa fb, P2 = ga fb, P3 = fa gb,
P4 = ga gb, with fa + ga = fb + gb = 1. Concurrence, mutual information,
classical correlation and discord all reduce to closed forms in the four
weights, which form no complement as 1 - f. Entropies are in bits, with the
0 log 0 = 0 convention throughout, and x(p) = p log2 p.

- Concurrence C = max(|P1 - P4| - 2 sqrt(P2 P3), 0) = max(|fa - gb| -
  2 sqrt(fa ga fb gb), 0), since P1 - P4 = fa - gb and P2 P3 = fa ga fb gb;
  zero exactly for separable states.
- Mutual information I = S(A) + S(B) - S(AB). Both marginals are
  diagonal with eigenvalues u/2 and v/2, where u = P1 + P4 + 2 P2 = fb + ga
  and v = P1 + P4 + 2 P3 = fa + gb, and the joint spectrum is the
  populations themselves, whose x(P) sum to x(fa) + x(ga) + x(fb) + x(gb).
  So I = 2 - x(u) - x(v) + x(fa) + x(ga) + x(fb) + x(gb).
- Classical correlation C_cl = max(S(B) - S_x, 0): S(B) = 1 - (x(u) +
  x(v))/2, and S_x = 1 - (x(1 - K) + x(1 + K))/2 is the conditional
  entropy of the equatorial measurement (see below), with K^2 = (P2 -
  P3)^2 + (P1 - P4)^2 in [0, 1]. As P2 - P3 = fb - fa, 1 - K^2 = 2 (fa ga +
  fb gb); K is its complement's root, and 1 - K = (1 - K^2)/(1 + K).
- Discord Q = I - C_cl, clamped at zero within rounding noise.

``_measures`` writes them once, for floats and numpy arrays alike:
``experiments.solve_point`` runs it on one point's weights, and
``experiments.run_sweep`` through ``_states`` on a grid's. Their brute-force
counterparts, computed from the density matrix itself (the Wootters
construction and a search over measurements), live in ``tests/oracles.py``,
which shares no code with this module.

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
nonnegative. ``tests/test_correlations.py`` checks S_z >= S_x at 50 digits
and scans measurement angles on 344 ``solve_point`` states.
"""

from .baths import _arrays


def _measures(ops, fa, ga, fb, gb):
    # (C, I, C_cl, Q) of the channel weights, for one state (ops = _FLOATS) or a
    # chunk (baths._arrays()); augmented assignments act in place on the arrays made
    # here, never on the weights, and rebind floats; each is dropped at its last use
    xlog2x = ops.xlog2x
    # x(u) + x(v), with u = fb + ga and v = fa + gb twice the marginal eigenvalues
    xuv = xlog2x(fb + ga)
    xuv += xlog2x(fa + gb)
    i = 2.0 - xuv
    i += xlog2x(fa)
    i += xlog2x(ga)
    i += xlog2x(fb)
    i += xlog2x(gb)
    # C_cl = S(B) - S_x = (x(1 + K) + x(1 - K) - x(u) - x(v))/2, as the equatorial
    # measurement leaves spectrum (1 +- K)/2 on both outcomes; with a = fa ga and
    # b = fb gb, 1 - K^2 = 2 (a + b) and P2 P3 = a b
    a, b = fa * ga, fb * gb
    root = ops.sqrt(a * b)
    a += b
    del b
    a *= 2.0
    # 1 - K^2 may pass 1 by an ulp, as fa + ga and fb + gb may
    k = ops.sqrt(ops.maximum(1.0 - a, 0.0))
    k += 1.0
    a /= k  # 1 - K = (1 - K^2)/(1 + K), which does not cancel near a pure state
    c_cl = xlog2x(k)
    del k
    c_cl += xlog2x(a)
    del a
    c_cl -= xuv
    del xuv
    c_cl *= 0.5
    c_cl = ops.maximum(c_cl, 0.0)
    q = i - c_cl
    q = ops.select((q < 0.0) & (q > -1e-12), 0.0, q)
    conc = abs(fa - gb)  # |P1 - P4|
    root *= 2.0
    conc -= root
    return ops.maximum(conc, 0.0), i, c_cl, q


def _states(a_inverted, fa, ga, fb, gb, out):
    # a grid's P1..P4 into rows 2-5 of out, an (11, n) block of columns in SweepRow's field
    # order, and (C, Q, I, C_cl) into rows 7-10, unchecked; no other row is read or written.
    # The weights are each channel's as solver._channel gives them: an inverted channel a's
    # (epsilon > kappa) are swapped here, and a channel with no rates (NaN) writes NaN in every row
    import numpy as np
    if a_inverted:
        fa, ga = ga, fa
    np.multiply(fa, fb, out=out[2])
    np.multiply(ga, fb, out=out[3])
    np.multiply(fa, gb, out=out[4])
    np.multiply(ga, gb, out=out[5])
    out[7], out[9], out[10], out[8] = _measures(_arrays(), fa, ga, fb, gb)
