"""Steady state of the two-qubit junction coupled to two reservoirs.

The secular population dynamics splits into two independent two-level
channels: channel a flips the pairs 1<->2 and 3<->4 (gap |kappa - epsilon|),
channel b flips 1<->3 and 2<->4 (gap kappa + epsilon). With W_mn denoting
the total rate from eigenstate n to m summed over both baths, the unique
stationary distribution is a product of two channel weights,

    P1 = fa fb   P2 = ga fb   P3 = fa gb   P4 = ga gb,

where fa = W12/(W12 + W21) and ga = W21/(W12 + W21) weigh the two sides of
channel a ({1, 3} and {2, 4}), and fb = W13/(W13 + W31) and gb =
W31/(W13 + W31) those of channel b ({1, 2} and {3, 4}), using W24 = W13 and
W34 = W12 (equal qubit splittings, equal coupling weights). The heat current
out of the left reservoir is the second-order two-channel expression that
:func:`transport_kernel` documents; the variant written in terms of
bath-system coherences has no closed evaluation route here and is not
provided.

Both are rational in the couplings and in each bath's y = tanh(omega/2T) and
ybar = 1 - y (``baths``), and ``_channel`` forms them so, with no rate, on
floats at each gap in turn (:func:`transport_kernel`) or on a grid at the column
of both gaps (``experiments``). Two predicates keep the errors of the rates,
each tested only where a scalar bound says it can hold: a boson rate that
overflows makes the current NaN (``_overflows``), and a spin channel whose every
coupled bath has a down rate of 0 has NaN weights (``_stalled``). The forms run
on floats or numpy arrays (``baths._FLOATS``, ``baths._arrays()``); this module
imports no numpy.
"""

import math

from .baths import _BOSON, _FLOATS, BathKind, _check_bath
from .model import DegeneratePhysicsError, SystemParams


class NonUniqueSteadyStateError(DegeneratePhysicsError):
    """A transition channel carries no rates at all, so the kernel is degenerate."""


# E past _CLAMP has y = 1.0, and E_R - E_L clamped there stays finite. Below _NEAR_TOP no boson
# rate can overflow (_near_top), and only couplings below _LEAST_RATE give spin rates of 0
_CLAMP, _NEAR_TOP, _LEAST_RATE = 2.0 ** 1022, 2.0 ** 1018, 2.0 ** -1020


def _check_populations(vals):
    # written so that NaN fails both tests
    p1, p2, p3, p4 = vals
    if not (-1e-9 <= p1 <= 1.0 + 1e-9 and -1e-9 <= p2 <= 1.0 + 1e-9
            and -1e-9 <= p3 <= 1.0 + 1e-9 and -1e-9 <= p4 <= 1.0 + 1e-9):
        raise ValueError(f"populations outside [0, 1]: {vals}")
    if not abs(sum(vals) - 1.0) <= 1e-9:
        raise ValueError(f"populations do not sum to 1: {vals}")


def _overflows(kind, gamma_left, e_left, gamma_right, e_right):
    # where either boson bath's down rate Gamma (1/E + 1) overflows; tested where _near_top allows
    if kind is _BOSON:
        return ((gamma_left * (1.0 / e_left + 1.0) == math.inf)
                | (gamma_right * (1.0 / e_right + 1.0) == math.inf))
    return None


def _difference(ops, kind, e_l, e_r):
    # (d, y_L, y_R) from each bath's E: C = min(E, 2**1022), so that y = C/(C + 2) is 1.0 where E
    # is inf (C stands for y at a spin bath, whose D needs none), and d = (y_R - y_L)/2 =
    # (C_R - C_L)/(C_L + 2)/(C_R + 2), divided by the larger C + 2 first on either side, so that
    # swapping the baths negates it exactly
    c_l, c_r = ops.minimum(e_l, _CLAMP), ops.minimum(e_r, _CLAMP)
    s_l, s_r = c_l + 2.0, c_r + 2.0
    d = c_r - c_l
    d /= ops.maximum(s_l, s_r)
    d /= ops.minimum(s_l, s_r)
    if kind is _BOSON:  # y, in place on a grid
        c_l /= s_l
        c_r /= s_r
    return d, c_l, c_r


def _couplings(gamma_left, gamma_right):
    # (Gamma_L >= Gamma_R, Gamma_min, Gamma_max, Gamma_min/Gamma_max or 0.0 without coupling)
    left_big = gamma_left >= gamma_right
    small, big = (gamma_right, gamma_left) if left_big else (gamma_left, gamma_right)
    return left_big, small, big, small / big if big else 0.0


def _current(ops, kind, omega, small, ratio, d, y_strong, y_weak, over):
    # (D, J_c) of a channel from d = (y_R - y_L)/2: D = a y_R + b y_L, the y of the more weakly
    # coupled bath plus the couplings' ratio times the other's (boson; NaN where over), or a + b
    # (spin), and J_c = (omega/2) Gamma_min d/D. d/D is at most about T/omega and Gamma_min d
    # at most Gamma_max D, so in this order no partial product leaves the float range unless J does
    if kind is _BOSON:
        den = ratio * y_strong
        den += y_weak
        den = den if over is None else ops.select(over, math.nan, den)
        j = d / den
        j *= omega / 2.0
    else:
        den = 1.0 + ratio
        j = d * (omega / (2.0 * den))
    j *= small
    return den, j


def _stalled(ops, kind, gamma, omega, t):
    # where a bath has no down rate Gamma/(e^{-x} + 1), as an uncoupled one has none
    return gamma / (ops.exp(-ops.exponent(kind, gamma, omega, t)) + 1.0) == 0.0


def _gaps(params):
    # channel a's gap, then channel b's
    return abs(params.kappa - params.epsilon), params.kappa + params.epsilon


def _channel(ops, kind, gamma_left, gamma_right, omega, t_left, t_right, near_top):
    # one channel's weights (f, g) of its down and up sides ({1, 3} and {2, 4} for channel a,
    # uninverted; {1, 2} and {3, 4} for b) and its term of the current at the gap omega (on a
    # grid, maybe a column of gaps, a row per gap); near_top is _near_top's. Coupled baths given
    # one temperature object (a number or a grid) read one E
    # each bath's E = expm1(omega/T), inf at T = 0 and for an uncoupled bath
    e_l = ops.expm1(ops.exponent(kind, gamma_left, omega, t_left))
    shared = t_right is t_left and gamma_left and gamma_right
    e_r = e_l if shared else ops.expm1(ops.exponent(kind, gamma_right, omega, t_right))
    over = _overflows(kind, gamma_left, e_l, gamma_right, e_r) if near_top else None
    d, y_l, y_r = _difference(ops, kind, e_l, e_r)
    e_l += 2.0  # for ybar = 2/(E + 2), in place on a grid, where E is this function's own
    ybar_l = 2.0 / e_l
    ybar_r = ybar_l if shared else 2.0 / (e_r + 2.0)
    del e_l, e_r
    left_big, small, big, ratio = _couplings(gamma_left, gamma_right)
    y_strong, ybar_strong, y_weak, ybar_weak = (y_l, ybar_l, y_r, ybar_r) if left_big else (
        y_r, ybar_r, y_l, ybar_l)
    den, j = _current(ops, kind, omega, small, ratio, d, y_strong, y_weak, over)
    del d
    # g = (a ybar_L y_R + b ybar_R y_L)/(2D) (boson) or (a ybar_L + b ybar_R)/(2D) (spin)
    g = ratio * ybar_weak
    if kind is _BOSON:
        g *= y_strong
        g += ybar_strong * y_weak
    else:
        g += ybar_strong
    g /= den
    g *= 0.5
    if big < _LEAST_RATE and (kind is not _BOSON or not big):
        g = ops.select(_stalled(ops, kind, gamma_left, omega, t_left)
                       & _stalled(ops, kind, gamma_right, omega, t_right), math.nan, g)
    return (1.0 - g, g), j


def _near_top(gamma_left, gamma_right, t_max, omega):
    # whether a boson rate Gamma (1/E + 1) can overflow at temperatures up to t_max and gaps from
    # omega up: 1/E is at most T/omega, here doubled for rounding
    return (gamma_left + gamma_right + 1.0) * 4.0 * (t_max / omega + 1.0) >= _NEAR_TOP


def transport_kernel(params: SystemParams, kind: BathKind, gamma_left: float,
                     gamma_right: float, t_left: float, t_right: float):
    """Channel weights and heat current at one temperature pair, on floats, without numpy.

    ``experiments.solve_point`` calls this. Returns ``(weights, j_left)``:
    the steady state's channel weights (fa, ga, fb, gb), with P1 = fa fb,
    P2 = ga fb, P3 = fa gb and P4 = ga gb, and the heat current out of the
    left reservoir, summed over the channels c:

        J_c = (omega_c/4) Gamma_min (y_R - y_L) / D
            = (omega_c/2) Gamma_L Gamma_R (n_L - n_R) / S_c,

    with omega_c the gap, y = tanh(omega_c/2T) and n the occupation of each
    bath (``baths``), S_c the channel's rate sum, a = Gamma_L/Gamma_max,
    b = Gamma_R/Gamma_max and D = a y_R + b y_L (boson) or a + b (spin).
    J has the sign of T_L - T_R; positive, heat leaves the left bath. A
    channel's up side weighs g = (a ybar_L y_R + b ybar_R y_L)/(2D) (boson)
    or (a ybar_L + b ybar_R)/(2D) (spin), its down side f = 1 - g, swapped
    for channel a where epsilon > kappa (|2> then lies below |1>). An
    uncoupled bath stands in as one at T = 0; a channel without rates has
    NaN weights and carries 0. Raises ``ValueError`` for a coupling or
    temperature that is not one number, finite and >= 0, and where the
    current is not finite, as where a boson rate overflows.
    """
    gamma_left = _check_bath("left", gamma_left, t_left)
    gamma_right = _check_bath("right", gamma_right, t_right)
    gap_a, gap_b = _gaps(params)
    point = t_left, t_right, _near_top(gamma_left, gamma_right, max(t_left, t_right), gap_a)
    (fa, ga), j_a = _channel(_FLOATS, kind, gamma_left, gamma_right, gap_a, *point)
    (fb, gb), j_b = _channel(_FLOATS, kind, gamma_left, gamma_right, gap_b, *point)
    j = 0.0 + j_a + j_b
    if not math.isfinite(j):
        raise _current_not_finite(t_left, t_right)
    return ((ga, fa) if params.epsilon > params.kappa else (fa, ga)) + (fb, gb), j


def _current_not_finite(t_left, t_right):
    return ValueError(f"heat current is not finite at T_L = {t_left}, T_R = {t_right}")
