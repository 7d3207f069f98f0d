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
provided. ``_channel_current`` forms each channel's term from the two
baths' occupations alone, the one form on every route.

:func:`transport_kernel` checks one point's couplings and temperatures and
evaluates its eight rates and heat current on floats, building no objects:
``_channel`` at each gap in turn. A grid calls ``_channel`` once, at the column
of both gaps, whose rates are then rows of (2, n) arrays, and ``_weights`` forms
both channels' weights from those (2, n) blocks at once (``experiments.run_sweep``).
The closed forms run on floats or numpy arrays (``baths._FLOATS``,
``baths._arrays()``); this module imports no numpy.
"""

import math

from .baths import _BOSON, _FLOATS, BathKind, _check_bath, _rates
from .model import DegeneratePhysicsError, SystemParams


class NonUniqueSteadyStateError(DegeneratePhysicsError):
    """A transition channel carries no rates at all, so the kernel is degenerate."""


def _check_populations(vals):
    # written so that NaN fails both tests
    p1, p2, p3, p4 = vals
    if not (-1e-9 <= p1 <= 1.0 + 1e-9 and -1e-9 <= p2 <= 1.0 + 1e-9
            and -1e-9 <= p3 <= 1.0 + 1e-9 and -1e-9 <= p4 <= 1.0 + 1e-9):
        raise ValueError(f"populations outside [0, 1]: {vals}")
    if not abs(sum(vals) - 1.0) <= 1e-9:
        raise ValueError(f"populations do not sum to 1: {vals}")


# Where a channel's rates sum past 2**_TOP_EXPONENT they are divided by the least
# power of two that brings the largest, a down rate, below it: their sum stays finite
# and, as a power of two divides exactly, the populations unchanged. A boson current
# so divides its occupations. Below _NEAR_TOP (see _channel) neither is needed.
_TOP_EXPONENT = 1020
_RATE_CEILING = 2.0 ** _TOP_EXPONENT
_NEAR_TOP = 2.0 ** 1018


def _rescaled(ops, ld, lu, rd, ru):
    # the rates, over that power of two where their sum passes the ceiling
    if not ops.top(lu + rd + ld + ru) > _RATE_CEILING:
        return ld, lu, rd, ru
    scale = ops.ldexp(1.0, ops.maximum(ops.frexp(ops.maximum(ld, rd))[1] - _TOP_EXPONENT, 0))
    return ld / scale, lu / scale, rd / scale, ru / scale


def _channel_current(ops, kind, omega, gamma_left, gamma_right, n_l, base_l, n_r, base_r,
                     near_top):
    # one channel's term of the current, (omega/2) Gamma_L Gamma_R (n_L - n_R) / S, from the
    # baths' occupations n and bases. S over the larger coupling is one bath's 2n + 1 plus the
    # other's times the couplings' ratio (boson), or 1 plus it (spin): the term before the
    # smaller coupling is at most T. Near the top a boson term is NaN where a rate overflows
    near_top = near_top and kind is _BOSON
    if near_top:
        over = (gamma_left * base_l == math.inf) | (gamma_right * base_r == math.inf)
        base_l, n_l, base_r, n_r = _rescaled(ops, base_l, n_l, base_r, n_r)
    left_small = gamma_left < gamma_right
    small, big = (gamma_left, gamma_right) if left_small else (gamma_right, gamma_left)
    if not small:  # no current: zeros of the occupations' shape, as n >= 0
        j = ops.minimum(n_l, 0.0)
    elif kind is _BOSON:  # a rate sum over its coupling is 2n + 1 = n + base
        s_r, s_l = n_r + base_r, n_l + base_l  # in place on a grid, as are the steps below
        if left_small:
            s_l *= small / big
        else:
            s_r *= small / big
        s_l += s_r
        del s_r  # before n_L - n_R is formed
        j = n_l - n_r
        j /= s_l
    else:  # n_L (1 - n_R) - n_R (1 - n_L), as 1 - n = 1/base rounds finer than n near 1/2
        j = n_l / base_r
        j -= n_r / base_l
        j /= 1.0 + small / big
    j *= omega / 2.0
    j *= small
    return ops.select(over, math.nan, j) if near_top else j


def _weights(ld, lu, rd, ru):
    # a channel's weights (f, g), its down and up rates' shares of their sum ({1, 3} and {2, 4}
    # for channel a, uninverted; {1, 2} and {3, 4} for b), on floats or on (2, n) blocks of a's
    # row and b's, in place; no rates give 0/0: ZeroDivisionError on floats, NaN on arrays
    f, g = ld + rd, lu + ru
    total = f + g
    f /= total
    g /= total
    return f, g


def _gaps(params):
    # channel a's gap, then channel b's
    return abs(params.kappa - params.epsilon), params.kappa + params.epsilon


def _channel(ops, kind, gamma_left, gamma_right, omega, t_left, t_right, near_top=None):
    # one channel's rates and term of the current at the gap omega (on a grid, maybe a column
    # of gaps, giving a row per gap); the bases' sum bounds every n unless a caller bounds it
    # (_near_top). Coupled baths at one grid of temperatures read one occupation (not floats)
    n_l, base_l = ops.occupation(kind, gamma_left, omega, t_left)
    shared = t_right is t_left and gamma_left and gamma_right and ops is not _FLOATS
    n_r, base_r = (n_l, base_l) if shared else ops.occupation(kind, gamma_right, omega, t_right)
    if near_top is None:
        near_top = (gamma_left + gamma_right + 1.0) * ops.top(base_l + base_r) >= _NEAR_TOP
    j = _channel_current(ops, kind, omega, gamma_left, gamma_right, n_l, base_l, n_r, base_r,
                         near_top)
    ld, lu = _rates(kind, gamma_left, n_l, base_l)
    del n_l, base_l  # before the right bath's rates are formed
    rates = ld, lu, *_rates(kind, gamma_right, n_r, base_r)
    return _rescaled(ops, *rates) if near_top else rates, j


def _near_top(gamma_left, gamma_right, t_max, omega):
    # _channel's test, decided once for temperatures up to t_max at gaps from omega up: two
    # bases sum to at most 4 (spin) or 2 (T/omega + 1) (boson), here doubled for rounding
    return (gamma_left + gamma_right + 1.0) * 4.0 * (t_max / omega + 1.0) >= _NEAR_TOP


def transport_kernel(params: SystemParams, kind: BathKind, gamma_left: float,
                     gamma_right: float, t_left: float, t_right: float):
    """Rates and heat current at one temperature pair, on floats, without numpy.

    ``experiments.solve_point`` calls this. Returns ``(rates, j_left)``:
    ``rates`` is eight floats, the (down, up) rates (see ``baths``) of the left
    bath, then of the right bath, across channel a, then across channel b:
    (left_down, left_up, right_down, right_up) at the gap |kappa - epsilon|,
    then at kappa + epsilon. Channel a is inverted when epsilon > kappa: state
    |2> then lies below |1>, and the rate W12 (2 -> 1) is an excitation, not a
    relaxation. ``j_left`` is the heat current out of the left reservoir, the
    sum over the two channels c of

        omega_c (kL_up kR_down - kL_down kR_up)
        / (2 [kL_up + kR_down + kL_down + kR_up])
      = omega_c Gamma_L Gamma_R (n_L - n_R) / (2 S_c),

    with omega_c the channel's gap, S_c the sum of its rates and n_L, n_R
    the baths' occupations at it (up = Gamma n, down = Gamma (n + 1) or
    Gamma (1 - n)), formed the second way: its sign is that of T_L - T_R,
    and it is 0 at T_L = T_R. Positive values mean heat flows from the
    left bath into the system; a channel with no rates contributes its
    limit value 0. The expression is written in down/up form, which makes
    it valid for either sign of kappa - epsilon. Where a channel's rates
    sum past 2**1020 they are returned divided by a power of two, as are
    the occupations the current reads, which leaves every ratio of rates,
    and so the populations, exact. Raises ``ValueError`` for a coupling or
    temperature that is not finite and >= 0, and where the current is not finite.
    """
    gamma_left, gamma_right = _check_bath(gamma_left, t_left), _check_bath(gamma_right, t_right)
    gap_a, gap_b = _gaps(params)
    rates_a, j_a = _channel(_FLOATS, kind, gamma_left, gamma_right, gap_a, t_left, t_right)
    rates_b, j_b = _channel(_FLOATS, kind, gamma_left, gamma_right, gap_b, t_left, t_right)
    j = 0.0 + j_a + j_b
    if not math.isfinite(j):
        raise _current_not_finite(t_left, t_right)
    return rates_a + rates_b, j


def _current_not_finite(t_left, t_right):
    return ValueError(f"heat current is not finite at T_L = {t_left}, T_R = {t_right}")
