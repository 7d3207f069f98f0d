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

:func:`transport_kernel` evaluates the eight rates and the heat current at
one temperature pair or over a grid, building no objects: ``_channel`` at
each gap in turn for a point, and once at the column of both gaps for a
grid, whose rates are then rows of (2, n) arrays. ``_weights`` forms the
channel weights from its rates, for a point or, in
``correlations.correlation_kernel``, a grid. The closed forms run on floats
or numpy arrays (``baths._FLOATS``, ``baths._arrays``); numpy is imported by
the first grid, never by a point.
"""

from .baths import _FLOATS, BathKind, _arrays
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


# A channel's rates are summed, and each product of two is formed over that
# sum. Where it passes 2**_TOP_EXPONENT (only at temperatures or couplings near
# the float ceiling) they are first divided by the least power of two that
# brings the largest, a down rate, below it, so that the sum of all four stays
# finite. A power of two divides exactly in binary: ratios of rates,
# hence the populations, are unchanged, and the heat current is multiplied
# back by the same power. Inputs below the ceiling take no rescaling at all.
_TOP_EXPONENT = 1020
_RATE_CEILING = 2.0 ** _TOP_EXPONENT


def _rescaled(ops, ld, lu, rd, ru):
    # the rates, over that power of two where their sum passes the ceiling,
    # with their sum and the power (None where no sum passes it)
    total = lu + rd + ld + ru
    if not ops.top(total) > _RATE_CEILING:
        return ld, lu, rd, ru, total, None
    scale = ops.ldexp(1.0, ops.maximum(ops.frexp(ops.maximum(ld, rd))[1] - _TOP_EXPONENT, 0))
    ld, lu, rd, ru = ld / scale, lu / scale, rd / scale, ru / scale
    return ld, lu, rd, ru, lu + rd + ld + ru, scale


def _channel_current(ops, omega, left, right):
    # one channel's term of the heat current from its (down, up) pairs, and its rates
    # as the term was formed (rescaled where they pass the ceiling). Each product is
    # its larger rate over the sum (at most 1) times its smaller rate: nothing
    # overflows unless the term itself does, and no rate is divided down towards
    # zero. The sum, floored at the least subnormal, comes first, so a NaN sum
    # stays NaN; a channel with no rates gives 0
    (ld, lu), (rd, ru) = left, right
    ld, lu, rd, ru, total, scale = _rescaled(ops, ld, lu, rd, ru)
    total = ops.maximum(total, 5e-324)
    hi, lo = ops.maximum, ops.minimum
    j = hi(lu, rd)
    j /= total  # in place on a grid, as are the steps below
    j *= lo(lu, rd)
    down = hi(ld, ru)
    down /= total
    down *= lo(ld, ru)
    j -= down
    j *= omega / 2.0
    return (ld, lu, rd, ru), j if scale is None else j * scale


def _weights(a_inverted, ld_a, lu_a, rd_a, ru_a, ld_b, lu_b, rd_b, ru_b):
    # the channel weights (fa, ga, fb, gb), each its side's in-rate over its
    # channel's total rate (divided in place on a grid); a channel with no rates
    # divides 0 by 0: ZeroDivisionError on floats, NaN on arrays
    down_a, up_a = ld_a + rd_a, lu_a + ru_a
    fa, ga = (up_a, down_a) if a_inverted else (down_a, up_a)
    fb, gb = ld_b + rd_b, lu_b + ru_b
    da, db = fa + ga, fb + gb
    fa /= da
    ga /= da
    fb /= db
    gb /= db
    return fa, ga, fb, gb


def _gaps(params):
    # channel a's gap, then channel b's
    return abs(params.kappa - params.epsilon), params.kappa + params.epsilon


def _channel(ops, kind, gamma_left, gamma_right, omega, t_left, t_right):
    # one channel's rates and term of the current at the gap omega; on a grid omega
    # may be a column of gaps, which gives a row of rates and terms per gap
    return _channel_current(ops, omega, ops.pair(kind, gamma_left, omega, t_left),
                            ops.pair(kind, gamma_right, omega, t_right))


def _channels(ops, params, kind, gamma_left, gamma_right, t_left, t_right):
    # transport_kernel's rates and current, unchecked (only the array route pays for
    # np.errstate): channel a, then b, on floats; both at the column of gaps on arrays
    if ops is _FLOATS:
        gap_a, gap_b = _gaps(params)
        rates_a, j_a = _channel(ops, kind, gamma_left, gamma_right, gap_a, t_left, t_right)
        rates_b, j_b = _channel(ops, kind, gamma_left, gamma_right, gap_b, t_left, t_right)
        return rates_a + rates_b, 0.0 + j_a + j_b
    import numpy as np
    (ld, lu, rd, ru), j = _channel(ops, kind, gamma_left, gamma_right,
                                   np.array(_gaps(params))[:, np.newaxis], t_left, t_right)
    return (ld[0], lu[0], rd[0], ru[0], ld[1], lu[1], rd[1], ru[1]), 0.0 + j[0] + j[1]


def transport_kernel(params: SystemParams, kind: BathKind, gamma_left: float,
                     gamma_right: float, t_left, t_right):
    """Rates and heat current at one temperature pair or over a grid of them.

    ``t_left`` and ``t_right`` are validated temperatures (finite, >= 0):
    two floats, or two equal-length float arrays. Returns ``(rates,
    j_left)``. ``rates`` is a tuple of eight floats or arrays, the (down,
    up) rates (see ``baths``) of the left bath, then of the right bath,
    across channel a, then across channel b: (left_down, left_up,
    right_down, right_up) at the gap |kappa - epsilon|, then at kappa +
    epsilon. Channel a is inverted when epsilon > kappa: state |2> then lies
    below |1>, and the rate W12 (2 -> 1) is an excitation, not a relaxation.
    ``j_left`` is the heat current out of the left reservoir, the sum over
    the two channels c of

        omega_c (kL_up kR_down - kL_down kR_up)
        / (2 [kL_up + kR_down + kL_down + kR_up]),

    with omega_c the channel's gap. Positive values mean heat flows from the
    left bath into the system; a channel with no rates contributes its
    limit value 0. The expression is written in down/up form, which makes
    it valid for either sign of kappa - epsilon. Where a channel's rates
    sum past 2**1020 they are returned divided by the power of two that the
    current's term divides them by, which leaves every ratio of rates, and
    so the populations, exact. On floats nothing is checked and numpy is
    not used; on arrays ``ValueError`` is raised where the current is not
    finite.
    """
    if not getattr(t_left, "ndim", 0):  # a float, an int or a numpy scalar
        return _channels(_FLOATS, params, kind, gamma_left, gamma_right, t_left, t_right)
    import numpy as np
    with np.errstate(all="ignore"):
        rates, j = _channels(_arrays(), params, kind, gamma_left, gamma_right, t_left, t_right)
    _check_current(j, t_left, t_right)
    return rates, j


def _check_current(j, t_left, t_right):
    # ValueError at the first point of a grid where the current is not finite
    import numpy as np
    bad = ~np.isfinite(j)
    if bad.any():
        i = int(np.argmax(bad))
        raise _current_not_finite(float(t_left[i]), float(t_right[i]))


def _current_not_finite(t_left, t_right):
    return ValueError(f"heat current is not finite at T_L = {t_left}, T_R = {t_right}")
