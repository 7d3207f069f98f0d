"""Steady state of the two-qubit junction coupled to two reservoirs.

The secular population dynamics splits into two independent two-level
channels: channel a flips the pairs 1<->2 and 3<->4 (gap |kappa - epsilon|),
channel b flips 1<->3 and 2<->4 (gap kappa + epsilon). With W_mn denoting
the total rate from eigenstate n to m summed over both baths, the unique
stationary distribution is the product

    P1 = W12 W13 / D   P2 = W21 W13 / D
    P3 = W12 W31 / D   P4 = W21 W31 / D,   D = (W12 + W21)(W13 + W31),

using W24 = W13 and W34 = W12 (equal qubit splittings, equal coupling
weights). The steady-state heat current out of the left reservoir is the
second-order two-channel expression implemented in :func:`heat_current`;
the variant written in terms of bath-system coherences has no closed
evaluation route here and is not provided.

:func:`transport_kernel` evaluates :func:`channel_rates` and
:func:`heat_current` over whole temperature grids. Both run the same closed
forms, on floats or on numpy arrays (see ``baths._FLOATS`` and
``baths._ARRAYS``).
"""

from dataclasses import dataclass

import numpy as np

from .baths import _ARRAYS, _FLOATS, BathKind, BathSpec, _rates, rate_pair
from .model import DegeneratePhysicsError, SystemParams


class NonUniqueSteadyStateError(DegeneratePhysicsError):
    """A transition channel carries no rates at all, so the kernel is degenerate."""


@dataclass(frozen=True)
class ChannelRates:
    """Per-bath (down, up) rates across one transition channel of gap ``omega``."""

    omega: float
    left_down: float
    left_up: float
    right_down: float
    right_up: float


@dataclass(frozen=True)
class RateSet:
    """The eight golden-rule rates of the junction plus the channel layout.

    ``a`` is the |kappa - epsilon| channel (pairs 1<->2, 3<->4), ``b`` the
    kappa + epsilon channel (pairs 1<->3, 2<->4). ``a_inverted`` is True
    when epsilon > kappa, i.e. state |2> lies below |1> and the label-based
    rate W12 (2 -> 1) is an excitation rather than a relaxation.
    """

    a: ChannelRates
    b: ChannelRates
    a_inverted: bool


@dataclass(frozen=True)
class Populations:
    """Normalized steady-state occupations of the four eigenstates."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self):
        vals = (self.p1, self.p2, self.p3, self.p4)
        # written so that NaN fails both tests
        if not all(-1e-9 <= p <= 1.0 + 1e-9 for p in vals):
            raise ValueError(f"populations outside [0, 1]: {vals}")
        if not abs(sum(vals) - 1.0) <= 1e-9:
            raise ValueError(f"populations do not sum to 1: {vals}")

    def __iter__(self):
        yield self.p1
        yield self.p2
        yield self.p3
        yield self.p4


# A channel's rates are summed, doubled and multiplied in pairs. Where their
# sum passes 2**_TOP_EXPONENT (only at temperatures or couplings near the
# float ceiling) they are first divided by the least power of two that brings
# the largest, a down rate, below it, so that the sum of all four, doubled,
# stays finite. A power of two divides exactly in binary: ratios of rates,
# hence the populations, are unchanged, and the heat current is multiplied
# back by the same power. Inputs below the ceiling take no rescaling at all.
# Where omega times a product of two rates still overflows, the current is
# formed as in _over_sum instead, which forms no such product.
_TOP_EXPONENT = 1020
_RATE_CEILING = 2.0 ** _TOP_EXPONENT


def _rescaled(ops, ld, lu, rd, ru):
    # the rates over that power of two, and the power
    scale = ops.ldexp(1.0, ops.maximum(ops.frexp(ops.maximum(ld, rd))[1] - _TOP_EXPONENT, 0))
    return ld / scale, lu / scale, rd / scale, ru / scale, scale


def _over_sum(ops, omega, ld, lu, rd, ru, twice_sum):
    # omega (lu rd - ld ru) / twice_sum with each product formed as its larger
    # rate over twice_sum (at most 1/2) times its smaller rate: nothing
    # overflows unless the term itself does, and no rate is divided down
    # towards zero
    hi, lo = ops.maximum, ops.minimum
    return omega * (hi(lu, rd) / twice_sum * lo(lu, rd) - hi(ld, ru) / twice_sum * lo(ld, ru))


def _channel_current(ops, omega, ld, lu, rd, ru):
    # one channel's term of heat_current, and its rates as the term was
    # formed (rescaled where they pass the ceiling); no rates give 0
    total, scale = lu + rd + ld + ru, None
    if ops.top(total) > _RATE_CEILING:
        ld, lu, rd, ru, scale = _rescaled(ops, ld, lu, rd, ru)
        total = lu + rd + ld + ru
    twice_sum = 2.0 * total
    j = ops.quotient(omega * (lu * rd - ld * ru), twice_sum,
                     _over_sum, ops, omega, ld, lu, rd, ru, twice_sum)
    return (ld, lu, rd, ru), j if scale is None else j * scale


def _sides(a_inverted, ld_a, lu_a, rd_a, ru_a, ld_b, lu_b, rd_b, ru_b):
    # W12 and W13, the total rates into the side of channel a and of channel
    # b that holds state 1, each with its channel's total rate
    down_a, up_a = ld_a + rd_a, lu_a + ru_a
    w12, w21 = (up_a, down_a) if a_inverted else (down_a, up_a)
    w13 = ld_b + rd_b
    return w12, w12 + w21, w13, w13 + (lu_b + ru_b)


def _product_state(w12, da, w13, db):
    # P1..P4 of two independent channels, da and db nonzero
    fa = w12 / da  # weight of the channel-a side containing state 1
    fb = w13 / db  # weight of the channel-b side containing state 1
    return fa * fb, (1.0 - fa) * fb, fa * (1.0 - fb), (1.0 - fa) * (1.0 - fb)


def channel_rates(params: SystemParams, left: BathSpec, right: BathSpec) -> RateSet:
    """Assemble both channels' rates from the two reservoir specifications.

    Channel a uses the gap |kappa - epsilon| with up/down oriented by the
    sign of kappa - epsilon; channel b uses kappa + epsilon.
    """
    gap_a = abs(params.kappa - params.epsilon)
    gap_b = params.kappa + params.epsilon
    la_down, la_up = rate_pair(left, gap_a)
    ra_down, ra_up = rate_pair(right, gap_a)
    lb_down, lb_up = rate_pair(left, gap_b)
    rb_down, rb_up = rate_pair(right, gap_b)
    return RateSet(
        a=ChannelRates(gap_a, la_down, la_up, ra_down, ra_up),
        b=ChannelRates(gap_b, lb_down, lb_up, rb_down, rb_up),
        a_inverted=params.epsilon > params.kappa,
    )


def steady_populations(rates: RateSet) -> Populations:
    """Closed-form stationary populations; normalized by construction."""
    scaled = ()
    for ch in (rates.a, rates.b):
        channel = ch.left_down, ch.left_up, ch.right_down, ch.right_up
        if (channel[0] + channel[2]) + (channel[1] + channel[3]) > _RATE_CEILING:
            channel = _rescaled(_FLOATS, *channel)[:4]
        scaled += channel
    w12, da, w13, db = _sides(rates.a_inverted, *scaled)
    if da == 0.0 or db == 0.0:
        raise NonUniqueSteadyStateError(
            "a channel carries no rates; the stationary state is not unique"
        )
    return Populations(*_product_state(w12, da, w13, db))


def heat_current(rates: RateSet) -> float:
    """Steady-state heat current J_L out of the left reservoir.

    Sum over the two channels c of

        omega_c (kL_up kR_down - kL_down kR_up)
        / (2 [kL_up + kR_down + kL_down + kR_up]),

    with omega_c the channel's gap, :attr:`ChannelRates.omega`. Positive
    values mean heat flows from the left bath into the system; a channel
    with no rates contributes its limit value 0. The expression is written
    in down/up form, which makes it valid for either sign of
    kappa - epsilon.
    """
    total = 0.0
    for ch in (rates.a, rates.b):
        total += _channel_current(_FLOATS, ch.omega, ch.left_down, ch.left_up,
                                  ch.right_down, ch.right_up)[1]
    return total


def transport_kernel(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float,
    gamma_right: float,
    t_left: np.ndarray,
    t_right: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Rates and heat current over a grid of temperature pairs.

    ``t_left`` and ``t_right`` are equal-length float arrays of validated
    temperatures (finite, >= 0). Returns ``(rates, j_left)``: ``rates`` is
    a tuple of eight arrays, the :class:`ChannelRates` fields (left_down,
    left_up, right_down, right_up) of channel a, then of channel b, and
    ``j_left`` is :func:`heat_current` at each point. Where a channel's
    rates sum past 2**1020 they are returned divided by the power of two
    that :func:`heat_current` divides them by, which leaves every ratio
    of rates, and so the populations, exact. Raises ``ValueError``
    where the current is not finite.
    """
    rates = ()
    j = np.zeros(t_left.size)
    with np.errstate(all="ignore"):
        for omega in (abs(params.kappa - params.epsilon), params.kappa + params.epsilon):
            x_left, x_right = omega / t_left, omega / t_right
            ld, lu = _rates(_ARRAYS, kind, gamma_left, x_left, _ARRAYS.occupation(kind, x_left))
            rd, ru = _rates(_ARRAYS, kind, gamma_right, x_right,
                            _ARRAYS.occupation(kind, x_right))
            channel, j_channel = _channel_current(_ARRAYS, omega, ld, lu, rd, ru)
            rates += channel
            j += j_channel
    bad = ~np.isfinite(j)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"heat current is not finite at T_L = {float(t_left[i])}, "
            f"T_R = {float(t_right[i])}"
        )
    return rates, j
