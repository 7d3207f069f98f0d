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

:func:`transport_kernel` is the array form of :func:`channel_rates` plus
:func:`heat_current` over whole temperature grids; the scalar functions
remain the reference it is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .baths import _X_CLAMP, BathKind, BathSpec, rate_pair
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

    def as_array(self) -> np.ndarray:
        return np.array(tuple(self))


# A channel's rates are summed, doubled and multiplied in pairs. Where their
# sum passes 2**_TOP_EXPONENT (only at temperatures or couplings near the
# float ceiling) they are first divided by the least power of two that brings
# the largest, a down rate, below it, so that the sum of all four, doubled,
# stays finite. A power of two divides exactly in binary: ratios of rates,
# hence the populations, are unchanged, and the heat current is multiplied
# back by the same power. Inputs below the ceiling take no rescaling at all.
# Where omega times a product of two rates still overflows, the current is
# formed as in _term_over_sum instead, which forms no such product.
_TOP_EXPONENT = 1020
_RATE_CEILING = 2.0 ** _TOP_EXPONENT


def _rescaled(ld: float, lu: float, rd: float, ru: float):
    # (ld, lu, rd, ru) over that power of two, and the power
    scale = 2.0 ** max(math.frexp(max(ld, rd))[1] - _TOP_EXPONENT, 0)
    return ld / scale, lu / scale, rd / scale, ru / scale, scale


def _summed(ch: ChannelRates) -> tuple[float, float, float]:
    # the channel's down and up rates summed over both baths, and their total,
    # rescaled if need be
    down = ch.left_down + ch.right_down
    up = ch.left_up + ch.right_up
    total = down + up
    if total > _RATE_CEILING:
        ld, lu, rd, ru, _ = _rescaled(ch.left_down, ch.left_up, ch.right_down, ch.right_up)
        down, up = ld + rd, lu + ru
        total = down + up
    return down, up, total


def _rescaled_arrays(ld, lu, rd, ru):
    # _rescaled elementwise, for the grid kernel
    scale = np.ldexp(1.0, np.maximum(np.frexp(np.maximum(ld, rd))[1] - _TOP_EXPONENT, 0))
    return ld / scale, lu / scale, rd / scale, ru / scale, scale


def _term_over_sum(omega, ld, lu, rd, ru, twice_sum):
    # omega (lu rd - ld ru) / twice_sum with each product formed as its larger
    # rate over twice_sum (at most 1/2) times its smaller rate, for floats or
    # arrays: nothing overflows unless the term itself does, and no rate is
    # divided down towards zero
    hi, lo = np.maximum, np.minimum
    return omega * (hi(lu, rd) / twice_sum * lo(lu, rd) - hi(ld, ru) / twice_sum * lo(ld, ru))


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
    down_a, up_a, da = _summed(rates.a)
    w12, w21 = (up_a, down_a) if rates.a_inverted else (down_a, up_a)
    w13, w31, db = _summed(rates.b)
    if da == 0.0 or db == 0.0:
        raise NonUniqueSteadyStateError(
            "a channel carries no rates; the stationary state is not unique"
        )
    fa = w12 / da  # weight of the channel-a side containing state 1
    fb = w13 / db  # weight of the channel-b side containing state 1
    return Populations(
        p1=fa * fb,
        p2=(1.0 - fa) * fb,
        p3=fa * (1.0 - fb),
        p4=(1.0 - fa) * (1.0 - fb),
    )


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
        ld, lu, rd, ru, scale = ch.left_down, ch.left_up, ch.right_down, ch.right_up, 1.0
        denom = lu + rd + ld + ru
        if denom > _RATE_CEILING:
            ld, lu, rd, ru, scale = _rescaled(ld, lu, rd, ru)
            denom = lu + rd + ld + ru
        if denom == 0.0:
            continue
        term = ch.omega * (lu * rd - ld * ru) / (2.0 * denom)
        if not math.isfinite(term):
            with np.errstate(all="ignore"):  # rates that overflow on their own give NaN
                term = float(_term_over_sum(ch.omega, ld, lu, rd, ru, 2.0 * denom))
        total += term * scale
    return total


def _rate_arrays(kind: BathKind, gamma: float, omega: float, t: np.ndarray):
    # rate_pair over an array of temperatures, with the same limits: T = 0
    # gives omega/T = inf, which takes the clamp branch (n = 0, down = gamma)
    if gamma == 0.0:
        zero = np.zeros_like(t)
        return zero, zero
    x = omega / t
    cold = x > _X_CLAMP
    if kind is BathKind.BOSON:
        n = 1.0 / np.expm1(x)
        n[cold] = 0.0
        return gamma * (n + 1.0), gamma * n
    n = 1.0 / (np.exp(x) + 1.0)
    n[cold] = 0.0
    return gamma / (np.exp(-x) + 1.0), gamma * n


def _channel_current(omega: float, ld, lu, rd, ru):
    # one channel's term of heat_current, and its rates as the kernel passes
    # them on: rescaled where they pass the ceiling; a channel with no rates
    # gives 0
    denom = lu + rd + ld + ru
    scale = None
    if denom.max(initial=0.0) > _RATE_CEILING:
        ld, lu, rd, ru, scale = _rescaled_arrays(ld, lu, rd, ru)
        denom = lu + rd + ld + ru
    j = omega * (lu * rd - ld * ru) / (2.0 * denom)
    over = ~np.isfinite(j)
    if over.any():
        j[over] = _term_over_sum(omega, ld[over], lu[over], rd[over], ru[over],
                                 2.0 * denom[over])
    if scale is not None:
        j *= scale
    j[denom == 0.0] = 0.0
    return (ld, lu, rd, ru), j


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
            ld, lu = _rate_arrays(kind, gamma_left, omega, t_left)
            rd, ru = _rate_arrays(kind, gamma_right, omega, t_right)
            channel, j_channel = _channel_current(omega, ld, lu, rd, ru)
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
