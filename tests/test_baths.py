"""A bath as y = tanh(omega/2T) at a gap, read through the weights of a channel.

A channel with one bath coupled is in that bath's Gibbs state: its up side
has weight g = ybar/2 = e^{-x}/(1 + e^{-x}), its down side f = 1 - g, and
f - g = y, for either bath kind (``solver._channel``). The references are
mpmath at 40 digits.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from qjunction import BathKind, SystemParams, solve_point
from qjunction.baths import _FLOATS, _arrays
from qjunction.solver import _channel

PARAMS = SystemParams(epsilon=0.2, kappa=1.0)

# arbitrary-precision evaluations (mpmath, 40 digits) at omega = 0.8, T = 1.5:
#   tanh(0.8/3), and 1/(exp(0.8/1.5) + 1), the up side's weight
Y_08_15 = 0.2605204458355026
G_08_15 = 0.36973977708224867


def weights(kind, gamma, omega, temperature, ops=_FLOATS, other=0.0, t_other=0.0):
    """(f, g) of a channel of gap omega whose left bath has coupling gamma at the
    temperature, beside a right bath of coupling ``other`` at ``t_other``."""
    (f, g), _ = _channel(ops, kind, gamma, other, omega, temperature, t_other)
    return f, g


def mp_up_weight(omega, temperature):
    mp.mp.dps = 40
    return 1 / (mp.exp(mp.mpf(omega) / mp.mpf(temperature)) + 1)


class TestBath:
    def test_zero_temperature(self):
        # a bath at T = 0 has y = 1 and ybar = 0: the channel relaxes only
        for kind in BathKind:
            assert weights(kind, 1.0, 0.8, 0.0) == (1.0, 0.0)
            assert weights(kind, 1.0, 0.8, 1e-6) == (1.0, 0.0)  # e^{omega/T} overflows

    def test_infinite_temperature_limit(self):
        for kind in BathKind:
            f, g = weights(kind, 1.0, 0.8, 1e12)
            assert f == pytest.approx(0.5, abs=1e-9) and g == pytest.approx(0.5, abs=1e-9)

    def test_values_against_high_precision(self):
        for kind in BathKind:
            f, g = weights(kind, 1.0, 0.8, 1.5)
            assert g == pytest.approx(G_08_15, rel=1e-14)
            assert g == pytest.approx(float(mp_up_weight("0.8", "1.5")), rel=1e-14)
            assert f - g == pytest.approx(Y_08_15, rel=1e-14)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            solve_point(PARAMS, BathKind.SPIN, 1.0, 1.0, -0.1, 1.0)

    def test_exponent_clamp(self):
        # below x = 709.78, where e^x overflows, ybar keeps its value on floats and on
        # arrays, down to subnormals; past it, both give the zero-temperature limit 0.0
        gaps = np.array([705.0, 709.7, 800.0])
        for kind in BathKind:
            with np.errstate(all="ignore"):  # as on every grid: e^800 overflows to inf
                _, grid = weights(kind, 1.0, gaps, np.ones(3), _arrays(), t_other=np.zeros(3))
            for x, on_grid in zip(gaps[:2].tolist(), grid):
                exact = float(mp_up_weight(x, 1.0))
                assert weights(kind, 1.0, x, 1.0)[1] == pytest.approx(exact, rel=1e-14, abs=0.0)
                assert on_grid == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert weights(kind, 1.0, 800.0, 1.0)[1] == 0.0
            assert grid[-1] == 0.0

    def test_decoupled_bath_stands_in_as_zero_temperature(self):
        # an uncoupled bath adds nothing, whatever its temperature: the other bath's
        # Gibbs weights, and no current
        for kind in BathKind:
            alone = weights(kind, 1.3, 0.7, 1.0)
            for t_other in (0.0, 0.4, 1e300):
                (f, g), j = _channel(_FLOATS, kind, 1.3, 0.0, 0.7, 1.0, t_other)
                assert (f, g) == alone and j == 0.0
                (f, g), j = _channel(_FLOATS, kind, 0.0, 1.3, 0.7, t_other, 1.0)
                assert (f, g) == alone and j == 0.0

    def test_equal_temperatures_give_gibbs_weights(self):
        # detailed balance: at T_L = T_R, g/f = e^{-omega/T} for any couplings
        rng = np.random.default_rng(3)
        for _ in range(200):
            kind = BathKind.BOSON if rng.random() < 0.5 else BathKind.SPIN
            gl, gr = rng.uniform(0.01, 3.0, 2)
            omega, temp = rng.uniform(0.05, 3.0), rng.uniform(0.02, 5.0)
            f, g = weights(kind, gl, omega, temp, other=gr, t_other=temp)
            assert g / f == pytest.approx(math.exp(-omega / temp), rel=1e-12)

    def test_excitation_monotone_in_temperature(self):
        for kind in BathKind:
            ups = [weights(kind, 1.0, 0.9, t)[1] for t in np.linspace(0.01, 6.0, 60)]
            assert all(b >= a for a, b in zip(ups, ups[1:]))

    def test_polarization_is_tanh(self):
        # a single bath of either kind polarizes its channel to f - g = y = tanh(x/2)
        rng = np.random.default_rng(8)
        for _ in range(100):
            kind = BathKind.BOSON if rng.random() < 0.5 else BathKind.SPIN
            omega, temp = rng.uniform(0.05, 3.0), rng.uniform(0.05, 5.0)
            f, g = weights(kind, rng.uniform(0.01, 3.0), omega, temp)
            assert f - g == pytest.approx(math.tanh(omega / (2.0 * temp)), rel=1e-12)

    def test_weight_bounds(self):
        # the up side never outweighs the down side: g <= 1/2 <= f, for any two baths
        rng = np.random.default_rng(9)
        for _ in range(100):
            kind = BathKind.BOSON if rng.random() < 0.5 else BathKind.SPIN
            gl, gr = rng.uniform(0.01, 3.0, 2)
            tl, tr = rng.uniform(0.02, 5.0, 2)
            f, g = weights(kind, gl, rng.uniform(0.05, 3.0), tl, other=gr, t_other=tr)
            assert 0.0 <= g <= 0.5 <= f <= 1.0
        f, g = weights(BathKind.SPIN, 1.0, 0.5, 1e9)
        assert g == pytest.approx(0.5, abs=1e-9) and f == pytest.approx(0.5, abs=1e-9)


class TestBathSpec:
    # each bath's coupling and temperature, as solve_point checks them

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma must be >= 0, got -1.0"):
            solve_point(PARAMS, BathKind.BOSON, -1.0, 1.0, 1.0, 1.0)

    def test_rejects_infinite_gamma_by_name(self):
        with pytest.raises(ValueError, match="gamma must be finite, got inf"):
            solve_point(PARAMS, BathKind.BOSON, math.inf, 1.0, 1.0, 1.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            solve_point(PARAMS, BathKind.SPIN, 1.0, 1.0, 1.0, -0.5)
