import math

import mpmath as mp
import numpy as np
import pytest

from qjunction import BathKind, SystemParams, solve_point
from qjunction.baths import _FLOATS, _occupation, _rates

PARAMS = SystemParams(epsilon=0.2, kappa=1.0)

# arbitrary-precision evaluations of the closed forms (mpmath, 40 digits):
#   1/(exp(0.8/1.5) - 1), 1/(exp(0.8/0.5) - 1)
N_B_08_15 = 1.4192351617412369
N_B_08_05 = 0.2529703510218533


def occupation(kind: BathKind, omega: float, temperature: float) -> float:
    # the occupation is the up rate of a bath of unit coupling
    return rate_pair(kind, 1.0, temperature, omega)[1]


def rate_pair(kind: BathKind, gamma: float, temperature: float, omega: float):
    return _rates(kind, gamma, *_FLOATS.occupation(kind, gamma, omega, temperature))


def mp_occupation(kind: BathKind, omega, temperature):
    mp.mp.dps = 40
    x = mp.mpf(omega) / mp.mpf(temperature)
    if kind is BathKind.BOSON:
        return 1 / mp.expm1(x)
    return 1 / (mp.exp(x) + 1)


class TestOccupation:
    def test_boson_zero_temperature(self):
        assert occupation(BathKind.BOSON, 0.8, 0.0) == 0.0
        assert occupation(BathKind.SPIN, 0.8, 0.0) == 0.0

    def test_spin_infinite_temperature_limit(self):
        assert occupation(BathKind.SPIN, 0.8, 1e12) == pytest.approx(0.5, abs=1e-9)

    def test_boson_value_against_high_precision(self):
        got = occupation(BathKind.BOSON, 0.8, 1.5)
        assert got == pytest.approx(N_B_08_15, rel=1e-14)
        assert got == pytest.approx(float(mp_occupation(BathKind.BOSON, "0.8", "1.5")),
                                    rel=1e-14)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            solve_point(PARAMS, BathKind.SPIN, 1.0, 1.0, -0.1, 1.0)

    def test_exponent_clamp(self):
        # below x = 709.78, where e^x overflows, the occupation keeps its value on
        # floats and on arrays, down to subnormals; past it, both give the
        # zero-temperature limit 0.0
        for kind in BathKind:
            with np.errstate(all="ignore"):  # as on every grid: e^800 overflows to inf
                grid, _ = _occupation(kind, np.array([705.0, 709.7, 800.0]))
            for x, on_grid in zip((705.0, 709.7), grid):
                exact = float(mp_occupation(kind, x, 1.0))
                assert occupation(kind, x, 1.0) == pytest.approx(exact, rel=1e-14, abs=0.0)
                assert on_grid == pytest.approx(exact, rel=1e-14, abs=0.0)
            assert occupation(kind, 800.0, 1.0) == 0.0
            assert grid[-1] == 0.0


class TestRatePair:
    def test_boson_values(self):
        down, up = rate_pair(BathKind.BOSON, 1.0, 1.5, 0.8)
        assert up == pytest.approx(N_B_08_15, rel=1e-14)
        assert down == pytest.approx(N_B_08_15 + 1.0, rel=1e-14)

    def test_decoupled_bath(self):
        for kind in BathKind:
            assert rate_pair(kind, 0.0, 1.3, 0.7) == (0.0, 0.0)

    def test_spin_zero_temperature_relaxes_only(self):
        down, up = rate_pair(BathKind.SPIN, 1.0, 0.0, 0.8)
        assert (down, up) == (1.0, 0.0)
        down, up = rate_pair(BathKind.SPIN, 1.0, 1e-6, 0.8)
        assert down == pytest.approx(1.0, abs=1e-12)
        assert up == 0.0  # e^{omega/T} overflows, and the excitation is 0

    def test_detailed_balance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            kind = BathKind.BOSON if rng.random() < 0.5 else BathKind.SPIN
            gamma = rng.uniform(0.01, 3.0)
            omega = rng.uniform(0.05, 3.0)
            temp = rng.uniform(0.02, 5.0)
            down, up = rate_pair(kind, gamma, temp, omega)
            assert down / up == pytest.approx(math.exp(omega / temp), rel=1e-12)

    def test_excitation_monotone_in_temperature(self):
        for kind in BathKind:
            ups = [rate_pair(kind, 1.0, t, 0.9)[1]
                   for t in np.linspace(0.01, 6.0, 60)]
            assert all(b >= a for a, b in zip(ups, ups[1:]))

    def test_boson_sum_rule(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            gamma = rng.uniform(0.01, 3.0)
            down, up = rate_pair(BathKind.BOSON, gamma, rng.uniform(0.05, 5.0),
                                 rng.uniform(0.05, 3.0))
            assert down - up == pytest.approx(gamma, rel=1e-12)

    def test_spin_rate_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            gamma = rng.uniform(0.01, 3.0)
            down, up = rate_pair(BathKind.SPIN, gamma, rng.uniform(0.02, 5.0),
                                 rng.uniform(0.05, 3.0))
            assert up <= gamma / 2.0 <= down
        down, up = rate_pair(BathKind.SPIN, 1.0, 1e9, 0.5)
        assert up == pytest.approx(0.5, abs=1e-9)
        assert down == pytest.approx(0.5, abs=1e-9)


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
