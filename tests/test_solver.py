import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import gibbs_populations, random_system
from oracles import hamiltonian_route
from qjunction import (
    BathKind,
    BathSpec,
    NonUniqueSteadyStateError,
    Populations,
    SystemParams,
    channel_rates,
    heat_current,
    steady_populations,
)

PARAMS = SystemParams(epsilon=0.2, kappa=1.0)

# frozen high-precision evaluations (mpmath, 40 digits) of the Bose factors
# at the two channel gaps for (T_L, T_R) = (1.5, 0.5)
K_UP_A_L = 1.4192351617412369   # 1/(exp(0.8/1.5) - 1)
K_UP_A_R = 0.2529703510218533   # 1/(exp(0.8/0.5) - 1)
K_UP_B_L = 0.8159662209160942   # 1/(exp(1.2/1.5) - 1)
K_UP_B_R = 0.09976877209617538  # 1/(exp(1.2/0.5) - 1)

# Gibbs weights e^{-E_n/0.5} / Z for energies (-1, -0.2, 0.2, 1)
GIBBS_05 = (
    0.7628171725098172,
    0.15401013099626046,
    0.06920121262410731,
    0.013971483869815057,
)

# two-channel current at (T_L, T_R) = (1.5, 0.5), boson baths, unit couplings;
# evaluated independently with mpmath from the Bose factors above
J_REFERENCE = 0.19944354433419976


def boson_pair(gamma, temperature):
    return BathSpec(BathKind.BOSON, gamma, temperature)


def spin_pair(gamma, temperature):
    return BathSpec(BathKind.SPIN, gamma, temperature)


def rates_at(params, kind, gl, gr, tl, tr):
    return channel_rates(params, BathSpec(kind, gl, tl), BathSpec(kind, gr, tr))


class TestChannelRates:
    def test_nonequilibrium_excitation_rates(self):
        rs = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        assert rs.a.left_up == pytest.approx(K_UP_A_L, rel=1e-13)
        assert rs.a.right_up == pytest.approx(K_UP_A_R, rel=1e-13)
        assert rs.b.left_up == pytest.approx(K_UP_B_L, rel=1e-13)
        assert rs.b.right_up == pytest.approx(K_UP_B_R, rel=1e-13)
        assert rs.a.omega == pytest.approx(0.8, abs=0)
        assert rs.b.omega == pytest.approx(1.2, abs=0)
        assert not rs.a_inverted

    def test_runtime_high_precision_cross_check(self):
        mp.mp.dps = 40
        rs = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        for omega, got in ((0.8, rs.a.left_up), (1.2, rs.b.left_up)):
            expect = float(1 / mp.expm1(mp.mpf(omega) / mp.mpf("1.5")))
            assert got == pytest.approx(expect, rel=1e-14)

    def test_equal_temperature_detailed_balance(self):
        rs = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        for ch, omega in ((rs.a, 0.8), (rs.b, 1.2)):
            down, up = ch.left_down + ch.right_down, ch.left_up + ch.right_up
            assert down / up == pytest.approx(math.exp(omega / 0.5), rel=1e-12)

    def test_decoupled_right_bath(self):
        rs = rates_at(PARAMS, BathKind.BOSON, 1.0, 0.0, 1.5, 0.5)
        solo = channel_rates(PARAMS, boson_pair(1.0, 1.5), boson_pair(0.0, 0.5))
        assert rs == solo
        assert rs.a.right_down == rs.a.right_up == 0.0
        assert rs.b.right_down == rs.b.right_up == 0.0

    def test_inverted_channel_orientation(self):
        # epsilon > kappa: the rate 2 -> 1 is an excitation across gap 0.8
        rs = rates_at(SystemParams(1.0, 0.2), BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        assert rs.a_inverted
        w21 = rs.a.left_down + rs.a.right_down  # 1 -> 2 relaxes to the ground state |2>
        w12 = rs.a.left_up + rs.a.right_up
        assert w21 / w12 == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)
        pops = steady_populations(rs)
        assert pops.p2 / pops.p1 == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)

    def test_degenerate_gap_propagates(self):
        with pytest.raises(ValueError):
            rates_at(SystemParams(0.5, 0.5), BathKind.BOSON, 1.0, 1.0, 1.0, 1.0)


class TestSteadyPopulations:
    def test_equilibrium_is_gibbs_both_kinds(self):
        for kind in BathKind:
            for gl, gr in ((1.0, 1.0), (1.0, 0.05), (20.0, 1.0)):
                pops = steady_populations(rates_at(PARAMS, kind, gl, gr, 0.5, 0.5))
                assert_allclose(pops.as_array(), gibbs_populations(PARAMS, 0.5),
                                atol=1e-12)

    def test_gibbs_frozen_value(self):
        pops = steady_populations(rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5))
        assert_allclose(pops.as_array(), GIBBS_05, rtol=1e-12)

    def test_equilibrium_is_gibbs_when_inverted(self):
        inv = SystemParams(epsilon=1.0, kappa=0.2)
        for kind in BathKind:
            pops = steady_populations(rates_at(inv, kind, 1.0, 0.3, 0.3, 0.3))
            assert_allclose(pops.as_array(), gibbs_populations(inv, 0.3), atol=1e-12)

    def test_infinite_temperature_limit(self):
        pops = steady_populations(rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1e8, 1e8))
        assert_allclose(pops.as_array(), 0.25, atol=1e-7)

    def test_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            params = random_system(rng)
            pops = steady_populations(
                rates_at(params, BathKind.SPIN, rng.uniform(0.1, 2), rng.uniform(0.1, 2),
                         rng.uniform(0.05, 3), rng.uniform(0.05, 3)))
            assert sum(pops) == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_ground_state(self):
        pops = steady_populations(rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0))
        assert tuple(pops) == (1.0, 0.0, 0.0, 0.0)

    def test_frozen_channel_is_an_error(self):
        with pytest.raises(NonUniqueSteadyStateError):
            steady_populations(rates_at(PARAMS, BathKind.BOSON, 0.0, 0.0, 1.0, 1.0))


class TestRateMatrix:
    def test_single_bath_kernel_is_gibbs(self):
        # an uncoupled right bath leaves the left one to thermalize the junction
        pops = steady_populations(rates_at(PARAMS, BathKind.BOSON, 1.0, 0.0, 0.7, 0.3))
        assert_allclose(pops.as_array(), gibbs_populations(PARAMS, 0.7), atol=1e-12)
        route, _ = hamiltonian_route(0.2, 1.0, "boson", 1.0, 0.0, 0.7, 0.3)
        assert_allclose(route, gibbs_populations(PARAMS, 0.7), atol=1e-12)


class TestNullSpaceOracle:
    # the closed form against the Hamiltonian route, which builds its own
    # rates from sigma^x matrix elements and solves the generator's null space

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(29)
        for i in range(100):
            params = random_system(rng)
            kind = BathKind.BOSON if i % 2 else BathKind.SPIN
            args = (rng.uniform(0.02, 2), rng.uniform(0.02, 2),
                    rng.uniform(0.05, 3), rng.uniform(0.05, 3))
            rs = rates_at(params, kind, *args)
            route, current = hamiltonian_route(params.epsilon, params.kappa, kind.value, *args)
            assert_allclose(steady_populations(rs).as_array(), route, atol=1e-12)
            assert heat_current(rs) == pytest.approx(current, abs=1e-12)

    def test_symmetric_hot_rates(self):
        rs = rates_at(PARAMS, BathKind.SPIN, 1.0, 1.0, 1e9, 1e9)
        route, _ = hamiltonian_route(0.2, 1.0, "spin", 1.0, 1.0, 1e9, 1e9)
        for pops in (steady_populations(rs).as_array(), route):
            assert_allclose(pops, 0.25, atol=1e-8)


class TestHeatCurrent:
    def test_reference_value(self):
        rs = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        assert heat_current(rs) == pytest.approx(J_REFERENCE, abs=1e-12)

    def test_equilibrium_current_vanishes(self):
        for kind in BathKind:
            # equal couplings cancel term by term, exactly in floating point
            rs = rates_at(PARAMS, kind, 1.0, 1.0, 0.8, 0.8)
            assert heat_current(rs) == 0.0
            for gl, gr in ((1.0, 0.05), (5.0, 0.2)):
                rs = rates_at(PARAMS, kind, gl, gr, 0.8, 0.8)
                assert abs(heat_current(rs)) < 1e-14

    def test_swap_antisymmetry(self):
        forward = heat_current(
            channel_rates(PARAMS, boson_pair(1.3, 1.5), boson_pair(0.4, 0.5)))
        reverse = heat_current(
            channel_rates(PARAMS, boson_pair(0.4, 0.5), boson_pair(1.3, 1.5)))
        assert reverse == pytest.approx(-forward, rel=1e-12)

    def test_scale_covariance(self):
        scale = 3.7
        base = rates_at(PARAMS, BathKind.SPIN, 0.8, 0.3, 2.0, 0.4)
        scaled = rates_at(PARAMS, BathKind.SPIN, 0.8 * scale, 0.3 * scale, 2.0, 0.4)
        assert_allclose(steady_populations(scaled).as_array(),
                        steady_populations(base).as_array(), rtol=1e-12)
        assert heat_current(scaled) == pytest.approx(
            scale * heat_current(base), rel=1e-12)

    def test_second_law_spot_checks(self):
        for kind in BathKind:
            hot_left = heat_current(rates_at(PARAMS, kind, 1.0, 0.3, 2.0, 0.1))
            hot_right = heat_current(rates_at(PARAMS, kind, 1.0, 0.3, 0.1, 2.0))
            assert hot_left > 0.0
            assert hot_right < 0.0

    def test_dead_channels_contribute_zero(self):
        rs = rates_at(PARAMS, BathKind.BOSON, 0.0, 0.0, 1.0, 0.5)
        assert heat_current(rs) == 0.0


class TestPopulationsType:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Populations(-0.1, 0.5, 0.3, 0.3)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Populations(0.5, 0.5, 0.5, 0.5)

    def test_iterates_in_order(self):
        pops = Populations(0.4, 0.3, 0.2, 0.1)
        assert tuple(pops) == (0.4, 0.3, 0.2, 0.1)
