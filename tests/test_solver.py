import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import gaps, gibbs_populations, random_system
from oracles import hamiltonian_route
from qjunction import BathKind, NonUniqueSteadyStateError, SystemParams, solve_point
from qjunction.solver import _check_populations, transport_kernel

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


def gibbs_reference(eps, kap, temperature):
    """Gibbs populations of the energies (-kappa, -epsilon, epsilon, kappa) at
    T, and C = 2 (sinh(kappa/T) - 1)/Z where positive, with mpmath at 50 digits."""
    with mp.workdps(50):
        e, k, t = mp.mpf(eps), mp.mpf(kap), mp.mpf(temperature)
        weights = [mp.exp(-energy / t) for energy in (-k, -e, e, k)]
        z = mp.fsum(weights)
        return [w / z for w in weights], max(2 * (mp.sinh(k / t) - 1) / z, 0)


def rates_at(params, kind, gl, gr, tl, tr):
    """Channel a's and channel b's (left_down, left_up, right_down, right_up)."""
    rates, _ = transport_kernel(params, kind, gl, gr, tl, tr)
    return rates[:4], rates[4:]


def pops_at(params, kind, gl, gr, tl, tr):
    return np.array(solve_point(params, kind, gl, gr, tl, tr)[2:6])


def current_at(params, kind, gl, gr, tl, tr):
    return solve_point(params, kind, gl, gr, tl, tr).heat_current


class TestChannelRates:
    def test_nonequilibrium_excitation_rates(self):
        a, b = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        assert a[1] == pytest.approx(K_UP_A_L, rel=1e-13)
        assert a[3] == pytest.approx(K_UP_A_R, rel=1e-13)
        assert b[1] == pytest.approx(K_UP_B_L, rel=1e-13)
        assert b[3] == pytest.approx(K_UP_B_R, rel=1e-13)
        omega_a, omega_b, inverted = gaps(PARAMS)
        assert omega_a == pytest.approx(0.8, abs=0)
        assert omega_b == pytest.approx(1.2, abs=0)
        assert not inverted

    def test_runtime_high_precision_cross_check(self):
        mp.mp.dps = 40
        a, b = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        for omega, got in ((0.8, a[1]), (1.2, b[1])):
            expect = float(1 / mp.expm1(mp.mpf(omega) / mp.mpf("1.5")))
            assert got == pytest.approx(expect, rel=1e-14)

    def test_equal_temperature_detailed_balance(self):
        for (ld, lu, rd, ru), omega in zip(
                rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5), (0.8, 1.2)):
            assert (ld + rd) / (lu + ru) == pytest.approx(math.exp(omega / 0.5), rel=1e-12)

    def test_decoupled_right_bath(self):
        solo = rates_at(PARAMS, BathKind.BOSON, 1.0, 0.0, 1.5, 0.5)
        paired = rates_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        for channel, coupled in zip(solo, paired):
            assert channel[:2] == coupled[:2]
            assert channel[2:] == (0.0, 0.0)

    def test_inverted_channel_orientation(self):
        # epsilon > kappa: the rate 2 -> 1 is an excitation across gap 0.8
        inv = SystemParams(1.0, 0.2)
        assert gaps(inv)[2]
        ld, lu, rd, ru = rates_at(inv, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)[0]
        w21 = ld + rd  # 1 -> 2 relaxes to the ground state |2>
        w12 = lu + ru
        assert w21 / w12 == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)
        p1, p2, _, _ = pops_at(inv, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        assert p2 / p1 == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)

    def test_degenerate_gap_propagates(self):
        with pytest.raises(ValueError):
            rates_at(SystemParams(0.5, 0.5), BathKind.BOSON, 1.0, 1.0, 1.0, 1.0)


class TestSteadyPopulations:
    def test_equilibrium_is_gibbs_both_kinds(self):
        for kind in BathKind:
            for gl, gr in ((1.0, 1.0), (1.0, 0.05), (20.0, 1.0)):
                pops = pops_at(PARAMS, kind, gl, gr, 0.5, 0.5)
                assert_allclose(pops, gibbs_populations(PARAMS, 0.5), atol=1e-12)

    def test_equilibrium_against_50_digit_gibbs_state(self):
        # every population relative to its Gibbs weight (where the weight
        # passes 1e-300), and C against 2 (sinh(kappa/T) - 1)/Z, down to
        # T = 0.01 and close to the degenerate splitting; weights formed as
        # 1 - f read P3 = P4 = 0.0 at epsilon = 0.99, T = 0.05, not 2.9e-18
        # and 2.3e-18, and C 2.3e-9 off
        worst_p = worst_c = 0.0
        for eps in (0.2, 0.9, 0.99, 0.999):
            for t in np.linspace(0.01, 3.0, 60).tolist():
                gibbs, conc = gibbs_reference(eps, 1.0, t)
                for kind in BathKind:
                    row = solve_point(SystemParams(eps, 1.0), kind, 1.0, 0.3, t, t)
                    worst_p = max([worst_p] + [abs(p / g - 1) for p, g in zip(row[2:6], gibbs)
                                               if g > 1e-300])
                    worst_c = max(worst_c, abs(row.concurrence - conc))
        print(f"480 equilibria: populations {float(worst_p):.1e} relative, "
              f"concurrence {float(worst_c):.1e}")
        assert worst_p <= 1e-13 and worst_c <= 1e-15

    def test_gibbs_frozen_value(self):
        pops = pops_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        assert_allclose(pops, GIBBS_05, rtol=1e-12)

    def test_equilibrium_is_gibbs_when_inverted(self):
        inv = SystemParams(epsilon=1.0, kappa=0.2)
        for kind in BathKind:
            pops = pops_at(inv, kind, 1.0, 0.3, 0.3, 0.3)
            assert_allclose(pops, gibbs_populations(inv, 0.3), atol=1e-12)

    def test_infinite_temperature_limit(self):
        pops = pops_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1e8, 1e8)
        assert_allclose(pops, 0.25, atol=1e-7)

    def test_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            params = random_system(rng)
            pops = pops_at(params, BathKind.SPIN, rng.uniform(0.1, 2), rng.uniform(0.1, 2),
                           rng.uniform(0.05, 3), rng.uniform(0.05, 3))
            assert sum(pops) == pytest.approx(1.0, abs=1e-12)

    def test_zero_temperature_ground_state(self):
        pops = pops_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
        assert tuple(pops) == (1.0, 0.0, 0.0, 0.0)

    def test_frozen_channel_is_an_error(self):
        with pytest.raises(NonUniqueSteadyStateError):
            pops_at(PARAMS, BathKind.BOSON, 0.0, 0.0, 1.0, 1.0)

    def test_stalled_channel_of_numpy_couplings_is_an_error(self):
        # spin rates of couplings 5e-324 at T = 1e308 round to 0 on both channels,
        # and the current is a finite 0; numpy scalars must not turn the 0/0 of
        # the weights into NaN populations
        g = np.float64(5e-324)
        with pytest.raises(NonUniqueSteadyStateError):
            solve_point(PARAMS, BathKind.SPIN, g, g, 1e308, 1e308)


class TestRateMatrix:
    def test_single_bath_kernel_is_gibbs(self):
        # an uncoupled right bath leaves the left one to thermalize the junction
        pops = pops_at(PARAMS, BathKind.BOSON, 1.0, 0.0, 0.7, 0.3)
        assert_allclose(pops, gibbs_populations(PARAMS, 0.7), atol=1e-12)
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
            row = solve_point(params, kind, *args)
            route, current = hamiltonian_route(params.epsilon, params.kappa, kind.value, *args)
            assert_allclose(np.array(row[2:6]), route, atol=1e-12)
            assert row.heat_current == pytest.approx(current, abs=1e-12)

    def test_symmetric_hot_rates(self):
        route, _ = hamiltonian_route(0.2, 1.0, "spin", 1.0, 1.0, 1e9, 1e9)
        for pops in (pops_at(PARAMS, BathKind.SPIN, 1.0, 1.0, 1e9, 1e9), route):
            assert_allclose(pops, 0.25, atol=1e-8)


class TestHeatCurrent:
    def test_reference_value(self):
        assert current_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5) == pytest.approx(
            J_REFERENCE, abs=1e-12)

    def test_equilibrium_current_vanishes(self):
        for kind in BathKind:
            # equal couplings cancel term by term, exactly in floating point
            assert current_at(PARAMS, kind, 1.0, 1.0, 0.8, 0.8) == 0.0
            for gl, gr in ((1.0, 0.05), (5.0, 0.2)):
                assert abs(current_at(PARAMS, kind, gl, gr, 0.8, 0.8)) < 1e-14

    def test_swap_antisymmetry(self):
        forward = current_at(PARAMS, BathKind.BOSON, 1.3, 0.4, 1.5, 0.5)
        reverse = current_at(PARAMS, BathKind.BOSON, 0.4, 1.3, 0.5, 1.5)
        assert reverse == pytest.approx(-forward, rel=1e-12)

    def test_scale_covariance(self):
        scale = 3.7
        base = solve_point(PARAMS, BathKind.SPIN, 0.8, 0.3, 2.0, 0.4)
        scaled = solve_point(PARAMS, BathKind.SPIN, 0.8 * scale, 0.3 * scale, 2.0, 0.4)
        assert_allclose(np.array(scaled[2:6]), np.array(base[2:6]), rtol=1e-12)
        assert scaled.heat_current == pytest.approx(scale * base.heat_current, rel=1e-12)

    def test_second_law_spot_checks(self):
        for kind in BathKind:
            hot_left = current_at(PARAMS, kind, 1.0, 0.3, 2.0, 0.1)
            hot_right = current_at(PARAMS, kind, 1.0, 0.3, 0.1, 2.0)
            assert hot_left > 0.0
            assert hot_right < 0.0

    def test_dead_channels_contribute_zero(self):
        # no channel carries rates, so no steady state: the current alone
        _, current = transport_kernel(PARAMS, BathKind.BOSON, 0.0, 0.0, 1.0, 0.5)
        assert current == 0.0


class TestTransportKernel:
    # the float entry point to a point's rates and current checks what solve_point checks

    @pytest.mark.parametrize("gl, gr, tl, tr", [
        (-1.0, 1.0, 1.0, 1.0), (math.inf, 1.0, 1.0, 1.0), (1.0, math.nan, 1.0, 1.0),
        (1.0, 1.0, -0.5, 1.0), (1.0, 1.0, 1.0, math.inf),
        (1e200, 1.0, 1e308, 0.5),  # boson rates overflow, so the current is not finite
    ])
    def test_raises_what_solve_point_raises(self, gl, gr, tl, tr):
        with pytest.raises(ValueError) as kernel:
            transport_kernel(PARAMS, BathKind.BOSON, gl, gr, tl, tr)
        with pytest.raises(ValueError) as point:
            solve_point(PARAMS, BathKind.BOSON, gl, gr, tl, tr)
        assert (type(kernel.value), str(kernel.value)) == (type(point.value), str(point.value))

    @pytest.mark.parametrize("kind", list(BathKind))
    def test_gives_solve_points_current_as_floats(self, kind):
        rates, current = transport_kernel(PARAMS, kind, 1.3, 0.4, 1.5, 0.5)
        assert len(rates) == 8 and all(type(rate) is float for rate in rates)
        assert current == solve_point(PARAMS, kind, 1.3, 0.4, 1.5, 0.5).heat_current


class TestPopulationsType:
    # the check a single point's populations pass before its measures are formed

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="outside"):
            _check_populations((-0.1, 0.5, 0.3, 0.3))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="do not sum to 1"):
            _check_populations((0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("position", range(4))
    def test_rejects_nan_in_any_position(self, position):
        # NaN compares false both ways, so it fails the range test
        pops = [0.25] * 4
        pops[position] = math.nan
        with pytest.raises(ValueError, match="outside"):
            _check_populations(tuple(pops))
