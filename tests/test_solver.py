import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import gaps, gibbs_populations, random_system
from oracles import hamiltonian_route
from qjunction import BathKind, NonUniqueSteadyStateError, SystemParams, solve_point
from qjunction.solver import transport_kernel

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


def weights_at(params, kind, gl, gr, tl, tr):
    """The steady state's channel weights (fa, ga, fb, gb), as ``transport_kernel`` gives them."""
    weights, _ = transport_kernel(params, kind, gl, gr, tl, tr)
    return weights


def up_weight(n_left, n_right):
    """A channel's up weight between two unit-coupled boson baths of occupations n_L and n_R:
    the up rates' share, (n_L + n_R)/((2 n_L + 1) + (2 n_R + 1))."""
    return (n_left + n_right) / (2 * n_left + 2 * n_right + 2)


def pops_at(params, kind, gl, gr, tl, tr):
    return np.array(solve_point(params, kind, gl, gr, tl, tr)[2:6])


def current_at(params, kind, gl, gr, tl, tr):
    return solve_point(params, kind, gl, gr, tl, tr).heat_current


class TestChannelWeights:
    def test_nonequilibrium_weights(self):
        fa, ga, fb, gb = weights_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        assert ga == pytest.approx(up_weight(K_UP_A_L, K_UP_A_R), rel=1e-13)
        assert gb == pytest.approx(up_weight(K_UP_B_L, K_UP_B_R), rel=1e-13)
        assert fa + ga == pytest.approx(1.0, abs=1e-16) and fb + gb == pytest.approx(1.0, abs=1e-16)
        omega_a, omega_b, inverted = gaps(PARAMS)
        assert omega_a == pytest.approx(0.8, abs=0)
        assert omega_b == pytest.approx(1.2, abs=0)
        assert not inverted

    def test_runtime_high_precision_cross_check(self):
        mp.mp.dps = 40
        _, ga, _, gb = weights_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        for omega, got in ((0.8, ga), (1.2, gb)):
            n_l, n_r = (1 / mp.expm1(mp.mpf(omega) / mp.mpf(t)) for t in ("1.5", "0.5"))
            assert got == pytest.approx(float(up_weight(n_l, n_r)), rel=1e-14)

    def test_equal_temperature_gibbs_weights(self):
        # detailed balance: at T_L = T_R each channel's sides weigh in the ratio e^{omega/T}
        for kind in BathKind:
            fa, ga, fb, gb = weights_at(PARAMS, kind, 1.0, 0.3, 0.5, 0.5)
            assert fa / ga == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)
            assert fb / gb == pytest.approx(math.exp(1.2 / 0.5), rel=1e-12)

    def test_decoupled_right_bath(self):
        # an uncoupled bath stands in as one at T = 0 and adds nothing: the left bath's
        # Gibbs weights at any T_R, and no current
        alone = weights_at(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.5, 1.5)
        for tr in (0.0, 0.5, 1e300):
            weights, current = transport_kernel(PARAMS, BathKind.BOSON, 1.0, 0.0, 1.5, tr)
            assert weights == pytest.approx(alone, rel=1e-15) and current == 0.0

    def test_inverted_channel_orientation(self):
        # epsilon > kappa: channel a relaxes into |2>, so ga outweighs fa by e^{0.8/T}
        inv = SystemParams(1.0, 0.2)
        assert gaps(inv)[2]
        fa, ga, _, _ = weights_at(inv, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        assert ga / fa == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)
        p1, p2, _, _ = pops_at(inv, BathKind.BOSON, 1.0, 1.0, 0.5, 0.5)
        assert p2 / p1 == pytest.approx(math.exp(0.8 / 0.5), rel=1e-12)

    def test_degenerate_gap_propagates(self):
        with pytest.raises(ValueError):
            weights_at(SystemParams(0.5, 0.5), BathKind.BOSON, 1.0, 1.0, 1.0, 1.0)


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

    def test_numpy_couplings_give_the_floats_answer(self):
        # couplings of 5e-324 at T = 1e308, where spin rates Gamma / (e^{-x} + 1) would
        # round to 0, give the Gibbs state; no coupling at all, no unique state
        g, zero = np.float64(5e-324), np.float64(0.0)
        row = solve_point(PARAMS, BathKind.SPIN, g, g, 1e308, 1e308)
        assert row == solve_point(PARAMS, BathKind.SPIN, 5e-324, 5e-324, 1e308, 1e308)
        assert_allclose(row[2:6], gibbs_populations(PARAMS, 1e308), rtol=1e-15)
        with pytest.raises(NonUniqueSteadyStateError):
            solve_point(PARAMS, BathKind.SPIN, zero, zero, 1.0, 1.0)


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
    # the float entry point to a point's weights and current checks what solve_point checks

    @pytest.mark.parametrize("params, gl, gr, tl, tr", [
        (PARAMS, -1.0, 1.0, 1.0, 1.0), (PARAMS, math.inf, 1.0, 1.0, 1.0),
        (PARAMS, 1.0, math.nan, 1.0, 1.0), (PARAMS, 1.0, 1.0, -0.5, 1.0),
        (PARAMS, 1.0, 1.0, 1.0, math.inf),
        # the current passes the float range: J near -5e309
        (SystemParams(0.2, 100.0), 1e308, 1e308, 0.0, 1e6),
        # a D of 0, a division by zero on floats: both baths' y round to 0 at a gap of 2**-52
        (SystemParams(1.0, 1.0 + 2.0 ** -52), 1.0, 1.0, 1e308, 1e308),
        (SystemParams(1.0, 1.0 + 2.0 ** -52), 1e308, 5e-324, 1.0, 1e308),
    ])
    def test_raises_what_solve_point_raises(self, params, gl, gr, tl, tr):
        with pytest.raises(ValueError) as kernel:
            transport_kernel(params, BathKind.BOSON, gl, gr, tl, tr)
        with pytest.raises(ValueError) as point:
            solve_point(params, BathKind.BOSON, gl, gr, tl, tr)
        assert (type(kernel.value), str(kernel.value)) == (type(point.value), str(point.value))

    @pytest.mark.parametrize("kind", list(BathKind))
    def test_gives_solve_points_weights_and_current_as_floats(self, kind):
        for params in (PARAMS, SystemParams(1.0, 0.2)):
            (fa, ga, fb, gb), current = transport_kernel(params, kind, 1.3, 0.4, 1.5, 0.5)
            assert all(type(value) is float for value in (fa, ga, fb, gb, current))
            row = solve_point(params, kind, 1.3, 0.4, 1.5, 0.5)
            assert (fa * fb, ga * fb, fa * gb, ga * gb, current) == tuple(row[2:7])

    @pytest.mark.parametrize("position, name", enumerate(["gamma_left", "gamma_right", "t_left",
                                                          "t_right"]))
    @pytest.mark.parametrize("size", [1, 5])
    def test_rejects_an_array_by_name(self, position, name, size):
        args = [1.3, 0.4, 1.5, 0.5]
        args[position] = np.linspace(0.5, 1.5, size)
        for call in (transport_kernel, solve_point):
            with pytest.raises(ValueError, match=f"^{name} must be a single number, got an "
                                                 rf"array of shape \({size},\)$"):
                call(PARAMS, BathKind.BOSON, *args)

    @pytest.mark.parametrize("kind", list(BathKind))
    def test_one_temperature_object_for_both_baths_gives_the_same_bits(self, kind):
        # both baths then read one E; the result must not depend on the objects' identity
        for t in (0.0, 1e-3, 0.125, 0.5, 1.5, 3.0, 1e8, 1e300):
            twin = float(repr(t))
            assert twin is not t
            same = solve_point(PARAMS, kind, 1.3, 0.4, t, t)
            assert [repr(v) for v in same] == \
                [repr(v) for v in solve_point(PARAMS, kind, 1.3, 0.4, t, twin)]

    def test_accepts_numpy_scalars(self):
        args = [1.3, 0.4, 1.5, 0.5]
        row = solve_point(PARAMS, BathKind.SPIN, *map(np.float64, args))
        assert row == solve_point(PARAMS, BathKind.SPIN, *args)
        assert transport_kernel(PARAMS, BathKind.SPIN, *map(np.float64, args)) == \
            transport_kernel(PARAMS, BathKind.SPIN, *args)

