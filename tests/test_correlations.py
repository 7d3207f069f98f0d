import math

import mpmath
import numpy as np
import pytest

from conftest import channel_weights, gibbs_populations, measures, populations, random_weights
from oracles import (classical_correlation_grid, classical_correlation_refined,
                     conditional_entropies, density_matrix_uncoupled, exact_point,
                     wootters_concurrence, x_state_measures)
from qjunction import BathKind, SweepSpec, SweepVariable, SystemParams, run_sweep, solve_point
from qjunction.solver import transport_kernel

# channel weights (fa, ga, fb, gb): the singlet P = (1, 0, 0, 0) and the
# maximally mixed state
SINGLET = (1.0, 0.0, 1.0, 0.0)
MIXED = (0.5, 0.5, 0.5, 0.5)

# channel weights fa = 0.8 and fb = 0.9 as a worked example, the state
# P = (0.72, 0.18, 0.08, 0.02); the expected measure values below are 40-digit
# mpmath evaluations of the X-state forms in P (the better of the z-axis and
# the equatorial measurement for C_cl) at exactly these weights
EXAMPLE = (0.8, 0.2, 0.9, 0.1)
C_EXAMPLE = 0.46
I_EXAMPLE = 0.794625219498973
CCL_EXAMPLE = 0.3918984172949522
Q_EXAMPLE = 0.40272680220402085


def entropy_bits(eigenvalues) -> float:
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    lam = lam[lam > 0.0]
    return float(-(lam * np.log2(lam)).sum())


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r) if keep == 0 else np.einsum("abad->bd", r)


def mutual_information_eigen(pops) -> float:
    """Independent route: S(A) + S(B) - S(AB) by eigendecomposition."""
    rho = density_matrix_uncoupled(pops)
    s_ab = entropy_bits(np.linalg.eigvalsh(rho))
    s_a = entropy_bits(np.linalg.eigvalsh(partial_trace(rho, 0)))
    s_b = entropy_bits(np.linalg.eigvalsh(partial_trace(rho, 1)))
    return s_a + s_b - s_ab


def concurrence(weights) -> float:
    return measures(*weights).concurrence


def mutual_information(weights) -> float:
    return measures(*weights).mutual_information


def classical_correlation(weights) -> float:
    return measures(*weights).classical_correlation


def discord(weights) -> float:
    return measures(*weights).discord


def _state_matrix(weights) -> np.ndarray:
    return density_matrix_uncoupled(populations(*weights))


class TestConcurrence:
    def test_pure_singlet(self):
        assert concurrence(SINGLET) == 1.0

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_example_value(self):
        assert concurrence(EXAMPLE) == pytest.approx(C_EXAMPLE, rel=1e-12)

    def test_matches_wootters_on_example(self):
        assert concurrence(EXAMPLE) == pytest.approx(
            wootters_concurrence(_state_matrix(EXAMPLE)), abs=1e-10)

    def test_matches_wootters_randomized(self):
        for w in random_weights(np.random.default_rng(41), 300):
            assert concurrence(w) == pytest.approx(
                wootters_concurrence(_state_matrix(w)), abs=1e-10)

    def test_invariant_under_corner_swap(self):
        # (fa, ga, fb, gb) -> (fb, gb, fa, ga) swaps P2 and P3 alone
        for fa, ga, fb, gb in random_weights(np.random.default_rng(43), 50):
            assert concurrence((fa, ga, fb, gb)) == concurrence((fb, gb, fa, ga))


class TestMutualInformation:
    def test_pure_singlet_two_bits(self):
        assert mutual_information(SINGLET) == 2.0

    def test_maximally_mixed_zero(self):
        assert mutual_information(MIXED) == pytest.approx(0.0, abs=1e-14)

    def test_example_value(self):
        assert mutual_information(EXAMPLE) == pytest.approx(I_EXAMPLE, rel=1e-12)

    def test_matches_eigendecomposition_route(self):
        for w in random_weights(np.random.default_rng(47), 100):
            assert mutual_information(w) == pytest.approx(
                mutual_information_eigen(populations(*w)), abs=1e-10)


class TestClassicalCorrelation:
    def test_pure_singlet_one_bit(self):
        assert classical_correlation(SINGLET) == 1.0

    def test_maximally_mixed_zero(self):
        assert classical_correlation(MIXED) == pytest.approx(0.0, abs=1e-14)

    def test_example_value(self):
        assert classical_correlation(EXAMPLE) == pytest.approx(CCL_EXAMPLE, rel=1e-12)

    def test_grid_oracle_agreement_on_example(self):
        grid = classical_correlation_grid(populations(*EXAMPLE))
        assert abs(classical_correlation(EXAMPLE) - grid) < 1e-3

    def test_grid_never_beats_closed_form_axes(self):
        # theta = pi/2, the equatorial measurement, is a grid point, so the
        # scan is at least as good as the closed form
        for w in random_weights(np.random.default_rng(53), 20):
            assert classical_correlation(w) <= classical_correlation_grid(populations(*w)) + 1e-9


def _extreme_steady_states():
    """solve_point rows at both kinds and orientations, couplings 1:0.05 and
    0.05:1, biases near +-T_a and one bath at T = 0."""
    biases = (-0.999999, -0.999, -0.99, -0.9, 0.9, 0.99, 0.999, 0.999999)
    for kind in BathKind:
        for eps, kap in ((0.2, 1.0), (1.0, 0.2)):
            params = SystemParams(eps, kap)
            for gl, gr in ((1.0, 0.05), (0.05, 1.0)):
                yield solve_point(params, kind, gl, gr, 0.0, 0.0)
                for t_avg in (0.25, 1.0, 4.0):
                    for x in biases:
                        yield solve_point(params, kind, gl, gr, t_avg * (1 + x), t_avg * (1 - x))
                    for t in (0.1 * t_avg, t_avg, 10.0 * t_avg):
                        yield solve_point(params, kind, gl, gr, 0.0, t)
                        yield solve_point(params, kind, gl, gr, t, 0.0)


class TestClassicalCorrelationOnSteadyStates:
    def test_no_measurement_axis_beats_the_closed_form(self):
        # the refined scan can only find an axis better than the equatorial
        # measurement; on the steady-state family it finds none
        rows = list(_extreme_steady_states())
        closed = np.array([row.classical_correlation for row in rows])
        excess = classical_correlation_refined([row[2:6] for row in rows]) - closed
        print(f"max (refined scan - closed-form C_cl) = {excess.max():.1e} "
              f"over {len(rows)} states")
        assert excess.max() <= 1e-12

    def test_z_axis_never_beats_the_equatorial_measurement(self):
        # the bound the correlations module proves for P1 P4 = P2 P3, checked
        # at 50 digits on states built from exact channel weights (fa, fb),
        # with mpmath alone: S_z >= S_x, with equality where fa + fb = 1
        with mpmath.workdps(50):
            tiny = mpmath.mpf("1e-12")
            edges = [mpmath.mpf(0), tiny, mpmath.mpf("1e-6"), mpmath.mpf("0.01")]
            weights = edges + [mpmath.mpf(k) / 10 for k in range(1, 10)] + [1 - e for e in edges]
            pairs = [(fa, fb) for fa in weights
                     for fb in weights + [1 - fa + tiny, 1 - fa - tiny] if 0 <= fb <= 1]
            gaps = [s_z - s_x for s_z, s_x in
                    (conditional_entropies(*populations(fa, 1 - fa, fb, 1 - fb))
                     for fa, fb in pairs)]
            on_line = [s_z - s_x for s_z, s_x in
                       (conditional_entropies(*populations(fa, 1 - fa, 1 - fa, fa))
                        for fa in weights)]
        worst_equal = max(map(abs, on_line))
        print(f"min (S_z - S_x) = {float(min(gaps)):.1e} over {len(pairs)} states; "
              f"max |S_z - S_x| on fa + fb = 1: {float(worst_equal):.1e}")
        assert min(gaps) >= -1e-45
        assert worst_equal <= 1e-45


class TestDiscord:
    def test_pure_singlet_one_bit(self):
        assert discord(SINGLET) == 1.0

    def test_maximally_mixed_zero(self):
        assert discord(MIXED) == pytest.approx(0.0, abs=1e-14)

    def test_example_value(self):
        assert discord(EXAMPLE) == pytest.approx(Q_EXAMPLE, rel=1e-12)

    def test_cold_equilibrium_measures_agree(self):
        params = SystemParams(epsilon=0.2, kappa=1.0)
        weights = channel_weights(gibbs_populations(params, 0.05))
        assert abs(discord(weights) - concurrence(weights)) < 0.01


def _weights_reference(fa, fb):
    """(C_cl, Q) of the state of exact channel weights fa and fb, to 50 digits."""
    with mpmath.workdps(50):
        fa, fb = mpmath.mpf(fa), mpmath.mpf(fb)
        _, q, _, c_cl = x_state_measures(*populations(fa, 1 - fa, fb, 1 - fb))
    return c_cl, q


class TestHighPrecision:
    # criterion 11's junction: kappa = 2 at mean temperature 1, couplings 1:0.05
    PARAMS = SystemParams(epsilon=0.2, kappa=2.0)

    def _states(self):
        # (reference, measures) of steady states: drawn channel weights, then
        # solved points and a grid, where the closed forms run on arrays,
        # against the state their parameters give at 80 digits or more (exact_point)
        for w in random_weights(np.random.default_rng(67), 200):
            yield _weights_reference(w[0], w[2]), measures(*w)
        for kind in BathKind:
            rows = [solve_point(self.PARAMS, kind, 1.0, 0.05, t_left, t_right)
                    for t_left, t_right in ((0.05, 1.95), (1.95, 0.05), (0.0, 1.0),
                                            (1.0, 0.0), (0.0, 0.0))]
            rows += run_sweep(SweepSpec(self.PARAMS, kind, 1.0, 0.05, SweepVariable.DELTA_T,
                                        -0.975, 0.975, 79, t_avg=1.0))
            for row in rows:
                exact = exact_point(0.2, 2.0, kind.value, 1.0, 0.05, row.t_left, row.t_right)
                yield (exact.classical_correlation, exact.discord), row

    def test_classical_correlation_and_discord_against_50_digits(self):
        worst = 0.0
        for (c_cl, q), measures in self._states():
            worst = max(worst, abs(measures.classical_correlation - c_cl),
                        abs(measures.discord - q))
        print(f"max error of C_cl and Q against 50 and 80 digits: {float(worst):.1e}")
        assert worst <= 1e-15

    def test_near_pure_states_against_50_digits(self):
        # states about P = (1.8e-8, 1 - 2.8e-8, 1.7e-16, 9.2e-9), close to the
        # pure state |2>: fa and gb from 10**-8.5 to 10**-7.5, multiples of
        # 2**-53 so that 1 - fa and 1 - gb are exact. K is within 1e-7 of 1
        # there, and 1 - K formed as a difference kept about 8 digits, which
        # put C_cl and Q up to 1.0e-15 off; what is left is the rounding of the
        # terms near 2 (x(u), x(1 + K)) that the small C_cl is formed from
        rng = np.random.default_rng(71)
        worst = 0.0
        for fa, gb in np.round(10.0 ** rng.uniform(-8.5, -7.5, (50, 2)) * 2.0 ** 53).tolist():
            fa, gb = fa * 2.0 ** -53, gb * 2.0 ** -53
            got = measures(fa, 1.0 - fa, 1.0 - gb, gb)
            c_cl, q = _weights_reference(fa, 1.0 - gb)
            worst = max(worst, abs(got.classical_correlation - c_cl), abs(got.discord - q))
        print(f"max error of C_cl and Q near a pure state: {float(worst):.1e}")
        assert worst <= 7e-16


class TestReportAndInvariants:
    def test_report_bundles_consistently(self):
        rep = measures(*EXAMPLE)
        assert rep.discord == pytest.approx(
            rep.mutual_information - rep.classical_correlation, abs=1e-12)
        # a solved row carries the measures of its own state
        params = SystemParams(0.2, 1.0)
        row = solve_point(params, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        weights, _ = transport_kernel(params, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        rep = measures(*weights)
        assert (row.concurrence, row.mutual_information, row.classical_correlation,
                row.discord) == tuple(rep)

    def test_ranges_randomized(self):
        for w in random_weights(np.random.default_rng(59), 300):
            rep = measures(*w)
            assert 0.0 <= rep.concurrence <= 1.0
            assert rep.mutual_information >= -1e-12
            assert -1e-12 <= rep.classical_correlation
            assert -1e-12 <= rep.discord <= rep.mutual_information + 1e-12
            assert rep.discord == pytest.approx(
                rep.mutual_information - rep.classical_correlation, abs=1e-12)

    def test_weights_that_round_past_a_sum_of_one(self):
        # the weights of in-rates 1.158594070777783 : 1.1585940489867415 and
        # 0.7018398896467992 : 0.7018398847418487, so nearly 1/2 that
        # 2 (fa ga + fb gb) = 1 - K^2 rounds to 1 + 2.2e-16; K is then 0, not
        # the square root of a negative number
        rep = measures(0.5000000047020442, 0.4999999952979559,
                       0.5000000017471758, 0.49999999825282426)
        assert rep.concurrence == 0.0
        assert max(map(abs, rep)) <= 1e-15

    def test_exchange_symmetry(self):
        # (fa, ga, fb, gb) -> (ga, fa, gb, fb) swaps P2<->P3 together with
        # P1<->P4, which relabels the two qubits
        for fa, ga, fb, gb in random_weights(np.random.default_rng(61), 50):
            swapped = (ga, fa, gb, fb)
            original = (fa, ga, fb, gb)
            assert concurrence(swapped) == pytest.approx(concurrence(original), abs=1e-12)
            assert mutual_information(swapped) == pytest.approx(
                mutual_information(original), abs=1e-12)
            assert classical_correlation(swapped) == pytest.approx(
                classical_correlation(original), abs=1e-12)
            assert discord(swapped) == pytest.approx(discord(original), abs=1e-12)


class TestEquilibriumConcurrenceClosedForm:
    def test_gibbs_concurrence_and_threshold(self):
        # at equilibrium, C(T) = (2 sinh(kappa/T) - 2)/Z while positive, with
        # Z = 2 cosh(kappa/T) + 2 cosh(epsilon/T); the zero sits at
        # T = kappa / ln(1 + sqrt(2)) independently of epsilon
        for eps, kap in ((0.2, 1.0), (0.5, 1.0), (0.2, 2.0)):
            params = SystemParams(eps, kap)
            threshold = kap / math.log(1.0 + math.sqrt(2.0))
            for t in np.linspace(0.1, 3.5, 40):
                z = 2.0 * math.cosh(kap / t) + 2.0 * math.cosh(eps / t)
                expected = max((2.0 * math.sinh(kap / t) - 2.0) / z, 0.0)
                got = concurrence(channel_weights(gibbs_populations(params, t)))
                assert got == pytest.approx(expected, abs=1e-12)
                assert (got > 0.0) == (t < threshold)


class TestWoottersOnGeneralStates:
    def test_bell_state_concurrence_one(self):
        bell = np.zeros((4, 4))
        bell[0, 0] = bell[3, 3] = 0.5
        bell[0, 3] = bell[3, 0] = 0.5
        assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_concurrence_zero(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0])
        assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_werner_state_threshold(self):
        # Werner states are entangled only above visibility 1/3
        bell = np.zeros((4, 4))
        bell[1, 1] = bell[2, 2] = 0.5
        bell[1, 2] = bell[2, 1] = -0.5
        for vis, expected in ((0.2, 0.0), (0.5, 0.25), (1.0, 1.0)):
            rho = vis * bell + (1.0 - vis) * np.eye(4) / 4.0
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)
