import math

import mpmath
import numpy as np
import pytest

from conftest import gibbs_populations, measures
from oracles import (classical_correlation_grid, classical_correlation_refined,
                     density_matrix_uncoupled, wootters_concurrence)
from qjunction import BathKind, SweepSpec, SweepVariable, SystemParams, run_sweep, solve_point

SINGLET = (1.0, 0.0, 0.0, 0.0)
MIXED = (0.25, 0.25, 0.25, 0.25)

# Gibbs populations at T = 0.5 for epsilon = 0.2, kappa = 1, rounded to the
# four digits used throughout as a worked example; the expected measure
# values below are 40-digit mpmath evaluations of the closed forms at
# exactly these inputs.
P_EXAMPLE = (0.7628, 0.1540, 0.0692, 0.0140)
C_EXAMPLE = 0.5423364438938436
I_EXAMPLE = 0.9231485494658915
CCL_EXAMPLE = 0.4562975433347751
Q_EXAMPLE = 0.4668510061311164
K_EXAMPLE = 0.7535864117670912


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


def concurrence(pops) -> float:
    return measures(pops).concurrence


def mutual_information(pops) -> float:
    return measures(pops).mutual_information


def classical_correlation(pops) -> float:
    return measures(pops).classical_correlation


def discord(pops) -> float:
    return measures(pops).discord


class TestConcurrence:
    def test_pure_singlet(self):
        assert concurrence(SINGLET) == 1.0

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_example_value(self):
        assert concurrence(P_EXAMPLE) == pytest.approx(C_EXAMPLE, rel=1e-12)

    def test_matches_wootters_on_example(self):
        assert concurrence(P_EXAMPLE) == pytest.approx(
            wootters_concurrence(density_matrix_uncoupled(P_EXAMPLE)), abs=1e-10)

    def test_matches_wootters_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            assert concurrence(p) == pytest.approx(
                wootters_concurrence(density_matrix_uncoupled(p)), abs=1e-10)

    def test_invariant_under_corner_swap(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p1, p2, p3, p4 = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            assert concurrence((p1, p2, p3, p4)) == concurrence((p1, p3, p2, p4))


class TestMutualInformation:
    def test_pure_singlet_two_bits(self):
        assert mutual_information(SINGLET) == 2.0

    def test_maximally_mixed_zero(self):
        assert mutual_information(MIXED) == pytest.approx(0.0, abs=1e-14)

    def test_example_value(self):
        assert mutual_information(P_EXAMPLE) == pytest.approx(I_EXAMPLE, rel=1e-12)

    def test_matches_eigendecomposition_route(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            assert mutual_information(p) == pytest.approx(
                mutual_information_eigen(p), abs=1e-10)


class TestClassicalCorrelation:
    def test_pure_singlet_one_bit(self):
        assert classical_correlation(SINGLET) == 1.0

    def test_maximally_mixed_zero(self):
        assert classical_correlation(MIXED) == pytest.approx(0.0, abs=1e-14)

    def test_example_value(self):
        assert classical_correlation(P_EXAMPLE) == pytest.approx(CCL_EXAMPLE, rel=1e-12)

    def test_grid_oracle_agreement_on_example(self):
        grid = classical_correlation_grid(P_EXAMPLE)
        assert abs(classical_correlation(P_EXAMPLE) - grid) < 1e-3

    def test_grid_never_beats_closed_form_axes(self):
        # theta = pi/2, the equatorial measurement, is a grid point, so the
        # scan is at least as good as the closed form
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            assert classical_correlation(p) <= classical_correlation_grid(p) + 1e-9


def _x(t):
    return t * mpmath.log(t, 2) if t > 0 else mpmath.mpf(0)


def _steady_state(fa, fb):
    """P1..P4 of a product of two channel weights, so P1 P4 = P2 P3."""
    return fa * fb, (1 - fa) * fb, fa * (1 - fb), (1 - fa) * (1 - fb)


def _conditional_entropies(p1, p2, p3, p4):
    """(S_z, S_x) of mpmath populations: the conditional entropies, in bits,
    of the z-axis and the equatorial measurement.

    S_z is summed as its four conditional terms, -w log2(conditional weight
    / outcome weight), not from x log2 x of the marginal and joint weights.
    """
    def conditional(w, num, den):
        return -w * mpmath.log(num / den, 2) if w > 0 else mpmath.mpf(0)

    s14 = p1 + p4
    u, v = s14 + 2 * p2, s14 + 2 * p3
    s_z = (conditional(p2, 2 * p2, u) + conditional(s14 / 2, s14, u)
           + conditional(s14 / 2, s14, v) + conditional(p3, 2 * p3, v))
    k = mpmath.sqrt((p2 - p3) ** 2 + (p1 - p4) ** 2)
    return s_z, 1 - (_x(1 - k) + _x(1 + k)) / 2


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
                    (_conditional_entropies(*_steady_state(fa, fb)) for fa, fb in pairs)]
            on_line = [s_z - s_x for s_z, s_x in
                       (_conditional_entropies(*_steady_state(fa, 1 - fa)) for fa in weights)]
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
        assert discord(P_EXAMPLE) == pytest.approx(Q_EXAMPLE, rel=1e-12)

    def test_cold_equilibrium_measures_agree(self):
        params = SystemParams(epsilon=0.2, kappa=1.0)
        pops = gibbs_populations(params, 0.05)
        assert abs(discord(pops) - concurrence(pops)) < 0.01


def _four_term_reference(pops):
    """(C_cl, Q) at exactly these populations, to 50 digits, from the better
    of the z-axis and equatorial measurements (:func:`_conditional_entropies`)."""
    with mpmath.workdps(50):
        p1, p2, p3, p4 = (mpmath.mpf(float(p)) for p in pops)
        x = _x
        u, v = p1 + p4 + 2 * p2, p1 + p4 + 2 * p3
        mutual = 2 - x(u) - x(v) + x(p1) + x(p2) + x(p3) + x(p4)
        c_cl = max(1 - (x(u) + x(v)) / 2 - min(_conditional_entropies(p1, p2, p3, p4)), 0)
        q = mutual - c_cl
        return c_cl, mpmath.mpf(0) if -mpmath.mpf("1e-12") < q < 0 else q


class TestHighPrecision:
    # criterion 11's junction: kappa = 2 at mean temperature 1, couplings 1:0.05
    PARAMS = SystemParams(epsilon=0.2, kappa=2.0)

    def _states(self):
        # steady states of uniform channel weights: the family the closed
        # form is exact on (a general X state only gets a lower bound)
        rng = np.random.default_rng(67)
        for fa, fb in rng.uniform(size=(200, 2)):
            p = _steady_state(fa, fb)
            yield p, measures(p)
        for kind in BathKind:
            for t_left, t_right in ((0.05, 1.95), (1.95, 0.05), (0.0, 1.0), (1.0, 0.0),
                                    (0.0, 0.0)):
                row = solve_point(self.PARAMS, kind, 1.0, 0.05, t_left, t_right)
                yield row[2:6], row
            # the same junction over a grid, where the closed forms run on arrays
            spec = SweepSpec(self.PARAMS, kind, 1.0, 0.05, SweepVariable.DELTA_T,
                             -0.975, 0.975, 79, t_avg=1.0)
            for row in run_sweep(spec):
                yield row[2:6], row

    def test_classical_correlation_and_discord_against_50_digits(self):
        worst = 0.0
        for pops, measures in self._states():
            c_cl, q = _four_term_reference(pops)
            worst = max(worst, abs(measures.classical_correlation - c_cl),
                        abs(measures.discord - q))
        print(f"max error of C_cl and Q against 50 digits: {float(worst):.1e}")
        assert worst <= 1e-15


class TestReportAndInvariants:
    def test_k_example(self):
        assert measures(P_EXAMPLE).k_coefficient == pytest.approx(K_EXAMPLE, rel=1e-12)

    def test_report_bundles_consistently(self):
        rep = measures(P_EXAMPLE)
        assert rep.discord == pytest.approx(
            rep.mutual_information - rep.classical_correlation, abs=1e-12)
        # a solved row carries the measures of its own populations
        row = solve_point(SystemParams(0.2, 1.0), BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        rep = measures(row[2:6])
        assert (row.concurrence, row.mutual_information, row.classical_correlation,
                row.discord) == rep[:4]

    def test_ranges_randomized(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            rep = measures(p)
            assert 0.0 <= rep.concurrence <= 1.0
            assert rep.mutual_information >= -1e-12
            assert -1e-12 <= rep.classical_correlation
            assert -1e-12 <= rep.discord <= rep.mutual_information + 1e-12
            assert 0.0 <= rep.k_coefficient <= 1.0
            assert rep.discord == pytest.approx(
                rep.mutual_information - rep.classical_correlation, abs=1e-12)

    def test_exchange_symmetry(self):
        # swapping P2<->P3 together with P1<->P4 relabels the two qubits
        rng = np.random.default_rng(61)
        for _ in range(50):
            p1, p2, p3, p4 = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            swapped = (p4, p3, p2, p1)
            original = (p1, p2, p3, p4)
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
                got = concurrence(gibbs_populations(params, t))
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
