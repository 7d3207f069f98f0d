import math

import numpy as np
import pytest

from conftest import gibbs_populations
from oracles import classical_correlation_grid, density_matrix_uncoupled, wootters_concurrence
from qjunction import SystemParams, correlation_report

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
    return correlation_report(pops).concurrence


def mutual_information(pops) -> float:
    return correlation_report(pops).mutual_information


def classical_correlation(pops) -> float:
    return correlation_report(pops).classical_correlation


def discord(pops) -> float:
    return correlation_report(pops).discord


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
        # theta = 0 and theta = pi/2 are grid points, so the scan is at
        # least as good as the two-branch closed form
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            assert classical_correlation(p) <= classical_correlation_grid(p) + 1e-9


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


class TestReportAndInvariants:
    def test_k_example(self):
        assert correlation_report(P_EXAMPLE).k_coefficient == pytest.approx(K_EXAMPLE, rel=1e-12)

    def test_report_bundles_consistently(self):
        rep = correlation_report(P_EXAMPLE)
        assert rep == correlation_report(np.array(P_EXAMPLE))
        assert rep.discord == pytest.approx(
            rep.mutual_information - rep.classical_correlation, abs=1e-12)

    def test_ranges_randomized(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            rep = correlation_report(p)
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
