import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import density_matrix_uncoupled, eigenbasis, squared_elements
from qjunction import (
    BathKind,
    BathSpec,
    DegeneratePhysicsError,
    SystemParams,
    channel_rates,
    solve_point,
)

ALLOWED = {(1, 2), (1, 3), (2, 4), (3, 4)}


def gaps(params):
    rs = channel_rates(params, BathSpec(BathKind.BOSON, 1.0, 1.0),
                       BathSpec(BathKind.BOSON, 1.0, 1.0))
    return rs.a.omega, rs.b.omega, rs.a_inverted


class TestEigensystem:
    # the documented spectrum (-kappa, -epsilon, epsilon, kappa) against the
    # numerical diagonalization, and the two gaps the solver takes from it

    def test_strong_coupling(self):
        energies, _ = eigenbasis(0.2, 1.0)
        assert_allclose(energies, (-1.0, -0.2, 0.2, 1.0), atol=1e-15)
        assert gaps(SystemParams(epsilon=0.2, kappa=1.0)) == (0.8, 1.2, False)

    def test_inverted_ordering(self):
        # epsilon > kappa: |2> becomes the ground state and channel a inverts
        energies, _ = eigenbasis(1.0, 0.2)
        assert_allclose(energies, (-0.2, -1.0, 1.0, 0.2), atol=1e-15)
        assert gaps(SystemParams(epsilon=1.0, kappa=0.2)) == (0.8, 1.2, True)

    def test_degenerate_gap_rejected(self):
        with pytest.raises(DegeneratePhysicsError):
            SystemParams(epsilon=0.5, kappa=0.5)

    @pytest.mark.parametrize("eps,kap", [(-0.1, 1.0), (0.0, 1.0), (0.2, 0.0), (0.2, -2.0)])
    def test_nonpositive_parameters_rejected(self, eps, kap):
        with pytest.raises(ValueError):
            SystemParams(epsilon=eps, kappa=kap)

    def test_spectrum_symmetries(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eps, kap = rng.uniform(0.05, 3.0, size=2)
            if eps == kap:
                continue
            e1, e2, e3, e4 = eigenbasis(eps, kap)[0]
            assert_allclose((e1, e2, e3, e4), (-kap, -eps, eps, kap), atol=1e-13)
            omega_a, omega_b, inverted = gaps(SystemParams(epsilon=eps, kappa=kap))
            assert omega_a == pytest.approx(abs(e2 - e1), abs=1e-13)
            assert omega_a == pytest.approx(abs(e4 - e3), abs=1e-13)
            assert omega_b == pytest.approx(e3 - e1, abs=1e-13)
            assert omega_b == pytest.approx(e4 - e2, abs=1e-13)
            assert inverted == (e2 < e1)

    def test_ground_state_label(self):
        # at T = 0 the junction relaxes into the lowest level
        for params, ground in ((SystemParams(0.2, 1.0), 0), (SystemParams(1.0, 0.2), 1)):
            row = solve_point(params, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
            pops = [row.p1, row.p2, row.p3, row.p4]
            assert pops[ground] == 1.0
            assert int(np.argmin(eigenbasis(params.epsilon, params.kappa)[0])) == ground


class TestChannelTable:
    # sigma^x of either qubit in the numerical eigenbasis, by documented
    # label, in both orientations of channel a
    SYSTEMS = ((0.2, 1.0), (1.0, 0.2))

    def test_allowed_pairs(self):
        for eps, kap in self.SYSTEMS:
            for elem2 in squared_elements(eps, kap):
                connected = {(m + 1, n + 1) for m, n in zip(*np.nonzero(elem2 > 1e-12))
                             if m < n}
                assert connected == ALLOWED

    def test_forbidden_pairs_absent(self):
        for eps, kap in self.SYSTEMS:
            for elem2 in squared_elements(eps, kap):
                for m, n in ((1, 4), (2, 3)):
                    assert elem2[m - 1, n - 1] < 1e-15 and elem2[n - 1, m - 1] < 1e-15

    def test_equal_squared_elements(self):
        for eps, kap in self.SYSTEMS:
            left, right = squared_elements(eps, kap)
            for m, n in ALLOWED:
                assert left[m - 1, n - 1] == pytest.approx(0.5, abs=1e-15)
                assert right[m - 1, n - 1] == pytest.approx(0.5, abs=1e-15)


class TestDensityMatrix:
    def test_pure_singlet(self):
        rho = density_matrix_uncoupled((1.0, 0.0, 0.0, 0.0))
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = [[0.5, -0.5], [-0.5, 0.5]]
        assert_allclose(rho, expected, atol=0)

    def test_pure_triplet(self):
        rho = density_matrix_uncoupled((0.0, 0.0, 0.0, 1.0))
        assert_allclose(rho[1:3, 1:3], [[0.5, 0.5], [0.5, 0.5]], atol=0)
        assert rho[0, 0] == 0.0 and rho[3, 3] == 0.0

    def test_maximally_mixed(self):
        rho = density_matrix_uncoupled((0.25, 0.25, 0.25, 0.25))
        assert_allclose(rho, np.eye(4) / 4.0, atol=0)

    def test_trace_spectrum_and_positivity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            rho = density_matrix_uncoupled(p)
            assert rho.trace() == pytest.approx(1.0, abs=1e-14)
            assert_allclose(rho, rho.T, atol=0)
            # the basis change is unitary: the spectrum is the populations
            assert_allclose(np.sort(np.linalg.eigvalsh(rho)), np.sort(p), atol=1e-13)
            assert np.linalg.eigvalsh(rho).min() >= -1e-13
