import math

import numpy as np
import pytest

from qjunction import (
    BathKind,
    DegeneratePhysicsError,
    NonUniqueSteadyStateError,
    SweepSpec,
    SweepVariable,
    SystemParams,
    rectification_scan,
    run_sweep,
    solve_point,
    sudden_death_temperature,
)

PARAMS = SystemParams(epsilon=0.2, kappa=1.0)
T_DEATH_UNIT = 1.134592657106511  # 1 / ln(1 + sqrt(2))


def equilibrium_spec(lo=0.05, hi=3.0, count=60, kind=BathKind.BOSON):
    return SweepSpec(params=PARAMS, kind=kind, gamma_left=1.0, gamma_right=1.0,
                     variable=SweepVariable.T_COMMON, lo=lo, hi=hi, count=count)


class TestRunSweep:
    def test_row_count_and_ordering(self):
        rows = run_sweep(equilibrium_spec(count=25))
        assert len(rows) == 25
        temps = [row.t_left for row in rows]
        assert temps == sorted(temps)
        assert rows[0].t_left == 0.05 and rows[-1].t_left == 3.0

    def test_rows_are_normalized(self):
        for row in run_sweep(equilibrium_spec(count=10)):
            assert row.p1 + row.p2 + row.p3 + row.p4 == pytest.approx(1.0, abs=1e-12)
            assert row.discord == pytest.approx(
                row.mutual_information - row.classical_correlation, abs=1e-12)

    def test_equilibrium_phenomenology(self):
        rows = run_sweep(equilibrium_spec(count=120))
        # the two measures coincide in the cold limit
        assert abs(rows[0].concurrence - rows[0].discord) < 0.01
        # concurrence dies at the threshold temperature, discord survives
        dead = [r for r in rows if r.concurrence == 0.0]
        alive = [r for r in rows if r.concurrence > 0.0]
        assert alive and dead
        crossing = min(r.t_left for r in dead)
        assert 1.0 < crossing < 1.25
        assert all(r.discord > 0.0 for r in dead)
        # current vanishes identically at equilibrium
        assert all(r.heat_current == 0.0 for r in rows)

    def test_hot_left_boson_discord_dominates(self):
        spec = SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                         gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                         lo=0.05, hi=1.5, count=30, t_left=1.5)
        rows = run_sweep(spec)
        assert all(row.discord > row.concurrence for row in rows)

    def test_hot_left_spin_concurrence_leads_at_low_tr(self):
        # spin reservoirs keep the singlet heavily populated under a strong
        # bias; entanglement then exceeds discord at the cold end, the
        # opposite ordering of the boson case above
        spec = SweepSpec(params=PARAMS, kind=BathKind.SPIN, gamma_left=1.0,
                         gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                         lo=0.05, hi=1.5, count=30, t_left=1.5)
        rows = run_sweep(spec)
        lead = [row for row in rows if row.concurrence > row.discord]
        assert lead
        assert min(row.t_right for row in lead) == rows[0].t_right
        assert all(row.t_right < 0.5 for row in lead)

    def test_bias_sweep_temperatures(self):
        spec = SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                         gamma_right=1.0, variable=SweepVariable.DELTA_T,
                         lo=-0.5, hi=0.5, count=5, t_avg=1.0)
        rows = run_sweep(spec)
        assert rows[0].t_left == pytest.approx(0.5) and rows[0].t_right == pytest.approx(1.5)
        assert rows[-1].t_left == pytest.approx(1.5) and rows[-1].t_right == pytest.approx(0.5)

    def test_frozen_point_aborts_with_location(self):
        spec = SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=0.0,
                         gamma_right=0.0, variable=SweepVariable.T_COMMON,
                         lo=0.5, hi=1.0, count=3)
        with pytest.raises(DegeneratePhysicsError, match="sweep aborted"):
            run_sweep(spec)


class TestSweepSpecValidation:
    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            equilibrium_spec(lo=2.0, hi=1.0)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            equilibrium_spec(count=1)

    def test_rejects_negative_temperature_grid(self):
        with pytest.raises(ValueError):
            equilibrium_spec(lo=-0.1)

    def test_delta_t_requires_t_avg(self):
        with pytest.raises(ValueError):
            SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                      gamma_right=1.0, variable=SweepVariable.DELTA_T,
                      lo=-0.5, hi=0.5, count=5)

    def test_delta_t_grid_must_stay_inside_window(self):
        with pytest.raises(ValueError):
            SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                      gamma_right=1.0, variable=SweepVariable.DELTA_T,
                      lo=-1.0, hi=0.5, count=5, t_avg=1.0)

    def test_t_right_requires_t_left(self):
        with pytest.raises(ValueError):
            SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                      gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                      lo=0.1, hi=1.0, count=5)


class TestRectification:
    def test_symmetric_junction_mirrors_exactly(self):
        points = rectification_scan(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.0,
                                    np.linspace(0.1, 0.9, 9))
        for p in points:
            assert abs(p.j_forward) == pytest.approx(abs(p.j_reverse), abs=1e-12)
            assert p.j_forward > 0.0 > p.j_reverse

    def test_cold_side_coupling_carries_more_current(self):
        points = rectification_scan(PARAMS, BathKind.BOSON, 1.0, 0.05, 1.0,
                                    np.linspace(0.0475, 0.95, 20))
        for p in points:
            assert abs(p.j_reverse) > abs(p.j_forward)

    def test_small_bias_currents_vanish(self):
        (point,) = rectification_scan(PARAMS, BathKind.BOSON, 1.0, 0.05, 1.0, [1e-4])
        assert abs(point.j_forward) < 1e-4
        assert abs(point.j_reverse) < 1e-4

    def test_rejects_bias_outside_window(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                rectification_scan(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.0, [bad])


class TestSuddenDeath:
    def test_threshold_matches_analytic_zero(self):
        # Gibbs concurrence vanishes at kappa / ln(1 + sqrt(2)), for any
        # epsilon and either reservoir kind
        for eps, kap in ((0.1, 1.0), (0.2, 1.0), (0.5, 1.0)):
            td = sudden_death_temperature(SystemParams(eps, kap), BathKind.BOSON)
            assert td == pytest.approx(T_DEATH_UNIT, abs=1e-6)

    def test_threshold_scales_with_coupling(self):
        td = sudden_death_temperature(SystemParams(0.2, 2.0), BathKind.BOSON)
        assert td == pytest.approx(2.0 * T_DEATH_UNIT, abs=1e-6)

    def test_kind_and_coupling_independence(self):
        td = sudden_death_temperature(PARAMS, BathKind.SPIN, gamma_left=2.0,
                                      gamma_right=0.1)
        assert td == pytest.approx(T_DEATH_UNIT, abs=1e-6)

    def test_ground_state_population_at_threshold(self):
        td = sudden_death_temperature(PARAMS, BathKind.BOSON)
        row = solve_point(PARAMS, BathKind.BOSON, 1.0, 1.0, td, td)
        assert abs(row.p1 - 0.5) < 0.01

    def test_regression_spin_input_is_exactly_closed_form(self):
        # epsilon/kappa near 21: a numerical search starting at kappa/50 saw
        # C underflow there and reported it already zero
        params = SystemParams(1.541571785136535, 0.07378089187606361)
        td = sudden_death_temperature(params, BathKind.SPIN, 0.7640226299095407,
                                      8.510231696226159)
        assert td == 0.07378089187606361 / math.asinh(1.0)

    @pytest.mark.parametrize("eps, kap", [(0.2, 1.0), (0.05, 2.0), (3.0, 0.2),
                                          (1.541571785136535, 0.07378089187606361)])
    @pytest.mark.parametrize("kind", list(BathKind))
    def test_concurrence_changes_sign_at_threshold(self, eps, kap, kind):
        # solve the equilibrium itself just below and just above T_d; at
        # epsilon/kappa near 21, C is of order 1e-8 (T_d - T)/T_d, so the
        # offsets stay well above the rounding of the populations
        params = SystemParams(eps, kap)
        for gl, gr in ((1.0, 1.0), (2.0, 0.1), (0.0, 1.0), (0.7, 0.0)):
            td = sudden_death_temperature(params, kind, gl, gr)
            cold, hot = td * (1.0 - 1e-6), td * (1.0 + 1e-6)
            assert solve_point(params, kind, gl, gr, cold, cold).concurrence > 0.0
            assert solve_point(params, kind, gl, gr, hot, hot).concurrence == 0.0

    def test_uncoupled_junction_has_no_unique_equilibrium(self):
        with pytest.raises(NonUniqueSteadyStateError):
            sudden_death_temperature(PARAMS, BathKind.BOSON, 0.0, 0.0)

    @pytest.mark.parametrize("gl, gr", [(-1.0, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_rejects_bad_couplings(self, gl, gr):
        with pytest.raises(ValueError):
            sudden_death_temperature(PARAMS, BathKind.BOSON, gl, gr)


class TestSolvePoint:
    def test_returns_plain_floats(self):
        row = solve_point(PARAMS, BathKind.BOSON, 1.0, 1.0, np.float64(1.5), 0.5)
        for value in (row.t_left, row.t_right, row.p1, row.heat_current,
                      row.concurrence, row.discord):
            assert type(value) is float

    def test_zero_temperature_limit_point(self):
        row = solve_point(PARAMS, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
        assert (row.p1, row.p2, row.p3, row.p4) == (1.0, 0.0, 0.0, 0.0)
        assert row.concurrence == 1.0
        assert row.discord == 1.0
        assert row.mutual_information == 2.0
