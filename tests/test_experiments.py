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
from qjunction import experiments

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

    # At a gap of 2**-52 a boson bath's y = tanh(x/2) rounds to 0 where x/2 does, from T
    # about 3.0e307 on; with both baths there, D = 0 and J = 0/0. Grid errors name the
    # point by its index in the whole grid.
    @pytest.mark.parametrize("count, chunk", [(5000, 1), (3 * experiments._CHUNK, 3)])
    def test_a_failing_point_is_named_by_its_index_in_the_grid(self, count, chunk):
        spec = SweepSpec(SystemParams(1.0, 1.0 + 2.0 ** -52), BathKind.BOSON, 1.0, 1.0,
                         SweepVariable.T_COMMON, 1.0, 5e307, count)
        grid = np.linspace(spec.lo, spec.hi, count)
        first = int(np.flatnonzero(2.0 ** -52 / grid / 2.0 == 0.0)[0])
        assert first // (experiments._CHUNK // 2) == chunk
        t = float(grid[first])
        with pytest.raises(ValueError) as error:
            run_sweep(spec)
        assert str(error.value) == f"heat current is not finite at T_L = {t}, T_R = {t}"

    def test_a_current_error_in_a_later_chunk_names_its_point(self):
        # couplings of 1e308 at gaps near 100, beside a bath at T = 0: J is near
        # -(Gamma/4)(omega_a e^{-omega_a/T_R} + omega_b e^{-omega_b/T_R}), past the float
        # range from T_R about 30 on, in the third chunk, where a chunk-by-chunk pass stops
        spec = SweepSpec(SystemParams(0.2, 100.0), BathKind.BOSON, 1e308, 1e308,
                         SweepVariable.T_RIGHT, 1.0, 60.0, 9410, t_left=0.0)
        first = int(np.flatnonzero(np.linspace(1.0, 60.0, 9410) == 30.070464448931872)[0])
        assert first // (experiments._CHUNK // 2) == 2
        with pytest.raises(ValueError, match=r"^heat current is not finite at "
                           r"T_L = 0\.0, T_R = 30\.070464448931872$"):
            run_sweep(spec)

    @pytest.mark.parametrize("variable, fixed", [
        (SweepVariable.T_COMMON, {}), (SweepVariable.T_RIGHT, {"t_left": 1.5}),
        (SweepVariable.DELTA_T, {"t_avg": 1.0})])
    def test_an_uncoupled_sweep_names_point_0_before_it_solves(self, monkeypatch, variable,
                                                               fixed):
        # no channel carries rates at any point, which the couplings alone decide: the
        # sweep forms no grid and solves no chunk, and names point 0
        def refuse(*args):
            raise AssertionError("a grid was formed or solved")

        monkeypatch.setattr(experiments, "_fill_grid", refuse)
        monkeypatch.setattr(experiments, "_channel", refuse)
        lo = -0.5 if variable is SweepVariable.DELTA_T else 0.0
        spec = SweepSpec(PARAMS, BathKind.SPIN, 0.0, 0.0, variable, lo, 0.5,
                         3 * experiments._CHUNK, **fixed)
        with pytest.raises(DegeneratePhysicsError) as error:
            run_sweep(spec)
        assert type(error.value) is DegeneratePhysicsError
        assert str(error.value) == (
            f"sweep aborted on the {variable.value} grid: a channel carries no rates at "
            "grid point 0; the stationary state is not unique")

    def test_an_uncoupled_sweep_names_a_current_that_is_not_finite_first(self):
        # kappa + epsilon overflows, so channel b's current is 0 * inf at every point,
        # and the current error comes before the channels without rates, as on a point
        spec = SweepSpec(SystemParams(1e308, 1.7e308), BathKind.BOSON, 0.0, 0.0,
                         SweepVariable.T_RIGHT, 0.5, 1.0, 5, t_left=2.0)
        with pytest.raises(ValueError, match=r"^heat current is not finite at T_L = 2\.0, "
                           r"T_R = 0\.5$"):
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

    @pytest.mark.parametrize("t_avg, lo, hi", [(1e308, -9e307, 9e307), (1.7e308, -1e307, 1e308)])
    def test_delta_t_temperatures_must_stay_finite(self, t_avg, lo, hi):
        # T_a + dT or T_a - dT past the float range: a typed error, not a
        # numpy overflow warning and a grid of NaN or inf temperatures
        with pytest.raises(ValueError, match="overflows"):
            SweepSpec(params=PARAMS, kind=BathKind.SPIN, gamma_left=1.0,
                      gamma_right=1.0, variable=SweepVariable.DELTA_T,
                      lo=lo, hi=hi, count=5, t_avg=t_avg)

    def test_t_right_requires_t_left(self):
        with pytest.raises(ValueError):
            SweepSpec(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0,
                      gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                      lo=0.1, hi=1.0, count=5)


class TestSweepGrid:
    def test_grid_equals_linspace_bit_for_bit(self):
        # run_sweep writes numpy's linspace arithmetic straight into its table
        rng = np.random.default_rng(2024)
        grids = [(0.0, 5e-324, 3), (0.0, 5e-324, 2), (1.0, math.nextafter(1.0, 2.0), 5),
                 (-1.0, math.nextafter(-1.0, 0.0), 7), (0.0, 1.0, 2), (1e308, 1.7e308, 9)]
        while len(grids) < 20_000:
            # ends of any sign and size, some a few ulp apart, some far apart
            lo = float(rng.choice([0.0, -1.0, 1.0])) * 10.0 ** rng.uniform(-320.0, 300.0)
            scale = abs(lo) or 10.0 ** rng.uniform(-320.0, 300.0)
            hi = lo + scale * 10.0 ** rng.uniform(-16.0, 5.0)
            if lo < hi < math.inf:
                grids.append((lo, hi, int(rng.choice([2, 3, rng.integers(2, 100),
                                                      rng.integers(2, 2000)]))))
        for lo, hi, count in grids:
            row = np.empty(count)
            experiments._fill_grid(row, lo, hi)
            assert row.tobytes() == np.linspace(lo, hi, count).tobytes(), (lo, hi, count)

    def test_sweep_rows_carry_the_linspace_grid(self):
        table = np.asarray(run_sweep(equilibrium_spec(lo=0.05, hi=3.0, count=61)))
        assert table[:, 1].tobytes() == np.linspace(0.05, 3.0, 61).tobytes()
        # the step underflows to 0 here: numpy divides by 2, then multiplies by the span
        rows = run_sweep(equilibrium_spec(lo=0.0, hi=5e-324, count=3))
        assert [row.t_left for row in rows] == [0.0, 0.0, 5e-324]


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

    @pytest.mark.parametrize("dts, message", [
        ([0.5, math.nan, 2.0], "bias nan outside (0, 1.0)"),
        ([0.5, 0.0], "bias 0.0 outside (0, 1.0)"),
        ([0.5, 1.0, -0.2], "bias 1.0 outside (0, 1.0)"),
        ([-0.0], "bias -0.0 outside (0, 1.0)"),
        ([0.3, math.inf], "bias inf outside (0, 1.0)"),
    ])
    def test_rejected_bias_is_the_first_outside_the_window(self, dts, message):
        with pytest.raises(ValueError) as excinfo:
            rectification_scan(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.0, dts)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("dts, shape", [(0.5, "()"), ([[0.1, 0.2], [0.3, 0.4]], "(2, 2)")])
    def test_rejects_a_bias_grid_that_is_not_one_dimensional(self, dts, shape):
        with pytest.raises(ValueError) as excinfo:
            rectification_scan(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.0, dts)
        assert str(excinfo.value) == f"biases must form a 1-D grid, got shape {shape}"

    @pytest.mark.parametrize("dts", [np.array([0.5 + 2j]), [0.3, 0.5 + 2j]])
    def test_rejects_complex_biases(self, dts):
        # numpy's cast to float would drop the imaginary parts (for an array with
        # only a warning), and the scan would run at dT = 0.5
        with pytest.raises(ValueError) as excinfo:
            rectification_scan(PARAMS, BathKind.BOSON, 1.0, 1.0, 1.0, dts)
        assert str(excinfo.value) == "biases must be real, got dtype complex128"

    @pytest.mark.parametrize("kind", list(BathKind))
    def test_rejects_bias_whose_hot_side_overflows(self, kind):
        # T_a + dT = inf: boson rates would not be finite, and spin rates would
        # give J = 0.0 at an infinite temperature
        with pytest.raises(ValueError) as excinfo:
            rectification_scan(PARAMS, kind, 1.0, 1.0, 1e308, np.linspace(1e307, 9e307, 5))
        assert str(excinfo.value) == "T_a + dT overflows at T_a = 1e+308, dT = 9e+307"


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
        # the messages SweepSpec and rectification_scan give
        message = "finite" if math.inf in (gl, gr) else "nonnegative"
        with pytest.raises(ValueError, match=f"^couplings must be {message}$"):
            sudden_death_temperature(PARAMS, BathKind.BOSON, gl, gr)


class TestInfiniteCoupling:
    # Gamma = inf is rejected by name: it used to reach the solver and fail as
    # NaN populations or a non-finite current
    @pytest.mark.parametrize("gl, gr", [(math.inf, 1.0), (1.0, math.inf)])
    def test_solve_point(self, gl, gr):
        for kind in BathKind:
            with pytest.raises(ValueError, match="gamma must be finite, got inf"):
                solve_point(PARAMS, kind, gl, gr, 1.5, 0.5)

    @pytest.mark.parametrize("gl, gr", [(math.inf, 1.0), (1.0, math.inf)])
    def test_run_sweep(self, gl, gr):
        with pytest.raises(ValueError, match="couplings must be finite"):
            run_sweep(SweepSpec(PARAMS, BathKind.BOSON, gl, gr, SweepVariable.T_RIGHT,
                                0.1, 1.0, 5, t_left=1.5))

    @pytest.mark.parametrize("gl, gr", [(math.inf, 1.0), (1.0, math.inf)])
    def test_rectification_scan(self, gl, gr):
        with pytest.raises(ValueError, match="couplings must be finite"):
            rectification_scan(PARAMS, BathKind.SPIN, gl, gr, 1.0, [0.5])

    def test_negative_couplings_keep_their_message(self):
        with pytest.raises(ValueError, match="gamma must be >= 0, got -1.0"):
            solve_point(PARAMS, BathKind.BOSON, -1.0, math.inf, 1.5, 0.5)
        with pytest.raises(ValueError, match="couplings must be nonnegative"):
            rectification_scan(PARAMS, BathKind.BOSON, math.inf, -1.0, 1.0, [0.5])


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
