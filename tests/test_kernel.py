"""The array kernel behind run_sweep and rectification_scan, against the scalar path.

``solve_point`` and ``heat_current`` evaluate one point at a time through
``channel_rates``, ``steady_populations`` and ``correlation_report``; they
are the reference here. numpy's exp, expm1, log2 and hypot may round
differently from the math module by an ulp, so agreement is asserted to
1e-12, not bit for bit.
"""

import math

import numpy as np
import pytest

from oracles import exact_boson_point
from qjunction import (
    BathKind,
    BathSpec,
    SweepSpec,
    SweepVariable,
    SystemParams,
    channel_rates,
    heat_current,
    rectification_scan,
    run_sweep,
    solve_point,
)

TOL = 1e-12


def _draw_cases(seed=20260514, per_class=3):
    """Seeded sweeps: both kinds, both orientations, every sweep variable.

    Grids start at T = 0 where the variable allows it, T_COMMON grids put
    T_L = T_R at every point, and one case in three leaves one bath
    uncoupled (Gamma = 0).
    """
    rng = np.random.default_rng(seed)
    cases = []
    for kind in BathKind:
        for inverted in (False, True):
            for variable in SweepVariable:
                for k in range(per_class):
                    small, large = sorted(rng.uniform(0.05, 2.0, 2))
                    large += 0.05
                    eps, kap = (large, small) if inverted else (small, large)
                    gammas = list(rng.uniform(0.01, 5.0, 2))
                    if k == 2:
                        gammas[int(rng.integers(2))] = 0.0
                    if variable is SweepVariable.DELTA_T:
                        t_avg = float(rng.uniform(0.1, 3.0))
                        grid = dict(lo=-0.99 * t_avg, hi=0.99 * t_avg, t_avg=t_avg)
                    elif variable is SweepVariable.T_RIGHT:
                        t_left = 0.0 if k == 1 else float(rng.uniform(0.0, 3.0))
                        grid = dict(lo=0.0, hi=float(rng.uniform(0.5, 5.0)), t_left=t_left)
                    else:
                        grid = dict(lo=0.0, hi=float(rng.uniform(0.5, 5.0)))
                    cases.append(SweepSpec(SystemParams(float(eps), float(kap)), kind,
                                           float(gammas[0]), float(gammas[1]), variable,
                                           count=41, **grid))
    return cases


CASES = _draw_cases()


def _scalar_current(params, kind, gamma_left, gamma_right, t_left, t_right):
    rates = channel_rates(params, BathSpec(kind, gamma_left, t_left),
                          BathSpec(kind, gamma_right, t_right))
    return heat_current(rates)


def test_run_sweep_matches_solve_point_row_by_row():
    worst = 0.0
    for spec in CASES:
        rows = run_sweep(spec)
        assert len(rows) == spec.count
        for row in rows:
            assert all(type(value) is float for value in row)
            ref = solve_point(spec.params, spec.kind, spec.gamma_left, spec.gamma_right,
                              row.t_left, row.t_right)
            worst = max(worst, float(np.max(np.abs(np.subtract(row, ref)))))
    print(f"max |run_sweep - solve_point| = {worst:.1e} over {len(CASES)} sweeps")
    assert worst <= TOL


def test_rectification_scan_matches_scalar_heat_current():
    worst = 0.0
    for spec in CASES:
        t_avg = spec.t_avg if spec.t_avg is not None else spec.hi
        dts = np.linspace(0.01 * t_avg, 0.99 * t_avg, 23)
        args = (spec.params, spec.kind, spec.gamma_left, spec.gamma_right)
        for point, dt in zip(rectification_scan(*args, t_avg, dts), dts):
            assert point.delta_t == dt
            forward = _scalar_current(*args, t_avg + dt, t_avg - dt)
            reverse = _scalar_current(*args, t_avg - dt, t_avg + dt)
            worst = max(worst, abs(point.j_forward - forward),
                        abs(point.j_reverse - reverse))
    assert worst <= TOL


def test_uncoupled_junction_scan_carries_no_current():
    points = rectification_scan(SystemParams(0.2, 1.0), BathKind.SPIN, 0.0, 0.0, 1.0,
                                [0.1, 0.5])
    assert [(p.j_forward, p.j_reverse) for p in points] == [(0.0, 0.0), (0.0, 0.0)]


def test_empty_bias_grid():
    assert rectification_scan(SystemParams(0.2, 1.0), BathKind.BOSON, 1.0, 1.0, 1.0, []) == []


def test_rows_are_immutable_named_tuples():
    (row, *_) = run_sweep(CASES[0])
    assert row._fields[:3] == ("t_left", "t_right", "p1")
    with pytest.raises(AttributeError):
        row.p1 = 0.5


class TestNonFinite:
    PARAMS = SystemParams(0.2, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("lo", -math.inf), ("hi", math.inf), ("hi", math.nan), ("t_left", math.inf),
    ])
    def test_sweep_spec_rejects_non_finite_temperatures(self, field, value):
        grid = dict(lo=0.1, hi=1.0, t_left=1.0)
        grid[field] = value
        with pytest.raises(ValueError):
            SweepSpec(self.PARAMS, BathKind.BOSON, 1.0, 1.0, SweepVariable.T_RIGHT,
                      count=5, **grid)

    def test_sweep_spec_rejects_non_finite_mean_temperature(self):
        with pytest.raises(ValueError):
            SweepSpec(self.PARAMS, BathKind.BOSON, 1.0, 1.0, SweepVariable.DELTA_T,
                      -0.5, 0.5, 5, t_avg=math.inf)

    def test_sweep_spec_rejects_nan_coupling(self):
        with pytest.raises(ValueError):
            SweepSpec(self.PARAMS, BathKind.BOSON, math.nan, 1.0,
                      SweepVariable.T_COMMON, 0.1, 1.0, 5)

    def test_rectification_rejects_non_finite_mean_temperature(self):
        with pytest.raises(ValueError):
            rectification_scan(self.PARAMS, BathKind.BOSON, 1.0, 1.0, math.inf, [0.5])

    def test_bath_rejects_infinite_temperature(self):
        with pytest.raises(ValueError):
            BathSpec(BathKind.BOSON, 1.0, math.inf)

    def test_huge_temperature_is_a_typed_error(self):
        with pytest.raises(ValueError):
            solve_point(self.PARAMS, BathKind.BOSON, 1e200, 1.0, 1e308, 0.5)


# (epsilon, kappa, Gamma_L, Gamma_R, T_R) of boson points at T_L = 1e308. In the
# first five, left rates near 5e307 overflowed a channel's doubled total (the
# current lost that channel's term) or its summed rates (P read (0, 1/2, 0, 1/2),
# not 1/4 each); in the last, left rates near 1e307 are below that, but omega
# times a left rate times a right rate overflowed (a ValueError, J ~ 36)
NEAR_CEILING = [
    (1.8003068063182628, 0.13118308168496076, 0.8069918774460697,
     0.14793354495870803, 1.668801301610526),
    (5.424127930152433, 0.37000218954618563, 3.2846944603996198,
     0.08515434614461359, 0.36595025556148336),
    (3.0191189460251424, 1.3480374429990096, 1.9310977908193563,
     0.4052849101084744, 1.3950598819868418),
    (1.149920064488357, 0.2639820233859646, 0.5683442182970369,
     1.205744935383994, 1.0594465715665733),
    (5.6997862104443415, 0.6817135463206729, 3.199729788490749,
     0.09277403705169157, 0.1254535874911514),
    (6.814540687422349, 1.6143144377663998, 0.20387232532666857,
     10.583947812514673, 4.257239872147293),
]


@pytest.mark.parametrize("eps, kap, gl, gr, tr", NEAR_CEILING)
def test_rates_near_the_float_ceiling_match_exact_evaluation(eps, kap, gl, gr, tr):
    pops, current = exact_boson_point(eps, kap, gl, gr, 1e308, tr)
    params = SystemParams(eps, kap)
    point = solve_point(params, BathKind.BOSON, gl, gr, 1e308, tr)
    first = run_sweep(SweepSpec(params, BathKind.BOSON, gl, gr, SweepVariable.T_RIGHT,
                                tr, 2.0 * tr, 2, t_left=1e308))[0]
    for row in (point, first):
        assert row.t_right == tr
        assert row.heat_current == pytest.approx(current, rel=TOL)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)


# (epsilon, kappa, Gamma_L, Gamma_R, T_L, T_R) of boson points that pair rates
# near the float ceiling with rates near 1e-300, or a gap near 1e290 with
# products of two rates near 1e22. Rescaling a whole channel further than its
# sum needs would flush the small rates to 0 and read J = 0.0 in the first
# four; the last overflowed omega times a product of two rates
EXTREME_RATIOS = [
    (0.2, 1.0, 1.0, 1e-300, 1e308, 1.0),
    (0.2, 1.0, 1e-300, 1.0, 1.0, 1e308),
    (0.2, 1.0, 1e-300, 1e308, 1.5, 0.5),
    (0.2, 1.0, 1e308, 1e-300, 0.5, 1.5),
    (0.2, 1e290, 1e10, 1e10, 1e291, 5e290),
]


@pytest.mark.parametrize("eps, kap, gl, gr, tl, tr", EXTREME_RATIOS)
def test_extreme_rate_ratios_match_exact_evaluation(eps, kap, gl, gr, tl, tr):
    pops, current = exact_boson_point(eps, kap, gl, gr, tl, tr)
    params = SystemParams(eps, kap)
    point = solve_point(params, BathKind.BOSON, gl, gr, tl, tr)
    last = run_sweep(SweepSpec(params, BathKind.BOSON, gl, gr, SweepVariable.T_RIGHT,
                               0.5 * tr, tr, 2, t_left=tl))[-1]
    for row in (point, last):
        assert row.t_right == tr
        # abs=0: pytest.approx would otherwise accept 0.0 for J ~ 1e-301
        assert row.heat_current == pytest.approx(current, rel=TOL, abs=0.0)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)


def test_huge_couplings_match_exact_evaluation_on_every_route():
    # J is linear in the coupling scale, but products of two rates near 1e300
    # overflow unless the channel is first divided by a power of two
    params, gamma = SystemParams(0.2, 1.0), 1e300
    args = (params, BathKind.BOSON, gamma, gamma)
    pops, current = exact_boson_point(0.2, 1.0, gamma, gamma, 1.5, 0.5)
    point = solve_point(*args, 1.5, 0.5)
    assert point.heat_current == pytest.approx(current, rel=TOL)
    assert [point.p1, point.p2, point.p3, point.p4] == pytest.approx(pops, abs=TOL)
    for row in run_sweep(SweepSpec(*args, SweepVariable.T_RIGHT, 0.1, 1.0, 5, t_left=1.5)):
        pops, current = exact_boson_point(0.2, 1.0, gamma, gamma, 1.5, row.t_right)
        assert row.heat_current == pytest.approx(current, rel=TOL)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)
    (rect,) = rectification_scan(*args, 1.0, [0.5])
    assert rect.j_forward == pytest.approx(
        exact_boson_point(0.2, 1.0, gamma, gamma, 1.5, 0.5)[1], rel=TOL)
    assert rect.j_reverse == pytest.approx(
        exact_boson_point(0.2, 1.0, gamma, gamma, 0.5, 1.5)[1], rel=TOL)
