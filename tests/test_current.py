"""The heat current on every route: its sign, its zero, and its accuracy.

Each channel carries J_c = (omega_c/4) Gamma_min (y_R - y_L) / D
(``solver._current``), with y = tanh(omega_c/2T) per bath, which is
(omega_c/2) Gamma_L Gamma_R (n_L - n_R) / S_c. Its sign is that of y_R - y_L,
and y falls as the temperature grows, so J never has the sign opposite to
T_L - T_R, and it is exactly 0.0 wherever T_L == T_R: the entropy production
J (1/T_R - 1/T_L) is never negative (Spohn, J. Math. Phys. 19, 1227 (1978)).
y_R - y_L is formed from E = expm1(omega/T) per bath, as 2 (E_R - E_L)/(E_L +
2)/(E_R + 2), so nothing cancels for hot baths of either kind beyond the bias
itself, where two spin occupations near 1/2 once did. The references are
``oracles.exact_point``, at 80 digits or more.
"""

import math

import numpy as np
import pytest
from oracles import exact_point

from qjunction import (BathKind, SweepSpec, SweepVariable, SystemParams, rectification_scan,
                       run_sweep, solve_point)

TOL = 1e-12


def _exact_j(params, kind, gl, gr, tl, tr):
    return float(exact_point(params.epsilon, params.kappa, kind.value, gl, gr, tl, tr)
                 .heat_current)


def _systems(seed, count, t_lo, t_hi):
    """(params, kind, Gamma_L, Gamma_R, T) of seeded systems: both kinds, both
    orientations (epsilon below and above kappa), couplings 1e-2..1e2, T log-uniform."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        eps, kap = sorted(float(v) for v in rng.uniform(0.01, 3.0, 2))
        if i % 4 >= 2:
            eps, kap = kap, eps
        gl, gr = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
        yield (SystemParams(eps, kap), BathKind.BOSON if i % 2 else BathKind.SPIN, gl, gr,
               float(10.0 ** rng.uniform(t_lo, t_hi)))


def _near(t):
    """Temperatures beside t: 1 to 8 ulps above and below, 1e-15 to 1e-13 relative
    above and below, and t itself."""
    near = [t]
    for direction in (math.inf, 0.0):
        step = t
        for _ in range(8):
            step = math.nextafter(step, direction)
            near.append(step)
    near += [t * (1.0 + s * d) for d in (1e-15, 3e-15, 1e-14, 3e-14, 1e-13) for s in (1, -1)]
    return near


def _assert_sign(j, tl, tr, where):
    if tl == tr:
        assert j == 0.0, (where, tl, tr, j)
    else:
        assert not (j < 0.0 < tl - tr or j > 0.0 > tl - tr), (where, tl, tr, j)


def test_current_never_runs_against_the_bias_and_vanishes_at_equal_temperatures():
    # derandomized: the same 48 systems on every run, each at the biases of _near on
    # the point, sweep and scan routes; T_COMMON sweep rows are equilibria throughout
    for params, kind, gl, gr, t in _systems(2401, 48, -1.0, 3.0):
        args = (params, kind, gl, gr)
        near = _near(t)
        for tl in near:
            _assert_sign(solve_point(*args, tl, t).heat_current, tl, t, "point")
            _assert_sign(solve_point(*args, t, tl).heat_current, t, tl, "point")
        sweeps = [SweepSpec(*args, SweepVariable.T_RIGHT, min(near), max(near), 41, t_left=t),
                  SweepSpec(*args, SweepVariable.DELTA_T, -8 * math.ulp(t), 8 * math.ulp(t),
                            17, t_avg=t),
                  SweepSpec(*args, SweepVariable.T_COMMON, 0.5 * t, 2.0 * t, 33)]
        for spec in sweeps:
            for row in run_sweep(spec):
                _assert_sign(row.heat_current, row.t_left, row.t_right, spec.variable)
        dts = [tl - t for tl in near if tl > t]
        for point in rectification_scan(*args, t, dts):
            hot, cold = t + point.delta_t, t - point.delta_t
            _assert_sign(point.j_forward, hot, cold, "scan")
            _assert_sign(point.j_reverse, cold, hot, "scan")


def test_a_bias_of_one_ulp_gives_no_current_against_it():
    # a boson point from perfbench's sweep inputs, where the exact J is -2.15e-17
    # and the difference of two rate products read +1.78e-17
    params = SystemParams(0.2854795198431085, 0.31829422116740014)
    row = solve_point(params, BathKind.BOSON, 7.0610515319904055, 0.409390965212145,
                      2.5211756246188495, 2.5211756246188504)
    assert row.heat_current <= 0.0


def _hot_points():
    """(params, Gamma_L, Gamma_R, T_L, T_R): 1e6 against 0.999e6, then 24 seeded
    points with T_R from 1e2 to 1e12 and |T_L - T_R| from 1e-3 T_R to T_R/2."""
    yield SystemParams(0.2, 1.0), 1.0, 1.0, 1e6, 0.999e6
    rng = np.random.default_rng(2402)
    for params, _, gl, gr, tr in _systems(2403, 24, 2.0, 12.0):
        bias = float(rng.choice([-1.0, 1.0])) * float(10.0 ** rng.uniform(-3.0, math.log10(0.5)))
        yield params, gl, gr, tr * (1.0 + bias), tr


@pytest.mark.parametrize("kind", list(BathKind))
@pytest.mark.parametrize("params, gl, gr, tl, tr", list(_hot_points()))
def test_hot_current_is_accurate_on_every_route(kind, params, gl, gr, tl, tr):
    # two products of boson rates cancelled to 2.9e-8 relative at 1e6 against 0.999e6,
    # and n_L - n_R of two spin baths, both near 1/2, to 4e-2 at T near 1e12
    args = (params, kind, gl, gr)
    exact = _exact_j(*args, tl, tr)
    assert solve_point(*args, tl, tr).heat_current == pytest.approx(exact, rel=TOL, abs=0.0)
    first = run_sweep(SweepSpec(*args, SweepVariable.T_RIGHT, tr, 2.0 * tr, 2, t_left=tl))[0]
    assert first.t_right == tr
    assert first.heat_current == pytest.approx(exact, rel=TOL, abs=0.0)
    t_avg, dt = 0.5 * (tl + tr), 0.5 * abs(tl - tr)
    (point,) = rectification_scan(*args, t_avg, [dt])
    hot, cold = t_avg + dt, t_avg - dt
    assert point.j_forward == pytest.approx(_exact_j(*args, hot, cold), rel=TOL, abs=0.0)
    assert point.j_reverse == pytest.approx(_exact_j(*args, cold, hot), rel=TOL, abs=0.0)


def _not_finite(tl, tr):
    return f"heat current is not finite at T_L = {tl}, T_R = {tr}"


# (kind, epsilon, kappa, Gamma_L, Gamma_R, T_L, T_R, the error or None) of single points
# near the float ceiling: a point fails only where its current is not finite, past the
# float range or where a boson D is 0; otherwise J is accurate, although a channel's rates
# or its S would pass the float range (a boson rate Gamma (n + 1) overflows on its own at
# Gamma T / omega past 1.8e308), with one uncoupled bath, with a bath at T = 0, and for
# hot spin baths whose occupations n_L and n_R both round to 1/2
B, S = BathKind.BOSON, BathKind.SPIN
CEILING_POINTS = [
    (B, 0.2, 1.0, 1e-2, 1e-2, 1e308, 0.0, None),
    (B, 0.2, 1.0, 1e-2, 1e-2, 5e307, 1e308, None),
    (B, 1.0, 0.2, 1e-2, 1e-2, 1e307, 3e306, None),
    (B, 0.2, 1.0, 1e-2, 1e-2, 1.7e308, 1e300, None),
    (B, 0.2, 1.0, 1.0, 1e10, 1e308, 1.0, None),
    (B, 0.2, 1.0, 1.0, 1e10, 1e300, 2e300, None),
    (B, 1.0, 0.2, 1e10, 1.0, 0.0, 1e306, None),
    (B, 0.2, 1.0, 1e-2, 1e10, 0.0, 1e306, None),
    (B, 0.2, 1.0, 0.0, 1.0, 1.7e308, 1e300, None),
    (B, 1.0, 0.2, 1.0, 0.0, 1.7e308, 1e300, None),
    (B, 0.2, 1.0, 1.0, 0.0, 5e307, 1e308, None),
    (B, 0.2, 1.0, 1e3, 1e3, 1e300, 2e300, None),
    (B, 0.2, 1.0, 1e3, 1e3, 1e307, 3e306, None),
    (B, 0.2, 1.0, 1e300, 1e300, 1.5e8, 0.5e8, None),
    (B, 0.2, 1.0, 1e300, 1e300, 1.0001e8, 0.9999e8, None),
    (B, 0.2, 1.0, 8e299, 8e299, 1.5e8, 0.5e8, None),
    (B, 0.2, 1.0, 1e300, 8e299, 1e8, 0.0, None),
    (B, 0.2, 1.0, 8e299, 1.0, 1.0001e8, 0.9999e8, None),
    (B, 0.2, 1.0, 0.0, 1e300, 1.5e8, 0.5e8, None),
    (S, 0.2, 1.0, 1e308, 1e308, 1.5, 0.5, None),
    (S, 0.2, 1.0, 1e308, 1e-2, 0.0, 2.0, None),
    (S, 0.2, 1.0, 1e300, 1e300, 1e300, 2e300, None),  # exact J -0.065
    (S, 0.2, 1.0, 1.0, 1.0, 1e20, 2e20, None),  # exact J -6.5e-22
    # J near -5e309: couplings of 1e308 at gaps near 100 beside a bath at T = 0
    (B, 0.2, 100.0, 1e308, 1e308, 0.0, 1e6, _not_finite(0.0, 1e6)),
    # D = 0: at a gap of 2**-52 both baths' y round to 0
    (B, 1.0, 1.0 + 2.0 ** -52, 1.0, 1.0, 1e308, 1e308, _not_finite(1e308, 1e308)),
]

# (kind, epsilon, kappa, Gamma_L, Gamma_R, T_a, biases, the error, None, or a bound on
# the relative error of J where it exceeds TOL) of scans
CEILING_SCANS = [
    # qjunction rect --ta 1e308 --lo 1e300 --hi 1e301 --n 5 --gl 1e10: exact J near 1e-8,
    # from x = omega/T near 8e-309, subnormal, at relative biases of 1e-8 or less, so that
    # y_R - y_L keeps some 2e-8 of its value (ROADMAP item 1's small-bias factor); the
    # rate Gamma_L (n + 1) of this bath would overflow
    (B, 0.2, 1.0, 1e10, 1.0, 1e308, np.linspace(1e300, 1e301, 5), 1e-7),
    (B, 0.2, 1.0, 1e-2, 1e-2, 1e306, [1e303, 5e305, 9.99e305], None),
    (B, 1.0, 0.2, 1.0, 0.0, 1e306, [1e303, 5e305, 9.99e305], None),
    (B, 0.2, 1.0, 1e300, 1e300, 1e8, [1e5, 1e7, 5e7, 9e7], None),
    (B, 0.2, 1.0, 8e299, 8e299, 1e8, [1e5, 1e7, 5e7, 9e7], None),
    (B, 0.2, 1.0, 8e299, 8e299, 1e8, [1e5, 1e7, 5e7], None),
    (S, 0.2, 1.0, 1e308, 1e308, 1.0, [0.1, 0.5, 0.9], None),
    (B, 0.2, 100.0, 1e308, 1e308, 5e5, [4e5, 4.9e5], _not_finite(9e5, 1e5)),
]


def _assert_exact(j, params, kind, gl, gr, tl, tr, tol=TOL):
    exact = _exact_j(params, kind, gl, gr, tl, tr)
    assert j == pytest.approx(exact, rel=tol, abs=0.0), (tl, tr)


@pytest.mark.parametrize("kind, eps, kap, gl, gr, tl, tr, error", CEILING_POINTS)
def test_points_near_the_float_ceiling_fail_only_where_the_current_is_not_finite(
        kind, eps, kap, gl, gr, tl, tr, error):
    params = SystemParams(eps, kap)
    if error:
        with pytest.raises(ValueError) as caught:
            solve_point(params, kind, gl, gr, tl, tr)
        assert str(caught.value) == error
    else:
        _assert_exact(solve_point(params, kind, gl, gr, tl, tr).heat_current,
                      params, kind, gl, gr, tl, tr)


@pytest.mark.parametrize("kind, eps, kap, gl, gr, t_avg, dts, error", CEILING_SCANS)
def test_scans_near_the_float_ceiling_fail_only_where_the_current_is_not_finite(
        kind, eps, kap, gl, gr, t_avg, dts, error):
    params = SystemParams(eps, kap)
    if isinstance(error, str):
        with pytest.raises(ValueError) as caught:
            rectification_scan(params, kind, gl, gr, t_avg, dts)
        assert str(caught.value) == error
        return
    for point in rectification_scan(params, kind, gl, gr, t_avg, dts):
        hot, cold = t_avg + point.delta_t, t_avg - point.delta_t
        _assert_exact(point.j_forward, params, kind, gl, gr, hot, cold, error or TOL)
        _assert_exact(point.j_reverse, params, kind, gl, gr, cold, hot, error or TOL)
