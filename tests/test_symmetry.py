"""Exact symmetries of the solution on the point, sweep and scan routes.

Swapping the two baths, couplings and temperatures together, reverses the
heat current and leaves the state as it is: every form is symmetric in the
two baths but for the sign of n_L - n_R, and a rounded sum or difference is
exact under the exchange (a + b = b + a, a - b = -(b - a)). Scaling by a power
of two commutes with rounding wherever nothing overflows or turns subnormal:
couplings times 4 multiply every rate, and so J, by 4 and leave the channel
weights; epsilon, kappa and every temperature times 8 leave each omega/T, and
so every rate, as they are, and multiply J, which carries a gap, by 8. So
each holds to the bit. The swap is drawn over the whole domain; the scalings
over one that keeps every value normal. Draws are derandomized and bounded
like ``test_kernel.test_single_points_are_finite_and_normalized``.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qjunction import (BathKind, SweepSpec, SweepVariable, SystemParams, rectification_scan,
                       run_sweep, solve_point)

# the fields of a SweepRow that hold the state: P1..P4 and the four measures
STATE = [2, 3, 4, 5, 7, 8, 9, 10]

_ENERGIES = st.floats(1e-3, 10.0)
_KINDS = st.sampled_from(BathKind)
_WIDE_TEMPERATURES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308),
                               st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e))
_WIDE_GAMMAS = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]),
                         st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
# where every rate, weight, current and measure stays a normal float when scaled
_TEMPERATURES = st.one_of(st.just(0.0), st.floats(-1.3, 6.0).map(lambda e: 10.0 ** e))
_GAMMAS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


def _outcome(call, *args):
    """The call's result, or the type of the ValueError it raised."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc)


def _same_state(row, other):
    assert np.array(row)[STATE].tobytes() == np.array(other)[STATE].tobytes()


# the same 100 draws on every run, about 0.3 s
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(eps=_ENERGIES, kap=_ENERGIES, kind=_KINDS, gl=_WIDE_GAMMAS, gr=_WIDE_GAMMAS,
       tl=_WIDE_TEMPERATURES, tr=_WIDE_TEMPERATURES)
def test_swapping_the_baths_reverses_the_current_and_keeps_the_state(eps, kap, kind, gl, gr,
                                                                     tl, tr):
    assume(eps != kap)
    params = SystemParams(eps, kap)
    row = _outcome(solve_point, params, kind, gl, gr, tl, tr)
    swapped = _outcome(solve_point, params, kind, gr, gl, tr, tl)
    if isinstance(row, type):
        assert swapped is row
        return
    assert swapped.heat_current == -row.heat_current
    _same_state(row, swapped)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(eps=_ENERGIES, kap=_ENERGIES, kind=_KINDS, gl=_WIDE_GAMMAS, gr=_WIDE_GAMMAS,
       t_avg=st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e),
       shares=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=12))
def test_swapping_the_couplings_of_a_scan_swaps_and_reverses_its_currents(
        eps, kap, kind, gl, gr, t_avg, shares):
    assume(eps != kap)
    params, dts = SystemParams(eps, kap), [t_avg * share for share in shares]
    scan = _outcome(rectification_scan, params, kind, gl, gr, t_avg, dts)
    swapped = _outcome(rectification_scan, params, kind, gr, gl, t_avg, dts)
    if isinstance(scan, type):
        assert swapped is scan
        return
    for point, other in zip(scan, swapped):
        assert (other.j_forward, other.j_reverse) == (-point.j_reverse, -point.j_forward)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(eps=_ENERGIES, kap=_ENERGIES, kind=_KINDS, gl=_GAMMAS, gr=_GAMMAS, tl=_TEMPERATURES,
       tr=_TEMPERATURES)
def test_a_point_scales_with_the_couplings_and_the_energies(eps, kap, kind, gl, gr, tl, tr):
    assume(eps != kap and (gl or gr))
    row = solve_point(SystemParams(eps, kap), kind, gl, gr, tl, tr)
    coupled = solve_point(SystemParams(eps, kap), kind, 4.0 * gl, 4.0 * gr, tl, tr)
    assert coupled.heat_current == 4.0 * row.heat_current
    _same_state(row, coupled)
    hotter = solve_point(SystemParams(8.0 * eps, 8.0 * kap), kind, gl, gr, 8.0 * tl, 8.0 * tr)
    assert hotter.heat_current == 8.0 * row.heat_current
    _same_state(row, hotter)


def _sweep(eps, kap, kind, gl, gr, variable, lo, hi, count, fixed):
    return np.asarray(run_sweep(SweepSpec(
        SystemParams(eps, kap), kind, gl, gr, variable, lo, hi, count,
        t_left=fixed if variable is SweepVariable.T_RIGHT else None,
        t_avg=fixed if variable is SweepVariable.DELTA_T else None)))


# 60 draws of three sweeps each, about 0.4 s; some span two chunks
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(eps=_ENERGIES, kap=_ENERGIES, kind=_KINDS, gl=_GAMMAS, gr=_GAMMAS,
       variable=st.sampled_from(SweepVariable), lo=st.floats(0.0, 0.99), span=_TEMPERATURES,
       fixed=st.floats(-1.3, 6.0).map(lambda e: 10.0 ** e),
       count=st.one_of(st.integers(2, 40), st.just(2049)))
def test_a_sweep_scales_with_the_couplings_and_the_energies(eps, kap, kind, gl, gr, variable,
                                                            lo, span, fixed, count):
    # a DELTA_T grid is (-lo, lo) of T_a times 0.99 at most; the others run from lo T to T
    assume(eps != kap and (gl or gr) and span > 0.0)
    if variable is SweepVariable.DELTA_T:
        lo, hi = -0.99 * lo * fixed - 1e-3 * fixed, 0.99 * lo * fixed + 1e-3 * fixed
    else:
        lo, hi = lo * span, span
    args = (variable, lo, hi, count, fixed)
    table = _sweep(eps, kap, kind, gl, gr, *args)
    coupled = _sweep(eps, kap, kind, 4.0 * gl, 4.0 * gr, *args)
    assert coupled[:, :2].tobytes() == table[:, :2].tobytes()
    assert coupled[:, 6].tobytes() == (4.0 * table[:, 6]).tobytes()
    assert coupled[:, STATE].tobytes() == table[:, STATE].tobytes()
    hotter = _sweep(8.0 * eps, 8.0 * kap, kind, gl, gr, variable, 8.0 * lo, 8.0 * hi, count,
                    8.0 * fixed)
    assert hotter[:, :2].tobytes() == (8.0 * table[:, :2]).tobytes()
    assert hotter[:, 6].tobytes() == (8.0 * table[:, 6]).tobytes()
    assert hotter[:, STATE].tobytes() == table[:, STATE].tobytes()


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(eps=_ENERGIES, kap=_ENERGIES, kind=_KINDS, gl=_GAMMAS, gr=_GAMMAS,
       t_avg=st.floats(-1.3, 6.0).map(lambda e: 10.0 ** e),
       shares=st.lists(st.floats(1e-6, 0.999), min_size=1, max_size=12))
def test_a_scan_scales_with_the_couplings_and_the_energies(eps, kap, kind, gl, gr, t_avg,
                                                           shares):
    assume(eps != kap)
    params, dts = SystemParams(eps, kap), np.array(shares) * t_avg
    scan = np.asarray(rectification_scan(params, kind, gl, gr, t_avg, dts))
    coupled = np.asarray(rectification_scan(params, kind, 4.0 * gl, 4.0 * gr, t_avg, dts))
    assert coupled[:, 1:].tobytes() == (4.0 * scan[:, 1:]).tobytes()
    hotter = np.asarray(rectification_scan(SystemParams(8.0 * eps, 8.0 * kap), kind, gl, gr,
                                           8.0 * t_avg, 8.0 * dts))
    assert hotter.tobytes() == (8.0 * scan).tobytes()
