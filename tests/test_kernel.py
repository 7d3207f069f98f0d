"""The kernels behind solve_point, run_sweep and rectification_scan, point against grid.

A single point runs the closed forms on Python floats (``solver.transport_kernel``,
which runs ``solver._channel`` at each gap, then ``correlations._measures``); a
grid runs the same ones on numpy arrays (``solver._channel`` at the column of both
gaps, then ``correlations._states``). The point route is the reference here. On a
grid the populations are products of the channel weights, which numpy rounds
exactly as floats do, so given the same weights the two routes agree bit for
bit. Everything else on a grid is asserted to 1e-12: each bath's E goes through
expm1 and the entropies through log2, and numpy may round those differently
from the math module by an ulp.

A grid comes back as a read-only table over the kernel's columns. The tests
after ``test_empty_bias_grid`` pin that it builds no row until one is read,
that ``np.asarray`` of it is that array, and that it indexes like a list.

numpy is imported by the first grid, never by a point, nor by a CLI grid of
up to ``cli._POINTWISE_MAX`` points, which runs the point route; nor is
``dataclasses`` or ``inspect``, by the CLI's point and death. This process has
numpy loaded already, so the tests that pin this run a fresh interpreter.
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qjunction
from conftest import exact_boson
from qjunction import (
    BathKind,
    RectificationPoint,
    SweepRow,
    SweepSpec,
    SweepVariable,
    SystemParams,
    rectification_scan,
    run_sweep,
    solve_point,
)
from qjunction import baths, cli, correlations, experiments, solver
from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN

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
    return solver.transport_kernel(params, kind, gamma_left, gamma_right, t_left, t_right)[1]


def _chunk_edges(count):
    """Both ends of a grid of ``count`` points and both sides of each chunk boundary."""
    chunk = experiments._CHUNK
    return sorted({0, count - 1} | {i for b in range(chunk, count, chunk) for i in (b - 1, b)})


# a sweep over four chunks of the grid drivers, both temperatures moving
CHUNKED_SWEEP = SweepSpec(SystemParams(0.7, 0.3), BathKind.SPIN, 1.3, 0.4,
                          SweepVariable.DELTA_T, -2.9, 2.9, 3 * experiments._CHUNK + 5,
                          t_avg=3.0)


def test_run_sweep_matches_solve_point_row_by_row():
    worst = 0.0
    sweeps = [(spec, range(spec.count)) for spec in CASES]
    sweeps.append((CHUNKED_SWEEP, _chunk_edges(CHUNKED_SWEEP.count)))
    for spec, picks in sweeps:
        rows = run_sweep(spec)
        assert len(rows) == spec.count
        for row in (rows[i] for i in picks):
            assert all(type(value) is float for value in row)
            ref = solve_point(spec.params, spec.kind, spec.gamma_left, spec.gamma_right,
                              row.t_left, row.t_right)
            worst = max(worst, float(np.max(np.abs(np.subtract(row, ref)))))
    print(f"max |run_sweep - solve_point| = {worst:.1e} over {len(sweeps)} sweeps")
    assert worst <= TOL


def test_kernel_populations_equal_steady_populations_exactly():
    # the grid's form, _states, given the four weights of each point as the point route
    # forms them (channel a's already swapped where it is inverted), gives solve_point's
    # populations bit for bit
    for spec in CASES:
        args = (spec.params, spec.kind, spec.gamma_left, spec.gamma_right)
        temperatures = [(row.t_left, row.t_right) for row in run_sweep(spec)]
        weights = np.array([solver.transport_kernel(*args, *ts)[0] for ts in temperatures]).T
        grid = np.empty((11, len(temperatures)))
        correlations._states(False, *weights, grid)
        assert grid[2:6].T.tolist() == [list(solve_point(*args, *ts)[2:6])
                                        for ts in temperatures]


def test_states_write_into_the_rows_they_are_given():
    # run_sweep hands _states a block of columns of its table; it writes into the
    # state rows the bits it writes into an (11, n) array, and nothing else
    temperatures = np.linspace(0.0, 3.0, 500)
    state_rows = [2, 3, 4, 5, 7, 8, 9, 10]
    for params in (SystemParams(0.2, 1.0), SystemParams(1.0, 0.2)):
        inverted = params.epsilon > params.kappa
        gaps = np.array(solver._gaps(params))[:, np.newaxis]
        for kind in BathKind:
            with np.errstate(all="ignore"):
                ((fa, fb), (ga, gb)), _ = solver._channel(
                    baths._arrays(), kind, 1.3, 0.4, gaps, temperatures,
                    temperatures[::-1].copy(), False)
            table = np.full((11, temperatures.size + 3), np.nan)
            rows = table[:, 1:-2]
            correlations._states(inverted, fa, ga, fb, gb, rows)
            own = np.empty((11, temperatures.size))
            correlations._states(inverted, fa, ga, fb, gb, own)
            assert rows[state_rows].tobytes() == own[state_rows].tobytes()
            assert not np.isnan(rows[state_rows]).any()
            assert np.isnan(table[[0, 1, 6]]).all()
            assert np.isnan(table[:, [0, -2, -1]]).all()


def test_measures_leave_the_weights_they_are_given_untouched():
    # on arrays _measures works in place only on arrays it made; the states with
    # fa = gb include discord clamped from just below 0, zero weights and pure states
    rng = np.random.default_rng(61)
    f = np.concatenate(([0.0, 1.0, 0.5], rng.integers(0, 2 ** 52 + 1, 500) / 2.0 ** 52))
    g = 1.0 - f
    shuffled = rng.permutation(f)
    for weights in ((f, g, shuffled, 1.0 - shuffled), (f, g, g.copy(), f.copy())):
        before = [w.tobytes() for w in weights]
        with np.errstate(all="ignore"):
            conc, mi, ccl, disc = correlations._measures(baths._arrays(), *weights)
        assert [w.tobytes() for w in weights] == before
        assert all(np.isfinite(m).all() for m in (conc, mi, ccl, disc))
    # the last states took the clamp
    assert ((mi - ccl < 0.0) & (disc == 0.0)).any()


def _unstacked_sweep(spec):
    """run_sweep's table from one pass over the whole grid, one channel at a time:
    ``solver._channel`` at each gap, then ``correlations._measures``."""
    grid = np.linspace(spec.lo, spec.hi, spec.count)
    if spec.variable is SweepVariable.DELTA_T:
        t_left, t_right = spec.t_avg + grid, spec.t_avg - grid
    elif spec.variable is SweepVariable.T_RIGHT:
        t_left, t_right = np.full(spec.count, float(spec.t_left)), grid
    else:  # each bath forms its own E
        t_left, t_right = grid, grid.copy()
    ops, table, gaps = baths._arrays(), np.empty((11, spec.count)), solver._gaps(spec.params)
    near_top = solver._near_top(spec.gamma_left, spec.gamma_right,
                                float(max(t_left.max(), t_right.max())), gaps[0])
    with np.errstate(all="ignore"):
        ((fa, ga), j_a), ((fb, gb), j_b) = (
            solver._channel(ops, spec.kind, spec.gamma_left, spec.gamma_right, omega,
                            t_left, t_right, near_top) for omega in gaps)
        if spec.params.epsilon > spec.params.kappa:
            fa, ga = ga, fa
        conc, mi, ccl, disc = correlations._measures(ops, fa, ga, fb, gb)
    table[:] = (t_left, t_right, fa * fb, ga * fb, fa * gb, ga * gb, 0.0 + j_a + j_b,
                conc, disc, mi, ccl)
    return table


# grids that end just before, on and just after a sweep's chunk edge (half a
# chunk of points), span two chunks, or three and a bit
SWEEP_SEAM_SIZES = [experiments._CHUNK // 2 - 1, experiments._CHUNK // 2,
                    experiments._CHUNK // 2 + 1, experiments._CHUNK,
                    3 * experiments._CHUNK // 2 + 7]


@pytest.mark.parametrize("n", SWEEP_SEAM_SIZES)
def test_run_sweep_equals_one_unstacked_whole_grid_pass_bit_for_bit(n):
    # a sweep solves both channels of a chunk at once, at a column of gaps, decides the
    # overflow test's bound once per call, reads one E for both coupled baths of a
    # T_COMMON grid and writes the states into its table; the bits are those of each
    # channel solved alone over the whole grid, each bath's E its own
    fixed = {SweepVariable.T_COMMON: {}, SweepVariable.T_RIGHT: {"t_left": 1.7},
             SweepVariable.DELTA_T: {"t_avg": 3.0}}
    specs = [SweepSpec(params, kind, gl, gr, variable,
                       -2.9 if variable is SweepVariable.DELTA_T else 0.0, 2.9, n,
                       **fixed[variable])
             for params in (SystemParams(0.2, 1.0), SystemParams(1.0, 0.2))
             for kind, variable in itertools.product(BathKind, SweepVariable)
             for gl, gr in ((1.3, 0.4), (0.0, 0.4), (1.3, 0.0))]
    # the golden sweep_tr_rescaled_over_sum: a bath at T = 1e308, near the float ceiling
    rescaled = [SweepSpec(SystemParams(6.8145, 1.6143), kind, 0.2039, 10.58,
                          SweepVariable.T_RIGHT, 0.5, 4.0, n, t_left=1e308) for kind in BathKind]
    # where both channels' terms of the current are -0.0, J is 0.0
    signed_zeros = SweepSpec(SystemParams(0.2, 1.0), BathKind.SPIN, 1e-300, 1e308,
                             SweepVariable.T_RIGHT, 0.0, 3.0, n, t_left=0.0)
    for spec in specs + rescaled + [signed_zeros]:
        table = np.asarray(run_sweep(spec)).T
        assert table.tobytes() == _unstacked_sweep(spec).tobytes()


def _bias_scans():
    """(system, T_a, biases, indices to check) of a scan per CASES sweep, then
    one whose biases span four chunks, checked at every point."""
    for spec in CASES:
        t_avg = spec.t_avg if spec.t_avg is not None else spec.hi
        args = (spec.params, spec.kind, spec.gamma_left, spec.gamma_right)
        yield args, t_avg, np.linspace(0.01 * t_avg, 0.99 * t_avg, 23), range(23)
    n = 3 * experiments._CHUNK // 4 + 7
    yield ((SystemParams(0.2, 1.0), BathKind.BOSON, 0.3, 2.1), 1.7,
           np.linspace(1e-3, 1.69, n), range(n))


def test_rectification_scan_matches_scalar_heat_current():
    worst = 0.0
    for args, t_avg, dts, picks in _bias_scans():
        points = rectification_scan(*args, t_avg, dts)
        assert len(points) == dts.size
        for point, dt in ((points[i], dts[i]) for i in picks):
            assert point.delta_t == dt
            forward = _scalar_current(*args, t_avg + dt, t_avg - dt)
            reverse = _scalar_current(*args, t_avg - dt, t_avg + dt)
            worst = max(worst, abs(point.j_forward - forward),
                        abs(point.j_reverse - reverse))
    assert worst <= TOL


def _whole_grid_scan(params, kind, gamma_left, gamma_right, t_avg, dts):
    """The currents over one grid, the forward biases, then the reversed: ``solver._channel``
    at the column of both gaps, the first that is not finite named by ``_check_current``."""
    signed = np.concatenate((dts, -dts))
    t_left, t_right, gaps = t_avg + signed, t_avg - signed, np.array(solver._gaps(params))
    near_top = solver._near_top(gamma_left, gamma_right, float(t_left.max()), float(gaps[0]))
    with np.errstate(all="ignore"):
        _, j = solver._channel(baths._arrays(), kind, gamma_left, gamma_right,
                               gaps[:, np.newaxis], t_left, t_right, near_top)
        j = 0.0 + j[0] + j[1]
    experiments._check_current(j, t_left, t_right)
    return j


# grids that end just before, on and just after a scan's chunk edge (a quarter of a
# chunk of biases, each solved forward and reversed at both gaps), span two chunks, or
# three and a bit; then the same around twice and four times as many biases
SEAM_SIZES = [experiments._CHUNK // 4 - 1, experiments._CHUNK // 4,
              experiments._CHUNK // 4 + 1, experiments._CHUNK // 2,
              3 * experiments._CHUNK // 4 + 7, experiments._CHUNK // 2 - 1,
              experiments._CHUNK // 2 + 1, experiments._CHUNK,
              3 * experiments._CHUNK // 2 + 7]


@pytest.mark.parametrize("n", SEAM_SIZES)
def test_rectification_scan_equals_one_whole_grid_call_bit_for_bit(n):
    # a scan forms one E per gap and side (T_a + dT, T_a - dT) that both baths read, the
    # right one with the sides swapped, negates the forward y_R - y_L for the reversed
    # bias, solves both channels in one pass and sums their terms into its own rows; the
    # bits are those of both channels solved at once over the whole forward-then-reversed
    # grid
    scans = [((params, kind, gl, gr), 1.7, np.linspace(1e-3, 1.69, n))
             for params in (SystemParams(0.2, 1.0), SystemParams(1.0, 0.2))
             for kind in BathKind for gl, gr in ((0.3, 2.1), (0.0, 2.1), (0.3, 0.0))]
    # the golden rect_spin_huge_couplings: couplings near the float ceiling
    scans.append(((SystemParams(0.2, 1.0), BathKind.SPIN, 1e300, 1e300), 1.0,
                  np.linspace(0.1, 0.9, n)))
    # the left bath's ybar vanishes (omega/T_L past 709.78) under most reversed biases, where
    # both channels' terms are -0.0 and J is 0.0
    scans += [((SystemParams(0.2, 1.0), kind, 1e-300, 1e308), 1.5e-3,
               np.linspace(1e-4, 1.4e-3, n)) for kind in BathKind]
    for args, t_avg, dts in scans:
        scan = np.asarray(rectification_scan(*args, t_avg, dts))
        assert scan[:, 0].tobytes() == dts.tobytes()
        assert scan[:, 1:].T.tobytes() == _whole_grid_scan(*args, t_avg, dts).tobytes(), args


@pytest.mark.parametrize("n", [experiments._CHUNK // 2 + 1, 3 * experiments._CHUNK // 2 + 7])
def test_rectification_scan_names_a_reversed_non_finite_current_as_one_call_would(n):
    # boson rates of a 1e300 right coupling overflow once T_R passes some 1.4e8,
    # which only the reversed biases reach, where the right bath is the hot one
    args = (SystemParams(0.2, 1.0), BathKind.BOSON, 1.0, 1e300, 1e8, np.linspace(1e6, 9.9e7, n))
    with pytest.raises(ValueError) as whole:
        _whole_grid_scan(*args)
    with pytest.raises(ValueError) as scan:
        rectification_scan(*args)
    assert str(scan.value) == str(whole.value)
    t_left, t_right = re.fullmatch(r"heat current is not finite at T_L = (.+), T_R = (.+)",
                                   str(scan.value)).groups()
    assert float(t_left) < float(t_right)


@pytest.mark.parametrize("n", [experiments._CHUNK // 4 + 1, 3 * experiments._CHUNK // 4 + 7])
def test_rectification_scan_names_a_forward_failure_in_a_later_chunk_first(n):
    # with T_a = 1e8, a 1e300 right coupling overflows the reversed currents from
    # dT ~ 4.4e7 on, and a 8e299 left one the forward currents from dT ~ 8.0e7 on.
    # The first chunk holds a reversed failure only and the last chunk a forward
    # one; one call on the forward-then-reversed grid names the forward one
    dts = np.full(n, 1e6)
    dts[3], dts[-1] = 6e7, 9e7
    args = (SystemParams(0.2, 1.0), BathKind.BOSON, 8e299, 1e300, 1e8, dts)
    with pytest.raises(ValueError) as whole:
        _whole_grid_scan(*args)
    with pytest.raises(ValueError) as scan:
        rectification_scan(*args)
    assert str(scan.value) == str(whole.value)
    assert str(scan.value) == "heat current is not finite at T_L = 190000000.0, T_R = 10000000.0"


# Memory a grid call allocates above what its result keeps, counted by tracemalloc
# (numpy reports its buffers to it). A grid call is meant to stay below glibc's heap
# trim threshold (see experiments._CHUNK), so that a later call faults nothing in.
CHUNK_ARRAY = 8 * experiments._CHUNK  # bytes of one float64 array over a chunk


def _held_above_result(call):
    call()  # numpy's import and the array namespace are set up by a first grid
    tracemalloc.start()
    try:
        result = call()  # kept alive while the memory is read
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 9410
    return peak - kept


@pytest.mark.parametrize("kind", list(BathKind))
def test_a_grid_call_holds_a_bounded_working_set(kind):
    params, dts = SystemParams(0.2, 1.0), np.linspace(1e-3, 0.99, 9410)
    # a scan holds a quarter of a chunk's biases, forward and reversed, of both channels:
    # each side's y and (y_R - y_L)/2 while a bias's currents are formed from them; 4.1 arrays
    assert _held_above_result(
        lambda: rectification_scan(params, kind, 1.0, 0.3, 1.0, dts)) <= 6 * CHUNK_ARRAY
    # a sweep holds half a chunk's points of both channels: each bath's C, C + 2 and ybar
    # while its weights and current are formed, then its states; 8.1 arrays
    spec = SweepSpec(params, kind, 1.0, 0.3, SweepVariable.DELTA_T, -0.9, 0.9, 9410, t_avg=1.0)
    assert _held_above_result(lambda: run_sweep(spec)) <= 10 * CHUNK_ARRAY


def test_uncoupled_junction_scan_carries_no_current():
    points = rectification_scan(SystemParams(0.2, 1.0), BathKind.SPIN, 0.0, 0.0, 1.0,
                                [0.1, 0.5])
    assert [(p.j_forward, p.j_reverse) for p in points] == [(0.0, 0.0), (0.0, 0.0)]


def test_empty_bias_grid():
    points = rectification_scan(SystemParams(0.2, 1.0), BathKind.BOSON, 1.0, 1.0, 1.0, [])
    assert len(points) == 0
    assert list(points) == []
    assert np.asarray(points).shape == (0, 3)


def _grids():
    """(result, row type, field count) for every CASES sweep and a bias scan of each."""
    for spec in CASES:
        yield run_sweep(spec), SweepRow, 11
        t_avg = spec.t_avg if spec.t_avg is not None else spec.hi
        args = (spec.params, spec.kind, spec.gamma_left, spec.gamma_right)
        dts = np.linspace(0.01 * t_avg, 0.99 * t_avg, 7)
        yield rectification_scan(*args, t_avg, dts), RectificationPoint, 3


def test_grids_build_no_row_objects(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a row object was built")

    for row_type in (SweepRow, RectificationPoint):
        monkeypatch.setattr(row_type, "_make", refuse)
    for result, _, fields in _grids():
        assert np.asarray(result).shape == (len(result), fields)
    # past the CLI's bound on point-by-point grids, it formats its CSV rows from the same arrays
    n = str(cli._POINTWISE_MAX + 1)
    assert cli.main(["sweep", "--var", "tr", "--tl", "1.5", "--lo", "0", "--hi", "2",
                     "--n", n]) == 0
    assert cli.main(["rect", "--ta", "1", "--lo", "0.1", "--hi", "0.9", "--n", n]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 * (int(n) + 1)


def test_grid_array_is_read_only_and_equals_the_rows():
    for result, _, fields in _grids():
        columns = np.asarray(result)
        assert columns.dtype == np.float64 and columns.shape == (len(result), fields)
        assert not columns.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            columns[0, 0] = 1.0
        rows = np.array([tuple(row) for row in result], dtype=np.float64)
        assert columns.tobytes() == rows.tobytes()


def test_grid_array_follows_numpy_copy_rules():
    result = run_sweep(CASES[0])
    assert np.shares_memory(np.asarray(result), np.asarray(result, copy=False))
    copied = np.array(result)
    assert copied.flags.writeable and not np.shares_memory(copied, np.asarray(result))
    assert np.asarray(result, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.asarray(result, dtype=np.float32, copy=False)


def test_bias_scan_does_not_alias_the_callers_grid():
    dts = np.linspace(0.1, 0.9, 9)
    points = rectification_scan(SystemParams(0.2, 1.0), BathKind.SPIN, 1.0, 0.5, 1.0, dts)
    assert not np.shares_memory(np.asarray(points), dts)
    dts[0] = 0.5
    assert points[0].delta_t == 0.1


def test_grid_rows_are_indexed_like_a_list():
    for result, row_type, _ in _grids():
        rows = list(result)
        assert all(type(row) is row_type for row in rows)
        assert all(type(value) is float for row in rows for value in row)
        assert result[0] == rows[0] and result[-1] == rows[-1]
        assert type(result[0]) is row_type
        assert result[np.int64(2)] == rows[2] and result[-len(rows)] == rows[0]
        assert result[1:5] == rows[1:5] and result[::-2] == rows[::-2]
        assert result[len(rows):] == []
        assert list(reversed(result)) == rows[::-1] and rows[3] in result
        # unlike a list, the table equals only itself
        assert result == result and result != rows
        for index in (len(rows), -len(rows) - 1):
            with pytest.raises(IndexError):
                result[index]
        with pytest.raises(TypeError):
            result[1.0]


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
        with pytest.raises(ValueError, match="temperature must be finite"):
            solve_point(self.PARAMS, BathKind.BOSON, 1.0, 1.0, math.inf, 1.0)

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
    pops, current = exact_boson(eps, kap, gl, gr, 1e308, tr)
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
    pops, current = exact_boson(eps, kap, gl, gr, tl, tr)
    params = SystemParams(eps, kap)
    point = solve_point(params, BathKind.BOSON, gl, gr, tl, tr)
    last = run_sweep(SweepSpec(params, BathKind.BOSON, gl, gr, SweepVariable.T_RIGHT,
                               0.5 * tr, tr, 2, t_left=tl))[-1]
    for row in (point, last):
        assert row.t_right == tr
        # abs=0: pytest.approx would otherwise accept 0.0 for J ~ 1e-301
        assert row.heat_current == pytest.approx(current, rel=TOL, abs=0.0)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)


# (Gamma_L, Gamma_R) of boson points at epsilon = 0.2, kappa = 1, T_L = 1.5,
# T_R = 0.5 whose products of two rates fall below the least normal float: they
# lost bits (an error of 2.7e-4 at 1e-160) or flushed to 0, and J read 0.0
TINY_COUPLINGS = [(1e-160, 1e-160), (1e-170, 1e-170), (1e-300, 1e-300),
                  (1e-200, 1e-120), (1e-120, 1e-200)]


@pytest.mark.parametrize("gl, gr", TINY_COUPLINGS)
def test_tiny_couplings_match_exact_evaluation_on_every_route(gl, gr):
    params = SystemParams(0.2, 1.0)
    args = (params, BathKind.BOSON, gl, gr)
    pops, current = exact_boson(0.2, 1.0, gl, gr, 1.5, 0.5)
    point = solve_point(*args, 1.5, 0.5)
    last = run_sweep(SweepSpec(*args, SweepVariable.T_RIGHT, 0.25, 0.5, 2, t_left=1.5))[-1]
    for row in (point, last):
        assert row.t_right == 0.5
        assert row.heat_current == pytest.approx(current, rel=TOL, abs=0.0)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)
    (rect,) = rectification_scan(*args, 1.0, [0.5])
    assert rect.j_forward == pytest.approx(current, rel=TOL, abs=0.0)
    assert rect.j_reverse == pytest.approx(
        exact_boson(0.2, 1.0, gl, gr, 0.5, 1.5)[1], rel=TOL, abs=0.0)


def test_cold_points_give_an_exact_zero_current():
    # at T = 0, or where omega/T passes 709.78 and e^x overflows, both
    # baths have y = 1, so y_R - y_L and J are 0.0
    for kind in BathKind:
        for tl, tr in ((0.0, 0.0), (1e-3, 0.0), (0.0, 1e-3), (1e-3, 1e-3)):
            row = solve_point(SystemParams(0.2, 1.0), kind, 1.0, 0.5, tl, tr)
            assert row.heat_current == 0.0


# (epsilon, kappa, Gamma_L, Gamma_R, T_L, T_R) of single points near the float
# ceiling, with tiny couplings, T = 0 and Gamma = 0
SINGLE_POINTS = ([(eps, kap, gl, gr, 1e308, tr) for eps, kap, gl, gr, tr in NEAR_CEILING]
                 + EXTREME_RATIOS
                 + [(0.2, 1.0, gl, gr, 1.5, 0.5) for gl, gr in TINY_COUPLINGS]
                 + [(0.5, 0.3, 1.0, 0.0, 0.0, 0.8), (1.0, 0.2, 1e300, 1e300, 1.5, 0.5),
                    (0.2, 1.0, 0.0, 1.0, 1.5, 0.0), (0.2, 1.0, 1.0, 1.0, 0.0, 0.0)])


def _fresh_python(script, *args):
    # run script in a new interpreter that imports this qjunction; its stdout
    env = dict(os.environ, PYTHONPATH=str(Path(qjunction.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_WITHOUT_NUMPY = '''
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, any import of numpy raises
from qjunction import BathKind, SystemParams, solve_point, sudden_death_temperature
from qjunction.cli import main
from qjunction.solver import transport_kernel

points, grids, golden = (json.loads(arg) for arg in sys.argv[1:])
for argv, expected in [(argv, None) for argv in grids] + golden:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, argv
    assert expected in (None, out.getvalue()), argv
assert main(["point", "--tl", "1.5", "--tr", "0.5"]) == 0
assert main(["death", "--bath", "spin"]) == 0
for eps, kap, gl, gr, tl, tr in points:
    for kind in BathKind:
        solve_point(SystemParams(eps, kap), kind, gl, gr, tl, tr)
sudden_death_temperature(SystemParams(0.2, 1.0), BathKind.BOSON)
transport_kernel(SystemParams(0.2, 1.0), BathKind.SPIN, 1.0, 1.0, 1.5, 0.5)
# the block still holds the "numpy" entry, and no part of numpy was loaded
assert sys.modules["numpy"] is None
assert not [name for name in sys.modules if name.startswith("numpy.")]
'''

# CLI grids of up to cli._POINTWISE_MAX points: sweeps of each variable and rects, both
# kinds, inverted, one-sided and uncoupled, ascending and descending, at 1 and 2 points and at
# the bound
_BOUND = str(cli._POINTWISE_MAX)
SMALL_GRIDS = [
    ["sweep", "--var", "ta", "--lo", "0", "--hi", "3", "--n", _BOUND],
    ["sweep", "--var", "ta", "--lo", "0.1", "--hi", "1", "--n", "2", "--bath", "spin"],
    ["sweep", "--var", "tr", "--tl", "1.5", "--lo", "0", "--hi", "4", "--n", _BOUND,
     "--epsilon", "1.0", "--kappa", "0.2", "--bath", "spin", "--gl", "0"],
    ["sweep", "--var", "dt", "--ta", "1", "--lo=-0.9", "--hi", "0.9", "--n", "33", "--gr", "0.05"],
    ["rect", "--ta", "1", "--lo", "0.1", "--hi", "0.9", "--n", _BOUND],
    ["rect", "--ta", "2", "--lo", "1.9", "--hi", "0.01", "--n", "7", "--bath", "spin",
     "--epsilon", "1.0", "--kappa", "0.2"],
    ["rect", "--ta", "1", "--lo", "0.5", "--hi", "0.9", "--n", "1"],
    # no channel carries rates, and the scan's currents are 0.0
    ["rect", "--ta", "1", "--lo", "0.1", "--hi", "0.9", "--n", "5", "--gl", "0", "--gr", "0"],
]


def test_points_small_grids_and_death_never_import_numpy():
    # with numpy blocked: the CLI's point and death, SMALL_GRIDS, every grid golden file byte
    # for byte (so those files do not depend on numpy's SIMD dispatch), every SINGLE_POINTS
    # point (near the float ceiling, tiny couplings, T = 0, Gamma = 0), the sudden-death
    # threshold and the weights of a point
    golden = [(argv, (GOLDEN / f"{name}.csv").read_text(encoding="ascii"))
              for name, argv in GOLDEN_CASES.items() if argv[0] in ("sweep", "rect")]
    assert len(golden) == 9
    assert all(int(argv[argv.index("--n") + 1]) <= cli._POINTWISE_MAX
               for argv, _ in golden)
    out = _fresh_python(_WITHOUT_NUMPY, json.dumps(SINGLE_POINTS), json.dumps(SMALL_GRIDS),
                        json.dumps(golden))
    assert out.splitlines()[-1].startswith("T_death,")


# dataclasses and what it imports: the package's records are written out so as not to load them
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
_LOADED = "import sys; print(' '.join(name for name in sys.argv[1:] if name in sys.modules))"
_LOADED_AFTER_CLI = '''
import contextlib, io, sys
import qjunction.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert qjunction.cli.main(["point", "--tl", "1.5", "--tr", "0.5"]) == 0
    assert qjunction.cli.main(["death"]) == 0
print(" ".join(name for name in sys.argv[1:] if name in sys.modules))
'''


def test_point_and_death_never_import_dataclasses_or_inspect():
    # a point and a death threshold load none of _HEAVY beyond what a bare interpreter in this
    # environment has already loaded (a site .pth file may import some of them)
    bare = set(_fresh_python(_LOADED, *_HEAVY).split())
    assert set(_fresh_python(_LOADED_AFTER_CLI, *_HEAVY).split()) <= bare


_NUMPY_AFTER = '''
import contextlib, io, json, sys
from qjunction.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print("numpy" in sys.modules)
'''


@pytest.mark.parametrize("sub", ["sweep", "rect"])
def test_a_grid_past_the_bound_imports_numpy(sub):
    # each small grid leaves numpy unloaded, and the first grid of one point more loads it
    small = [argv for argv in SMALL_GRIDS if argv[0] == sub]
    large = small[0][:small[0].index("--n") + 1] + [str(cli._POINTWISE_MAX + 1)]
    out = _fresh_python(_NUMPY_AFTER, json.dumps(small + [large]))
    assert out.split() == ["False"] * len(small) + ["True"]


# single points whose solve_point raises (for one bath kind or both): no
# rates, overflowing boson rates (so a current that is not finite), a current
# past the float ceiling beside finite populations, omega/T underflow on a
# boson bath, and each kind of invalid bath value
ERROR_EDGES = [
    (0.2, 1.0, 0.0, 0.0, 1.5, 0.5),
    (0.2, 1.0, 1e200, 1.0, 1e308, 0.5),
    (0.2, 1e300, 1e300, 1e300, 1e300, 5e299),
    (1.0, 1.0 + 2.0 ** -52, 1.0, 1.0, 1e308, 1.0),
    (0.2, 1.0, -1.0, 1.0, 1.0, 1.0),
    (0.2, 1.0, math.inf, 1.0, 1.0, 1.0),
    (0.2, 1.0, 1.0, math.nan, 1.0, 1.0),
    (0.2, 1.0, 1.0, 1.0, -0.5, 1.0),
    (0.2, 1.0, 1.0, 1.0, 1.0, math.inf),
]


def test_error_edges_raise_each_kind_of_check():
    # every edge raises for one bath kind or both, a ValueError naming what
    # failed; the weights give populations in [0, 1] wherever they are not
    # NaN, and a boson rate that overflows gives a current that is not finite
    errors = set()
    for eps, kap, gl, gr, tl, tr in ERROR_EDGES:
        raised = 0
        for kind in BathKind:
            try:
                solve_point(SystemParams(eps, kap), kind, gl, gr, tl, tr)
            except ValueError as exc:
                errors.add(str(exc).split(" ")[0])
                raised += 1
        assert raised, (eps, kap, gl, gr, tl, tr)
    assert errors == {"a", "heat", "omega/T", "gamma", "temperature"}


_LOG_TEMPERATURE = st.floats(-3.0, 308.0).map(lambda e: 10.0 ** e)
_TEMPERATURES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), _LOG_TEMPERATURE)
_GAMMAS = st.one_of(st.sampled_from([0.0, 1e-300, 1e300]), st.floats(1e-3, 1e3),
                    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


# derandomized and bounded: the same 100 draws on every run, about 0.5 s
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(eps=st.floats(1e-3, 10.0), kap=st.floats(1e-3, 10.0), kind=st.sampled_from(BathKind),
       gl=_GAMMAS, gr=_GAMMAS, tl=_TEMPERATURES, tr=_TEMPERATURES, same=st.booleans())
def test_single_points_are_finite_and_normalized(eps, kap, kind, gl, gr, tl, tr, same):
    # both orientations are drawn (epsilon above or below kappa); only what
    # holds at any bias is asserted, so no sign or linear-response property
    assume(eps != kap)
    try:
        row = solve_point(SystemParams(eps, kap), kind, gl, gr, tl, tl if same else tr)
    except ValueError:  # any other error fails the test
        return
    assert all(type(value) is float and math.isfinite(value) for value in row)
    assert all(0.0 <= p <= 1.0 for p in row[2:6])
    assert abs(row.p1 + row.p2 + row.p3 + row.p4 - 1.0) <= 1e-9


def test_huge_couplings_match_exact_evaluation_on_every_route():
    # J is linear in the coupling scale, where products of two rates near 1e300
    # would overflow
    params, gamma = SystemParams(0.2, 1.0), 1e300
    args = (params, BathKind.BOSON, gamma, gamma)
    pops, current = exact_boson(0.2, 1.0, gamma, gamma, 1.5, 0.5)
    point = solve_point(*args, 1.5, 0.5)
    assert point.heat_current == pytest.approx(current, rel=TOL)
    assert [point.p1, point.p2, point.p3, point.p4] == pytest.approx(pops, abs=TOL)
    for row in run_sweep(SweepSpec(*args, SweepVariable.T_RIGHT, 0.1, 1.0, 5, t_left=1.5)):
        pops, current = exact_boson(0.2, 1.0, gamma, gamma, 1.5, row.t_right)
        assert row.heat_current == pytest.approx(current, rel=TOL)
        assert [row.p1, row.p2, row.p3, row.p4] == pytest.approx(pops, abs=TOL)
    (rect,) = rectification_scan(*args, 1.0, [0.5])
    assert rect.j_forward == pytest.approx(
        exact_boson(0.2, 1.0, gamma, gamma, 1.5, 0.5)[1], rel=TOL)
    assert rect.j_reverse == pytest.approx(
        exact_boson(0.2, 1.0, gamma, gamma, 0.5, 1.5)[1], rel=TOL)
