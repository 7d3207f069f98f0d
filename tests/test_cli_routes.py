"""The CLI's two routes for a grid: point by point on floats, and on arrays.

A ``sweep`` or ``rect`` grid of up to ``cli._POINTWISE_MAX`` points is
solved by ``solve_point`` (a ``rect``'s currents by ``solver.transport_kernel``)
at each of its temperature pairs, so that the process never imports numpy
(``test_kernel.py`` runs that in a fresh interpreter). A larger grid, or a
small one at which a point raises, runs ``run_sweep`` or
``rectification_scan``. These tests pin both routes to the
bit, the array route to the golden grids within a few ulps, the float grid to
``np.linspace``, every failing small grid to the error that the library
raises on the same spec, and both routes to fail on the same edge grids.
"""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qjunction import (BathKind, DegeneratePhysicsError, SweepSpec, SweepVariable, SystemParams,
                       cli, rectification_scan, run_sweep, solve_point)
from qjunction.cli import _POINTWISE_MAX, _pointwise_sweep
from qjunction.experiments import _fill_grid, _float_grid
from test_golden import CASES as GOLDEN_CASES
from test_golden import GOLDEN
from test_sweep_errors import BIASES, SYSTEMS, T_AVGS, T_LEFTS
from test_sweep_errors import GRIDS as T_GRIDS


def _run(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _library(argv):
    """(kind of grid, the library's arguments) of a CLI grid invocation."""
    args = cli._build_parser().parse_args(list(argv))
    params, kind = SystemParams(args.epsilon, args.kappa), BathKind(args.bath)
    if args.command == "sweep":
        return "sweep", (params, kind, args.gl, args.gr, cli._SWEEP_VARIABLES[args.var],
                         args.lo, args.hi, args.n, args.tl, args.ta)
    return "rect", (params, kind, args.gl, args.gr, args.ta, args.lo, args.hi, args.n)


def _array_route(argv):
    """The library's rows of a CLI grid, as lists of floats, or the ValueError it raises."""
    try:
        what, lib = _library(argv)
        if what == "sweep":
            result = run_sweep(SweepSpec(*lib))
        else:
            *scan, lo, hi, n = lib
            result = rectification_scan(*scan, np.linspace(lo, hi, n))
    except ValueError as exc:
        return exc
    return np.asarray(result).tolist()


def _rows(out):
    return [line.split(",") for line in out.splitlines()[1:]]


SIDES = ("--epsilon", "0.2", "--kappa", "1.0"), ("--epsilon", "1.0", "--kappa", "0.2")
COUPLINGS = ("--gl", "1.0", "--gr", "0.3"), ("--gl", "0", "--gr", "2.5"), ("--gl", "1e300",
                                                                            "--gr", "1e-300")
GRIDS = [
    ("sweep", "--var", "ta", "--lo", "0", "--hi", "3"),
    ("sweep", "--var", "tr", "--tl", "1.5", "--lo", "0.01", "--hi", "4"),
    ("sweep", "--var", "dt", "--ta", "1.0", "--lo=-0.9", "--hi", "0.9"),
    ("rect", "--ta", "1.0", "--lo", "0.05", "--hi", "0.95"),
    ("rect", "--ta", "2.5", "--lo", "2.4", "--hi", "0.001"),  # descending
]


def _cases(counts, systems=6):
    # each grid at each count, for the first of six systems: both orientations, both
    # kinds, couplings unequal, one-sided and 600 decades apart
    for grid in GRIDS:
        for n in counts:
            for side, couplings, bath in list(zip(SIDES * 3, COUPLINGS * 2,
                                                  ("boson", "spin") * 3))[:systems]:
                if n > 1 or grid[0] == "rect":  # a sweep takes two points at least
                    yield (*grid, "--n", str(n), *side, *couplings, "--bath", bath)


# small grids at the edges of the domain that answer: a gap of 2**-52 beside a bath at
# T = 1e308, where one bath's y is 0; a bath at T = 1e308 coupled at 1e10, where a boson
# rate Gamma (n + 1) would overflow; spin couplings of 5e-324, whose spin rates
# Gamma / (e^{-x} + 1) would round to 0 from T about 4.8e15 on
EDGES = [
    ("sweep", "--var", "tr", "--epsilon", "1.0", "--kappa", "1.0000000000000002", "--tl", "0.5",
     "--lo", "1e308", "--hi", "1.5e308", "--n", "3"),
    ("sweep", "--var", "tr", "--epsilon", "1.0", "--kappa", "1.0000000000000002", "--tl", "0.5",
     "--lo", "1e307", "--hi", "1e308", "--n", "4"),
    ("sweep", "--var", "tr", "--lo", "0.1", "--hi", "1.0", "--n", "5", "--tl", "1e308",
     "--gl", "1e10"),
    ("rect", "--ta", "1e308", "--lo", "1e300", "--hi", "1e301", "--n", "5", "--gl", "1e10"),
    ("sweep", "--var", "ta", "--bath", "spin", "--gl", "5e-324", "--gr", "5e-324", "--lo", "1",
     "--hi", "8.5e15", "--n", "100"),
    ("sweep", "--var", "ta", "--bath", "spin", "--gl", "5e-324", "--gr", "5e-324", "--lo",
     "4.81e15", "--hi", "5.1e15", "--n", "50"),
]


@pytest.mark.parametrize("argv", [*_cases((1, 2, 17)), *_cases((_POINTWISE_MAX,), systems=2),
                                  *EDGES])
def test_small_grid_rows_are_solve_points_rows(capsys, argv):
    # every row to the bit: the temperatures are np.linspace's grid, mapped as
    # run_sweep maps it, and each result field is solve_point's at them
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    what, lib = _library(argv)
    rows = _rows(out)
    if what == "sweep":
        params, kind, gl, gr, variable, lo, hi, n, t_left, t_avg = lib
        pair = {"t_common": lambda t: (t, t), "t_right": lambda t: (t_left, t),
                "delta_t": lambda dt: (t_avg + dt, t_avg - dt)}[variable.value]
        pairs = list(map(pair, np.linspace(lo, hi, n).tolist()))
        assert len(rows) == n
        for fields, (t_l, t_r) in zip(rows, pairs):
            row = solve_point(params, kind, gl, gr, t_l, t_r)
            assert fields[:2] + fields[7:] == [repr(value) for value in row]
    else:
        params, kind, gl, gr, t_avg, lo, hi, n = lib
        assert [float(fields[0]) for fields in rows] == np.linspace(lo, hi, n).tolist()
        for dt, forward, reverse in (map(float, fields) for fields in rows):
            assert forward == solve_point(params, kind, gl, gr, t_avg + dt, t_avg - dt).heat_current
            assert reverse == solve_point(params, kind, gl, gr, t_avg - dt, t_avg + dt).heat_current


def _prints_the_array_route(capsys, argv):
    """Assert that the CLI prints the library's rows, or exits with its error; which it was."""
    code, out, err = _run(capsys, argv)
    expected = _array_route(argv)
    if isinstance(expected, ValueError):
        degenerate = isinstance(expected, DegeneratePhysicsError)
        assert code == (3 if degenerate else 2) and out == ""
        assert err == f"qjunction: {'degenerate physics: ' if degenerate else ''}{expected}\n"
        return "error"
    assert code == 0 and err == ""
    fields = [0, 1, *range(7, 16)] if argv[0] == "sweep" else [0, 1, 2]
    assert [[row[i] for i in fields] for row in _rows(out)] == [
        [repr(value) for value in row] for row in expected]
    return "rows"


@pytest.mark.parametrize("argv", list(_cases((_POINTWISE_MAX + 1,), systems=2)))
def test_grids_past_the_bound_are_the_array_routes_rows(capsys, argv):
    assert _prints_the_array_route(capsys, argv) == "rows"



GOLDEN_GRIDS = sorted(name for name, argv in GOLDEN_CASES.items() if argv[0] in ("sweep", "rect"))
MEASURES = ("concurrence", "discord", "mutual_info", "classical_corr")


@pytest.mark.parametrize("name", GOLDEN_GRIDS)
def test_the_array_route_reproduces_the_golden_grids(name):
    # the golden grids hold solve_point's values, which run_sweep and rectification_scan
    # must give to within 16 eps relative; the measures, differences of entropies of
    # about 1 bit, to within 16 eps absolute as well. A tolerance, since numpy's exp,
    # expm1 and log2 round by its SIMD dispatch: without AVX-512 both routes agree to
    # the bit here, with it they differ by up to 6 ulps, and C_cl by 2,048 at 2.2e-16
    lines = (GOLDEN / f"{name}.csv").read_text(encoding="ascii").splitlines()
    header, rows = lines[0].split(","), _rows("\n".join(lines))
    fields = [0, 1, *range(7, 16)] if header[0] == "T_L" else [0, 1, 2]
    expected = _array_route(GOLDEN_CASES[name])
    assert len(expected) == len(rows)
    eps = sys.float_info.epsilon
    for row, values in zip(rows, expected):
        for i, value in zip(fields, values):
            pinned = float(row[i])
            assert math.isclose(value, pinned, rel_tol=16 * eps,
                                abs_tol=16 * eps if header[i] in MEASURES else 0.0), (
                header[i], row[0], value, pinned)


def test_an_uncoupled_small_scan_prints_its_zeros_from_the_float_route(capsys):
    # solve_point raises where no channel carries rates, but a small scan takes its
    # currents from transport_kernel, which does not: a scan between two uncoupled
    # baths carries no current, and the float route prints the scan's zeros
    argv = ("rect", "--ta", "1.0", "--lo", "0.1", "--hi", "0.9", "--n", "5", "--gl", "0",
            "--gr", "0")
    *bath, t_avg, lo, hi, n = _library(argv)[1]
    assert cli._pointwise_scan(bath, t_avg, _float_grid(lo, hi, n)) == [
        (dt, 0.0, 0.0) for dt in _float_grid(lo, hi, n)]
    assert _prints_the_array_route(capsys, argv) == "rows"
    assert [row[1:] for row in _rows(_run(capsys, argv)[1])] == [["0.0", "0.0"]] * 5


@pytest.mark.parametrize("kind", list(BathKind))
def test_an_uncoupled_scan_at_the_float_ceiling_carries_no_current(capsys, kind):
    # both uncoupled baths read y = 1.0, a float, not an array, on each side of the
    # scan, so a boson D is a float too; on both routes the scan carries no current
    dts = [1e307, 5e307]
    scan = rectification_scan(SystemParams(0.2, 1.0), kind, 0.0, 0.0, 1e308, dts)
    assert np.asarray(scan).tolist() == [[dt, 0.0, 0.0] for dt in dts]
    grids = {}
    for n in (3, _POINTWISE_MAX + 6):
        code, out, err = _run(capsys, ("rect", "--ta", "1e308", "--lo", "1e307", "--hi", "5e307",
                                       "--n", str(n), "--gl", "0", "--gr", "0", "--bath",
                                       kind.value))
        assert code == 0 and err == ""
        grids[n] = _rows(out)
    for n, rows in grids.items():
        assert rows == [[repr(dt), "0.0", "0.0"] for dt in _float_grid(1e307, 5e307, n)]


_ENDS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-320, 1e-320), st.floats(-1e307, 1e307))


# the same 200 draws on every run, about 0.2 s
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(lo=_ENDS, hi=_ENDS, count=st.integers(1, 100))
@example(lo=0.0, hi=5e-324, count=3)  # the step (hi - lo)/(n - 1) is 0
@example(lo=5e-324, hi=-1e-323, count=40)  # descending, step 0
@example(lo=1.0, hi=1.0, count=4)
@example(lo=-2.5, hi=0.5, count=1)
@example(lo=0.3, hi=-0.7, count=_POINTWISE_MAX)
def test_float_grid_is_linspace_and_fill_grid_to_the_bit(lo, hi, count):
    grid = _float_grid(lo, hi, count)
    assert all(type(value) is float for value in grid)
    assert np.array(grid).tobytes() == np.linspace(lo, hi, count).tobytes()
    if count > 1:
        row = np.empty(count)
        _fill_grid(row, lo, hi)
        assert np.array(grid).tobytes() == row.tobytes()


def test_the_step_zero_branch_is_drawn():
    assert (5e-324 - 0.0) / 2 == 0.0 and (-1e-323 - 5e-324) / 39 == 0.0
    assert _float_grid(0.0, 5e-324, 3) == [0.0, 0.0, 5e-324]


# small grids that fail: each reaches the library, through either route
FAILING = [
    # both couplings 0: no channel carries rates
    ("sweep", "--var", "ta", "--lo", "0.5", "--hi", "1", "--n", "3", "--gl", "0", "--gr", "0"),
    ("sweep", "--var", "tr", "--tl", "1", "--lo", "0.5", "--hi", "1", "--n", "3", "--gl", "0",
     "--gr", "0", "--bath", "spin"),
    # a gap of 2**-52: both boson baths' y round to 0 from T about 3.0e307 on, so D = 0
    ("sweep", "--var", "ta", "--epsilon", "1.0", "--kappa", "1.0000000000000002", "--lo", "1",
     "--hi", "1e308", "--n", "3"),
    ("rect", "--epsilon", "1.0", "--kappa", "1.0000000000000002", "--ta", "1e308", "--lo", "1e306",
     "--hi", "1e307", "--n", "3"),
    # Gamma_L = Gamma_R = 1e308 at gaps near 100: the current itself passes the float range
    ("sweep", "--var", "tr", "--tl", "0", "--lo", "1e6", "--hi", "2e6", "--n", "5",
     "--gl", "1e308", "--gr", "1e308", "--kappa", "100"),
    ("rect", "--ta", "5e5", "--lo", "4e5", "--hi", "4.9e5", "--n", "3", "--gl", "1e308",
     "--gr", "1e308", "--kappa", "100"),
    # biases outside (0, T_a): a zero bias, one at or past T_a, descending grids, one point
    ("rect", "--ta", "1", "--lo", "0", "--hi", "0.5", "--n", "3"),
    ("rect", "--ta", "1", "--lo", "0.5", "--hi", "1", "--n", "3"),
    ("rect", "--ta", "1", "--lo", "0.5", "--hi", "1.5", "--n", "3"),
    ("rect", "--ta", "1", "--lo", "1.5", "--hi", "0.5", "--n", "4"),
    ("rect", "--ta", "1", "--lo", "0.5", "--hi=-0.5", "--n", "3"),
    ("rect", "--ta", "1", "--lo", "2", "--hi", "0.5", "--n", "1"),
    ("rect", "--ta", "0", "--lo", "0.1", "--hi", "0.5", "--n", "3"),
    ("rect", "--ta", "inf", "--lo", "0.1", "--hi", "0.5", "--n", "3"),
    # the window edges of a dt sweep, and its T_a + |dT| past the float range
    ("sweep", "--var", "dt", "--ta", "1", "--lo=-1", "--hi", "0.5", "--n", "3"),
    ("sweep", "--var", "dt", "--ta", "1", "--lo=-0.5", "--hi", "1", "--n", "3"),
    ("sweep", "--var", "dt", "--lo", "-1.5", "--hi", "0.5", "--n", "5", "--ta", "1.0"),
    ("sweep", "--var", "dt", "--ta", "1e308", "--lo=-9e307", "--hi=9e307", "--n", "5"),
    ("rect", "--ta", "1e308", "--lo", "1e307", "--hi", "9e307", "--n", "5"),
    # grid ends, point counts and spectra a sweep does not take
    ("sweep", "--var", "ta", "--lo", "0.1", "--hi", "inf", "--n", "5"),
    ("sweep", "--var", "ta", "--lo", "1", "--hi", "0.5", "--n", "3"),
    ("sweep", "--var", "ta", "--lo", "0.5", "--hi", "1", "--n", "1"),
    ("sweep", "--var", "ta", "--lo", "0.5", "--hi", "1", "--n", "3", "--epsilon", "1",
     "--kappa", "1"),
]


@pytest.mark.parametrize("argv", FAILING)
def test_a_failing_small_grid_prints_the_librarys_error(capsys, argv):
    assert _prints_the_array_route(capsys, argv) == "error"


def test_a_small_grid_prints_the_librarys_error_text_not_solve_points(capsys):
    # the float route raises where the array route raises, with solve_point's text; the
    # CLI reruns the grid on arrays for the library's, which names the grid point
    argv = FAILING[0]  # both couplings 0
    with pytest.raises(DegeneratePhysicsError, match="^a channel carries no rates;"):
        _pointwise_sweep(SweepSpec(*_library(argv)[1]))
    assert _run(capsys, argv) == (3, "", "qjunction: degenerate physics: sweep aborted on the "
                                  "t_common grid: a channel carries no rates at grid point 0; "
                                  "the stationary state is not unique\n")


def _edge_grids(seed=30, count=400):
    """(what, library arguments) of small edge sweeps and scans: the systems of the sweep
    error corpus and a gap of 2**-52, couplings from 0 to 1e308, temperatures up to 1.7e308."""
    rng = random.Random(seed)
    systems = [SystemParams(*system) for system in SYSTEMS + [(1.0, 1.0 + 2.0 ** -52)]]
    couplings = [0.0, 5e-324, 1.0, 1e10, 1e300, 1e308]
    for i in range(count):
        bath = (rng.choice(systems), rng.choice(list(BathKind)), rng.choice(couplings),
                rng.choice(couplings))
        n = rng.choice([2, 3, 17, 100, _POINTWISE_MAX])
        if i % 2:
            t_avg = rng.choice(T_AVGS)
            lo, hi = rng.choice([(0.01, 0.99), (1e-8, 1e-6), (0.5, 0.9)])
            yield "rect", (bath, t_avg, _float_grid(lo * t_avg, hi * t_avg, n))
            continue
        variable = rng.choice(list(SweepVariable))
        if variable is SweepVariable.DELTA_T:
            t_avg = rng.choice(T_AVGS)
            lo, hi = rng.choice(BIASES)
            spec = (variable, lo * t_avg, hi * t_avg, n, None, t_avg)
        else:
            spec = (variable, *rng.choice(T_GRIDS), n, rng.choice(T_LEFTS), None)
            if variable is SweepVariable.T_COMMON:
                spec = spec[:4] + (None, None)
        yield "sweep", (*bath, *spec)


def _raises(route, *args):
    # the class of the library error a route raises: DegeneratePhysicsError, ValueError or None
    try:
        route(*args)
    except DegeneratePhysicsError:
        return DegeneratePhysicsError
    except ValueError:
        return ValueError
    return None


def test_the_two_grid_routes_fail_at_the_same_grids():
    # the CLI prints a small grid from the float route where it does not raise, and
    # reruns it on arrays only for the library's error text: so wherever one route
    # raises, the other must raise too, with an error of the same class
    outcomes = []
    for what, args in _edge_grids():
        if what == "sweep":
            try:
                spec = SweepSpec(*args)
            except ValueError:
                continue
            pair = _raises(_pointwise_sweep, spec), _raises(run_sweep, spec)
        else:
            bath, t_avg, dts = args
            pair = (_raises(cli._pointwise_scan, bath, t_avg, dts),
                    _raises(rectification_scan, *bath, t_avg, dts))
        assert pair[0] is pair[1], (what, args if what == "sweep" else (*args[:2], args[2][:2]))
        outcomes.append((what, pair[0]))
    # both kinds of grid reach both kinds of error, and answers
    assert {(what, error) for what, error in outcomes} >= {
        ("sweep", None), ("sweep", ValueError), ("sweep", DegeneratePhysicsError),
        ("rect", None), ("rect", ValueError)}
