"""The one place where the benchmark touches qjunction's API.

Every timed call goes through ``call``; ``rows`` turns what it returned into
plain tuples for the checks. An API change is absorbed here. Functions are
looked up on the package at call time, so the tracer's in-memory wrappers
see every call.
"""

import contextlib
import io
import sys

import numpy as np

import qjunction
import qjunction.cli

#: the installed console script ``qjunction`` runs this same entry point
CLI_COMMAND = [sys.executable, "-m", "qjunction.cli"]

#: qjunction reports invalid or degenerate input as ValueError subclasses
TYPED_ERRORS = (ValueError,)

_VARS = {"ta": "T_COMMON", "tr": "T_RIGHT", "dt": "DELTA_T"}


def _system(q):
    eps, kap, kind, gl, gr = q
    return qjunction.SystemParams(epsilon=eps, kappa=kap), qjunction.BathKind(kind), gl, gr


def call(inp):
    """Make the public call described by one workload input; return its raw result."""
    what = inp[0]
    if what == "point":
        params, kind, gl, gr = _system(inp[1])
        return qjunction.solve_point(params, kind, gl, gr, inp[2], inp[3])
    if what == "death":
        params, kind, gl, gr = _system(inp[1])
        return qjunction.sudden_death_temperature(params, kind, gl, gr)
    if what == "sweep":
        _, q, var, lo, hi, n, fixed = inp
        params, kind, gl, gr = _system(q)
        spec = qjunction.SweepSpec(
            params=params, kind=kind, gamma_left=gl, gamma_right=gr,
            variable=qjunction.SweepVariable[_VARS[var]], lo=lo, hi=hi, count=n,
            t_left=fixed if var == "tr" else None, t_avg=fixed if var == "dt" else None,
        )
        return qjunction.run_sweep(spec)
    if what == "rect":
        _, q, t_avg, lo, hi, n = inp
        params, kind, gl, gr = _system(q)
        return qjunction.rectification_scan(params, kind, gl, gr, t_avg, np.linspace(lo, hi, n))
    raise ValueError(f"unknown call {what!r}")


def _row(r) -> tuple:
    return (r.t_left, r.t_right, r.p1, r.p2, r.p3, r.p4, r.heat_current, r.concurrence,
            r.discord, r.mutual_information, r.classical_correlation)


def rows(inp, result):
    """Plain-float view of a result: point rows, (dT, J_fwd, J_rev) rows, or T_death."""
    what = inp[0]
    if what == "point":
        return [tuple(float(x) for x in _row(result))]
    if what == "sweep":
        return [_row(r) for r in result]
    if what == "rect":
        return [(p.delta_t, p.j_forward, p.j_reverse) for p in result]
    return float(result)


def cli_argv(inp) -> list:
    """Command-line arguments of a ("cli", sub, q, extra, expect) input."""
    _, sub, q, extra, _ = inp
    eps, kap, kind, gl, gr = q
    argv = [sub, f"--epsilon={eps!r}", f"--kappa={kap!r}", f"--bath={kind}",
            f"--gl={gl!r}", f"--gr={gr!r}"]
    if sub == "point":
        argv += [f"--tl={extra[0]!r}", f"--tr={extra[1]!r}"]
    elif sub == "sweep":
        var, lo, hi, n, fixed = extra
        argv += [f"--var={var}", f"--lo={lo!r}", f"--hi={hi!r}", f"--n={n}"]
        if fixed is not None:
            argv.append(f"--{'tl' if var == 'tr' else 'ta'}={fixed!r}")
    elif sub == "rect":
        t_avg, lo, hi, n = extra
        argv += [f"--ta={t_avg!r}", f"--lo={lo!r}", f"--hi={hi!r}", f"--n={n}"]
    return argv


def cli_main(argv) -> tuple[int, str]:
    """Run the CLI entry point in this process; return (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qjunction.cli.main(argv)
    return code, out.getvalue()


def warm_up() -> None:
    """A fixed, seed-independent first use of every entry point."""
    call(("point", (0.2, 1.0, "boson", 1.0, 1.0), 1.0, 0.5, "ok"))
    call(("death", (0.2, 1.0, "spin", 1.0, 1.0), "ok"))
    call(("sweep", (0.2, 1.0, "boson", 1.0, 0.5), "ta", 0.1, 2.0, 64, None))
    call(("rect", (0.2, 1.0, "spin", 1.0, 0.5), 1.0, 0.01, 0.9, 64))
    cli_main(["point", "--tl=1.0", "--tr=0.5"])
