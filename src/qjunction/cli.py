"""Command-line front end: solve, sweep, rectify, locate sudden death; emit CSV.

Exit codes: 0 success, 2 invalid flags or out-of-domain values, an ``--out``
path that cannot be written or a grid that does not fit in memory, 3
degenerate physics (for example epsilon == kappa). All numeric CSV fields
use the shortest round-trip decimal representation, so identical
invocations produce byte-identical output. ``sweep`` and ``rect`` grids of
up to 1,024 points run ``solve_point`` (``rect``: ``solver.transport_kernel``)
per point and import no numpy (the point route stays faster than the import up
to 6,000-10,000 points for ``rect`` and 16,000-25,000 for ``sweep``); a failing
grid reruns on arrays.
"""

import argparse
import math
import re
import sys

from .baths import BathKind
from .experiments import (SweepRow, SweepSpec, SweepVariable, _float_grid, rectification_scan,
                          run_sweep, solve_point, sudden_death_temperature)
from .model import DegeneratePhysicsError, SystemParams
from .solver import transport_kernel

POINT_HEADER = (
    "T_L,T_R,gamma_L,gamma_R,bath,epsilon,kappa,"
    "P1,P2,P3,P4,J_L,concurrence,discord,mutual_info,classical_corr"
)
RECT_HEADER = "dT,J_forward,J_reverse"

_SWEEP_VARIABLES = {
    "ta": SweepVariable.T_COMMON,
    "tr": SweepVariable.T_RIGHT,
    "dt": SweepVariable.DELTA_T,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qjunction",
        description="Steady-state transport and quantum correlations of a "
        "two-qubit junction between two thermal reservoirs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--epsilon", type=float, default=0.2,
                        help="qubit level splitting (default 0.2)")
    common.add_argument("--kappa", type=float, default=1.0,
                        help="inter-qubit XY coupling (default 1.0)")
    common.add_argument("--bath", choices=("boson", "spin"), default="boson",
                        help="reservoir statistics (default boson)")
    common.add_argument("--gl", type=float, default=1.0,
                        help="left coupling strength Gamma_L (default 1.0)")
    common.add_argument("--gr", type=float, default=1.0,
                        help="right coupling strength Gamma_R (default 1.0)")
    common.add_argument("--out", default=None,
                        help="write CSV to this path instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", parents=[common],
                           help="solve a single (T_L, T_R) configuration")
    point.add_argument("--tl", type=float, required=True, help="left temperature")
    point.add_argument("--tr", type=float, required=True, help="right temperature")

    sweep = sub.add_parser("sweep", parents=[common],
                           help="sweep a temperature variable over a grid")
    sweep.add_argument("--var", choices=sorted(_SWEEP_VARIABLES), required=True,
                       help="ta: T_L = T_R together; tr: T_R at fixed --tl; "
                            "dt: T_L = T_a + dT, T_R = T_a - dT at fixed --ta")
    sweep.add_argument("--lo", type=float, required=True, help="grid start")
    sweep.add_argument("--hi", type=float, required=True, help="grid end")
    sweep.add_argument("--n", type=int, required=True, help="grid point count")
    sweep.add_argument("--tl", type=float, default=None,
                       help="fixed T_L (required for --var tr)")
    sweep.add_argument("--ta", type=float, default=None,
                       help="fixed mean temperature T_a (required for --var dt)")

    rect = sub.add_parser("rect", parents=[common],
                          help="forward/reversed currents over a bias grid")
    rect.add_argument("--ta", type=float, required=True, help="mean temperature T_a")
    rect.add_argument("--lo", type=float, required=True, help="smallest bias dT")
    rect.add_argument("--hi", type=float, required=True, help="largest bias dT")
    rect.add_argument("--n", type=int, required=True, help="bias grid point count")

    sub.add_parser("death", parents=[common],
                   help="equilibrium temperature where concurrence vanishes")
    # a flag's value may be negative in any float form: Python 3.11's argparse
    # takes only -1 and -.5 for numbers, and -1e-3 for an option
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def _check_domain(args) -> None:
    checks = (
        ("--epsilon", args.epsilon, args.epsilon > 0.0),
        ("--kappa", args.kappa, args.kappa > 0.0),
        ("--gl", args.gl, 0.0 <= args.gl < math.inf),
        ("--gr", args.gr, 0.0 <= args.gr < math.inf),
    )
    for flag, value, ok in checks:
        if not ok:
            raise _ConfigError(f"{flag} out of domain: {value}")
    for flag in ("tl", "tr", "ta"):
        value = getattr(args, flag, None)
        if value is not None and value < 0.0:
            raise _ConfigError(f"--{flag} must be nonnegative, got {value}")
    if getattr(args, "command", None) == "sweep":
        for var, flag in (("tr", "tl"), ("dt", "ta")):  # each fixed temperature, its variable
            if (args.var == var) != (getattr(args, flag) is not None):
                raise _ConfigError(f"--var {var} requires --{flag}" if args.var == var
                                   else f"--{flag} is used only with --var {var}")
    if getattr(args, "command", None) == "rect":
        if args.n < 1:
            raise _ConfigError(f"--n must be at least 1, got {args.n}")
        if not math.isfinite(args.hi - args.lo):  # np.linspace would warn and give NaN
            raise _ConfigError(f"--lo/--hi span is not finite: [{args.lo}, {args.hi}]")


class _ConfigError(ValueError):
    pass


def _fmt(value: float) -> str:
    return repr(float(value))


def _row_template(args) -> str:
    """``str.format`` template of one point row, the echoed flags filled in.

    Row fields are plain floats in CSV column order: T_L and T_R, then the
    five echoed flags, then the nine results. ``{!r}`` is ``repr``, the
    shortest round-trip form; the echoed text holds no braces.
    """
    echo = ",".join((_fmt(args.gl), _fmt(args.gr), args.bath,
                     _fmt(args.epsilon), _fmt(args.kappa)))
    return "{!r},{!r}," + echo + ",{!r}" * 9


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(text)


# grids of up to this many points run solve_point, which beats importing numpy
_POINTWISE_MAX = 1024


def _pointwise_sweep(spec: SweepSpec) -> list[SweepRow]:
    # run_sweep's rows, each solve_point's at its (T_L, T_R)
    grid = _float_grid(spec.lo, spec.hi, spec.count)
    bath = spec.params, spec.kind, spec.gamma_left, spec.gamma_right
    if spec.variable is SweepVariable.DELTA_T:
        return [solve_point(*bath, spec.t_avg + dt, spec.t_avg - dt) for dt in grid]
    fixed = spec.variable is SweepVariable.T_RIGHT
    return [solve_point(*bath, spec.t_left if fixed else t, t) for t in grid]


def _pointwise_scan(bath, t_avg, delta_ts) -> list[tuple]:
    # rectification_scan's rows, each current transport_kernel's at bath = (params, kind,
    # gamma_left, gamma_right); a ValueError wherever the scan raises (there as T_a + dT overflows)
    if not 0.0 < min(delta_ts) <= max(delta_ts) < t_avg:
        raise ValueError("a bias outside the scan's domain")
    return [(dt, transport_kernel(*bath, t_avg + dt, t_avg - dt)[1],
             transport_kernel(*bath, t_avg - dt, t_avg + dt)[1]) for dt in delta_ts]


def _grid_rows(count, pointwise, array_route):
    # pointwise() if count allows and it does not raise, else array_route(numpy), or its error
    if count <= _POINTWISE_MAX:
        try:
            return pointwise()
        except ValueError:
            pass
    import numpy as np
    return np.asarray(array_route(np)).tolist()


def _run(args) -> list[str]:
    params = SystemParams(epsilon=args.epsilon, kappa=args.kappa)
    kind = BathKind(args.bath)

    if args.command == "point":
        row = solve_point(params, kind, args.gl, args.gr, args.tl, args.tr)
        return [POINT_HEADER, _row_template(args).format(*row)]

    if args.command == "sweep":
        spec = SweepSpec(
            params=params, kind=kind, gamma_left=args.gl, gamma_right=args.gr,
            variable=_SWEEP_VARIABLES[args.var], lo=args.lo, hi=args.hi,
            count=args.n, t_left=args.tl, t_avg=args.ta,
        )
        rows = _grid_rows(args.n, lambda: _pointwise_sweep(spec), lambda np: run_sweep(spec))
        template = _row_template(args)
        return [POINT_HEADER] + [template.format(*r) for r in rows]

    if args.command == "rect":
        bath = params, kind, args.gl, args.gr
        rows = _grid_rows(
            args.n, lambda: _pointwise_scan(bath, args.ta, _float_grid(args.lo, args.hi, args.n)),
            lambda np: rectification_scan(*bath, args.ta, np.linspace(args.lo, args.hi, args.n)))
        return [RECT_HEADER] + ["{!r},{!r},{!r}".format(*p) for p in rows]

    td = sudden_death_temperature(params, kind, args.gl, args.gr)
    return [f"T_death,{_fmt(td)}"]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_domain(args)
        _emit(_run(args), args.out)
    except DegeneratePhysicsError as exc:
        print(f"qjunction: degenerate physics: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qjunction: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # only sweep and rect allocate in proportion to their input, --n
        print(f"qjunction: a grid of {args.n} points does not fit in memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
