"""Accuracy of what one checkout answers where another fails, against ``oracles.exact_point``.

Compares two checkouts of this repository, "before" and "after". Each input
below that fails on the before checkout and returns on the after one is
evaluated field by field against its exact value:

- the rows of ``test_current.CEILING_POINTS`` and ``CEILING_SCANS``;
- the CLI invocations of ``test_cli.HOT_STRONG`` and ``test_cli_routes.EDGES``;
- a sample of the sweeps of ``test_sweep_errors.corpus()``: of each newly
  answered sweep, its first point, the point the before checkout named in
  its error and one seeded random point.

Each row gives, per result field, [value, exact value, relative error (None
where the exact value is below 1e-300), absolute error], and whether a
coupled bath's y = tanh(omega/2T) is subnormal at either gap there; a row is
one line of the output. Run
from the root of the "after" checkout, with the "before" checkout made for
example by ``git archive``:

    python tests/accuracy_answered.py --before ../parent --out ACCURACY.json

It needs mpmath and numpy, takes about a minute, and is not collected by
pytest. The before checkout runs in a child process that imports the
``qjunction`` under its ``src``; the tests of this checkout name the inputs.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# a SweepRow's result fields, which are ExactPoint's names too
FIELDS = ("p1", "p2", "p3", "p4", "heat_current", "concurrence", "discord",
          "mutual_information", "classical_correlation")
SEED = 30
TOL = 1e-12


def _inputs():
    import test_cli
    import test_cli_routes
    import test_current
    return (test_current.CEILING_POINTS, test_current.CEILING_SCANS,
            test_cli.HOT_STRONG + test_cli_routes.EDGES)


def _spec(sweep):
    from qjunction import BathKind, SweepSpec, SweepVariable, SystemParams
    return SweepSpec(**dict(sweep, params=SystemParams(*sweep["params"]),
                            kind=BathKind(sweep["kind"]),
                            variable=SweepVariable(sweep["variable"])))


def outcomes():
    """{what: the error text of each input, or None}, from the qjunction on sys.path."""
    from qjunction import SystemParams, cli, rectification_scan, solve_point
    from test_sweep_errors import failures

    def error(call, *args):
        try:
            call(*args)
        except ValueError as exc:
            return str(exc)
        return None

    def cli_error(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return err.getvalue() if code else None

    points, scans, argvs = _inputs()
    return {
        "points": [error(solve_point, SystemParams(e, k), kind, gl, gr, tl, tr)
                   for kind, e, k, gl, gr, tl, tr, _ in points],
        "scans": [error(rectification_scan, SystemParams(e, k), kind, gl, gr, ta, list(dts))
                  for kind, e, k, gl, gr, ta, dts, _ in scans],
        "cli": [cli_error(argv) for argv in argvs],
        "sweeps": failures(),
    }


def _child(root):
    # outcomes() under root/src, in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(root) / "src"), str(HERE)]))
    code = "import json, accuracy_answered as a; print(json.dumps(a.outcomes()))"
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                     capture_output=True, text=True).stdout)


def _subnormal_y(eps, kap, gl, gr, tl, tr):
    # whether a coupled bath's y = tanh(omega/2T) is below the least normal float at a gap
    import mpmath
    with mpmath.workdps(40):
        for omega in (abs(kap - eps), kap + eps):
            for gamma, t in ((gl, tl), (gr, tr)):
                if gamma and t and omega < math.inf and \
                        mpmath.tanh(mpmath.mpf(omega) / (2 * mpmath.mpf(t))) < 2.0 ** -1022:
                    return True
    return False


def _row(source, eps, kap, kind, gl, gr, tl, tr, values):
    """One evaluated row: ``values`` maps a field to this checkout's float."""
    from oracles import exact_point
    exact = exact_point(eps, kap, kind, gl, gr, tl, tr)
    row = {"source": source, "epsilon": eps, "kappa": kap, "kind": kind, "gamma_left": gl,
           "gamma_right": gr, "T_L": tl, "T_R": tr,
           "subnormal_y": _subnormal_y(eps, kap, gl, gr, tl, tr), "fields": {}}
    for field, value in values.items():
        want = getattr(exact, field)
        error = abs(value - want)
        row["fields"][field] = [repr(value), repr(float(want)),
                                float(error / abs(want)) if abs(want) >= 1e-300 else None,
                                float(error)]
    return row


def _accurate(field):
    # within TOL relative, or 1e-300 absolute
    _, _, relative, absolute = field
    return (relative is not None and relative <= TOL) or absolute <= 1e-300


def answered(before, after):
    """The evaluated rows of every input that fails in ``before`` and returns in ``after``."""
    from qjunction import SystemParams, cli, rectification_scan, run_sweep, solve_point
    from test_sweep_errors import corpus
    points, scans, argvs = _inputs()
    new = {what: [b is not None and a is None for b, a in zip(before[what], after[what])]
           for what in ("points", "scans", "cli")}
    rows = []
    for (kind, eps, kap, gl, gr, tl, tr, _), fresh in zip(points, new["points"]):
        if fresh:
            row = solve_point(SystemParams(eps, kap), kind, gl, gr, tl, tr)
            rows.append(_row("CEILING_POINTS", eps, kap, kind.value, gl, gr, tl, tr,
                             {f: getattr(row, f) for f in FIELDS}))
    for (kind, eps, kap, gl, gr, ta, dts, _), fresh in zip(scans, new["scans"]):
        if fresh:
            for point in rectification_scan(SystemParams(eps, kap), kind, gl, gr, ta, dts):
                hot, cold = ta + point.delta_t, ta - point.delta_t
                for tl, tr, j in ((hot, cold, point.j_forward), (cold, hot, point.j_reverse)):
                    rows.append(_row("CEILING_SCANS", eps, kap, kind.value, gl, gr, tl, tr,
                                     {"heat_current": j}))
    for argv, fresh in zip(argvs, new["cli"]):
        if not fresh:
            continue
        args = cli._build_parser().parse_args(list(argv))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        bath = (args.epsilon, args.kappa, args.bath, args.gl, args.gr)
        source = "cli " + " ".join(argv)
        for line in out.getvalue().splitlines()[1:]:
            fields = line.split(",")
            if argv[0] == "rect":
                dt, forward, reverse = map(float, fields)
                rows.append(_row(source, *bath, args.ta + dt, args.ta - dt,
                                 {"heat_current": forward}))
                rows.append(_row(source, *bath, args.ta - dt, args.ta + dt,
                                 {"heat_current": reverse}))
            else:  # P1..P4, J_L and the measures, in FIELDS' order
                rows.append(_row(source, *bath, float(fields[0]), float(fields[1]),
                                 dict(zip(FIELDS, map(float, fields[7:])))))
    rng = random.Random(SEED)
    sweeps = corpus()
    for index in sorted(set(before["sweeps"]) - set(after["sweeps"]), key=int):
        sweep = sweeps[int(index)]
        table = list(run_sweep(_spec(sweep)))
        picks, text = {0, rng.randrange(len(table))}, before["sweeps"][index]
        if named := re.search(r"at T_L = (\S+), T_R = (\S+)$", text):
            pair = (float(named[1]), float(named[2]))
            picks.add(next(i for i, row in enumerate(table) if (row.t_left, row.t_right) == pair))
        elif named := re.search(r"at grid point (\d+);", text):
            picks.add(int(named[1]))
        for i in sorted(picks):
            row = table[i]
            rows.append(_row(f"sweep {index} point {i}", *sweep["params"], sweep["kind"],
                             sweep["gamma_left"], sweep["gamma_right"], row.t_left, row.t_right,
                             {f: getattr(row, f) for f in FIELDS}))
    return rows


def summary(rows):
    """Per field: the worst relative and absolute errors and the rows outside TOL (or
    1e-300 absolute), with and without a subnormal y; and every row whose J is outside."""
    fields = {}
    for row in rows:
        for name, field in row["fields"].items():
            each = fields.setdefault(name, {"rows": 0, "worst_relative": 0.0,
                                            "worst_absolute": 0.0, "outside": 0,
                                            "outside_y_not_subnormal": 0})
            each["rows"] += 1
            each["worst_relative"] = max(each["worst_relative"], field[2] or 0.0)
            each["worst_absolute"] = max(each["worst_absolute"], field[3])
            if not _accurate(field):
                each["outside"] += 1
                each["outside_y_not_subnormal"] += not row["subnormal_y"]
    return {"rows": len(rows),
            "by_source": {kind: sum(row["source"].split()[0] == kind for row in rows)
                          for kind in ("CEILING_POINTS", "CEILING_SCANS", "cli", "sweep")},
            "fields": fields,
            "J_outside": [{key: row[key] for key in ("source", "T_L", "T_R", "subnormal_y")}
                          | {"J": row["fields"]["heat_current"]} for row in rows
                          if not _accurate(row["fields"]["heat_current"])]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="root of the checkout to compare with")
    parser.add_argument("--out", help="write the JSON here instead of stdout")
    args = parser.parse_args()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from test_sweep_errors import COUNT
    before, after = _child(args.before), _child(HERE.parent)
    moved = {i: (before["sweeps"].get(i), after["sweeps"].get(i))
             for i in sorted(before["sweeps"].keys() | after["sweeps"].keys(), key=int)
             if before["sweeps"].get(i) != after["sweeps"].get(i)}
    rows = answered(before, after)
    record = {
        "what": "error against oracles.exact_point (at the precision it sets from each "
                "point's inputs) of each field of every input that fails on the --before "
                "checkout and answers on this one; written by tests/accuracy_answered.py",
        "sweeps": {"corpus": COUNT, "failed_before": len(before["sweeps"]),
                   "fail_after": len(after["sweeps"]),
                   "answered_now": sum(a is None for _, a in moved.values()),
                   "fail_now_elsewhere": {i: pair for i, pair in moved.items()
                                          if None not in pair},
                   "newly_failing": sorted(i for i, (b, _) in moved.items() if b is None)},
        "summary": summary(rows),
    }
    lines = ",\n".join(json.dumps(row) for row in rows)  # a row per line
    text = json.dumps(record, indent=1)[:-2] + f',\n "rows": [\n{lines}\n ]\n}}\n'
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
