"""Accuracy of the golden CLI files and of the heat current J against ``oracles.exact_point``.

Compares two checkouts of this repository, "before" and "after", and writes
one JSON record:

- every result field of the golden CLI files (``tests/golden``: P1..P4, the
  current and the four measures) that differs between them, with its value
  on each side and its distance from the exact value in ulps and relative;
- the median, 90th percentile and maximum relative J error of both
  checkouts per regime and bath kind, on a seeded corpus, through
  ``solve_point`` ("point") and ``solver._channel`` at the column of both
  gaps on one-element arrays, as a grid solves them ("grid").

Run from the root of the "after" checkout, with the "before" checkout made
for example by ``git archive``:

    python tests/accuracy_current.py --before ../parent --out ACCURACY.json

It needs mpmath and numpy, takes about ten seconds, and is not collected
by pytest. Each checkout is evaluated in a child process that imports the
``qjunction`` under its ``src``.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# each result field of a golden file, as the ExactPoint field that holds its exact value
FIELDS = {"P1": "p1", "P2": "p2", "P3": "p3", "P4": "p4", "J_L": "heat_current",
          "J_forward": "heat_current", "J_reverse": "heat_current", "concurrence": "concurrence",
          "discord": "discord", "mutual_info": "mutual_information",
          "classical_corr": "classical_correlation"}
DRAWS = 1000  # per regime, kinds alternating
SEED = 2424


def corpus():
    """(regime, epsilon, kappa, kind, Gamma_L, Gamma_R, T_L, T_R) of each point.

    epsilon and kappa uniform in (0.01, 3), couplings log-uniform in
    1e-2..1e2. "wide biases": T_L and T_R each log-uniform in 10^-1.5..10^2;
    "biases 1e-12..1e-2": T_L = T_R (1 +- delta), delta log-uniform;
    "biases up to 25%": T_L = T_R (1 + u), u uniform in (-0.25, 0.25);
    "T 1e2..1e8" and "T 1e8..1e12": T_R log-uniform in that range, T_L = T_R
    (1 +- delta), delta log-uniform in 1e-3..0.5.
    """
    import numpy as np
    rng = np.random.default_rng(SEED)
    points = []
    hot = {"T 1e2..1e8": (2.0, 8.0), "T 1e8..1e12": (8.0, 12.0)}
    for regime in ("wide biases", "biases 1e-12..1e-2", "biases up to 25%", *hot):
        for i in range(DRAWS):
            kind = "boson" if i % 2 == 0 else "spin"
            eps, kap = (float(v) for v in rng.uniform(0.01, 3.0, 2))
            gl, gr = (float(v) for v in 10.0 ** rng.uniform(-2.0, 2.0, 2))
            sign = float(rng.choice([-1.0, 1.0]))
            if regime in hot:
                tr = float(10.0 ** rng.uniform(*hot[regime]))
            else:
                tr = float(10.0 ** rng.uniform(-1.5, 2.0))
            if regime == "wide biases":
                tl = float(10.0 ** rng.uniform(-1.5, 2.0))
            elif regime == "biases 1e-12..1e-2":
                tl = tr * (1.0 + sign * float(10.0 ** rng.uniform(-12.0, -2.0)))
            elif regime == "biases up to 25%":
                tl = tr * (1.0 + float(rng.uniform(-0.25, 0.25)))
            else:
                tl = tr * (1.0 + sign * float(10.0 ** rng.uniform(-3.0, math.log10(0.5))))
            if eps != kap and tl != tr:
                points.append((regime, eps, kap, kind, gl, gr, tl, tr))
    return points


def evaluate(points):
    """(point J, grid J) of each point, as repr strings, from the qjunction on sys.path."""
    import numpy as np
    from qjunction import BathKind, SystemParams, solve_point
    from qjunction.baths import _arrays
    from qjunction.solver import _channel, _gaps
    out = []
    for _, eps, kap, kind, gl, gr, tl, tr in points:
        params, bath = SystemParams(eps, kap), BathKind(kind)
        j_point = solve_point(params, bath, gl, gr, tl, tr).heat_current
        gaps = _gaps(params)
        with np.errstate(all="ignore"):  # both channels at once, at the column of gaps
            _, j = _channel(_arrays(), bath, gl, gr, np.array(gaps)[:, np.newaxis],
                            np.array([tl]), np.array([tr]))
        out.append((repr(j_point), repr(float(0.0 + j[0, 0] + j[1, 0]))))
    return out


def _run_child(root, points):
    # evaluate(points) under root/src, in a fresh interpreter, by root's own copy of this
    # script, which calls that checkout's private forms with their signatures
    child = subprocess.run(
        [sys.executable, str(Path(root) / "tests" / Path(__file__).name), "--evaluate"],
        input=json.dumps(points), text=True,
        capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=str(Path(root) / "src")))
    return json.loads(child.stdout)


def _exact(eps, kap, kind, gl, gr, tl, tr):
    sys.path.insert(0, str(HERE))
    from oracles import exact_point
    return exact_point(eps, kap, kind, gl, gr, tl, tr)


def _exact_j(*point):
    return _exact(*point).heat_current


def _relative(value, exact):
    return float(abs((value - exact) / exact)) if exact else (0.0 if value == 0.0 else math.inf)


def _ulps(value, exact):
    return round(float((value - exact) / math.ulp(float(exact))), 2) if exact else 0.0


def _flags(argv):
    # the physical flags of a golden invocation, with the CLI's defaults
    flags = {"--epsilon": "0.2", "--kappa": "1.0", "--bath": "boson", "--gl": "1.0",
             "--gr": "1.0"}
    flags.update(zip(argv[1::2], argv[2::2]))
    return flags


def golden_fields(before):
    """Every golden result field that differs between before and this checkout."""
    import csv
    sys.path.insert(0, str(HERE))
    from test_golden import CASES
    fields = []
    for name, argv in sorted(CASES.items()):
        old = list(csv.DictReader((Path(before) / "tests" / "golden" / f"{name}.csv").open()))
        new = list(csv.DictReader((HERE / "golden" / f"{name}.csv").open()))
        flags = _flags(argv)
        for row_old, row_new in zip(old, new):
            for field, exact_field in FIELDS.items():
                if field not in row_new or row_old[field] == row_new[field]:
                    continue
                if field not in ("J_forward", "J_reverse"):
                    tl, tr = float(row_new["T_L"]), float(row_new["T_R"])
                else:
                    t_avg, dt = float(flags["--ta"]), float(row_new["dT"])
                    tl, tr = t_avg + dt, t_avg - dt
                    if field == "J_reverse":
                        tl, tr = tr, tl
                exact = getattr(_exact(float(flags["--epsilon"]), float(flags["--kappa"]),
                                       flags["--bath"], float(flags["--gl"]),
                                       float(flags["--gr"]), tl, tr), exact_field)
                b, a = float(row_old[field]), float(row_new[field])
                fields.append({
                    "file": name, "T_L": repr(tl), "T_R": repr(tr), "field": field,
                    "before": row_old[field], "after": row_new[field],
                    "exact": str(exact)[:22], "ulps_before": _ulps(b, exact),
                    "ulps_after": _ulps(a, exact),
                    "relative_before": float(f"{_relative(b, exact):.3g}"),
                    "relative_after": float(f"{_relative(a, exact):.3g}")})
    return fields


def _quantiles(errors):
    import numpy as np
    e = np.array(errors)
    return {"median": float(f"{np.median(e):.3g}"), "p90": float(f"{np.quantile(e, 0.9):.3g}"),
            "max": float(f"{e.max():.3g}")}


def seeded_corpus(before):
    points = corpus()
    sides = {"before": _run_child(before, points), "after": _run_child(HERE.parent, points)}
    errors = {}  # (regime, kind, route, side) -> relative errors
    for i, (regime, eps, kap, kind, gl, gr, tl, tr) in enumerate(points):
        exact = _exact_j(eps, kap, kind, gl, gr, tl, tr)
        for side, values in sides.items():
            for route, value in zip(("point", "grid"), values[i]):
                errors.setdefault((regime, kind, route, side), []).append(
                    _relative(float(value), exact))
    table = {}
    for (regime, kind, route, side), errs in errors.items():
        cell = table.setdefault(f"{regime}, {kind}", {}).setdefault(route, {})
        cell["points"] = len(errs)
        cell[side] = _quantiles(errs)
    for cell in (c for row in table.values() for c in row.values()):
        cell["after_over_before"] = {q: float(f"{cell['after'][q] / cell['before'][q]:.3g}")
                                     if cell["before"][q] else None for q in cell["after"]}
    return {"what": corpus.__doc__.split("\n\n")[0] + " " + " ".join(
                corpus.__doc__.split("\n\n")[1].split()),
            "seed": SEED, "points": len(points), "regimes": table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", help="root of the checkout to compare against")
    parser.add_argument("--out", help="JSON file to write (default: stdout)")
    parser.add_argument("--evaluate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.evaluate:
        json.dump(evaluate(json.load(sys.stdin)), sys.stdout)
        return
    fields = golden_fields(args.before)
    record = {"what": "relative error against oracles.exact_point (at the precision it sets from "
                      "each point's inputs), before (the --before checkout) and after (this one); "
                      "written by tests/accuracy_current.py",
              "golden_summary": {
        "moved": len(fields),
        "closer": sum(abs(f["ulps_after"]) < abs(f["ulps_before"]) for f in fields),
        "further": sum(abs(f["ulps_after"]) > abs(f["ulps_before"]) for f in fields),
        "within_1e-12_or_not_further": sum(
            f["relative_after"] <= 1e-12 or abs(f["ulps_after"]) <= abs(f["ulps_before"])
            for f in fields),
        "worst_ulps": {side: max((abs(f[f"ulps_{side}"]) for f in fields), default=0.0)
                       for side in ("before", "after")},
        "worst_relative": {side: max((f[f"relative_{side}"] for f in fields), default=0.0)
                           for side in ("before", "after")}},
        "golden_fields": fields, "seeded_corpus": seeded_corpus(args.before)}
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
