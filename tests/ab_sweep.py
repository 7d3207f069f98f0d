"""Interleaved timing of ``run_sweep`` and ``rectification_scan`` in two checkouts, in one process.

Loads the ``src/qjunction`` of two checkouts of this repository, "before" and
"after", each under its own package name, and calls their ``run_sweep`` turn
about on the same sweeps, then their ``rectification_scan`` on the same bias
grids (shaped as perfbench's ``transport`` ones: T_a = 1, biases from 0.02 to
0.9): per round, each side once, the side that goes first alternating.
Separate processes on a shared machine drift by tens of percent between runs;
calls interleaved in one process see the same machine, so the median ratio
resolves a few percent. Prints, per sweep variable (``rect`` for a scan) and
grid size, the median after/before time ratio, its quartiles and both
medians, and whether the two tables are identical to the bit.

Run from the root of the "after" checkout, with the "before" checkout made
for example by ``git archive``:

    python tests/ab_sweep.py --before ../parent [--sizes 111,1024,3104,9410]

It needs numpy, takes a few seconds with the defaults, and is not collected
by pytest.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# (variable, lo, hi, fixed temperature) of each timed sweep
SWEEPS = (("T_COMMON", 0.05, 3.0, None), ("T_RIGHT", 0.05, 3.0, 1.5),
          ("DELTA_T", -0.9, 0.9, 1.0))


def load(root, name):
    """The package under ``root/src/qjunction``, imported as ``name``."""
    package = Path(root).resolve() / "src" / "qjunction"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def sweep(package, kind, variable, lo, hi, fixed, count):
    """One timed sweep's SweepSpec in ``package``: epsilon 0.2, kappa 1, couplings 1 and 0.3."""
    return package.SweepSpec(
        package.SystemParams(0.2, 1.0), package.BathKind(kind), 1.0, 0.3,
        package.SweepVariable[variable], lo, hi, count,
        t_left=fixed if variable == "T_RIGHT" else None,
        t_avg=fixed if variable == "DELTA_T" else None)


def scan(package, kind, count):
    """One timed scan's arguments in ``package``: epsilon 0.2, kappa 1, couplings 1 and 0.3."""
    return (package.SystemParams(0.2, 1.0), package.BathKind(kind), 1.0, 0.3, 1.0,
            np.linspace(0.02, 0.9, count))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="root of the checkout to compare against")
    parser.add_argument("--after", default=str(HERE.parent), help="root of the changed checkout")
    parser.add_argument("--sizes", default="111,1024,3104,9410", help="grid sizes, comma-separated")
    parser.add_argument("--kind", choices=("boson", "spin"), default="boson")
    parser.add_argument("--rounds", type=int, default=200, help="timed calls per side and sweep")
    args = parser.parse_args(argv)
    sides = load(args.before, "qjunction_before"), load(args.after, "qjunction_after")
    print(f"{'variable':<9} {'n':>6} {'after/before':>12} {'quartiles':>13} "
          f"{'before us':>10} {'after us':>9}  identical")
    for variable, lo, hi, fixed in SWEEPS + (("rect", None, None, None),):
        for count in (int(size) for size in args.sizes.split(",")):
            if variable == "rect":
                calls = [lambda side=side, grid=scan(side, args.kind, count):
                         side.rectification_scan(*grid) for side in sides]
            else:
                calls = [lambda side=side, spec=sweep(side, args.kind, variable, lo, hi, fixed,
                                                      count): side.run_sweep(spec)
                         for side in sides]
            tables = [np.asarray(call()) for call in calls]
            times = ([], [])
            for r in range(args.rounds):
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    start = time.perf_counter_ns()
                    calls[k]()
                    times[k].append(time.perf_counter_ns() - start)
            ratios = [after / before for before, after in zip(*times)]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            print(f"{variable:<9} {count:>6} {median:>12.3f} {q1:>6.3f}-{q3:<6.3f} "
                  f"{statistics.median(times[0]) / 1e3:>10.1f} "
                  f"{statistics.median(times[1]) / 1e3:>9.1f}  "
                  f"{tables[0].tobytes() == tables[1].tobytes()}")


if __name__ == "__main__":
    main()
