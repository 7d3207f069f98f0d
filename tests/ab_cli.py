"""Interleaved timing of ``qjunction`` processes from two checkouts.

Runs the CLI of two checkouts of this repository, "before" and "after", as
``python -m qjunction.cli`` with each checkout's ``src`` on ``PYTHONPATH``,
turn about on the same invocations: per round, each side once, the side that
goes first alternating. Covers ``import`` (``python -c "import qjunction.cli"``,
which shows the start-up share of each command apart from its work),
``point``, ``death``, and ``sweep`` and ``rect`` at each grid size (by default
2, 100, 1,024, 1,025 and 6,000 points, either side of the CLI's bound on
point-by-point grids). Prints, per invocation, each side's median wall time
and quartiles in ms, the median after/before ratio, whether each side printed
the same stdout every time, and whether the two sides' stdout is identical.

Run from the root of the "after" checkout, with the "before" checkout made
for example by ``git archive``:

    python tests/ab_cli.py --before ../parent [--sizes 2,100,1024,1025,6000]

It needs only the standard library, takes about a minute with the defaults,
and is not collected by pytest. Process times include the interpreter start,
so on a shared machine read the ratios and quartiles, not single runs.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SYSTEM = ["--epsilon", "0.2", "--kappa", "1.0", "--gl", "1.0", "--gr", "0.3"]


def invocations(sizes):
    """(label, interpreter argv) of each timed invocation."""
    cli = ["-m", "qjunction.cli"]
    yield "import", ["-c", "import qjunction.cli"]
    yield "point", [*cli, "point", "--tl", "1.5", "--tr", "0.5", *SYSTEM]
    yield "death", [*cli, "death", *SYSTEM]
    for n in sizes:
        yield f"sweep ta n={n}", [*cli, "sweep", "--var", "ta", "--lo", "0.05", "--hi", "3",
                                  "--n", str(n), *SYSTEM]
        yield f"rect n={n}", [*cli, "rect", "--ta", "1", "--lo", "0.01", "--hi", "0.9",
                              "--n", str(n), *SYSTEM]


def run(root, argv):
    """(wall ns, stdout bytes) of one interpreter process with the checkout at root."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    start = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)
    return time.perf_counter_ns() - start, proc.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="root of the checkout to compare against")
    parser.add_argument("--after", default=str(HERE.parent), help="root of the changed checkout")
    parser.add_argument("--sizes", default="2,100,1024,1025,6000",
                        help="grid sizes of sweep and rect, comma-separated")
    parser.add_argument("--rounds", type=int, default=9, help="processes per side and invocation")
    args = parser.parse_args(argv)
    roots = args.before, args.after
    print(f"{'invocation':<16} {'before ms (q1-q3)':>22} {'after ms (q1-q3)':>22} "
          f"{'after/before':>12}  repeatable  identical")
    for label, python_argv in invocations(int(size) for size in args.sizes.split(",")):
        times, outputs = ([], []), ([], [])
        for r in range(args.rounds):
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                ns, out = run(roots[k], python_argv)
                times[k].append(ns / 1e6)
                outputs[k].append(out)
        cells = []
        for side in times:
            q1, _, q3 = statistics.quantiles(side, n=4)
            cells.append(f"{statistics.median(side):7.1f} ({q1:6.1f}-{q3:6.1f})")
        ratio = statistics.median(after / before for before, after in zip(*times))
        repeatable = all(len(set(side)) == 1 for side in outputs)
        identical = outputs[0][0] == outputs[1][0]
        print(f"{label:<16} {cells[0]:>22} {cells[1]:>22} {ratio:>12.3f}  {repeatable!s:<10}  "
              f"{identical}")


if __name__ == "__main__":
    main()
