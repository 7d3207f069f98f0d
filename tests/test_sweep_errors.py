"""Which sweeps of a corpus of edge sweeps fail, and with what: pinned type and text.

A failing sweep names its failure from its own table (``experiments.run_sweep``).
``sweep_errors.json`` holds the exception type and full text of every sweep of the
corpus below that fails; a sweep not listed there returns its rows. A sweep fails
only where no bath is coupled or its current is not finite. The corpus is derandomized
(``random.Random(SEED)``, whose draws do not change across Python versions) and
reaches the edges of the domain: couplings 0, 5e-324, 1e300 and 1e308, temperatures
up to 1.7e308, kappa + epsilon past the float range, spin couplings of 5e-324 whose
spin rates would round to 0 from some temperature on, every sweep variable, and
grids at a sweep chunk's seams up to three chunks.

Regenerate the pinned file only for a change that means to move an error, and say
so where the change is recorded:

    PYTHONPATH=src python tests/test_sweep_errors.py > tests/sweep_errors.json
"""

import json
import random
import sys
from pathlib import Path

from qjunction import BathKind, SweepSpec, SweepVariable, SystemParams, run_sweep
from qjunction.experiments import _CHUNK

PINNED = Path(__file__).with_name("sweep_errors.json")
SEED, COUNT = 27, 1200

COUPLINGS = [0.0, 5e-324, 1.0, 1e300, 1e308]
# (epsilon, kappa): both orientations, kappa + epsilon past the float range, gaps
# near the least normal float and a gap of 1e300
SYSTEMS = [(0.2, 1.0), (1.0, 0.2), (1e308, 1.7e308), (1e-300, 3e-300), (0.3, 1e300)]
# a sweep's chunk is _CHUNK // 2 points
SIZES = [2, 3, 50, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1, _CHUNK, _CHUNK + 1,
         3 * _CHUNK // 2 + 7, 3 * _CHUNK]
# temperature grids of T_COMMON and T_RIGHT sweeps, from T = 0 and subnormal
# temperatures to the top of the float range. 5e-324 spin rates Gamma / (e^{-x} + 1)
# would round to 0 from T about 5e15 on (at a gap of 0.8): the grid (1, 1e20) steps
# over those temperatures at every size
GRIDS = [(0.0, 3.0), (0.0, 1.7e308), (1e300, 1.7e308), (1.0, 2e8), (1.0, 1e20),
         (5e-324, 1e-300), (1e-3, 1e300)]
T_LEFTS = [0.0, 1.5, 1e8, 1.7e308]
T_AVGS = [1.0, 1e8, 8.5e307, 1.7e308]
# a DELTA_T grid as fractions of T_a (T_a + 0.99 T_a overflows at T_a = 1.7e308)
BIASES = [(-0.99, 0.99), (-0.5, 0.9), (0.1, 0.99)]


def corpus():
    """The ``COUNT`` sweeps, as keyword arguments of ``SweepSpec`` with the system
    as an (epsilon, kappa) pair."""
    rng = random.Random(SEED)
    sweeps = []
    for _ in range(COUNT):
        sweep = dict(kind=rng.choice(list(BathKind)).value, params=rng.choice(SYSTEMS),
                     gamma_left=rng.choice(COUPLINGS), gamma_right=rng.choice(COUPLINGS),
                     variable=rng.choice(list(SweepVariable)).value,
                     count=rng.choice(SIZES))
        if sweep["variable"] == "delta_t":
            t_avg = rng.choice(T_AVGS)
            lo, hi = rng.choice(BIASES)
            sweep.update(lo=lo * t_avg, hi=hi * t_avg, t_avg=t_avg)
        else:
            sweep["lo"], sweep["hi"] = rng.choice(GRIDS)
            if sweep["variable"] == "t_right":
                sweep["t_left"] = rng.choice(T_LEFTS)
        sweeps.append(sweep)
    return sweeps


def outcome(sweep):
    """None where the sweep returns its rows, else its error's type and text."""
    spec = dict(sweep, params=SystemParams(*sweep["params"]), kind=BathKind(sweep["kind"]),
                variable=SweepVariable(sweep["variable"]))
    try:
        run_sweep(SweepSpec(**spec))
    except ValueError as exc:  # DegeneratePhysicsError too; any other error fails the test
        return f"{type(exc).__name__}: {exc}"
    return None


def failures():
    """{index in the corpus: type and text} of each sweep that fails."""
    return {str(i): text for i, text in enumerate(map(outcome, corpus())) if text is not None}


def test_every_sweep_of_the_corpus_fails_as_pinned():
    pinned = json.loads(PINNED.read_text(encoding="ascii"))
    assert (pinned["seed"], pinned["sweeps"]) == (SEED, COUNT)
    found = failures()
    moved = {i: (pinned["failures"].get(i), found.get(i))
             for i in pinned["failures"].keys() | found.keys()
             if pinned["failures"].get(i) != found.get(i)}
    assert not moved, sorted(moved.items(), key=lambda item: int(item[0]))[:5]
    # the corpus reaches both kinds of error, and sweeps that succeed
    kinds = {text.split(":")[0] for text in found.values()}
    assert kinds == {"ValueError", "DegeneratePhysicsError"} and len(found) < COUNT


if __name__ == "__main__":
    found = failures()
    json.dump({"seed": SEED, "sweeps": COUNT, "failures": found}, sys.stdout, indent=0)
    sys.stdout.write("\n")
