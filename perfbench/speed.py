"""Machine-speed probes, so that timings survive a shared, drifting CPU.

On a shared machine the same interpreter-bound code runs up to twice as slow
for seconds at a time, depending on what else shares the core. A probe is a
fixed piece of work that qjunction does not touch; the benchmark runs one
between blocks of calls and rescales each block's times by reference / probe
time, i.e. reports times on a machine where the probe takes its reference
time. A change to qjunction passes through the rescaling unchanged; raw
times are reported too.

Two probes, because work inside an interpreter and starting a process slow
down differently: ``probe_ms`` is pure Python of the same character as
qjunction's scalar path (small frozen dataclasses, math calls, tuple
packing); ``process_probe_ms`` starts an interpreter that imports numpy,
which tracks the start-up of a ``qjunction`` process.
"""

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

REFERENCE_MS = 2.0
PROCESS_REFERENCE_MS = 125.0


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _term(pair: _Pair, x: float) -> float:
    return pair.a * math.exp(-x / pair.b) + math.log1p(x)


def _work(n: int = 600) -> float:
    acc = 0.0
    for i in range(n):
        pair = _Pair(0.5 + (i % 7) * 0.1, 1.0 + (i % 5))
        vals = tuple(_term(pair, 0.01 * k) for k in range(4))
        u, v, w, z = vals
        acc += max(u, v) - min(w, z) + sum(vals) / (1.0 + abs(u))
    return acc


def probe_ms(repeats: int = 3) -> float:
    """Median wall time of the probe now, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def process_probe_ms(env: dict) -> float:
    """Wall time now of a fresh interpreter that imports numpy, in ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                   timeout=60, check=True)
    return (time.perf_counter() - t0) * 1e3


def scale(before_ms: float, after_ms: float, reference_ms: float = REFERENCE_MS) -> float:
    """Factor that turns raw times between two probes into reference times."""
    return 2.0 * reference_ms / (before_ms + after_ms)
