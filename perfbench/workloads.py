"""Seeded inputs for the four workloads.

Each workload is a closed loop with one caller: the next call starts when the
previous one has returned. The same seed gives the same list of inputs. A run
makes whole passes over the list, at least one, so every input is attempted
and the number of inputs that fail is fixed by the seed. Each list is sized
so that one pass takes at most about half of a 25 s run.

A list holds only 120 sweep or scan calls, or 25 CLI processes, so those
workloads draw their parameters from low-discrepancy sequences with seeded
offsets, and bath kind, channel orientation and sweep variable cycle: the
list then carries nearly the same mix, and the same share of failing
inputs, whatever the seed. The
single-point workload, whose run repeats its whole list many times, and the
small CLI calls draw pseudo-randomly.

An input is a JSON-friendly tuple whose first field names the call:
  ("sweep", q, var, lo, hi, n, fixed)     run_sweep over var in {ta, tr, dt}
  ("rect", q, t_avg, lo, hi, n)           rectification_scan on linspace(lo, hi, n)
  ("point", q, t_left, t_right, expect)   solve_point
  ("death", q, expect)                    sudden_death_temperature
  ("cli", sub, q, extra, expect)          one `qjunction` process
where q = (epsilon, kappa, kind, gamma_left, gamma_right), and expect is "ok"
(a finite, correct answer is the only right outcome) or "edge" (a typed error
or a finite, correct answer are both right).
"""

import hashlib
import json
import math
import random

WORKLOADS = ("sweep", "transport", "point", "cli")

_KINDS = ("boson", "spin")
# one irrational step per input dimension (fractional parts of sqrt of primes)
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


class _Draw:
    """Seeded draws, either pseudo-random or low-discrepancy (``quasi``).

    In quasi mode the j-th draw made for call k is frac(offset_j + k step_j):
    every stretch of consecutive calls then covers each dimension evenly and
    the seed only sets the offsets.
    """

    def __init__(self, seed: int, salt: str, quasi: bool = False):
        self.rng = random.Random(f"{salt}:{seed}")
        self.offsets = [self.rng.random() for _ in _STEPS] if quasi else None
        self.k = self.dim = 0

    def at(self, k: int) -> "_Draw":
        self.k, self.dim = k, 0
        return self

    def _u(self) -> float:
        if self.offsets is None:
            return self.rng.random()
        j = self.dim
        self.dim += 1
        return (self.offsets[j] + self.k * _STEPS[j]) % 1.0

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._u()

    def log_uniform(self, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** self._u()

    def system(self, k: int) -> tuple:
        """(epsilon, kappa, kind, gamma_left, gamma_right); k fixes kind and orientation.

        Odd k // 2 gives an inverted system (epsilon > kappa). The two couplings
        differ by a factor log-uniform in [1e-2, 1e2] around a common scale.
        """
        kap = self.log_uniform(0.1, 2.0)
        ratio = self.log_uniform(1.05, 20.0)
        eps = kap * ratio if (k // 2) % 2 else kap / ratio
        scale = self.log_uniform(0.1, 10.0)
        asym = math.sqrt(self.log_uniform(1e-2, 1e2))
        return (eps, kap, _KINDS[k % 2], scale * asym, scale / asym)


def _grid_sizes(d: _Draw, count: int, period: int) -> list:
    """Grid sizes log-uniform over 64..16384, stratified rather than drawn.

    Each call gets the middle of one of the five quintiles of the log range
    (111, 338, 1024, 3104 or 9410 points), each quintile a fifth of the calls,
    so every seed times the same set of sizes. The latency median and 90th
    percentile then fall in the middle of the calls of one size (the third
    and the fifth), and which handful of calls fail, which depends on the
    seed, does not move them across sizes. The calls k with the same
    k % ``period`` (same kind, orientation and variable) get every size
    equally often; the seed only rotates which call of such a class gets
    which size.
    """
    per = count // period
    shifts = [d.rng.randrange(per) for _ in range(period)]
    return [int(round(64 * 256 ** ((((k // period + shifts[k % period]) % per) % 5 + 0.5) / 5)))
            for k in range(count)]


def _temperature_grid(d: _Draw) -> tuple[float, float]:
    lo = d.log_uniform(0.005, 0.5)
    return lo, lo * d.log_uniform(4.0, 200.0)


# sweep: run_sweep is the main interactive use. Every layer runs for every
# grid point (correlation_report is about a third of the point cost) and the
# per-call overhead is amortized over 64..16384 points, so this is where an
# array kernel shows. Inverted systems at low T reach the ZeroDivisionError
# in correlations; those calls are counted as failures, not removed. Draws
# are low-discrepancy and grid sizes stratified so that a list of 120 calls
# (ten times the 12-call cycle of variable, kind and orientation, two of each
# size per class) sees the same mix, and the same failing share, whatever the
# seed.
def _sweep(seed: int, count: int) -> list:
    d = _Draw(seed, "sweep", quasi=True)
    sizes = _grid_sizes(d, count, 12)
    out = []
    for k, n in enumerate(sizes):
        q = d.at(k).system(k)
        var = ("ta", "tr", "dt")[(k // 4) % 3]
        fixed = None
        if var == "dt":
            fixed = d.uniform(0.2, 3.0)
            half = fixed * d.uniform(0.3, 0.98)
            lo, hi = -half, half
        else:
            lo, hi = _temperature_grid(d)
            if var == "tr":
                fixed = d.log_uniform(0.05, 5.0)
        out.append(("sweep", q, var, lo, hi, n, fixed))
    return out


# transport: rectification_scan over bias grids. It runs baths, model and
# solver.channel_rates / heat_current but never steady_populations or the
# correlation measures, so a change confined to correlations must show no
# change here. Grid sizes are stratified like the sweep's.
def _transport(seed: int, count: int) -> list:
    d = _Draw(seed, "transport", quasi=True)
    sizes = _grid_sizes(d, count, 4)
    out = []
    for k, n in enumerate(sizes):
        q = d.at(k).system(k)
        t_avg = d.uniform(0.2, 3.0)
        lo = t_avg * d.log_uniform(1e-3, 0.1)
        hi = t_avg * d.uniform(0.5, 0.99)
        out.append(("rect", q, t_avg, lo, hi, n))
    return out


def _edge(d: _Draw, j: int, k: int) -> tuple:
    """Domain-edge request j: a typed error or a finite answer is right."""
    eps, kap, kind, gl, gr = d.system(k)
    tl, tr = d.log_uniform(0.05, 5.0), d.log_uniform(0.05, 5.0)
    case = j % 6
    if case == 0:
        eps = kap  # degenerate spectrum
    elif case == 1:
        gl = gr = 0.0  # no channel carries rates
    elif case == 2:
        tl = math.inf
    elif case == 3:
        tl = 1e308
    elif case == 4:
        gl = 1e300
    else:
        gl = gr = 1e300
    return ("point", (eps, kap, kind, gl, gr), tl, tr, "edge")


# point: single solve_point queries over the whole domain. Per-call overhead
# (dataclasses, validation, boxing) dominates, so a solve_point that becomes a
# one-element call into an array kernel shows in the latency median. One call
# in 20 is sudden_death_temperature (about 35 equilibrium evaluations, some
# 40% of the time), so a closed form shows in points_per_s. One call in 50 is
# a domain-edge request; the rest draw T log-uniform down to 1e-3 with T = 0,
# T_L = T_R and one-sided Gamma = 0 slices, both kinds and orientations.
def _point(seed: int, count: int) -> list:
    d = _Draw(seed, "point")
    out = []
    for k in range(count):
        if k % 20 == 19:
            eps, kap = d.uniform(0.05, 2.0), d.uniform(0.05, 2.0)
            out.append(("death", (eps, kap, _KINDS[k % 2], d.log_uniform(0.1, 10.0),
                                  d.log_uniform(0.1, 10.0)), "ok"))
            continue
        if k % 50 == 24:
            out.append(_edge(d, k // 50, k))
            continue
        eps, kap, kind, gl, gr = d.system(k)
        tl, tr = d.log_uniform(1e-3, 10.0), d.log_uniform(1e-3, 10.0)
        u = d.uniform(0.0, 1.0)
        if u < 0.10:
            tr = tl
        elif u < 0.15:
            tl = 0.0
        elif u < 0.17:
            tl = tr = 0.0
        elif u < 0.20:
            gl = 0.0
        elif u < 0.22:
            gr = 0.0
        out.append(("point", (eps, kap, kind, gl, gr), tl, tr, "ok"))
    return out


# cli: `qjunction` as a process, one at a time. Four calls in five are small
# point / death / sweep / rect invocations (n <= 200) dominated by the
# interpreter start and imports, so the latency median measures start-up;
# every fifth is a bulk sweep or rect with n log-uniform in [5e3, 5e4],
# dominated by solving and CSV formatting, so p90 measures bulk cost. Every
# tenth small call repeats an earlier one, to check byte-identical output.
# The list of 25 holds five bulk calls, and p90, most of the rows and the
# peak memory rest on them, so they are the same for every seed; the seed
# draws the small calls. The bulk sizes are the midpoints of the five
# quintiles of the log-uniform range, three sweeps and two rects. Each bulk
# call is 4% of the calls of a pass, so p90 falls in the middle of the
# third-slowest one's repeats rather than between two bulk calls. The other
# bulk parameters are low-discrepancy draws with fixed offsets.
_BULK_QUINTILES = (4, 1, 0, 3, 2)


def _cli(seed: int, count: int) -> list:
    d = _Draw(seed, "cli")
    bulk = _Draw(0, "cli-bulk", quasi=True)
    out = []
    small = []
    for k in range(count):
        if k % 5 == 4:
            m = k // 5
            q = bulk.at(m).system(k)
            n = int(round(5000 * 10 ** ((_BULK_QUINTILES[m % 5] + 0.5) / 5)))
            if m % 2:
                t_avg = bulk.uniform(0.2, 3.0)
                extra = (t_avg, t_avg * bulk.log_uniform(1e-3, 0.1),
                         t_avg * bulk.uniform(0.5, 0.99), n)
                out.append(("cli", "rect", q, extra, "ok"))
            else:
                lo, hi = _temperature_grid(bulk)
                out.append(("cli", "sweep", q, ("ta", lo, hi, n, None), "ok"))
            continue
        if len(small) % 10 == 9:
            small.append(small[-3])
            out.append(small[-1])
            continue
        sub = ("point", "death", "sweep", "rect")[len(small) % 4]
        q = d.system(len(small))
        if sub == "point":
            tl, tr = d.log_uniform(1e-3, 10.0), d.log_uniform(1e-3, 10.0)
            out.append(("cli", "point", q, (tl, tr), "ok"))
        elif sub == "death":
            eps, kap = d.uniform(0.05, 2.0), d.uniform(0.05, 2.0)
            out.append(("cli", "death", (eps, kap) + q[2:], (), "ok"))
        elif sub == "sweep":
            lo, hi = _temperature_grid(d)
            out.append(("cli", "sweep", q, ("ta", lo, hi, d.rng.randint(2, 200), None), "ok"))
        else:
            t_avg = d.uniform(0.2, 3.0)
            extra = (t_avg, t_avg * d.log_uniform(1e-3, 0.1), t_avg * d.uniform(0.5, 0.99),
                     d.rng.randint(2, 200))
            out.append(("cli", "rect", q, extra, "ok"))
        small.append(out[-1])
    return out


_GENERATORS = {"sweep": _sweep, "transport": _transport, "point": _point, "cli": _cli}
# inputs per list: on a two-core Xeon at the seed one pass takes some 10 to
# 14 s (point 0.3 s)
_COUNTS = {"sweep": 120, "transport": 120, "point": 4000, "cli": 25}


def generate(workload: str, seed: int) -> list:
    return _GENERATORS[workload](seed, _COUNTS[workload])


def digest(inputs: list) -> str:
    """sha256 of the input list, to show that two runs sent identical traffic."""
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()
