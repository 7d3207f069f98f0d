"""One benchmark process: set-up, the timed closed loop, and the checks.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python perfbench/worker.py --setup-only

perfbench/run.py starts this in a fresh interpreter and turns the JSON line
it prints last into metrics. Set-up ends once qjunction (and numpy) are
imported and every entry point has been called once; the wall-clock time of
that moment is reported as ``ready``.
"""

import time

import adapter

adapter.warm_up()
READY = time.time()

import argparse  # noqa: E402  (after the set-up stamp on purpose)
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CLOCK = time.perf_counter_ns

# calls between two speed probes: each sweep, scan or CLI call, or some
# 0.1 s of single points at the seed
BLOCK = {"sweep": 1, "transport": 1, "point": 2000, "cli": 1}
# Single points repeat their list some 80 times a run, and the tail of a
# 30 us call is mostly the scheduler's jitter, not the query. For them a
# query's latency is the median of its last Blocks.REPEATS repeats, and p50
# and p90 are taken over queries; other workloads make one to three passes
# and take them over calls.
PER_INPUT = {"point"}
# calls per second of --seconds that a traced run replays three times
# (untraced, traced, untraced); sized to take about half of --seconds at the seed
TRACE_RATE = {"sweep": 1.2, "transport": 1.6, "point": 1200.0, "cli": 0.6}

POINT_HEADER = ("T_L,T_R,gamma_L,gamma_R,bath,epsilon,kappa,"
                "P1,P2,P3,P4,J_L,concurrence,discord,mutual_info,classical_corr")
RECT_HEADER = "dT,J_forward,J_reverse"
_CSV_POINT_COLUMNS = (0, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15)
_NON_FINITE = "non-finite value"


class Histogram:
    """Latencies in 0.1%-wide logarithmic bins: constant memory at any call rate."""

    STEP = math.log(1.001)

    def __init__(self):
        self.bins = {}
        self.count = 0

    def add(self, ns: float) -> None:
        b = int(math.log(max(ns, 1.0)) / self.STEP)
        self.bins[b] = self.bins.get(b, 0) + 1
        self.count += 1

    def _order_statistic(self, rank: int) -> float:
        seen = 0
        for b in sorted(self.bins):
            c = self.bins[b]
            if rank < seen + c:
                return math.exp((b + (rank - seen + 0.5) / c) * self.STEP)
            seen += c
        return 0.0

    def quantile(self, q: float) -> tuple[float, int]:
        """Quantile in ns, interpolated between order statistics, and the samples above it."""
        if not self.count:
            return 0.0, 0
        h = (self.count - 1) * q
        lo = math.floor(h)
        v_lo = self._order_statistic(lo)
        v_hi = self._order_statistic(min(lo + 1, self.count - 1))
        return v_lo + (h - lo) * (v_hi - v_lo), self.count - 1 - lo


class Judge:
    """Classifies each call's outcome; counts answers, failures and wrong answers.

    A call fails if it raises an untyped exception, raises a typed error on a
    valid input, gives a non-finite or wrong result, or (CLI) exits with a
    wrong code or prints a traceback. ``wrong`` counts finite wrong answers
    to valid inputs and ``nondeterministic`` counts identical inputs whose
    outputs differ; either makes the run incorrect.
    """

    def __init__(self):
        self.failures = {}
        self.wrong = 0
        self.nondeterministic = 0
        self._seen = {}

    def _fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def library(self, key, inp, raw, exc) -> tuple[int, bool]:
        """(answers, failed) for one library call.

        A repeated single point or sudden-death input reuses its first verdict
        once its output is shown to be identical; sweeps are checked again.
        """
        result = None if exc is not None else adapter.rows(inp, raw)
        if inp[0] not in ("point", "death"):
            verdict = self._judge(inp, exc, result)
        else:
            signature = repr(result) if exc is None else type(exc).__name__
            cached = self._seen.get(key)
            if cached is None:
                verdict = self._judge(inp, exc, result)
                self._seen[key] = (signature, verdict)
            else:
                if cached[0] != signature:
                    self.nondeterministic += 1
                verdict = cached[1]
        answers, reason = verdict
        if reason is not None:
            self._fail(reason)
        return answers, reason is not None

    def _judge(self, inp, exc, result) -> tuple[int, str | None]:
        expect = inp[-1] if inp[0] in ("point", "death") else "ok"
        if exc is not None:
            name = type(exc).__name__
            if not isinstance(exc, adapter.TYPED_ERRORS):
                return 0, f"untyped {name}"
            return (0, None) if expect == "edge" else (0, f"typed error on valid input: {name}")
        reason = self._check(inp, result)
        if reason is not None and reason != _NON_FINITE and expect == "ok":
            self.wrong += 1
        return (0 if reason else len(result) if isinstance(result, list) else 1), reason

    def _check(self, inp, result) -> str | None:
        what, q = inp[0], inp[1]
        if what == "death":
            return checks.death_failure(q[1], result)
        if what == "point":
            return _point_rows_failure(q, np.array(result), ())
        if what == "sweep":
            _, q, var, lo, hi, n, fixed = inp
            if len(result) != n:
                return f"{len(result)} rows for a {n}-point grid"
            arr = np.array(result)
            first = (lo, lo) if var == "ta" else (fixed, lo) if var == "tr" else (fixed + lo, fixed - lo)
            if not np.allclose(arr[0, :2], first, rtol=1e-12, atol=0.0):
                return "first row is not the start of the grid"
            return _point_rows_failure(q, arr, (0, n // 2, n - 1))
        _, q, t_avg, lo, hi, n = inp
        if len(result) != n:
            return f"{len(result)} rows for a {n}-point grid"
        return _rect_rows_failure(q, t_avg, np.array(result))

    def cli(self, inp, argv, code, out: bytes, err: bytes) -> tuple[int, bool]:
        """(answers, failed) for one CLI process."""
        key = tuple(argv)
        digest = hashlib.sha256(out).hexdigest()
        if self._seen.setdefault(key, digest) != digest:
            self.nondeterministic += 1
        answers, reason = self._judge_cli(inp, code, out, err)
        if reason is not None:
            self._fail(reason)
        return answers, reason is not None

    def _judge_cli(self, inp, code, out, err) -> tuple[int, str | None]:
        _, sub, q, extra, expect = inp
        if b"Traceback" in err:
            return 0, "traceback"
        if code != 0:
            if expect == "edge" and code in (2, 3):
                return 0, None
            return 0, f"exit {code} on valid input"
        lines = out.decode("ascii", "replace").splitlines()
        reason = _csv_failure(sub, q, extra, lines)
        if reason is not None:
            if reason != _NON_FINITE and expect == "ok":
                self.wrong += 1
            return 0, reason
        return max(len(lines) - 1, 1), None


def _point_rows_failure(q, arr: np.ndarray, sample) -> str | None:
    reason = checks.invariant_failures(q, arr)
    if reason is not None:
        return reason
    spec = checks.Spectrum(q[0], q[1])
    for i in sample or range(len(arr)):
        reason = checks.reference_failure(spec, q, arr[i])
        if reason is not None:
            return reason
    return None


def _rect_rows_failure(q, t_avg: float, arr: np.ndarray) -> str | None:
    if not np.all(np.isfinite(arr)):
        return _NON_FINITE
    eps, kap, kind, gl, gr = q
    # forward bias heats the left bath, so J_forward >= 0 >= J_reverse (second law)
    tol = 1e-9 * max(gl, gr) * (eps + kap) * (1.0 + 2.0 * t_avg / min(abs(kap - eps), eps + kap))
    if np.any(arr[:, 1] < -tol) or np.any(arr[:, 2] > tol):
        return "negative entropy production"
    spec = checks.Spectrum(eps, kap)
    n = len(arr)
    for i in (0, n // 2, n - 1):
        dt, jf, jr = arr[i]
        reason = (checks.current_failure(spec, q, t_avg + dt, t_avg - dt, jf)
                  or checks.current_failure(spec, q, t_avg - dt, t_avg + dt, jr))
        if reason is not None:
            return reason
    return None


def _csv_failure(sub, q, extra, lines) -> str | None:
    if sub == "death":
        if len(lines) != 1 or not lines[0].startswith("T_death,"):
            return "malformed death output"
        return checks.death_failure(q[1], float(lines[0].split(",")[1]))
    header = RECT_HEADER if sub == "rect" else POINT_HEADER
    n = 1 if sub == "point" else extra[3]
    if not lines or lines[0] != header or len(lines) - 1 != n:
        return "malformed CSV: header or row count"
    if sub == "rect":
        arr = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        return _rect_rows_failure(q, extra[0], arr)
    arr = np.loadtxt(lines[1:], delimiter=",", usecols=_CSV_POINT_COLUMNS, ndmin=2)
    echo = lines[1].split(",")
    if [float(echo[2]), float(echo[3]), echo[4], float(echo[5]), float(echo[6])] != [
            q[3], q[4], q[2], q[0], q[1]]:
        return "CSV does not echo the requested parameters"
    return _point_rows_failure(q, arr, (0, n // 2, n - 1))


def _call_library(inp):
    t0 = CLOCK()
    try:
        raw, exc = adapter.call(inp), None
    except Exception as e:  # every exception is an outcome to classify
        raw, exc = None, e
    return CLOCK() - t0, raw, exc


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _one(workload, idx, inp, judge, env):
    """One timed public call, then its checks: (ns, answers, failed, stdout bytes)."""
    if workload == "cli":
        argv = adapter.cli_argv(inp)
        t0 = CLOCK()
        proc = subprocess.run(adapter.CLI_COMMAND + argv, capture_output=True, env=env,
                              timeout=150, check=False)
        ns = CLOCK() - t0
        got, bad = judge.cli(inp, argv, proc.returncode, proc.stdout, proc.stderr)
        return ns, got, bad, len(proc.stdout)
    ns, raw, exc = _call_library(inp)
    got, bad = judge.library(idx, inp, raw, exc)
    return ns, got, bad, 0


def _in_process(inp):
    """The CLI entry point called in this process: (ns, data rows, failed)."""
    t0 = CLOCK()
    try:
        code, text = adapter.cli_main(adapter.cli_argv(inp))
    except Exception:  # a crash inside main is an outcome too
        code, text = 1, ""
    ns = CLOCK() - t0
    if code != 0:
        return ns, 0, True
    return ns, max(text.count("\n") - 1, 1), False


class Blocks:
    """Calls timed in blocks between two speed probes; each block is rescaled by them.

    Latencies count only calls that did not fail: an aborted call is not a
    fast answer. Throughput counts every call's time. With ``env`` (CLI
    processes) a process probe is also taken every PROCESS_BLOCKS blocks, and
    ``start_hist`` holds the latencies rescaled by it, for the start-up-bound
    median. With ``inputs`` the last REPEATS times of each input are kept,
    in constant memory, for ``median_hist``.
    """

    PROCESS_BLOCKS = 5
    REPEATS = 32

    def __init__(self, size: int, keep_calls: bool, env: dict | None = None, inputs: int = 0):
        self.size = size
        self.hist, self.raw_hist, self.start_hist = Histogram(), Histogram(), Histogram()
        self.ns = self.raw_ns = 0.0
        self.calls = [] if keep_calls else None   # reference ns of each call
        self.paired = [] if keep_calls else None  # a second time per call, same scale
        self._env = env
        self.probes = [speed.probe_ms()]
        self.process_probes = [speed.process_probe_ms(env)] if env else []
        self._pending = []
        self._start_pending = []
        self.recent = np.full((inputs, self.REPEATS), np.nan, dtype=np.float32)
        self.repeats = np.zeros(inputs, dtype=np.int64)

    def add(self, ns: int, failed: bool, paired_ns: int | None = None, idx: int = 0) -> None:
        self._pending.append((ns, failed, paired_ns, idx))
        if len(self._pending) == self.size:
            self.flush()

    def flush(self, last: bool = False) -> None:
        if self._pending:
            self.probes.append(speed.probe_ms())
            k = speed.scale(self.probes[-2], self.probes[-1])
            for ns, failed, paired, idx in self._pending:
                self.ns += ns * k
                self.raw_ns += ns
                if not failed:
                    self.hist.add(ns * k)
                    self.raw_hist.add(ns)
                    self._start_pending.append(ns)
                    if len(self.repeats):
                        self.recent[idx, self.repeats[idx] % self.REPEATS] = ns * k
                        self.repeats[idx] += 1
                if self.calls is not None:
                    self.calls.append(ns * k)
                    self.paired.append(None if paired is None else paired * k)
            self._pending.clear()
        if not self._env:
            self._start_pending.clear()
        elif self._start_pending and (last or len(self.probes) % self.PROCESS_BLOCKS == 1):
            self.process_probes.append(speed.process_probe_ms(self._env))
            k_start = speed.scale(*self.process_probes[-2:], speed.PROCESS_REFERENCE_MS)
            for ns in self._start_pending:
                self.start_hist.add(ns * k_start)
            self._start_pending.clear()

    def median_hist(self) -> Histogram:
        """Each input's median over its last REPEATS times, one sample per input."""
        hist = Histogram()
        for row in self.recent[self.repeats > 0]:
            hist.add(float(np.nanmedian(row)))
        return hist


def measure(workload: str, inputs: list, seconds: float) -> dict:
    """Closed loop of whole passes over the inputs for about ``seconds`` of wall time.

    Latency and throughput exclude the checks. Every pass makes the same
    calls in the same order, so each run of a seed times the same mix
    however many passes fit. The loop stops once another pass would end more
    than half a pass after ``seconds``, but never before the first pass has
    ended: ``attempted`` (the length of the list) and ``failed`` (the inputs
    that failed in the first pass) are fixed by the seed. A repeat whose
    outcome differs from the first pass counts as nondeterministic.
    """
    judge, env = Judge(), _cli_env()
    per_input = workload in PER_INPUT
    blocks = Blocks(BLOCK[workload], keep_calls=False, env=env if workload == "cli" else None,
                    inputs=len(inputs) if per_input else 0)
    answers = passes = 0
    first_pass = []  # failed or not, per input
    start = time.perf_counter()
    while True:
        for idx, inp in enumerate(inputs):
            ns, got, bad, _ = _one(workload, idx, inp, judge, env)
            if not passes:
                first_pass.append(bad)
            elif first_pass[idx] != bad:
                judge.nondeterministic += 1
            answers += got
            blocks.add(ns, bad, idx=idx)
        if not passes:
            reasons = dict(judge.failures)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 0.5) / passes >= seconds:
            break
    calls = passes * len(inputs)
    blocks.flush(last=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    # a CLI call's median is start-up, which the process probe tracks; its
    # tail is bulk solving and formatting, which the in-process probe tracks
    hist = blocks.median_hist() if per_input else blocks.hist
    p50, _ = (blocks.start_hist if workload == "cli" else hist).quantile(0.5)
    p90, beyond = hist.quantile(0.9)
    return {
        "attempted": len(inputs), "failed": sum(first_pass), "calls": calls, "passes": passes,
        "answers": answers, "failures": reasons, "wrong": judge.wrong,
        "nondeterministic": judge.nondeterministic,
        "points_per_s": answers / blocks.ns * 1e9 if blocks.ns else 0.0,
        "raw_points_per_s": answers / blocks.raw_ns * 1e9 if blocks.raw_ns else 0.0,
        "probes_ms": blocks.probes, "process_probes_ms": blocks.process_probes,
        "timed": hist.count, "samples": "inputs" if per_input else "calls",
        "p50_ms": p50 * 1e-6, "p90_ms": p90 * 1e-6, "beyond_p90": beyond,
        "raw_p50_ms": blocks.raw_hist.quantile(0.5)[0] * 1e-6,
        "raw_p90_ms": blocks.raw_hist.quantile(0.9)[0] * 1e-6,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _import_times(env, repeats: int = 3) -> tuple[float, float]:
    """Median reference ms of ``import qjunction.cli`` and of the numpy import in it."""
    totals, numpys = [], []
    before = speed.probe_ms()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qjunction.cli"],
                              capture_output=True, text=True, env=env, timeout=60, check=False)
        total = numpy = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            stripped = name.strip()
            if len(name) - len(name.lstrip()) == 1 and stripped.split(".")[0] == "qjunction":
                total += int(parts[1])
            if stripped == "numpy":
                numpy = int(parts[1])
        totals.append(total * 1e-3)
        numpys.append(numpy * 1e-3)
    k = speed.scale(before, speed.probe_ms())
    return spans.median_or_zero(totals) * k, spans.median_or_zero(numpys) * k


def _replay(workload, prefix, judge, env, processes: bool):
    """One pass over ``prefix``: (blocks, answers, failed, CLI stdout bytes).

    For the CLI the timed call is ``main`` in this process; with ``processes``
    each call is also run (and checked) as a process, paired with it.
    """
    blocks = Blocks(BLOCK[workload], keep_calls=True)
    answers = failed = out_bytes = 0
    for idx, inp in enumerate(prefix):
        if workload == "cli":
            sub_ns = None
            if processes:
                sub_ns, _, _, size = _one(workload, idx, inp, judge, env)
                out_bytes += size
            ns, got, bad = _in_process(inp)
            blocks.add(ns, bad, sub_ns)
        else:
            ns, got, bad, _ = _one(workload, idx, inp, judge, env)
            blocks.add(ns, bad)
        answers += got
        failed += bad
    blocks.flush()
    return blocks, answers, failed, out_bytes


def traced(workload: str, inputs: list, seconds: float, seed: int) -> dict:
    """Replay a fixed prefix untraced, traced, then untraced again.

    The first pass fills the checks' caches and times the CLI processes; the
    per-layer metrics come from the second and the tracing overhead is the
    second against the third, so that neither timed pass follows cold checks.
    """
    count = max(5, int(round(TRACE_RATE[workload] * seconds)))
    prefix = [inputs[i % len(inputs)] for i in range(count)]
    env = _cli_env()
    judge = Judge()
    first, _, first_failed, out_bytes = _replay(workload, prefix, judge, env, True)
    judge.failures = {}
    tracer = spans.Tracer()
    tracer.install()
    try:
        mid, answers, failed, _ = _replay(workload, prefix, judge, env, False)
    finally:
        tracer.uninstall()
    failures = dict(judge.failures)
    last, _, _, _ = _replay(workload, prefix, judge, env, False)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-{seed}.tsv")
    import_ms, numpy_ms = _import_times(env)
    deaths = [ns for inp, ns in zip(prefix, last.calls) if inp[0] == "death"]
    extra = {
        "cli.import_ms": import_ms,
        "cli.import_numpy_ms": numpy_ms,
        "experiments.sudden_death_temperature.us_per_call": spans.median_or_zero(deaths) * 1e-3,
        "trace.overhead_frac": sum(mid.calls) / sum(last.calls) - 1.0,
    }
    if workload == "cli":
        extra["cli.process_ms"] = spans.median_or_zero(
            [s - m for s, m in zip(first.paired, first.calls)]) * 1e-6
        extra["cli.bytes_per_row"] = out_bytes / answers if answers else 0.0
    time_scale = speed.REFERENCE_MS / statistics.median(mid.probes)
    return {
        "attempted": count, "failed": failed, "calls": count, "answers": answers,
        "failures": failures, "wrong": judge.wrong,
        # tracing must not change an outcome
        "nondeterministic": judge.nondeterministic + (failed != first_failed),
        "per_layer": spans.layer_metrics(tracer, answers, count, extra, time_scale),
        "probes_ms": mid.probes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    source = Path(adapter.qjunction.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"qjunction imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    result = {"ready": READY, "numpy": np.__version__}
    if not args.setup_only:
        inputs = workloads.generate(args.workload, args.seed)
        run = traced if args.trace else measure
        extra = (args.seed,) if args.trace else ()
        result.update(run(args.workload, inputs, args.seconds, *extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
