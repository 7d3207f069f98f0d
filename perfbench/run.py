"""Benchmark of qjunction, end to end and per layer.

    python3 perfbench/run.py --workload {sweep,transport,point,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qjunction is imported from ./src.
Each workload runs in a fresh interpreter with one thread (BLAS pinned to 1)
and a closed loop with one caller, in whole passes over its seeded inputs.
With --trace 0 the last line of output is a JSON object whose metrics are
the end-to-end metrics; with --trace 1 a traced replay of the same inputs
gives the per-layer metrics instead. The lines before it are a report for people: the environment, the input hash,
every metric with its unit and sample count, and the failures by kind.
Times are rescaled by an interleaved machine-speed probe (see speed.py);
the report shows the raw values beside them.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters timed per run for setup_s
SETUP_SAMPLES = 5
_DEADLINE_S = 170.0

END_TO_END = [
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:
        return ""


def _loadavg() -> list:
    return _read("/proc/loadavg").split()[:3]


def _environment(numpy_version: str, load_start: list) -> dict:
    cpuinfo = _read("/proc/cpuinfo").splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or sha
    return {
        "git": sha,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "cpu": models[0] if models else "unknown",
        "cpus": sum(line.startswith("processor") for line in cpuinfo),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }


def _worker(args: list, env: dict, timeout: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter: its result and its raw set-up seconds."""
    start = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                          capture_output=True, text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - start


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: prints its report, returns its result object."""
    started = time.monotonic()
    env = _env()
    load_start = _loadavg()
    inputs = workloads.generate(workload, seed)
    # set-up samples, each rescaled by the process probes taken around it
    raw_setups, probes_setup = [], []
    if not trace:
        probes_setup.append(speed.process_probe_ms(env))
        for _ in range(SETUP_SAMPLES):
            raw_setups.append(_worker(["--setup-only"], env, 60.0)[1])
            probes_setup.append(speed.process_probe_ms(env))
    setups = [raw * speed.scale(a, b, speed.PROCESS_REFERENCE_MS)
              for raw, a, b in zip(raw_setups, probes_setup, probes_setup[1:])]
    budget = _DEADLINE_S - (time.monotonic() - started)
    res, _ = _worker(["--workload", workload, "--seed", str(seed), "--seconds",
                      str(seconds), "--trace", str(trace)], env, budget)

    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print("env " + json.dumps(_environment(res["numpy"], load_start)))
    passes = f" passes={res['passes']}" if "passes" in res else ""
    print(f"inputs sha256={workloads.digest(inputs)} distinct={len(inputs)} "
          f"attempted={res['attempted']} calls={res['calls']}{passes}")
    probe_sets = (
        ("speed probe", res["probes_ms"], speed.REFERENCE_MS),
        ("process probe", res.get("process_probes_ms", []) + probes_setup,
         speed.PROCESS_REFERENCE_MS),
    )
    for name, probes, reference in probe_sets:
        if probes:
            print(f"{name} ms: median {statistics.median(probes):.4g}, min {min(probes):.4g}, "
                  f"max {max(probes):.4g} over {len(probes)}; times are rescaled to "
                  f"{reference} ms; raw values follow \"raw\"")
    calls, attempted, failed = res["calls"], res["attempted"], res["failed"]
    if trace:
        metrics = res["per_layer"]
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "points_per_s": res["points_per_s"],
            "latency_p50_ms": res["p50_ms"],
            "latency_p90_ms": res["p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = dict(END_TO_END)
        notes = {
            "points_per_s": f"answers={res['answers']} over all {calls} calls; "
                            f"raw {res['raw_points_per_s']:.6g}",
            "latency_p50_ms": f"samples={res['timed']} {res['samples']} that did not fail; "
                              f"raw per call {res['raw_p50_ms']:.6g}",
            "latency_p90_ms": f"samples={res['timed']}, {res['beyond_p90']} beyond p90; "
                              f"raw per call {res['raw_p90_ms']:.6g}",
            "setup_s": f"median of {len(setups)} fresh interpreters; raw "
                       f"{statistics.median(raw_setups):.6g}",
            "peak_rss_mb": "CLI child processes" if workload == "cli" else "worker process",
        }
    for name, value in metrics.items():
        note = "" if trace else f"  ({notes[name]})"
        print(f"  {name:<52} {value:>14.6g} {units[name]}{note}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<52} {rate:>14.6g} 1  (failed={failed} of attempted={attempted}; "
          f"each input once)")
    for reason, count in sorted(res["failures"].items()):
        print(f"  failure: {reason}: {count}")
    correct = res["wrong"] == 0 and res["nondeterministic"] == 0
    if not correct:
        print(f"  INCORRECT: wrong answers={res['wrong']}, "
              f"nondeterministic outputs={res['nondeterministic']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qjunction" / "__init__.py").is_file():
        print(f"perfbench: no qjunction source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {w: run_workload(w, args.seed, args.seconds, args.trace)
                 for w in workloads.WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{name}": m for w, p in parts.items()
                        for name, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
