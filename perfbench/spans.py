"""In-memory span tracing of qjunction's layers, and the per-layer metrics.

The tracer replaces, in memory only, each public function of the layer
modules at the names through which other modules call it (for example
``qjunction.experiments.channel_rates`` or ``qjunction.solver.rate_pair``),
plus the package namespace the benchmark calls through. Calls inside a module
stay unwrapped, so a span covers its layer's own work, except for the two
inner boundaries the metrics name: ``rate_pair -> occupation`` in baths and
``run_sweep -> solve_point`` in experiments. No source file changes.

A span is (id, parent id, name, start ns, end ns). Aggregates (calls, time,
self time, errors, calls per outermost span) are kept for every span; the
spans themselves are kept up to a cap and written out when the run ends.
"""

import functools
import inspect
import itertools
import statistics
import sys
import time

LAYERS = ("baths", "model", "solver", "correlations", "experiments", "cli")
# names traced in their own module too: two callees a metric below names, and
# the CLI entry point, which the benchmark calls through its own module
_INNER = {"baths.occupation", "experiments.solve_point", "cli.main"}
_DEATH = "experiments.sudden_death_temperature"

_PER_PT = "calls/pt"
# (metric name, unit); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = [
    ("baths.rate_pair.calls_per_pt", _PER_PT),
    ("baths.rate_pair.self_us_per_pt", "us/pt"),
    ("baths.occupation.self_us_per_pt", "us/pt"),
    ("model.eigensystem.calls_per_pt", _PER_PT),
    ("solver.channel_rates.calls_per_pt", _PER_PT),
    ("solver.channel_rates.self_us_per_pt", "us/pt"),
    ("solver.steady_populations.self_us_per_pt", "us/pt"),
    ("solver.heat_current.self_us_per_pt", "us/pt"),
    ("correlations.correlation_report.calls_per_pt", _PER_PT),
    ("correlations.correlation_report.self_us_per_pt", "us/pt"),
    ("correlations.concurrence.calls_per_call", "calls/call"),
    ("experiments.solve_point.self_us_per_pt", "us/pt"),
    ("experiments.run_sweep.self_us_per_pt", "us/pt"),
    ("experiments.rectification_scan.self_us_per_pt", "us/pt"),
    ("experiments.sudden_death_temperature.evals_per_call", "evals/call"),
    ("experiments.sudden_death_temperature.us_per_call", "us"),
    ("cli.import_ms", "ms"),
    ("cli.import_numpy_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("cli.main.self_us_per_row", "us/row"),
    ("cli.bytes_per_row", "B/row"),
] + [(f"{name}.errors", "count") for name in (
    "baths.occupation", "baths.rate_pair", "solver.channel_rates",
    "solver.steady_populations", "solver.heat_current",
    "correlations.correlation_report", "experiments.solve_point",
    "experiments.run_sweep", "experiments.rectification_scan", _DEATH, "cli.main",
)] + [("trace.overhead_frac", "ratio")]


class Tracer:
    def __init__(self, keep: int = 200_000):
        self.stats = {}    # name -> [calls, total ns, self ns, errors]
        self.by_root = {}  # (name, name of the public call it served) -> calls
        self.spans = []
        self.keep = keep
        self._patches = []
        self._stack = []  # open spans: [start ns, child ns, id, name]
        self._ids = itertools.count(1)

    def install(self) -> None:
        names = {}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "qjunction" or modname.startswith("qjunction.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                name = f"{home}.{obj.__name__}"
                if home not in LAYERS or (home == "cli" and obj.__name__ != "main"):
                    continue
                if obj.__module__ == modname and name not in _INNER:
                    continue
                if name not in names:
                    names[name] = self._wrap(name, obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, names[name])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack, ids = self._stack, self._ids
        st = self.stats.setdefault(name, [0, 0, 0, 0])
        by_root, spans, keep = self.by_root, self.spans, self.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0, next(ids), name]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                    # the public call is the outermost span below the CLI entry point
                    root = stack[1][3] if stack[0][3] == "cli.main" and len(stack) > 1 else stack[0][3]
                else:
                    root, parent = name, 0
                key = (name, root)
                by_root[key] = by_root.get(key, 0) + 1
                if len(spans) < keep:
                    spans.append((frame[2], parent, name, frame[0], end))

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(str(x) for x in span) + "\n")


def layer_metrics(tracer: Tracer, answers: int, calls: int, extra: dict,
                  time_scale: float) -> dict:
    """Per-layer metrics from a traced pass; absent names read as 0 calls.

    Span times are multiplied by ``time_scale``, the machine-speed factor of
    the traced pass; ``extra`` holds the metrics measured outside the spans.
    """
    def stat(name, i):
        return tracer.stats.get(name, [0, 0, 0, 0])[i]

    per_pt = 1.0 / answers if answers else 0.0
    per_call = 1.0 / calls if calls else 0.0
    out = {}
    for metric, _unit in PER_LAYER:
        fn, _, what = metric.rpartition(".")
        if what == "calls_per_pt":
            out[metric] = stat(fn, 0) * per_pt
        elif what == "self_us_per_pt":
            out[metric] = stat(fn, 2) * 1e-3 * per_pt * time_scale
        elif what == "calls_per_call":
            out[metric] = stat(fn, 0) * per_call
        elif what == "errors":
            out[metric] = stat(fn, 3)
        elif metric == f"{_DEATH}.evals_per_call":
            deaths = stat(_DEATH, 0)
            evals = tracer.by_root.get(("solver.channel_rates", _DEATH), 0)
            out[metric] = evals / deaths if deaths else 0.0
        elif metric == "cli.main.self_us_per_row":
            out[metric] = stat("cli.main", 2) * 1e-3 * per_pt * time_scale
        else:
            out[metric] = extra.get(metric, 0.0)
    return out


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
