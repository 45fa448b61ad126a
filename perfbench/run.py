"""cvmodes benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cvmodes is imported from its
``src/`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment, the input mix the seed produced
and the failure ratio.  BENCHMARK.json at the checkout root describes the
workloads and metrics.

End to end: latency percentiles over every op of the run, throughput as
ops per second of time spent inside the API (output checks excluded),
set-up as the median over fresh imports of cvmodes plus one cold op, and
the process's peak resident set.  Times leave out host stalls and are
scaled to a nominal host speed (see hostspeed.py); the info line gives
the raw wall times as well.  Per layer
(``--trace 1``): every input runs once untraced and once traced; calls and
self time are per traced op.
"""

import os
import sys

if __name__ == "__main__":
    # BLAS must see these before numpy loads: one process, one thread.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import time

import numpy as np

import tracer as tracing
from hostspeed import NOMINAL_NS, HostSpeed, needed_ns, stamp
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
P99_SEGMENTS = 5
P99_SEGMENT_OPS = 1000
MAX_LOGGED_FAILURES = 5


def import_cvmodes():
    """Import cvmodes (and its CLI) afresh from the checkout's src/."""
    for key in [k for k in sys.modules if k == "cvmodes" or k.startswith("cvmodes.")]:
        del sys.modules[key]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("cvmodes")
    importlib.import_module("cvmodes.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise ImportError(f"cvmodes was imported from {package.__file__}, not {SRC}")
    return package


def _attempt(errors, fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # the run goes on; its ops fail and are counted
        errors.append(f"set-up: {type(exc).__name__}: {exc}")


def set_up(workload, host):
    """Time fresh imports of cvmodes plus the first, cold op.

    Returns the package of the last import, the (start, time needed, wall
    time) in ns of every repetition, and the errors the set-up raised.
    """
    samples = []
    errors = []
    for _ in range(SETUP_REPS):
        for _ in range(3):
            host.sample()
        s0 = stamp()
        cv = import_cvmodes()
        s1 = stamp()
        _attempt(errors, workload.bind, cv)
        s2 = stamp()
        _attempt(errors, workload.op, cv, 0)
        s3 = stamp()
        samples.append((s0[0], needed_ns(s0, s1) + needed_ns(s2, s3),
                        s1[0] - s0[0] + s3[0] - s2[0]))
    return cv, samples, errors


class Loop:
    """Closed loop with one client: the next op starts when one ends."""

    def __init__(self, workload, cv, host):
        self.workload = workload
        self.cv = cv
        self.host = host
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _fail(self, message):
        self.failed += 1
        if len(self.messages) < MAX_LOGGED_FAILURES:
            self.messages.append(message)

    def one(self, i):
        """Run and check op ``i``; returns (start, time needed, wall time) in ns."""
        before = stamp()
        try:
            out = self.workload.op(self.cv, i)
        except Exception as exc:  # a failing op is data, not a crash
            out = exc
        after = stamp()
        sample = (before[0], needed_ns(before, after), after[0] - before[0])
        self.attempted += 1
        if isinstance(out, Exception):
            self._fail(f"op {i}: {type(out).__name__}: {out}")
            return sample
        try:
            self.workload.check(i, out)
        except CheckFailed as exc:
            self._fail(f"op {i}: {exc}")
        except Exception as exc:  # a malformed output fails its check
            self._fail(f"op {i}: check raised {type(exc).__name__}: {exc}")
        return sample

    def run(self, seconds, min_ops=0, step=None):
        """Call ``step(i)`` (default: :meth:`one`) on successive op indices
        for ``seconds`` and at least ``min_ops`` times; returns the results."""
        step = step or self.one
        clock = time.perf_counter_ns
        results = []
        deadline = clock() + int(seconds * 1e9)
        while clock() < deadline or len(results) < min_ops:
            self.host.poll()
            results.append(step(self.next_op))
            self.next_op += 1
        return results

    def finish(self):
        try:
            self.workload.finish()
        except CheckFailed as exc:
            self._fail(f"after run: {exc}")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def end_to_end(samples, setup, scale, column=1):
    """End-to-end metrics from the ns samples of ops and set-up.

    ``column`` picks the time needed (1) or the wall time (2); ``scale``
    maps start times to the factor applied to it.
    """
    def scaled(rows):
        rows = np.array(rows, dtype=np.int64)
        return rows[:, column] * scale(rows[:, 0])

    in_order = scaled(samples)
    lat = sorted(in_order.tolist())
    # Host hiccups come in bursts; the median over consecutive segments of
    # at least P99_SEGMENT_OPS ops keeps one burst from setting the p99.
    parts = np.array_split(in_order, max(1, min(P99_SEGMENTS, len(lat) // P99_SEGMENT_OPS)))
    p99 = statistics.median(percentile(sorted(part.tolist()), 99) for part in parts)
    return {
        "throughput_ops_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) / 1e6, "ms"),
        "latency_p99_ms": (p99 / 1e6, "ms"),
        "setup_s": (statistics.median(scaled(setup)) / 1e9, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# Functions whose calls and self time are reported, by layer.
LAYER_FUNCTIONS = {
    "core": ("min_heisenberg_eigenvalue", "validate", "purity",
             "total_photon_number", "mean_photon_number", "symplectic_form",
             "reduce", "reorder"),
    "transforms": ("qplate_transform", "apply", "embed_with_vacua",
                   "quarter_waveplate_relabel"),
    "entanglement": ("symplectic_eigenvalues", "partial_transpose",
                     "ppt_verdict", "iterative_separability",
                     "pairwise_entanglement_map", "bipartition_scan"),
    "pipeline": ("run_pipeline", "reproduce_paper", "reproduce_paper_json",
                 "emit_report"),
    "io": ("load_state", "save_state", "state_from_dict"),
    "fixtures": ("load_state_fixture", "load_matrix_fixture"),
    "cli": ("main", "build_parser"),
}


def _gklc_hook(tr, args, kwargs, verdict, parent):
    tr.count("gklc_iterations", verdict.iterations or 0)


def _ppt_hook(tr, args, kwargs, verdict, parent):
    if parent >= 0 and tr.span_name(parent) == "entanglement.bipartition_scan":
        tr.count("scan_ppt_attempts")
        tr.count("scan_ppt_conclusive", verdict.status.value != "inconclusive")


def _read_hook(tr, args, kwargs, result, parent):
    tr.count("bytes_read", os.path.getsize(args[0]))


def _write_hook(tr, args, kwargs, result, parent):
    tr.count("bytes_written", os.path.getsize(args[1]))


HOOKS = {
    "entanglement.iterative_separability": _gklc_hook,
    "entanglement.ppt_verdict": _ppt_hook,
    "io.load_state": _read_hook,
    "io.save_state": _write_hook,
}


def per_layer(spans, counters, ops, overhead_ratio, scale):
    """Per-layer metrics; self times are multiplied by ``scale``."""
    totals = tracing.summarize(spans)
    us_per_op = scale / ops / 1e3
    metrics = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            calls, self_ns = totals.get(f"{layer}.{fn}", (0, 0.0))
            metrics[f"{layer}.{fn}.calls"] = (calls / ops, "calls/op")
            metrics[f"{layer}.{fn}.self_us"] = (self_ns * us_per_op, "us/op")
        layer_ns = sum(v[1] for k, v in totals.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_us"] = (layer_ns * us_per_op, "us/op")
    verdicts = sum(totals.get(f"entanglement.{fn}", (0, 0))[0]
                   for fn in ("ppt_verdict", "iterative_separability"))
    attempts = counters.get("scan_ppt_attempts", 0)
    metrics["entanglement.verdicts"] = (verdicts / ops, "count/op")
    metrics["entanglement.gklc_iterations"] = (
        counters.get("gklc_iterations", 0) / ops, "count/op")
    metrics["entanglement.ppt_conclusive_ratio"] = (
        counters.get("scan_ppt_conclusive", 0) / attempts if attempts else 0.0, "ratio")
    metrics["pipeline.diagnostics_share"] = (tracing.child_share(
        spans, "pipeline.run_pipeline",
        ("core.validate", "core.purity", "core.total_photon_number")), "ratio")
    metrics["io.bytes_read"] = (counters.get("bytes_read", 0) / ops, "B/op")
    metrics["io.bytes_written"] = (counters.get("bytes_written", 0) / ops, "B/op")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run(workload_name, seed, seconds, trace, workdir, trace_path):
    """One benchmark run; returns (info, result) as printed by main."""
    pins_path = os.path.join(HERE, "pins.json")
    with open(pins_path, encoding="utf-8") as handle:
        pins = json.load(handle)
    workload = WORKLOADS[workload_name](seed, workdir, pins)
    host = HostSpeed()
    cv, setup, setup_errors = set_up(workload, host)
    loop = Loop(workload, cv, host)
    if not trace:
        samples = loop.run(seconds, min_ops=workload.pool_size)
        metrics = end_to_end(samples, setup, host.scale)
        raw = end_to_end(samples, setup, lambda starts: 1.0, column=2)
        raw = {k: v for k, (v, _) in raw.items() if k != "peak_rss_mb"}
        counts = {"ops": len(samples)}
    else:
        # Each input runs untraced, then traced: the same work on both sides
        # of the overhead ratio, whatever the host does in between.
        tr = tracing.Tracer()
        tr.install(cv, HOOKS)
        plain, traced = [], []

        def pair(i):
            plain.append(loop.one(i))
            tr.op = len(traced)
            tr.enable()
            try:
                traced.append(loop.one(i))
            finally:
                tr.disable()

        loop.run(seconds, min_ops=workload.pool_size, step=pair)
        spans = tr.spans()
        tr.save(trace_path)
        ratio = statistics.median(t[1] / p[1] for p, t in zip(plain, traced))
        metrics = per_layer(spans, tr.counters, len(traced), ratio,
                            NOMINAL_NS / host.median_ns())
        raw = None
        counts = {"ops": len(plain), "traced_ops": len(traced)}
    loop.finish()
    info = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": counts,
        "raw_times": raw,
        "reference_kernel_ms": {"median": host.median_ns() / 1e6,
                                "runs": len(host.durations)},
        "fail_ratio": {"value": loop.failed / loop.attempted, "unit": "ratio"},
        "failures": setup_errors[:1] + loop.messages,
        "mix": workload.mix(),
        "env": environment(),
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cvmodes")):
        sys.stderr.write(f"error: no cvmodes sources under {SRC}\n")
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        info, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir, os.path.join(outdir, f"trace_{args.workload}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in info["failures"]:
        sys.stderr.write(f"check failed: {message}\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
