"""rlid benchmark: one process, one closed-loop client, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each operation starts when the previous one returns.  The seed makes
the inputs (see ``workloads.py``); every answer is checked outside the
timed call, and a wrong answer aborts the run with exit code 1.

``--trace 0`` times whole passes over the workload's input set until
``--seconds`` have passed and at least 100 operations ran, and reports
the end-to-end metrics.  Every time it reports is scaled to a nominal
machine speed read off a reference loop timed next to the operations
(see ``speed.py``); the lines before the result also give the raw
throughput.  ``--trace 1`` alternates an untraced and a
traced pass over the same operations and reports the per-layer metrics
of the traced passes, per pass, plus the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before
it repeat each metric with its unit and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_OPS = 100             # so the 90th percentile has at least ten samples above it
SETUP_REPEATS = 3         # setup_s takes the median of at least this many setups,
SETUP_MIN_SECONDS = 1.0   # repeating until this much setup time has passed,
SETUP_MAX_REPEATS = 30    # but no more setups than this
IMPORT_REPEATS = 9        # fresh interpreters that time the import
SPEED_EVERY_S = 0.1       # read the machine's speed at least this often between operations
MAX_TRACEBACKS = 3


class Outcomes:
    """Outcome counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.counts = {"ok": 0, "unresolved": 0, "failed": 0}
        self.tracebacks = 0


def run_pass(wl, out, tracer=None):
    """Run every operation of ``wl`` once.

    Returns the latency of each operation by its index, scaled to the
    nominal speed by the readings taken before and after it, with NaN
    where the pass skipped it; and the raw latencies' sum.  Flat arrays
    keep the benchmark's own memory the same however many passes a run
    makes, so peak RSS is the program's.
    """
    times = array("d", [math.nan]) * len(wl.ops)
    reading = array("l", [0]) * len(wl.ops)   # index of the speed reading before each op
    readings = array("d", [speed.sample()])
    last = perf_counter()
    for op_id, op in enumerate(wl.ops):
        if not wl.prepare(op):
            continue
        if perf_counter() - last >= SPEED_EVERY_S:
            readings.append(speed.sample())
            last = perf_counter()
        result = exc = None
        if tracer is not None:
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result = wl.run(op)
        except (Exception, SystemExit) as e:  # a crash is a failed operation, not a stop
            exc = e
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        times[op_id] = dt
        reading[op_id] = len(readings) - 1
        out.attempted += 1
        status = wl.check(op, result, exc)
        out.counts[status] += 1
        if exc is not None and status == "failed" and out.tracebacks < MAX_TRACEBACKS:
            out.tracebacks += 1
            print("operation %r failed:" % (op,), file=sys.stderr)
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
    readings.append(speed.sample())
    wl.end_pass()
    raw = busy(times)
    for op_id, t in enumerate(times):
        if not math.isnan(t):
            r = reading[op_id]
            times[op_id] = speed.scale(t, readings[r], readings[r + 1])
    return times, raw


def busy(times):
    """Summed latency of the operations a pass ran."""
    return math.fsum(t for t in times if not math.isnan(t))


def setup(wl, seed, workdir):
    """Repeat the full setup; return the median time of one, scaled.

    Each setup starts from a collected heap, so garbage left by the one
    before does not land in its time.
    """
    times = []
    spent = 0.0
    while len(times) < SETUP_REPEATS or (
        spent < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        before = speed.sample()
        t0 = perf_counter()
        wl.setup(seed, workdir)
        wl.warmup()
        dt = perf_counter() - t0
        spent += dt
        times.append(speed.scale(dt, before, speed.sample()))
    return statistics.median(times)


_IMPORT_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = [{src!r}, {here!r}]
import speed
before = speed.sample()
t0 = perf_counter()
import spans, workloads, checks
dt = perf_counter() - t0
print(speed.scale(dt, before, speed.sample()))
"""


def import_seconds():
    """Median time to import the benchmark and ``rlid`` in a fresh interpreter, scaled."""
    code = _IMPORT_PROBE.format(src=SRC, here=HERE)
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(sorted_values, q):
    """Linear-interpolated quantile of an ascending list, 0 <= q <= 1."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure(wl, seconds, out):
    """Whole passes until ``seconds`` have passed and MIN_OPS ran.

    Each operation's latency is its median over the passes, so a burst
    of load on a shared machine that slows one pass does not move the
    result; throughput and percentiles are taken over those medians.
    """
    passes = []
    raw = 0.0
    start = perf_counter()
    while True:
        times, pass_raw = run_pass(wl, out)
        passes.append(times)
        raw += pass_raw
        if perf_counter() - start >= seconds and out.attempted >= MIN_OPS:
            break
    ran = [i for i in range(len(wl.ops)) if not any(math.isnan(p[i]) for p in passes)]
    per_op = sorted(statistics.median(p[i] for p in passes) for i in ran)
    scaled = math.fsum(busy(p) for p in passes)
    print("# passes: %d; percentiles over %d per-operation medians" % (len(passes), len(per_op)))
    print("# raw ops_per_s %r; the machine ran at %.3f of nominal speed"
          % (out.attempted / raw, scaled / raw))
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (percentile(per_op, 0.5) * 1000, "ms"),
        "op_p90_ms": (percentile(per_op, 0.9) * 1000, "ms"),
        "answered_frac": (out.counts["ok"] / out.attempted, "fraction"),
    }


def measure_traced(wl, seconds, out, tracer):
    """Alternate untraced and traced passes; per-layer values are per pass."""
    plain = traced = 0.0
    passes = []
    start = perf_counter()
    while True:
        # alternate which of the pair goes first, so drift over the run
        # does not bias the overhead
        untraced_first = len(passes) % 2 == 0
        if untraced_first:
            plain += busy(run_pass(wl, out)[0])
        tracer.reset()
        tracer.install()
        try:
            traced += busy(run_pass(wl, out, tracer)[0])
        finally:
            tracer.uninstall()
        passes.append(tracer.summary())
        if not untraced_first:
            plain += busy(run_pass(wl, out)[0])
        if perf_counter() - start >= seconds:
            break
    nodes = {p["solvers.nodes"] for p in passes}
    if len(nodes) != 1:
        raise CheckFailed("solvers.nodes differs between passes: %r" % sorted(nodes))
    mean = {}
    for key in passes[0]:
        total = sum(p[key] for p in passes)
        # counts repeat exactly, so their per-pass value stays whole
        exact = isinstance(total, int) and total % len(passes) == 0
        mean[key] = total // len(passes) if exact else total / len(passes)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[layer + ".self_s"] = (mean[layer + ".self_s"], "s")
        metrics[layer + ".calls"] = (mean[layer + ".calls"], "count")
    attempts = mean["solvers.attempts"]
    nodes = mean["solvers.nodes"]
    reports = mean["bounds.reports"]
    metrics.update({
        "solvers.nodes": (nodes, "count"),
        "solvers.ns_per_node": (mean["solvers.self_s"] * 1e9 / nodes if nodes else 0.0, "ns"),
        "solvers.exact_ratio": (mean["solvers.exact"] / attempts if attempts else 0.0, "fraction"),
        "solvers.budget_exceeded": (mean["solvers.budget_exceeded"], "count"),
        "bounds.exact_ratio": (mean["bounds.exact"] / reports if reports else 0.0, "fraction"),
        "bounds.notes": (mean["bounds.notes"], "count"),
        "io.parse_s": (mean["io.parse_s"], "s"),
        "io.write_s": (mean["io.write_s"], "s"),
        "io.bytes_in": (mean["io.bytes_in"], "bytes"),
        "io.bytes_out": (mean["io.bytes_out"], "bytes"),
        "coloring.violations": (mean["coloring.violations"], "count"),
        "trace.overhead_frac": (traced / plain - 1.0, "fraction"),
    })
    return metrics, len(passes)


def result_line(correct, out, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(name, seed, seconds, trace, out):
    """Set up and measure one workload into ``out``; returns the metrics."""
    wl = workloads.WORKLOADS[name]()
    workdir = os.path.join(WORK, name)
    try:
        setup_s = setup(wl, seed, workdir)
        if trace:
            tracer = spans.Tracer(spans.rlid_modules())
            metrics, passes = measure_traced(wl, seconds, out, tracer)
            print("# traced passes: %d (per-layer values are per pass)" % passes)
        else:
            metrics = measure(wl, seconds, out)
            metrics["setup_s"] = (import_seconds() + setup_s, "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    out = Outcomes()
    try:
        metrics = run_workload(args.workload, args.seed, args.seconds, args.trace, out)
    except CheckFailed as exc:
        print("wrong answer: %s" % exc, file=sys.stderr)
        print(result_line(False, out, {}))
        return 1
    n = out.attempted
    print("# workload %s seed %d: %d operations (%d ok, %d unresolved, %d failed), "
          "failed_frac %r, unresolved_frac %r"
          % (args.workload, args.seed, n, out.counts["ok"], out.counts["unresolved"],
             out.counts["failed"], out.counts["failed"] / n, out.counts["unresolved"] / n))
    for key, (value, unit) in metrics.items():
        print("# %-24s %r %s" % (key, value, unit))
    print(result_line(True, out, metrics))
    return 0


if not os.path.isfile(os.path.join(SRC, "rlid", "__init__.py")):
    sys.exit("perfbench: no rlid sources at %s; run from the root of an rlid checkout" % SRC)
sys.path.insert(0, SRC)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402  (imports rlid)
from checks import CheckFailed  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
