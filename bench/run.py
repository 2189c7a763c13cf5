"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cycle-recovery --seed 1 --seconds 15 --trace 0

Run it from the repository root: the program is imported from ./src and
the answer oracle from ./tests/helpers.py.  The workload runs in this
process as a closed loop with one caller: set-up (import, input
generation, one untimed warm pass), then whole passes over the workload's
operations until at least --seconds have passed and at least 100
operations are timed.  Every answer is checked outside the timed region.
Times are reported in reference seconds (see NOMINAL_PROBE_S), and the
latency percentiles are Harrell-Davis estimates (see harrell_davis).

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
variant (see spans.py) and prints the per-layer metrics, the per-layer
self time at each size step, and writes every span to bench/out/.  The
last line of standard output is one JSON object; the exit code is 1 when
any answer is wrong and 2 on bad usage.
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
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "bench" / "out"
MIN_OPS = 100  # so that at least ten timed operations lie beyond p90
IMPORT_SAMPLES = 5
GENERATION_SAMPLES = 3
SETUP_OP = "setup"

# Other tenants of a shared host slow this process's CPU by up to 2x, for
# seconds to minutes at a time, and now and then take the CPU from it.  So
# every interval is timed in CPU seconds of this process (the program is
# single-threaded and does no I/O in a timed call, so this is its wall time
# less the time it was not running), bracketed by a reference loop that
# runs no quivercoalg code, and reported in reference seconds: CPU time
# scaled by NOMINAL_PROBE_S over the loop's mean CPU time just before and
# after the interval.  The loop takes about NOMINAL_PROBE_S on an
# undisturbed 2-core Xeon VM, so reference seconds are close to wall
# seconds there.  Wall times are printed alongside.
NOMINAL_PROBE_S = 1e-3
PROBE_TERMS = 400

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.process_time()\n"
    "import quivercoalg, quivercoalg.cli, quivercoalg.suites\n"
    "print(repr(time.process_time() - start))\n"
)


def median_import_seconds() -> float:
    """Import time of the package in fresh interpreters (reference
    seconds), median of a few."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = probe_s()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(done.stdout.strip()) * 2 * NOMINAL_PROBE_S / (before + probe_s()))
    return statistics.median(samples)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass of their slot
    of [0, 1] (midpoint rule).  With only a few samples per operation it
    moves less from run to run than the single interpolated order statistic
    of statistics.quantiles (see bench/README.md)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32
    weights = []
    for i in range(n):
        points = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta) for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, result):
        self.attempted += 1
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            reason = op.check(result)
        if reason is not None:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {op.kind} [{op.size}]: {reason}", file=sys.stderr)


def probe_s() -> float:
    """CPU seconds of the faster of two runs of the reference loop (exact
    fraction sums), with the garbage collector off so the program's heap
    does not slow it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.process_time()
            total = Fraction(0)
            for i in range(1, PROBE_TERMS):
                total += Fraction(1, i)
            best = min(best, time.process_time() - start)
        return best
    finally:
        gc.enable()


def measure(fn):
    """(wall seconds, reference seconds, result) of one call of fn."""
    before = probe_s()
    start, start_cpu = time.perf_counter(), time.process_time()
    result = fn()
    cpu = time.process_time() - start_cpu
    wall = time.perf_counter() - start
    return wall, cpu * 2 * NOMINAL_PROBE_S / (before + probe_s()), result


def call_op(op):
    try:
        return op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def run_pass(ops, tally, on_op=None) -> list[tuple[float, float]]:
    """(wall, reference) seconds of each operation of one pass."""
    times = []
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index, op)
        wall, reference, result = measure(lambda: call_op(op))
        times.append((wall, reference))
        tally.record(op, result)
    return times


def generate(build, seed, scratch, samples):
    """The operations, and the median reference seconds of building them."""
    times = []
    for _ in range(samples):
        _, reference, ops = measure(lambda: build(seed, scratch))
        times.append(reference)
    return ops, statistics.median(times)


def result_line(tally, metrics) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def untraced(args, build, scratch, tally):
    import_s = median_import_seconds()
    ops, generate_s = generate(build, args.seed, scratch, GENERATION_SAMPLES)
    warm_s = sum(reference for _, reference in run_pass(ops, tally))
    setup_s = import_s + generate_s + warm_s

    failed_before = tally.failed
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(times) < MIN_OPS:
        times += run_pass(ops, tally)
    passes = len(times) // len(ops)
    wall = [w for w, _ in times]
    reference = [r for _, r in times]
    # A pass at each operation's median time over the timed passes.
    typical_pass_s = sum(statistics.median(reference[i::len(ops)]) for i in range(len(ops)))
    verified_per_pass = (len(times) - (tally.failed - failed_before)) / passes
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (verified_per_pass / typical_pass_s, "1/s"),
        "op_p50_ms": (harrell_davis(reference, 0.5) * 1e3, "ms"),
        "op_p90_ms": (harrell_davis(reference, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verified_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"samples {len(times)} timed operations ({len(ops)} per pass)")
    print(f"set-up: import {import_s:.4f} s, inputs {generate_s:.4f} s, warm pass {warm_s:.4f} s")
    print(f"wall clock: p50 {harrell_davis(wall, 0.5) * 1e3:.4f} ms, p90 {harrell_davis(wall, 0.9) * 1e3:.4f} ms, "
          f"reference/wall {sum(reference) / sum(wall):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:16s} {value:12.4f} {unit}")
    print(f"{'failed_share':16s} {tally.failed / tally.attempted:12.4f} share")
    return metrics


def traced(args, build, scratch, tally):
    import spans
    import workloads

    ops, _ = generate(build, args.seed, scratch, 1)
    run_pass(ops, tally)  # warm pass; runs the slow first-answer checks

    # One traced pass under tracemalloc, for the peak allocation of the
    # program and its spans during an operation (checks excluded).
    memory = spans.Recorder()
    memory.install(extra_namespaces=[workloads])
    tracemalloc.start()
    try:
        peak_alloc = 0
        for op in ops:
            tracemalloc.reset_peak()
            result = call_op(op)
            peak_alloc = max(peak_alloc, tracemalloc.get_traced_memory()[1])
            tally.record(op, result)
    finally:
        tracemalloc.stop()
        memory.uninstall()
    reference_s = sum(reference for _, reference in run_pass(ops, tally))

    rec = spans.Recorder()
    rec.install(extra_namespaces=[workloads])
    meta = {SETUP_OP: ["set-up", 0, None]}
    try:
        # Self times are scaled to reference seconds with each operation's
        # reference/wall ratio.
        rec.op = SETUP_OP
        wall, reference, _ = measure(lambda: build(args.seed, scratch))  # answers unused
        rec.scale[SETUP_OP] = reference / wall

        def label(pass_index):
            def on_op(index, op):
                rec.op = pass_index * len(ops) + index
                meta[rec.op] = [op.kind, op.size, pass_index]
            return on_op

        traced_s = []
        start = time.perf_counter()
        while not traced_s or time.perf_counter() - start < args.seconds:
            first = len(traced_s) * len(ops)
            times = run_pass(ops, tally, label(len(traced_s)))
            for index, (wall, reference) in enumerate(times):
                rec.scale[first + index] = reference / wall
            traced_s.append(sum(reference for _, reference in times))
    finally:
        rec.uninstall()
    pass_ops = [op for op in meta if op != SETUP_OP]

    passes = len(traced_s)
    setup_self = rec.layer_self([SETUP_OP])
    pass_self = rec.layer_self(pass_ops)
    counts_setup = rec.counter_totals([SETUP_OP])
    counts_pass = rec.counter_totals(pass_ops)

    def per_run(name):
        """Amount in one set-up plus one pass (mean over traced passes)."""
        return counts_setup.get(name, 0) + counts_pass.get(name, 0) / passes

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (setup_self[layer] + pass_self[layer] / passes, "s")
    for name in ("algebra.multiply_calls", "algebra.identities_checked", "quiver.enumerate_calls",
                 "quiver.paths_enumerated", "quiver.compose_calls", "coalgebra.comultiply_calls",
                 "linalg.calls", "linalg.rows_in", "linalg.pivots_out", "dual.certs_verified",
                 "products.certs_verified"):
        metrics[name] = (per_run(name), "count")
    multiplies = per_run("algebra.multiply_calls")
    metrics["algebra.zero_product_share"] = (per_run("algebra.zero_products") / multiplies if multiplies else 0.0, "share")
    rows = per_run("linalg.rows_in")
    metrics["linalg.pivot_yield"] = (per_run("linalg.pivots_out") / rows if rows else 0.0, "share")
    metrics["trace.peak_alloc_mb"] = (peak_alloc / 2**20, "MB")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / reference_s, "ratio")

    series = scaling_series(rec, meta, passes)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
    rec.write(trace_file, meta, {"workload": args.workload, "seed": args.seed, "series": series})

    print(f"workload {args.workload}  seed {args.seed}  traced passes {passes}  "
          f"untraced pass {reference_s:.4f} s  spans {len(rec.spans)}  -> {trace_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:14.4f} {unit}")
    print_series(series)
    return metrics


def scaling_series(rec, meta, passes):
    """Self seconds per layer, per pass, at each (kind, size) step of the
    traced passes; the traced input generation is the "set-up" step."""
    steps: dict = {}
    for op, (kind, size, _) in meta.items():
        steps.setdefault((kind, size), []).append(op)
    rows = []
    for (kind, size), ops in sorted(steps.items()):
        runs = 1 if kind == "set-up" else passes
        layers = {layer: seconds / runs for layer, seconds in rec.layer_self(ops).items() if seconds}
        rows.append({"kind": kind, "size": size, "ops_per_pass": len(ops) // runs, "self_s": layers})
    return rows


def print_series(series):
    print("scaling series: self seconds per layer at each step (traced)")
    for row in series:
        total = sum(row["self_s"].values())
        top = sorted(row["self_s"].items(), key=lambda item: -item[1])[:4]
        body = "  ".join(f"{layer} {seconds:.4f}" for layer, seconds in top)
        print(f"  {row['kind']:34s} {row['size']:>4}  total {total:.4f}  {body}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quivercoalg" / "__init__.py").is_file() or not (ROOT / "tests" / "helpers.py").is_file():
        print("error: run from the repository root; src/quivercoalg and tests/helpers.py are needed", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        metrics = (traced if args.trace else untraced)(args, build, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(result_line(tally, metrics))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
