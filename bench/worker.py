"""Run one workload in this fresh process and print its result as one JSON line.

    python3 bench/worker.py WORKLOAD --seed N --seconds S [--trace] [--setup-only]

`bench/run.py` starts this with PYTHONPATH=src and one thread per numeric
library. Set-up (import soe, draw the seeded inputs, one untimed warm-up pass)
is timed from the first soe import. Then the worker repeats the pass, one call
at a time, until S seconds have passed, and checks every output against the
references in `checkers`. A fixed reference loop is timed right before and
after every pass, and pass times are reported at the speed where that loop
takes REFERENCE_MS, so that the drift of a shared machine cancels out. With
--trace it times the pass untraced for half of S and traced for the other
half, and writes the spans under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from spans import PER_LAYER, Tracer

MIN_PASSES = 3
REFERENCE_MS = 50.0  # pass_ms is expressed at the speed where reference_loop takes this long
PROBE_REPEATS = 5
OUT_DIR = ".bench_out"


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def judge(self, outputs) -> None:
        for name, out, error in outputs:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                # passes are identical, so later failures repeat the first one
                if self.failed == 1:
                    print(f"{self.workload.name}: {name} failed: {error}", file=sys.stderr)
                continue
            try:
                self.workload.check(name, out)
            except workloads.CheckError as err:
                self.correct = False
                print(f"{self.workload.name}: {name} is wrong: {err}", file=sys.stderr)


def run_pass(ops, untimed_ops) -> tuple:
    """Wall seconds of the timed operations, and every (name, output, error)."""
    outputs = []

    def run(name, fn):
        try:
            outputs.append((name, fn(), None))
        except Exception as err:  # an operation's failure is counted, the run goes on
            outputs.append((name, None, f"{type(err).__name__}: {err}"))

    start = time.perf_counter()
    for name, fn in ops:
        run(name, fn)
    elapsed = time.perf_counter() - start
    for name, fn in untimed_ops:
        run(name, fn)
    return elapsed, outputs


def reference_loop() -> int:
    """Fixed pure-Python work shaped like the kernel's: a 20k-cell table keyed by
    identifier pairs with frozenset cells, one sort, and intersections. It is
    timed around every pass to track the speed of the machine, which on a
    shared host drifts by a third within seconds. A loop this size tracks
    memory-bound passes much better than one that fits in cache."""
    names = [f"s{i:05d}" for i in range(20000)]
    table = {(names[i], names[i * 7 % 20000]): frozenset(names[i:i + 3]) for i in range(20000)}
    total = 0
    for key in sorted(table, key=lambda k: k[1]):
        total += len(table[key] & table.get((key[1], key[0]), frozenset()))
    return total


def reference_ms() -> float:
    start = time.perf_counter()
    reference_loop()
    return 1000.0 * (time.perf_counter() - start)


def repeat(workload, tally, ops, seconds: float, tracer=None) -> tuple:
    """Run whole passes until `seconds` have passed. Returns each pass's wall
    seconds, raw and rescaled to the speed at which the reference loop takes
    REFERENCE_MS (the mean of the loop's times right before and after it)."""
    raw, scaled = [], []
    start = time.perf_counter()
    while len(raw) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same collector state
        before = reference_ms()
        span = tracer.open("pass") if tracer else None
        elapsed, outputs = run_pass(ops, workload.untimed_ops())
        if tracer:
            tracer.close(span)
        after = reference_ms()
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_MS / ((before + after) / 2))
        tally.judge(outputs)
    return raw, scaled


def probe_ms(code: str) -> float:
    """Median wall milliseconds of a fresh `python -c CODE`."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=workloads.soe_env())
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def traced_metrics(workload, tally, seconds: float, seed: int) -> dict:
    _, untraced = repeat(workload, tally, workload.trace_ops(), seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = repeat(workload, tally, workload.trace_ops(), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(len(traced))
    layers["trace.overhead.ms"] = 1000.0 * (statistics.median(traced) - statistics.median(untraced))
    if workload.name == "cli_small":
        floor = probe_ms("pass")
        layers["cli.interpreter.ms"] = floor
        layers["cli.import.ms"] = probe_ms("import soe.cli") - floor
        layers["cli.numpy_import.ms"] = probe_ms("import numpy") - floor
    tracer.dump(
        os.path.join(OUT_DIR, f"trace-{workload.name}-seed{seed}.json"),
        {"workload": workload.name, "seed": seed, "traced_passes": len(traced), "layers": layers},
    )
    return {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        start = time.perf_counter()
        workload.load()
        workload.make_inputs(args.seed, workdir)
        _, warm_outputs = run_pass(workload.ops(), workload.untimed_ops())
        setup_s = time.perf_counter() - start
        # read before any work of the benchmark's own (reference loop, checks)
        who = resource.RUSAGE_CHILDREN if workload.name == "cli_small" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setup = {
            "setup_s": {"value": setup_s * REFERENCE_MS / reference_ms(), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        workload.expect()
        tally = Tally(workload)
        tally.judge(warm_outputs)
        tally.attempted = tally.failed = 0  # the warm-up pass is set-up, not measurement
        if args.trace:
            metrics = traced_metrics(workload, tally, args.seconds, args.seed)
        else:
            raw, scaled = repeat(workload, tally, workload.ops(), args.seconds)
            metrics = {"pass_ms": {"value": 1000.0 * statistics.median(scaled), "unit": "ms"}, **setup}
            print(f"{workload.name}: wall ms per pass " + " ".join(f"{1000 * t:.0f}" for t in raw)
                  + f"; rescaled median {1000 * statistics.median(scaled):.0f}", file=sys.stderr)
        print(json.dumps({
            "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
        }))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
