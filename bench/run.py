"""Pass-level benchmark of soe. Run it from the root of a soe checkout:

    python3 bench/run.py --workload closure_build --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 1

Each workload runs in its own fresh process (bench/worker.py), one operation
at a time, one thread per numeric library. Untraced (--trace 0) it reports
pass_ms, setup_s and peak_rss_mb; setup_s is the median of SETUP_REPEATS fresh
processes. Traced (--trace 1) it reports the per-layer metrics of bench/spans.py.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output checked
out, 1 when one did not or a worker broke, and 2 outside a soe checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["cli_small", "closure_build", "verify_suite", "table_scan"]
SETUP_REPEATS = 3
RUN_BUDGET_S = 170  # one workload, all its processes included
HERE = os.path.dirname(os.path.abspath(__file__))


class WorkerError(Exception):
    pass


def worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # string hashes, and so set iteration orders, repeat for a given seed
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(argv, env, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    # its own process group, so a timeout also stops the soe subprocess it may be running
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as err:  # a timeout or an interrupt: stop the worker, then go on unwinding
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise WorkerError(f"worker {argv} ran past the time budget") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {argv} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    env = worker_env(seed)
    argv = [name, "--seed", str(seed), "--seconds", str(seconds)] + (["--trace"] if trace else [])
    if trace:
        return call_worker(argv, env, deadline)
    setups = [call_worker(argv + ["--setup-only"], env, deadline) for _ in range(SETUP_REPEATS - 1)]
    result = call_worker(argv, env, deadline)
    setups.append(result["metrics"])
    for metric in ("setup_s", "peak_rss_mb"):
        result["metrics"][metric]["value"] = statistics.median(s[metric]["value"] for s in setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Pass-level benchmark of soe.")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "soe", "cli.py")):
        print("bench/run.py: no src/soe here; run it from the root of a soe checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except WorkerError as err:
        print(f"bench/run.py: {err}", file=sys.stderr)
        return 1

    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
