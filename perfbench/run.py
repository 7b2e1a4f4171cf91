#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 30 --trace 0

Builds the benchmark executable and the two daemons from source with
dune, runs the workload in its own process group, checks that the result
line names exactly the metrics BENCHMARK.json declares, and prints it as
the last line of standard output.  Exits non-zero, without a result,
when the build or the run fails.  README.md describes the workloads and
metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = "_build"
TARGETS = ["perfbench/bench.exe", "bin/gossip_served.exe", "bin/gossip_router.exe"]
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # A shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + TARGETS
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)
    return [os.path.join(BUILD_DIR, "default", t) for t in TARGETS]


def stop_group(pgid):
    """Kills what is left of the run's process group and waits for it."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    bench, served, router = build()
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--served", served, "--router", router]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode)

    lines = out.strip().splitlines()
    if not lines:
        fail("no result line")
    result = json.loads(lines[-1])
    values = result["metrics"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    missing = sorted(set(names) - set(values))
    # A traced run leaves out the layers its workload does not touch.
    if unknown or (missing and not args.trace):
        fail("metrics differ from BENCHMARK.json: unknown %s, missing %s" % (unknown, missing))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    # bench.exe writes null for a measurement it could not take: no result.
    unmeasured = sorted(name for name, v in values.items() if v is None)
    if unmeasured:
        fail("not measured: %s" % unmeasured)
    # A layer the workload left out did no work: 0.
    result["metrics"] = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared
    }
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
