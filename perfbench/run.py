#!/usr/bin/env python3
"""Build and run the host-time benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tracking --seed 1 --seconds 20 --trace 0

Builds perfbench/skbench.exe with dune (release profile, build tree under
.bench_build/, dune's shared cache off, so nothing is written outside the
checkout), runs it pinned to one CPU, and passes its standard output
through: the last line is the result object. Exits non-zero, without a result, when the checkout
cannot be built or the benchmark fails.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "skbench.exe")
WORKLOADS = ("tracking", "farm", "variants", "serve")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    for needed in ("dune-project", "lib", "specs",
                   os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a checkout (no %s here)" % needed)

    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    env["XDG_CACHE_HOME"] = os.path.abspath(
        os.path.join(".bench_build", "xdg-cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", os.path.abspath(BUILD_DIR),
             "./perfbench/skbench.exe"],
            stdout=sys.stderr, env=env, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exited %d)" % build.returncode)

    # One op is in flight at a time, so one CPU is enough; pinning keeps
    # single-domain workloads from migrating and keeps the serve client and
    # daemon on one core, so a request's wake-up does not wait on the other
    # CPU. The build above still used every CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Write back what earlier runs left in the page cache (a serve run
    # deletes tens of thousands of store files at its end), so the file
    # system's deferred work does not land in this run's timings.
    os.sync()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    try:
        # set-up, checks and teardown add a few seconds to the measured ones
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if run.returncode != 0:
        fail("benchmark exited %d" % run.returncode)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
