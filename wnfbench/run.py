#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see wnfbench/README.md).

Run from the repository root:

    python3 wnfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 wnfbench/run.py --selftest

The first run configures and builds the library and the benchmark binary
from the sources in this checkout (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only rebuild what changed. The
benchmark binary prints its report and, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. The exit status is the binary's: 0 when every output check
passed. A traced run (--trace 1) also writes its spans as CSV next to the
build.
"""

import argparse
import os
import signal
import subprocess
import sys

# A run must end within 180 s; the binary itself gives up on a stalled
# replay long before this, so the limit only guards against a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("wnfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    log_path = os.path.join(build_dir, "wnfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "wnfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "wnfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=root, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                fail("build failed (see %s)" % log_path)
    binary = os.path.join(build_dir, "wnfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no binary at " + binary)
    return binary


def run(command):
    """Runs the binary in its own process group; returns its exit status."""
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was killed" % RUN_TIMEOUT_S)
    finally:
        # Forked transport workers share the group; none may outlive it.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["campaign", "serve_pool", "serve_fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("wnfbench",
                                                          "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the repository root: %s is missing" % needed)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(root, build_dir)

    sys.stdout.flush()
    if args.selftest:
        sys.exit(run([binary, "--selftest"]))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_dir, "spans-%s.csv" % args.workload)]
    sys.exit(run(command))


if __name__ == "__main__":
    main()
