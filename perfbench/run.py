#!/usr/bin/env python3
"""Runs one workload of the provview benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the library, podsd and the
benchmark binary from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs it. The benchmark prints a host
fingerprint line and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. Build output goes to stderr.

Workloads: solve-exact and worlds-audit (see perfbench/NOTES.md). --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("solve-exact", "worlds-audit")
# A run must finish well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the benchmark project; output to stderr."""
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    for needed in ("src", os.path.join("examples", "podsd.cc"),
                   os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a provview source checkout "
                 "(missing %s)" % needed)

    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--podsd", os.path.join(build_dir, "podsd")]
    # The benchmark binary runs in its own process group with the podsd it
    # starts, so a timeout can stop both.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    try:
        # Nothing of the group outlives the run, even after a crash.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("perfbench: benchmark exited with code %d" % proc.returncode,
              file=sys.stderr)
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
