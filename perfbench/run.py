#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator libraries, the
ioguard_admitd daemon and the perfbench program from source (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload. The program's
last stdout line is the result object; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run. Workloads: fig7_sweep, ioguard_observed, admission_churn.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_sweep", "ioguard_observed", "admission_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark package; returns the binaries."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, len(os.sched_getaffinity(0))))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "ioguard_admitd"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return None
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "ioguard_admitd"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/ioguard_admitd.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("run.py: %s not found next to perfbench/; "
                             "nothing to build\n" % needed)
            return 1

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binaries = build(build_dir)
    if binaries is None:
        return 1
    perfbench, admitd = binaries
    # Worker threads of the traced runs' batches and of the untimed reply
    # check; the timed runs measure on one thread.
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--admitd", admitd, "--out", os.path.join(build_dir, "out"),
           "--jobs", jobs]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: %s exceeded %d s\n"
                         % (args.workload, RUN_TIMEOUT_S))
        return 1


if __name__ == "__main__":
    sys.exit(main())
