#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload read_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The program is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), with the library
targets compiled from ./src. Build output goes to stderr; the last line of stdout is
the program's JSON result. Each run gets a fresh scratch directory for FileDisk roots
under the build root, removed on every exit path; traced runs leave their span logs
in <build root>/traces.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds perfbench; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # Written only when a configure completes, so a failed one is retried.
    if not os.path.exists(os.path.join(build_dir, "CMakeFiles", "cmake.check_cache")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 2

    os.makedirs(os.path.join(build_root, "work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(build_root, "work"))
    command = [binary, "--work-dir", work_dir,
               "--trace-dir", os.path.join(build_root, "traces")]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]

    child = None

    def stop(signum, _frame):
        if child is not None and child.poll() is None:
            child.terminate()
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        sys.stdout.flush()
        child = subprocess.Popen(command, cwd=ROOT)
        return child.wait()
    finally:
        if child is not None and child.poll() is None:
            child.kill()
        if child is not None:
            child.wait()
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
