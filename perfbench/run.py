#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run one measurement.

    python3 perfbench/run.py --workload roster-seq --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The harness (perfbench/campaign_bench.cpp)
and the repository libraries it links are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the harness's JSON result. Exits nonzero, without a result, when
the tree cannot be built or a correctness check fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    build_dir = os.path.join(target_dir(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "campaign_bench")


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    workdir = os.path.join(target_dir(), "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, *sys.argv[1:], "--models", os.path.join(ROOT, "models"), "--workdir", workdir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
