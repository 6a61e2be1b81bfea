#!/usr/bin/env python3
"""Builds hostbench from source and runs one workload.

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/hostbench
when that variable is set, else to .bench_build/hostbench; build output goes
to stderr so the benchmark's result stays the last line of stdout. Exits
non-zero, without a result, when the repository's sources are missing or
the build fails; otherwise exits with hostbench's own code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("hostbench: repository sources not found next to hostbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "hostbench", "-j", jobs],
    ]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("hostbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "hostbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
