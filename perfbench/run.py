#!/usr/bin/env python3
"""Builds and runs the AdaFlow repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design|edge_paper|fleet_1000 \
        --seed N --seconds S --trace 0|1

The first run configures and compiles the AdaFlow libraries (../src) and
the perfbench program (perfbench/src) in Release mode under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Build output goes
to a log file there. The program's stdout is passed through; its last line
is the JSON result. The exit code is the program's (non-zero when a check
fails or the sources are missing).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("AdaFlow sources (src/CMakeLists.txt) not found next to perfbench/; "
             "run from the root of a repository checkout")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("cmake configure failed; see " + log_path)
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench")


def main():
    out = build_dir()
    binary = build(out)
    workdir = os.path.join(out, "work")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([binary] + sys.argv[1:] + ["--workdir", workdir])


if __name__ == "__main__":
    sys.exit(main())
