#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <logistic-im|cluster-im|etl-em> \
        --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] \
        [--perturb-fit <i>]

The engine library (src/) and the benchmark program (perfbench/src/) are
configured with CMake into the build directory ($CARGO_TARGET_DIR if set,
else .bench_build) and rebuilt when sources change. Build output goes to
stderr, so the last line of stdout is the program's JSON result. The program
keeps its SAFS files in .bench_em/ (wiped before and after every run) and the
traced run's span file in .bench_out/.
"""
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found beside perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    em_dir = os.path.join(ROOT, ".bench_em")
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(em_dir, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, *sys.argv[1:], "--em-dir", em_dir, "--out-dir", out_dir],
            cwd=ROOT)
    finally:
        shutil.rmtree(em_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
