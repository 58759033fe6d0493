#!/usr/bin/env python3
"""Build the layered request-path benchmark and run one workload.

Run from the repository root:

    python3 layerbench/run.py --workload edge_small --seed 1 --seconds 10 --trace 0

The first call configures and builds layerbench/ (and the src/ libraries it
links) into .bench_build/layerbench with CMake; later calls only rebuild what
changed. Every argument is passed through to the benchmark binary, which
prints its metrics and, as the last line of standard output, one JSON object.
Traced runs (--trace 1) also write their spans to .bench_build/traces/.
Build output goes to standard error. Exits nonzero when the build or the run
fails, or when the run returns a wrong result.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "layerbench"
RUN_TIMEOUT_S = 170


def build() -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "layerbench", "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "layerbench"


def main(argv: list[str]) -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"layerbench: build failed: {error}", file=sys.stderr)
        return 2
    try:
        result = subprocess.run([str(binary), *argv], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"layerbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
