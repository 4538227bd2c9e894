#!/usr/bin/env python3
"""Builds and runs the whole-cluster benchmark (see README.md).

    python3 clusterbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The engine is compiled from ./src into the
build directory ($CARGO_TARGET_DIR, default .bench_build, plus /clusterbench);
build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Span files of traced runs land in <build dir>/spans.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "cluster_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "net" / "cluster.h").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "clusterbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2

    span_dir = build_dir / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    return subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--span-dir", str(span_dir)],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
