#!/usr/bin/env python3
"""Run one workload of the xswap end-to-end benchmark.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload batch_mixed|serve_bigbook|serve_restart
                           --seed N --seconds S --trace 0|1

Builds perfbench/ (the core library from src/ plus the benchmark
program) in Release mode under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the
program. Its last stdout line is the result JSON; with
--trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics. Exits non-zero when the build or the run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_mixed", "serve_bigbook", "serve_restart")


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configure and build quietly; the log goes to stderr on failure."""
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "xswap_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    out = build_dir()
    binary = build(out)
    # Work-count records are per binary: a rebuilt program starts afresh.
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    work = out / "work" / build_id
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
