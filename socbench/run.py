#!/usr/bin/env python3
"""Builds and runs the SoC benchmark (see socbench/README.md).

    python3 socbench/run.py --workload soc_fast --seed 1 --seconds 30 --trace 0

Configures and builds socbench/ in Release mode under .bench_build/socbench
at the repository root (the build compiles the simulator sources in src/),
then runs the benchmark binary. The binary's last line on stdout is the JSON
result. Build output goes to stderr. Exit status: 0 on a completed run,
1 when the build fails (nothing is printed on stdout then), 2 on a usage
error.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "socbench"
BINARY = BUILD / "socbench"
WORKLOADS = ("soc_fast", "soc_rtl", "soc_campaign")


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "socbench", "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def parse_args(argv):
    p = argparse.ArgumentParser(description="SoC simulator benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    if not build():
        print("socbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect", str(HERE / "expect.json")]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans_{args.workload}_seed{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
