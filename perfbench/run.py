#!/usr/bin/env python3
"""Build the query-service benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (which builds the repository's libraries from ../src) under
.bench_build/perfbench; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. Traced
runs (--trace 1) write their spans to .bench_build/spans/.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("continuous_shared", "cube_ranges", "oneshot_paper")
# A run stops itself once its time budget and minimum round count are met;
# this only bounds a run that hangs.
RUN_TIMEOUT_S = 170


def local_env() -> dict:
    """Keeps compiler and ccache scratch files inside the checkout."""
    env = dict(os.environ)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["CCACHE_DIR"] = str(ROOT / ".bench_build" / "ccache")
    return env


def build() -> pathlib.Path:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=local_env())
    return BUILD / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              env=local_env()).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
