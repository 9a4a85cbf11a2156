#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10]

Run from the root of a checkout. For each workload of BENCHMARK.json, runs
the benchmark command once per seed 1..N (--trace 0, run_seconds each) and
prints, per end-to-end metric, every run's value, the median and the
quartile spread (Q3 - Q1) / median, with Q1 and Q3 from
statistics.quantiles(values, n=4), next to the metric's bound; a spread
above a third of its bound is flagged. It then re-runs seed 1 and checks
that the simulated metrics (bits_per_answer, max_node_bits) and the answer
checksum repeat exactly.
Exits nonzero if any run is incorrect or does not repeat.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXACT = ("bits_per_answer", "max_node_bits")


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stderr}")
    info = next((l for l in lines if "window_checksum=" in l), "")
    checksum = info.split("window_checksum=")[1].split()[0] if info else ""
    return json.loads(lines[-1]), checksum


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.seeds + 1):
            res, checksum = run_once(spec, workload, seed)
            results.append((res, checksum))
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect "
                      f"({res['failed']} of {res['attempted']} failed)")
        print(f"## {workload} ({args.seeds} seeds)")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            print(f"  {m['name']:16s} median {med:14.6g} {m['unit']:6s} "
                  f"spread {spread:7.4f} bound {m['bound']:.3f}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
        first, checksum = results[0]
        again, checksum2 = run_once(spec, workload, 1)
        same = checksum == checksum2 and all(
            first["metrics"][k]["value"] == again["metrics"][k]["value"]
            for k in EXACT if k in first["metrics"])
        ok = ok and same
        print(f"  repeat of seed 1: "
              f"{'identical' if same else 'DIFFERENT'} (checksum {checksum})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
