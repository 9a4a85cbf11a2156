#!/usr/bin/env python3
"""Check one perfbench seed-1 run against the pinned window line.

    python3 .github/check_perfbench_pins.py WORKLOAD OUTPUT_FILE

OUTPUT_FILE holds the stdout of
`python3 perfbench/run.py --workload WORKLOAD --seed 1 ...`. The last line
must report a correct run with no failed operation. The measured window is a
fixed number of rounds, so its bits and answer count are integers that do not
depend on --seconds: seed 1 pins them. continuous_shared's window_checksum is
pinned too: its answers are bracket arithmetic and AVG division only. (The
other two workloads' checksums mix HLL estimate doubles.)
"""
import json
import sys

PINNED = {
    "continuous_shared": {"window_bits": 742428930, "window_answers": 44025,
                          "window_checksum": "2a84d253e290a3a2"},
    "cube_ranges": {"window_bits": 769997509, "window_answers": 7456},
    "oneshot_paper": {"window_bits": 1357421455, "window_answers": 483},
}


def main() -> int:
    workload, path = sys.argv[1], sys.argv[2]
    lines = open(path).read().strip().splitlines()
    last = lines[-1]
    r = json.loads(last)
    assert r["correct"] is True, f"{workload}: oracle mismatch: {last}"
    assert r["failed"] == 0, f"{workload}: failed operations: {last}"
    summary = [l for l in lines if l.startswith("# workload=")]
    assert len(summary) == 1, f"{workload}: no single '# workload=' line"
    fields = dict(kv.split("=", 1) for kv in summary[0][2:].split())
    for key, want in PINNED[workload].items():
        got = fields[key] if isinstance(want, str) else int(fields[key])
        assert got == want, f"{workload}: {key} {got}, pinned {want}"
    print(f"OK: {workload} correct, {r['attempted']} operations, 0 failed, "
          f"window_bits {fields['window_bits']}, "
          f"window_answers {fields['window_answers']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
