"""Self-test of the benchmark's checker and of its traced counts.

    python3 perfbench/selftest.py

1. A deliberately wrong published Betti vector must make the run fail:
   failed_share > 0, "correct": false, and a non-zero exit code.
2. Two traced runs with the same seed must report identical counts.

Takes about a minute and a half on two cores.  Exits 0 when both hold.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOAD = "table5"
WRONG = {"2,2,2": [1, 2]}  # the published vector is (1, 1)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", WORKLOAD, "--seed", "7", "--seconds", "1", *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ok = True
    path = os.path.join(HERE, "out", "wrong-reference.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(WRONG, fh)
    code, info, result = bench("--trace", "0", "--reference", path)
    caught = code != 0 and info["failed_share"] > 0 and not result["correct"]
    print(
        f"{'PASS' if caught else 'FAIL'} wrong reference: exit {code},"
        f" failed_share {info['failed_share']:.3f}, correct {result['correct']}"
    )
    ok &= caught

    counts = []
    for _ in range(2):
        code, _, result = bench("--trace", "1")
        ok &= code == 0
        counts.append(
            {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
        )
    same = counts[0] == counts[1]
    print(f"{'PASS' if same else 'FAIL'} traced counts repeat: {counts[0]}")
    if not same:
        print(f"     second run: {counts[1]}")
    ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
