"""Every workload on both P2 seeds, untraced and traced, in one command.
From the repository root:

    python3 bench/all.py [--seconds 1]

Prints every metric by name with its unit (run.py's table) and checks
every stored reference.  Exits 1 if any run fails or reports incorrect
outputs.  With the default --seconds 1 each run makes one repeat of each
kind, about four minutes in all on a 2-core machine.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from metrics import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    bad = []
    for w in WORKLOADS:
        for p2seed in ("sun", "star"):
            for traced in ("0", "1"):
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", w,
                     "--seed", "0", "--seconds",
                     str(args.seconds), "--trace", traced,
                     "--p2-seed", p2seed], capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) \
                    if proc.returncode == 0 and lines else None
                print("\n".join(lines[:-1] if result else lines), flush=True)
                if not (result and result["correct"]):
                    sys.stderr.write(proc.stderr)
                    bad.append(f"{w} on {p2seed}, trace {traced}")
    for b in bad:
        print(f"FAILED: {b}")
    print("all references match" if not bad else f"{len(bad)} runs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
