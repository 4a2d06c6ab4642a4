"""Rewrite the reference outputs in bench/references/ from the current
code.  Run from the repository root, only when a change is meant to alter
the outputs:

    python3 bench/record.py

Each workload is recorded on both P2 seeds, sun and star, at seed 0; the
references do not depend on the integer seed.
"""
from __future__ import annotations

import os
import subprocess
import sys

from metrics import WORKLOADS
from run import CHILD


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"),
               PYTHONHASHSEED="0")
    os.makedirs(os.path.join(os.path.dirname(CHILD), "references"),
                exist_ok=True)
    for w in WORKLOADS:
        for p2seed in ("sun", "star"):
            subprocess.run([sys.executable, CHILD, "--workload", w,
                            "--p2-seed", p2seed, "--seed", "0",
                            "--mode", "record"], env=env, check=True)
            print(f"recorded {w} on {p2seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
