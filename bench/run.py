"""Benchmark entry point.  Run from the repository root:

    python3 bench/run.py --workload witness18 --seed 1 --seconds 42 --trace 0

Each repeat runs in a fresh interpreter (bench/child.py) with one thread,
after two set-up-only interpreters that add samples of set-up time.
Repeats run until the next one would end after --seconds.  With --trace 0 the
repeats are untraced and the end-to-end metrics are their medians.  With
--trace 1 untraced and traced repeats alternate, the per-module metrics
are medians over the traced ones, trace.overhead_s is the traced minus
the untraced median wall time, and the spans go to
bench/out/trace-<workload>-<p2 seed>-<seed>.json.

Every repeat checks its outputs against bench/references/.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 whenever that line is printed; a repeat that cannot
run (no p2flis sources, a crash, a timeout) ends the run with exit 2.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PROBES_PER_REPEAT = 2
#: a run must end well inside three minutes, whatever --seconds says
HARD_LIMIT_S = 170.0


class RepeatFailed(RuntimeError):
    pass


def spawn(args, mode: str, env: dict, hard_deadline: float) -> dict:
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--p2-seed", args.p2_seed, "--seed", str(args.seed),
           "--mode", mode]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, hard_deadline - started))
    except subprocess.TimeoutExpired:
        raise RepeatFailed(f"{mode} repeat timed out") from None
    if proc.returncode != 0:
        raise RepeatFailed(f"{mode} repeat exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - started
    return res


def measure(args, env: dict) -> list[tuple[str, dict]]:
    """Blocks of set-up probes and one repeat, until the next block
    would overrun; probes spread over the run like the repeats."""
    start = time.perf_counter()
    deadline = start + args.seconds
    hard = start + HARD_LIMIT_S
    modes = ("run",) if args.trace == 0 else ("run", "traced")
    out = []
    longest = 0.0
    k = 0
    while k < len(modes) or time.perf_counter() + longest <= deadline:
        began = time.perf_counter()
        out += [("setup", spawn(args, "setup", env, hard))
                for _ in range(PROBES_PER_REPEAT)]
        out.append((modes[k % len(modes)],
                    spawn(args, modes[k % len(modes)], env, hard)))
        longest = max(longest, time.perf_counter() - began)
        k += 1
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--p2-seed", default="sun", choices=("sun", "star"),
                    help="P2 seed patch; star is held out for claims")
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "p2flis", "__init__.py")):
        print("bench: run from the repository root; src/p2flis is missing",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    try:
        reps = measure(args, env)
    except RepeatFailed as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    timed = [r for mode, r in reps if mode != "setup"]
    untraced = [r for mode, r in reps if mode == "run"]
    traced = [r for mode, r in reps if mode == "traced"]
    attempted = sum(r["attempted"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    for r in timed:
        if r["error"]:
            print(f"bench: error in a repeat:\n{r['error']}", file=sys.stderr)
        if r["problems"]:
            print(f"bench: outputs differ from the reference: "
                  f"{', '.join(r['problems'])}", file=sys.stderr)

    med = statistics.median
    if args.trace == 0:
        values = {
            "wall_s": med(r["wall_s"] for r in untraced),
            "setup_s": med(r["setup_s"] for _, r in reps),
            "peak_rss_mb": med(r["rss_mb"] for r in untraced),
            "pass_rate": 1.0 - failed / attempted,
        }
        table = END_TO_END
    else:
        values = {name: med(r["layer"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (med(r["wall_s"] for r in traced)
                                      - med(r["wall_s"] for r in untraced))
        table = PER_LAYER
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-"
                            f"{args.p2_seed}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump([{"repeat": k, "spans": r["spans"]}
                       for k, r in enumerate(traced)], f)

    print(f"{args.workload} ({args.p2_seed}, seed {args.seed}): "
          f"{len(untraced)} untraced and {len(traced)} traced repeats, "
          f"{PROBES_PER_REPEAT} set-up probes before each")
    for label, rs in (("untraced", untraced), ("traced", traced)):
        if rs:
            print(f"  {label} wall_s per repeat: "
                  + " ".join(f"{r['wall_s']:.3f}" for r in rs))
    for name in table:
        print(f"  {name:32s} {values[name]:.6g} {table[name][0]}")
    print(json.dumps({
        "correct": failed == 0 and not any(r["error"] for r in timed),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]}
                    for name in table}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
