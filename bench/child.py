"""One repeat of one workload in a fresh interpreter.

    python3 bench/child.py --workload NAME --p2-seed sun --seed N --mode MODE

MODE is `setup` (build the inputs and stop), `run` (untraced repeat),
`traced` (repeat with spans) or `record` (write the reference outputs).
Prints one JSON line: the perf_counter reading when the inputs were
ready, the timed part, peak RSS, the reference check, and for traced
repeats the spans and per-module metrics.  run.py starts it; record.py
uses `record`.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import check
import spans
from metrics import MODULES, WORKLOADS
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_path(workload: str, p2seed: str) -> str:
    return os.path.join(HERE, "references", f"{workload}-{p2seed}.json")


def layer_metrics(recorded: list, raw: dict) -> dict:
    def total(name, note=None):
        return spans.total(recorded, name, note)

    selfs = spans.self_times(recorded)
    seeds = raw.get("seeds", [])
    return {
        "flis.enumerate_s": total("flis.enumerate"),
        "flis.witnesses": len(raw.get("witnesses", [])),
        "flis.value_s": total("flis.value"),
        "flis.search_s": total("flis.search"),
        "flis.order20_s": total("flis.search", 20),
        "flis.calls": spans.count(recorded, "flis.search"),
        "cli.verify_leaffn_s": total("cli.verify_leaffn"),
        "cli.overhead_s": total("cli.verify_leaffn") - total("flis.search"),
        "caterpillar.classify_s": total("caterpillar.classify"),
        "caterpillar.graft_s": total("caterpillar.graft"),
        "caterpillar.pairs": len(raw.get("pairs", [])),
        "inflation_lab.census_s": total("inflation_lab.census"),
        "inflation_lab.complete_s": total("inflation_lab.complete"),
        "inflation_lab.extend_s": total("inflation_lab.extend"),
        "inflation_lab.graft_attempts": sum(s[5] for s in seeds),
        "inflation_lab.extend_met":
            sum(s[4] for s in seeds) / len(seeds) if seeds else 0.0,
        "geometry.inflate_s": total("geometry.inflate"),
        "geometry.validate_s": total("geometry.validate"),
        "dualgraph.build_s": total("dualgraph.build"),
        "stargraph.overlay_s": total("stargraph.overlay"),
        "formats.write_s": total("formats.write"),
        "formats.read_s": total("formats.read"),
        "formats.bytes": raw.get("format_bytes", 0),
        "render.svg_s": total("render.svg"),
        "render.bytes": raw.get("svg_bytes", 0),
        **{f"{m}.self_s": selfs.get(m, 0.0) for m in MODULES},
        "trace.spans": len(recorded),
        "trace.cost_s": len(recorded) * spans.span_cost(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--p2-seed", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "traced", "record"))
    args = ap.parse_args()
    w, mode = args.workload, args.mode

    tr = spans.Tracer() if mode == "traced" else spans.NullTracer()
    inp = tr.call("bench.setup", workloads.setup, w, args.p2_seed,
                  args.seed, tr)
    ready = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    raw: dict = {}
    error = None
    start = time.perf_counter()
    try:
        tr.call("bench.workload", workloads.run, w, inp, args.p2_seed,
                tr, raw)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    extras = mode in ("traced", "record") and w == "witness18"
    if extras and error is None:
        workloads.value18(inp, tr, raw)
    summary = check.summarize(w, raw)

    if mode == "record":
        if error is not None:
            sys.stderr.write(error)
            return 1
        with open(reference_path(w, args.p2_seed), "w") as f:
            json.dump(summary, f, separators=(",", ":"))
            f.write("\n")
        print(json.dumps({"ready": ready, "wall_s": wall}))
        return 0

    with open(reference_path(w, args.p2_seed)) as f:
        ref = json.load(f)
    attempted, failed, problems = check.check(
        summary, ref, skip=() if extras else ("value",))
    out = {"ready": ready, "wall_s": wall,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "attempted": attempted, "failed": failed, "problems": problems,
           "error": error}
    if mode == "traced":
        out["layer"] = layer_metrics(tr.spans, raw)
        out["spans"] = tr.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
