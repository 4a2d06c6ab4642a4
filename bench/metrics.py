"""The benchmark's workload names and every metric it reports:
name -> (unit, better).

END_TO_END is printed by untraced runs (--trace 0), PER_LAYER by traced
runs (--trace 1).  BENCHMARK.json lists the same names and units;
selfcheck.py keeps the two in step.  This module imports no p2flis code,
so run.py can load it without the package.
"""
from __future__ import annotations

WORKLOADS = ("witness18", "leaffn20", "chains")

END_TO_END = {
    "wall_s": ("s", "lower"),          # the workload's timed part
    "setup_s": ("s", "lower"),         # interpreter start until inputs exist
    "peak_rss_mb": ("MB", "lower"),
    "pass_rate": ("ratio", "higher"),  # 1 - failed / attempted
}

#: modules whose self time the traced run reports; "bench" is the
#: benchmark's own code between calls
MODULES = ("flis", "cli", "caterpillar", "inflation_lab", "geometry",
           "dualgraph", "stargraph", "formats", "render", "bench")

PER_LAYER = {
    "flis.enumerate_s": ("s", "lower"),
    "flis.witnesses": ("count", "higher"),
    "flis.value_s": ("s", "lower"),
    "flis.search_s": ("s", "lower"),
    "flis.order20_s": ("s", "lower"),
    "flis.calls": ("count", "lower"),
    "cli.verify_leaffn_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "caterpillar.classify_s": ("s", "lower"),
    "caterpillar.graft_s": ("s", "lower"),
    "caterpillar.pairs": ("count", "higher"),
    "inflation_lab.census_s": ("s", "lower"),
    "inflation_lab.complete_s": ("s", "lower"),
    "inflation_lab.extend_s": ("s", "lower"),
    "inflation_lab.graft_attempts": ("count", "lower"),
    "inflation_lab.extend_met": ("ratio", "higher"),
    "geometry.inflate_s": ("s", "lower"),
    "geometry.validate_s": ("s", "lower"),
    "dualgraph.build_s": ("s", "lower"),
    "stargraph.overlay_s": ("s", "lower"),
    "formats.write_s": ("s", "lower"),
    "formats.read_s": ("s", "lower"),
    "formats.bytes": ("bytes", "lower"),
    "render.svg_s": ("s", "lower"),
    "render.bytes": ("bytes", "lower"),
    **{f"{m}.self_s": ("s", "lower") for m in MODULES},
    "trace.overhead_s": ("s", "lower"),  # traced minus untraced wall_s
    "trace.spans": ("count", "lower"),
    "trace.cost_s": ("s", "lower"),    # spans x measured cost of one span
}
