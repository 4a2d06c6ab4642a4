"""Reference outputs: summarise a workload's raw outputs and compare.

A summary is a JSON object.  Each scalar field is one checked output;
each element of a list field is one checked output.  check() counts the
outputs attempted and the ones that differ from the stored reference,
so a dropped witness, an edited verify-leaffn row or a changed graft
count each add at least one failure.
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _histogram(class_ids) -> list[int]:
    counts = Counter(class_ids)
    return [counts[k] for k in range(1, 7)]


def summarize(workload: str, raw: dict) -> dict:
    """The checkable summary of whatever stages finished."""
    out: dict = {}
    if workload == "witness18":
        if "witnesses" in raw:
            wit = sorted(raw["witnesses"], key=lambda w: w[1:])
            out["count"] = len(wit)
            out["digest"] = digest([w[1:] for w in wit])
            out["histogram"] = _histogram(w[0] for w in wit)
            out["witnesses"] = wit            # [class, tile ids...]
        if "value" in raw:
            out["value"] = raw["value"]
    elif workload == "leaffn20":
        if "stdout" in raw:
            out["exit"] = raw["exit"]
            out["stdout_digest"] = digest(raw["stdout"])
            out["stdout"] = raw["stdout"].split("\n")
    elif workload == "chains":
        if "violations" in raw:
            out["violations"] = raw["violations"]
        if "census" in raw:
            out["census_classes"] = _histogram(c[0] for c in raw["census"])
            out["census_digest"] = digest(raw["census"])
        if "classes" in raw:
            out["completions_digest"] = digest(raw["primes"])
            out["classify_mismatches"] = sum(
                1 for c, k in zip(raw["census"], raw["classes"]) if c[0] != k)
        if "pairs" in raw:
            out["pair_count"] = len(raw["pairs"])
            out["pairs"] = raw["pairs"]
        if "seeds" in raw:
            out["graft_attempts"] = sum(s[5] for s in raw["seeds"])
            out["extend_met"] = sum(s[4] for s in raw["seeds"])
            out["seeds"] = raw["seeds"]   # [i, j, left, right, met, nodes]
        if "roundtrip" in raw:
            out["roundtrip_items"] = {k: sum(v) for k, v in
                                      sorted(raw["roundtrip"].items())}
            out["roundtrip_broken"] = sum(v[0] for v in
                                          raw["roundtrip"].values())
        if "svg_polygons" in raw:
            out["svg_polygons"] = raw["svg_polygons"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def check(summary: dict, ref: dict, skip=()) -> tuple[int, int, list[str]]:
    """(outputs attempted, outputs failed, names of differing fields).
    A field missing from the summary fails as a whole."""
    attempted = failed = 0
    problems = []
    for key, want in ref.items():
        if key in skip:
            continue
        got = summary.get(key)
        if isinstance(want, list):
            got = got if isinstance(got, list) else []
            n = max(len(want), len(got))
            common = Counter(map(json.dumps, want)) & \
                Counter(map(json.dumps, got))
            bad = n - sum(common.values())
            attempted += n
        else:
            bad = int(got != want)
            attempted += 1
        if bad:
            failed += bad
            problems.append(key)
    return attempted, failed, problems
