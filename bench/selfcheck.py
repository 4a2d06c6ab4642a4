"""Self-checks of the benchmark itself; needs no p2flis and runs in well
under a second.  From the repository root:

    python3 bench/selfcheck.py

- every workload and metric name matches [A-Za-z0-9_.-]+, and
  BENCHMARK.json lists exactly the metrics, units and directions that
  run.py prints;
- the stored references pass the reference check unchanged, and each of
  these perturbations is counted as failed: one witness dropped, one
  verify-leaffn row edited, a wrong exit code, one graft-attempt count
  changed, a stage that raised before producing output.
"""
from __future__ import annotations

import copy
import json
import os
import re
import sys

from check import check, summarize
from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def ref(workload: str, p2seed: str) -> dict:
    with open(os.path.join(HERE, "references",
                           f"{workload}-{p2seed}.json")) as f:
        return json.load(f)


def failures(workload: str, raw: dict, reference: dict) -> int:
    keys = summarize(workload, raw).keys() & reference.keys()
    return check(summarize(workload, raw),
                 {k: reference[k] for k in keys})[1]


def perturbations(p2seed: str) -> list[tuple[str, int]]:
    """(what was perturbed, failures counted) per case; the cases named
    "... as recorded" are unperturbed and must count none."""
    out = []
    r = ref("witness18", p2seed)
    raw = {"witnesses": r["witnesses"], "value": r["value"]}
    out.append(("witness18 as recorded", failures("witness18", raw, r)))
    raw["witnesses"] = r["witnesses"][1:]
    out.append(("one witness dropped", failures("witness18", raw, r)))

    r = ref("leaffn20", p2seed)
    raw = {"stdout": "\n".join(r["stdout"]), "exit": r["exit"]}
    out.append(("leaffn20 as recorded", failures("leaffn20", raw, r)))
    rows = list(r["stdout"])
    rows[4] = rows[4].replace(" ok", " open")
    out.append(("one verify-leaffn row edited",
                failures("leaffn20", dict(raw, stdout="\n".join(rows)), r)))
    out.append(("wrong exit code", failures("leaffn20", dict(raw, exit=4), r)))

    r = ref("chains", p2seed)
    raw = {"seeds": copy.deepcopy(r["seeds"])}
    out.append(("chains as recorded", failures("chains", raw, r)))
    raw["seeds"][0][5] += 1
    out.append(("one graft-attempt count changed",
                failures("chains", raw, r)))
    return out


def main() -> int:
    errors = []
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]] + list(WORKLOADS) \
        + list(END_TO_END) + list(PER_LAYER)
    errors += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != table:
            errors.append(f"BENCHMARK.json {key} differs from metrics.py")

    for p2seed in ("sun", "star"):
        cases = perturbations(p2seed)
        for what, failed in cases:
            clean = what.endswith("as recorded")
            if clean != (failed == 0):
                errors.append(f"{p2seed}: {what}: {failed} failures")
        for w in WORKLOADS:
            attempted, failed, _ = check(summarize(w, {}), ref(w, p2seed))
            if failed != attempted or attempted == 0:
                errors.append(f"{p2seed}: {w} with no output: "
                              f"{failed} of {attempted} failed")

    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck failed" if errors else "selfcheck ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
