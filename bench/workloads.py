"""The three workloads, run through the public API of p2flis.

Each workload has a set-up part, which builds its inputs from the P2
seed name and the integer seed, and a timed part.  The integer seed
translates the generated patch by a lattice vector of Z[zeta].  Tile ids
follow the lexicographic order of anchor coordinates, which translation
keeps, so every seed yields the same dual graph and the same outputs up
to coordinates, and the work done does not depend on the seed.

- witness18: every optimal order-18 subtree of the level-5 patch
  (enumerate_flis), then classify_prime on each.
- leaffn20: `p2flis verify-leaffn --max 20 --levels 3,4` in-process.  The
  command builds its own patches, so the integer seed does not enter.
- chains: the pipeline that needs no tree search, on the level-7 patch:
  validate, census, completion, classification, grafting of every
  PAIR_STRIDE-th census pair that shares one tile, extension of every
  clean grafted pair, write -> read -> write of all six formats, SVG.

Each run function fills `raw` stage by stage, so the outputs of the
stages that finished survive an exception in a later one.
"""
from __future__ import annotations

import contextlib
import io
import random

from p2flis import cli
from p2flis.caterpillar import chain_from_primes, classify_prime, \
    forbidden_patterns
from p2flis.dualgraph import build_dual
from p2flis.flis import LeafRecord, enumerate_flis, leaf_function_formula, \
    search_max_leaves
from p2flis.formats import ExtendReport, chain_report, read_chain, \
    read_extend, read_flis, read_graph, read_patch, read_stargraph, \
    write_chain, write_extend, write_flis, write_graph, write_patch, \
    write_stargraph
from p2flis.geometry import inflate, make_patch, seed_patch, validate_patch
from p2flis.inflation_lab import complete_prime, extend_chain, \
    find_prime_chains
from p2flis.render import svg_document
from p2flis.ring import Cyclo10
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns

LEVEL = {"witness18": 5, "chains": 7}
LEAFFN_ARGV = ["verify-leaffn", "--max", "20", "--levels", "3,4"]
#: chains grafts every third pair, keeping one repeat near ten seconds
PAIR_STRIDE = 3


def translation(seed: int) -> Cyclo10:
    rng = random.Random(seed)
    return Cyclo10(*(rng.randint(-20, 20) for _ in range(4)))


def _overlay(p, g):
    stars, suns = detect_stars_and_suns(p, g)
    return color_star_vertices(build_star_graph(p, stars), suns, g)


def setup(workload: str, p2seed: str, seed: int, tr) -> dict:
    """The inputs the workload receives ready."""
    if workload == "leaffn20":
        return {}
    p = tr.call("geometry.inflate", inflate, seed_patch(p2seed),
                LEVEL[workload])
    d = translation(seed)
    p = make_patch([t.translated(d) for t in p.tiles],
                   [h.translated(d) for h in p.halves], p.scale_exp)
    g = tr.call("dualgraph.build", build_dual, p)
    inputs = {"p": p, "g": g}
    if workload == "chains":
        inputs["sg"] = tr.call("stargraph.overlay", _overlay, p, g)
    return inputs


def run_witness18(inp: dict, tr, raw: dict) -> None:
    p, g = inp["p"], inp["g"]
    w = tr.call("flis.enumerate", enumerate_flis, g, 18)
    raw["witnesses"] = [
        [tr.call("caterpillar.classify", classify_prime, t, p, g), *t.tiles]
        for t in w]


def value18(inp: dict, tr, raw: dict) -> None:
    """The value-only search on the witness18 graph (traced runs only)."""
    rec = tr.call("flis.value", search_max_leaves, inp["g"], 18,
                  with_witnesses=False)
    raw["value"] = rec.max_leaves


@contextlib.contextmanager
def _traced_names(module, tr, spans: dict):
    """Route module-level names through tr while the block runs."""
    saved = {attr: getattr(module, attr) for attr in spans}
    try:
        for attr, (name, note) in spans.items():
            setattr(module, attr, tr.wrap(name, saved[attr], note))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def run_leaffn20(p2seed: str, tr, raw: dict) -> None:
    out = io.StringIO()
    spans = {"search_max_leaves": ("flis.search", lambda a: a[1]),
             "inflate": ("geometry.inflate", None),
             "build_dual": ("dualgraph.build", None)}
    with _traced_names(cli, tr, spans), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = tr.call("cli.verify_leaffn", cli.main,
                     LEAFFN_ARGV + ["--seed", p2seed])
    raw["exit"] = rc
    raw["stdout"] = out.getvalue()


def _roundtrip(tr, write, read, obj) -> tuple[bool, int]:
    first = tr.call("formats.write", write, obj)
    again = tr.call("formats.write", write,
                    tr.call("formats.read", read, first))
    return first == again, len(first.encode())


def run_chains(inp: dict, tr, raw: dict) -> None:
    p, g, sg = inp["p"], inp["g"], inp["sg"]
    raw["violations"] = len(tr.call("geometry.validate", validate_patch, p))

    census = tr.call("inflation_lab.census", find_prime_chains, p, g, sg)
    raw["census"] = [[cid, si, *chain] for cid, si, chain in census]
    primes = [tr.call("inflation_lab.complete", next,
                      complete_prime(g, chain)) for _, _, chain in census]
    raw["primes"] = [list(t.tiles) for t in primes]
    raw["classes"] = [tr.call("caterpillar.classify", classify_prime,
                              t, p, g) for t in primes]

    # census pairs sharing exactly one tile, found through a tile index
    holders: dict[int, list[int]] = {}
    for k, t in enumerate(primes):
        for x in t.tiles:
            holders.setdefault(x, []).append(k)
    shared = {}
    for ks in holders.values():
        for a, i in enumerate(ks):
            for j in ks[a + 1:]:
                shared[i, j] = shared.get((i, j), 0) + 1
    one = sorted(ij for ij, n in shared.items() if n == 1)
    grafted = []
    for i, j in one[::PAIR_STRIDE]:
        try:
            c = tr.call("caterpillar.graft", chain_from_primes,
                        [primes[i], primes[j]], p, g, sg)
        except ValueError:
            continue                     # the union is not fully leafed
        grafted.append((i, j, c))
    raw["pairs"] = [[i, j] for i, j, _ in grafted]

    centers = {v.center for v in sg.vertices}
    clean = [(i, j, c) for i, j, c in grafted
             if all(s in centers for s in c.star_chain)
             and not tr.call("caterpillar.forbidden", forbidden_patterns, c)]
    outcomes = [(i, j, tr.call("inflation_lab.extend", extend_chain,
                               p, g, sg, c, 1)) for i, j, c in clean]
    raw["seeds"] = [[i, j, o.leftmax, o.rightmax, int(o.met), o.nodes]
                    for i, j, o in outcomes]

    items = [("patch", write_patch, read_patch, p),
             ("graph", write_graph, read_graph, g),
             ("flis", write_flis, lambda s: read_flis(s, g),
              LeafRecord(18, leaf_function_formula(18), tuple(primes))),
             ("stargraph", write_stargraph, read_stargraph, sg)]
    for i, j, o in outcomes:
        rep = tr.call("formats.report", chain_report, o.chain, sg)
        items.append(("chain", write_chain, read_chain, rep))
        items.append(("extend", write_extend, read_extend,
                      ExtendReport(f"pair-{i}-{j}", o.leftmax, o.rightmax,
                                   o.target, o.met, rep)))
    kinds: dict[str, list[int]] = {}
    nbytes = 0
    for kind, write, read, obj in items:
        same, n = _roundtrip(tr, write, read, obj)
        kinds.setdefault(kind, [0, 0])[same] += 1
        nbytes += n
    raw["roundtrip"] = kinds             # kind -> [differing, identical]
    raw["format_bytes"] = nbytes

    svg = tr.call("render.svg", svg_document, p, sg=sg)
    raw["svg_polygons"] = svg.count("<polygon")
    raw["svg_bytes"] = len(svg.encode())


def run(workload: str, inp: dict, p2seed: str, tr, raw: dict) -> None:
    if workload == "witness18":
        run_witness18(inp, tr, raw)
    elif workload == "leaffn20":
        run_leaffn20(p2seed, tr, raw)
    else:
        run_chains(inp, tr, raw)
