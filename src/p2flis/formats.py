"""Line-based text formats for every artifact the package produces.

Six formats, all versioned v1: P2PATCH, P2GRAPH, FLIS, STARGRAPH, CHAIN
and EXTEND.  Writers emit a canonical byte sequence (LF line endings,
single spaces, trailing newline); parsers are strict enough that
write -> read -> write reproduces the bytes exactly.

Coordinates are the four integer components of a ring element; nothing
is ever rounded.  Boundary half-tiles of a patch are not serialized:
the format describes whole tiles only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ring import Cyclo10
from .caterpillar import ANGLE_OF_CLASS, chain_word, forbidden_patterns, \
    word_violations
from .geometry import Patch, Tile
from .dualgraph import P2Graph, interior_tiles
from .flis import InducedSubtree, LeafRecord, induced_subtree, leaf_count
from .stargraph import StarGraph, StarVertex


class FormatError(ValueError):
    """Malformed or unsupported input text."""


def _int(tok: str) -> int:
    """The integer spelled by a canonical token, -?(0|[1-9][0-9]*)."""
    try:
        value = int(tok)
    except ValueError:
        raise FormatError(f"bad integer {tok!r}") from None
    if str(value) != tok:
        raise FormatError(f"non-canonical integer {tok!r}")
    return value


def _lines(text: str, magic: str) -> list[str]:
    lines = text.split("\n")
    if not lines or lines[0] != magic:
        raise FormatError(f"expected {magic!r} header")
    if lines[-1] != "":
        raise FormatError("missing trailing newline")
    return lines[1:-1]


# ---------------------------------------------------------------------------
# P2PATCH v1
# ---------------------------------------------------------------------------

def write_patch(p: Patch) -> str:
    out = ["P2PATCH v1", f"scale {p.scale_exp}"]
    for i, t in enumerate(p.tiles):
        c = t.anchor.coeffs
        out.append(f"tile {i} {t.kind} {t.rot} 0 "
                   f"{c[0]} {c[1]} {c[2]} {c[3]}")
    return "\n".join(out) + "\n"


def read_patch(text: str) -> Patch:
    lines = _lines(text, "P2PATCH v1")
    if not lines or not lines[0].startswith("scale "):
        raise FormatError("expected scale line")
    scale = _int(lines[0][6:])
    tiles = []
    for ln in lines[1:]:
        f = ln.split(" ")
        if len(f) != 9 or f[0] != "tile":
            raise FormatError(f"bad tile line: {ln!r}")
        if _int(f[1]) != len(tiles):
            raise FormatError("tile ids must be dense and ascending")
        if f[2] not in ("K", "D"):
            raise FormatError(f"unknown tile kind {f[2]!r}")
        rot = _int(f[3])
        if not 0 <= rot <= 9:
            raise FormatError(f"rotation out of range: {rot}")
        if f[4] != "0":
            raise FormatError("mirrored tiles are not supported")
        anchor = Cyclo10(*map(_int, f[5:9]))
        tiles.append(Tile(f[2], anchor, rot))
    return Patch(tiles=tuple(tiles), halves=(), scale_exp=scale)


# ---------------------------------------------------------------------------
# P2GRAPH v1
# ---------------------------------------------------------------------------

def write_graph(g: P2Graph) -> str:
    out = ["P2GRAPH v1"]
    for i, j in sorted(g.edges()):
        out.append(f"edge {i} {j}")
    for i in interior_tiles(g):
        out.append(f"interior {i}")
    for i in _isolated(g):
        out.append(f"isolated {i}")
    return "\n".join(out) + "\n"


def _isolated(g: P2Graph) -> tuple[int, ...]:
    """Ids of tiles with no shared side (degree 0)."""
    return tuple(i for i in range(g.n) if not g.adj[i])


def read_graph(text: str) -> P2Graph:
    """Edge lines, then interior lines, then isolated lines, the last two
    listing exactly the tiles of degree 4 and of degree 0."""
    lines = _lines(text, "P2GRAPH v1")
    edges, interior, isolated = [], [], []
    for ln in lines:
        f = ln.split(" ")
        if f[0] == "edge" and len(f) == 3 and not (interior or isolated):
            a, b = _int(f[1]), _int(f[2])
            if not 0 <= a < b:
                raise FormatError("edge endpoints must satisfy "
                                  "0 <= id1 < id2")
            edges.append((a, b))
        elif f[0] == "interior" and len(f) == 2 and not isolated:
            interior.append(_int(f[1]))
        elif f[0] == "isolated" and len(f) == 2:
            isolated.append(_int(f[1]))
        else:
            raise FormatError(f"bad or misplaced graph line: {ln!r}")
    if any(e >= f for e, f in zip(edges, edges[1:])):
        raise FormatError("edges must be distinct and in lexicographic "
                          "order")
    n = max((b + 1 for _, b in edges), default=0)
    # tiles from n on are all listed isolated: bound them before allocating
    top = max(isolated, default=-1) + 1
    if top > n + len(isolated):
        raise FormatError("isolated lines disagree with edge structure")
    n = max(n, top)
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    g = P2Graph(tuple(tuple(sorted(x)) for x in adj))
    if list(interior_tiles(g)) != interior:
        raise FormatError("interior lines disagree with edge structure")
    if list(_isolated(g)) != isolated:
        raise FormatError("isolated lines disagree with edge structure")
    return g


# ---------------------------------------------------------------------------
# FLIS v1
# ---------------------------------------------------------------------------

def write_flis(rec: LeafRecord) -> str:
    out = ["FLIS v1",
           f"n {rec.n} maxleaves {rec.max_leaves} "
           f"stable {1 if rec.stable else 0}"]
    for w in rec.witnesses:
        out.append("witness " + " ".join(str(i) for i in w.tiles))
    return "\n".join(out) + "\n"


def read_flis(text: str, g: P2Graph) -> LeafRecord:
    """Parse a search report; needs the graph to rebuild witnesses."""
    lines = _lines(text, "FLIS v1")
    f = lines[0].split(" ") if lines else []
    if len(f) != 6 or f[0] != "n" or f[2] != "maxleaves" or f[4] != "stable":
        raise FormatError("bad FLIS summary line")
    n, ml, stable = _int(f[1]), _int(f[3]), f[5]
    if stable not in ("0", "1"):
        raise FormatError("stable flag must be 0 or 1")
    if n < 0 or ml < 0:
        raise FormatError("n and maxleaves must be >= 0")
    if n > g.n:
        raise FormatError(f"n {n} exceeds graph size {g.n}")
    # an order-n tree has at most 0, 2 or n - 1 leaves (n <= 1, 2, >= 3)
    if ml > (0 if n <= 1 else 2 if n == 2 else n - 1):
        raise FormatError(f"no tree of order {n} has {ml} leaves")
    wits = []
    for ln in lines[1:]:
        if not ln.startswith("witness "):
            raise FormatError(f"bad witness line: {ln!r}")
        ids = tuple(map(_int, ln[8:].split(" ")))
        if ids != tuple(sorted(ids)):
            raise FormatError("witness ids must be sorted")
        try:
            w = induced_subtree(g, ids)
        except ValueError as e:
            raise FormatError(f"witness is not an induced subtree: {e}"
                              ) from None
        if w.order != n:
            raise FormatError("witness order disagrees with n")
        if leaf_count(w) != ml:
            raise FormatError("witness leaf count disagrees with maxleaves")
        wits.append(w)
    return LeafRecord(n=n, max_leaves=ml, witnesses=tuple(wits),
                      stable=stable == "1")


# ---------------------------------------------------------------------------
# STARGRAPH v1
# ---------------------------------------------------------------------------

def write_stargraph(sg: StarGraph) -> str:
    out = ["STARGRAPH v1"]
    for i, v in enumerate(sg.vertices):
        if v.color not in ("R", "G", "B"):
            raise FormatError(f"vertex {i} has no color; color the graph "
                              f"before writing")
        c = v.center.coeffs
        out.append(f"vertex {i} {c[0]} {c[1]} {c[2]} {c[3]} {v.color}")
    for i, j in sg.edges:
        out.append(f"edge {i} {j}")
    return "\n".join(out) + "\n"


def read_stargraph(text: str) -> StarGraph:
    """Parse the overlay: vertex centers, colors and edges.  The star
    tile ids and sun counts are not part of the format."""
    lines = _lines(text, "STARGRAPH v1")
    verts: list[StarVertex] = []
    centers: set[Cyclo10] = set()
    edges = []
    for ln in lines:
        f = ln.split(" ")
        if f[0] == "vertex" and len(f) == 7:
            if edges:
                raise FormatError("vertex lines must precede edge lines")
            if _int(f[1]) != len(verts):
                raise FormatError("vertex ids must be dense and ascending")
            if f[6] not in ("R", "G", "B"):
                raise FormatError(f"bad color {f[6]!r}")
            center = Cyclo10(*map(_int, f[2:6]))
            if center in centers:
                raise FormatError(f"two vertices at center {center!r}")
            centers.add(center)
            verts.append(StarVertex(center, (), f[6]))
        elif f[0] == "edge" and len(f) == 3:
            a, b = _int(f[1]), _int(f[2])
            if not (0 <= a < b < len(verts)):
                raise FormatError(f"bad edge {a} {b}")
            edges.append((a, b))
        else:
            raise FormatError(f"bad star graph line: {ln!r}")
    if any(e >= f for e, f in zip(edges, edges[1:])):
        raise FormatError("edges must be distinct and in lexicographic "
                          "order")
    return StarGraph(tuple(verts), tuple(edges), None)


# ---------------------------------------------------------------------------
# CHAIN v1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    """Flat, serializable summary of a decomposed caterpillar chain."""

    primes: tuple[tuple[int, int, str], ...]    # (class, angle, side)
    colors: str
    angles: str
    violations: tuple[tuple[str, int], ...]     # (kind, start index)


def chain_report(c, sg: StarGraph) -> ChainReport:
    """Summarize a decomposed CaterpillarChain for serialization."""
    primes = tuple((pc.class_id, pc.angle_class, side)
                   for pc, side in zip(c.primes, c.sides))
    return ChainReport(primes=primes,
                       colors=chain_word(c, sg),
                       angles=c.angle_word(),
                       violations=tuple((v.kind, v.start)
                                        for v in forbidden_patterns(c)))


def _violations_line(violations: tuple[tuple[str, int], ...]) -> str:
    return "violations " + (" ".join(f"{kind}@{start}"
                                     for kind, start in violations)
                            or "none")


def write_chain(r: ChainReport) -> str:
    out = ["CHAIN v1"]
    for k, (cid, ang, side) in enumerate(r.primes):
        out.append(f"prime {k} class {cid} angle {ang} side {side}")
    out.append(f"word colors {r.colors}")
    out.append(f"word angles {r.angles}")
    out.append(_violations_line(r.violations))
    return "\n".join(out) + "\n"


def _parse_chain_lines(lines: list[str]) -> ChainReport:
    """Prime lines, then exactly one word colors, one word angles and
    one violations line, in that order."""
    primes = []
    for ln in lines:
        f = ln.split(" ")
        if f[0] != "prime":
            break
        if (len(f) != 8 or f[2] != "class" or f[4] != "angle"
                or f[6] != "side" or _int(f[1]) != len(primes)):
            raise FormatError(f"bad prime line: {ln!r}")
        cid, ang, side = _int(f[3]), _int(f[5]), f[7]
        if ANGLE_OF_CLASS.get(cid) != ang or side not in ("L", "R"):
            raise FormatError(f"bad prime attributes: {ln!r}")
        primes.append((cid, ang, side))
    tail = lines[len(primes):]
    if (not primes or len(tail) != 3 or not tail[0].startswith("word colors ")
            or not tail[1].startswith("word angles ")
            or not tail[2].startswith("violations ")):
        raise FormatError("chain report must be prime lines, then one word "
                          "colors, one word angles and one violations line")
    colors, angles = tail[0][12:], tail[1][12:]
    if set(colors) - set("RGB") or len(colors) != len(primes) + 2:
        raise FormatError(f"bad color word {colors!r}")
    if angles != "".join(str(ang) for _, ang, _ in primes):
        raise FormatError(f"angle word {angles!r} disagrees with the "
                          f"prime angles")
    violations = tuple((v.kind, v.start) for v in word_violations(
        [cid for cid, _, _ in primes], angles))
    if tail[2] != _violations_line(violations):
        raise FormatError(f"{tail[2]!r} disagrees with the prime classes "
                          f"and angle word")
    return ChainReport(tuple(primes), colors, angles, violations)


def read_chain(text: str) -> ChainReport:
    return _parse_chain_lines(_lines(text, "CHAIN v1"))


# ---------------------------------------------------------------------------
# EXTEND v1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendReport:
    """Outcome of a bidirectional chain extension search."""

    seed: str                   # name of the seed chain file
    leftmax: int
    rightmax: int
    target: int
    met: bool
    best: ChainReport


def write_extend(r: ExtendReport) -> str:
    head = ("EXTEND v1\n"
            f"seed {r.seed}\n"
            f"leftmax {r.leftmax} rightmax {r.rightmax} "
            f"target {r.target} met {1 if r.met else 0}\n")
    return head + write_chain(r.best)


def read_extend(text: str) -> ExtendReport:
    lines = _lines(text, "EXTEND v1")
    if len(lines) < 3 or not lines[0].startswith("seed "):
        raise FormatError("bad EXTEND header")
    seed = lines[0][5:]
    f = lines[1].split(" ")
    if (len(f) != 8 or f[0] != "leftmax" or f[2] != "rightmax"
            or f[4] != "target" or f[6] != "met"
            or f[7] not in ("0", "1")):
        raise FormatError("bad EXTEND summary line")
    if lines[2] != "CHAIN v1":
        raise FormatError("EXTEND report must embed a CHAIN v1 block")
    leftmax, rightmax, target = _int(f[1]), _int(f[3]), _int(f[5])
    if not (0 <= leftmax <= target and 0 <= rightmax <= target):
        raise FormatError("leftmax and rightmax must lie in 0..target")
    met = f[7] == "1"
    if met and not leftmax == rightmax == target:
        raise FormatError("met 1 needs leftmax == rightmax == target")
    best = _parse_chain_lines(lines[3:])
    return ExtendReport(seed=seed, leftmax=leftmax, rightmax=rightmax,
                        target=target, met=met, best=best)
