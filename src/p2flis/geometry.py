"""P2 tiles, patches, and the substitution (inflation) that generates them.

A patch is a finite set of kites and darts with exact Cyclo10 coordinates.
Tiles are built from half-tiles: a kite splits along its symmetry axis into
two golden triangles (36-72-72, sides phi, 1, phi), a dart into two gnomons
(36-36-108, sides phi, 1, 1).  Substitution is defined on half-tiles and
whole tiles are recovered by merging mirror pairs.

Coordinates are kept integral by rescaling: one inflation step maps a point
p to phi*p and increments the patch's scale_exp, so a stored coordinate c
at scale_exp = s represents the physical point c / phi**s.  Edge lengths at
storage scale are always phi (long) and 1 (short).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .ring import (Cyclo10, PHI_ZETA, PHI2_ZETA, ZETA_POW, ZERO, grid_floors,
                   quad_sign)

KITE = "K"
DART = "D"
HALF_KITE = "HK"
HALF_DART = "HD"

#: corner slot names per tile kind, in outline order
CORNER_SLOTS = {
    KITE: ("tip", "side1", "far", "side2"),
    DART: ("tip", "side1", "reflex", "side2"),
}

#: Matching-rule vertex colors.  Two tiles may share an edge only if the
#: colors agree at both endpoints.  The partition is forced: these are
#: exactly the corner classes that coincide at vertices of substitution
#: generated patches (tests re-derive it by union-find over such patches).
VERTEX_COLOR = {
    (KITE, "tip"): "B", (KITE, "far"): "B", (DART, "side"): "B",
    (KITE, "side"): "W", (DART, "tip"): "W", (DART, "reflex"): "W",
}

#: whole-tile kind -> its half-tile kind
_HALF_OF = {KITE: HALF_KITE, DART: HALF_DART}


@dataclass(frozen=True, slots=True)
class HalfTile:
    """Half of a P2 tile (a Robinson triangle).

    kind is HALF_KITE or HALF_DART.  tip is the corner on the parent
    tile's tip, rot the direction index (multiples of 36 degrees) of the
    symmetry axis, and chirality +1/-1 says on which side of the axis the
    triangle lies (+1 = outline corner counterclockwise of the axis).
    Its outline corner is tip + phi * zeta**(rot + chirality), its axis
    corner tip + phi * zeta**rot (a kite's far corner) or tip + zeta**rot
    (a dart's reflex corner).
    """

    kind: str
    tip: Cyclo10
    rot: int
    chirality: int

    def translated(self, d: Cyclo10) -> "HalfTile":
        return HalfTile(self.kind, self.tip + d, self.rot, self.chirality)


@dataclass(frozen=True, slots=True)
class Tile:
    """A whole kite or dart: kind, tip anchor, rotation index 0..9."""

    kind: str
    anchor: Cyclo10
    rot: int

    def halves(self) -> tuple[HalfTile, HalfTile]:
        hk = _HALF_OF[self.kind]
        return (HalfTile(hk, self.anchor, self.rot, 1),
                HalfTile(hk, self.anchor, self.rot, -1))

    @property
    def outline(self) -> tuple[Cyclo10, Cyclo10, Cyclo10, Cyclo10]:
        """Corners in slot order tip, side1, far/reflex, side2."""
        t, r = self.anchor, self.rot
        faraway = PHI_ZETA[r] if self.kind == KITE else ZETA_POW[r]
        return (t, t + PHI_ZETA[(r + 1) % 10], t + faraway,
                t + PHI_ZETA[(r - 1) % 10])

    def corner(self, slot: str) -> Cyclo10:
        return self.outline[CORNER_SLOTS[self.kind].index(slot)]

    def edges(self) -> tuple[tuple[Cyclo10, Cyclo10], ...]:
        a, b, c, d = self.outline
        return ((a, b), (b, c), (c, d), (d, a))

    def translated(self, d: Cyclo10) -> "Tile":
        return Tile(self.kind, self.anchor + d, self.rot)

    def rotated(self, k: int) -> "Tile":
        return Tile(self.kind, self.anchor.rotated(k), (self.rot + k) % 10)

    def reflected(self) -> "Tile":
        return Tile(self.kind, self.anchor.conj(), (-self.rot) % 10)


@dataclass(frozen=True)
class Patch:
    """A patch of whole tiles plus any unpaired boundary half-tiles.

    Tile ids are positions in the tiles tuple; construction through
    make_patch sorts tiles into a canonical order so ids are reproducible.
    scale_exp records how many times coordinates have been scaled by phi.
    """

    tiles: tuple[Tile, ...]
    halves: tuple[HalfTile, ...]
    scale_exp: int

    def __len__(self) -> int:
        return len(self.tiles)

    @cached_property
    def tile_lookup(self) -> dict[tuple, int]:
        """Exact lookup (kind, anchor coefficients, rotation) -> tile id,
        built on first use and kept with the patch."""
        return {(t.kind, t.anchor.coeffs, t.rot): i
                for i, t in enumerate(self.tiles)}

    @cached_property
    def chain_matches(self) -> dict:
        """Star center -> the prime chains matched there, as the tuple
        `inflation_lab.chains_at_star` returns; filled one star at a time
        and read by that function alone, and kept with the patch."""
        return {}


def make_patch(tiles: Iterable[Tile], halves: Iterable[HalfTile] = (),
               scale_exp: int = 0) -> Patch:
    return Patch(tuple(sorted(tiles, key=lambda t: (t.anchor.coeffs, t.kind,
                                                    t.rot))),
                 tuple(sorted(halves, key=lambda h: (h.tip.coeffs, h.kind,
                                                     h.rot, h.chirality))),
                 scale_exp)


# ---------------------------------------------------------------------------
# exact symmetries
# ---------------------------------------------------------------------------

def _linear_rows(k: int, reflect: bool) -> tuple[tuple[int, ...], ...]:
    """Integer rows taking the coefficients of x to those of zeta**k * x,
    or of zeta**k * conj(x) when reflect is set."""
    img = [Cyclo10(*(int(i == j) for j in range(4))) for i in range(4)]
    img = [(e.conj() if reflect else e).rotated(k) for e in img]
    return tuple(tuple(e.coeffs[j] for e in img) for j in range(4))


#: (k, reflect) -> rows of x -> zeta**k * x, or zeta**k * conj(x)
_LINEAR = {(k, r): _linear_rows(k, r)
           for k in range(10) for r in (False, True)}


def _isometry_perm(lookup: dict, keys: list, s: list, k: int,
                   reflect: bool) -> tuple[int, ...] | None:
    """Tile permutation of the isometry x -> zeta**k * x + d (or
    zeta**k * conj(x) + d) that maps the tiles onto themselves, or None
    when no translation d does.  keys are the tiles' (kind, anchor
    coefficients, rot) and s their anchor sum.

    Tips map to tips, so such a d satisfies n*d = S - M*S for the
    linear part M; d is that quotient when it is exact.
    """
    n = len(keys)
    rows = _LINEAR[k, reflect]
    num = [s[j] - sum(r * c for r, c in zip(rows[j], s)) for j in range(4)]
    if any(x % n for x in num):
        return None
    d0, d1, d2, d3 = (x // n for x in num)
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), \
        (r30, r31, r32, r33) = rows
    sign = -1 if reflect else 1
    perm = []
    for kind, (a0, a1, a2, a3), rot in keys:
        j = lookup.get((kind, (r00 * a0 + r01 * a1 + r02 * a2 + r03 * a3 + d0,
                               r10 * a0 + r11 * a1 + r12 * a2 + r13 * a3 + d1,
                               r20 * a0 + r21 * a1 + r22 * a2 + r23 * a3 + d2,
                               r30 * a0 + r31 * a1 + r32 * a2 + r33 * a3 + d3),
                        (k + sign * rot) % 10))
        if j is None:
            return None
        perm.append(j)
    return tuple(perm)


def patch_symmetries(patch: Patch) -> tuple[tuple[int, ...], ...]:
    """Tile permutations of every isometry that maps the patch's tiles
    onto themselves, identity first.

    Entry g of a permutation is the id of the image of tile g.  The
    isometries are x -> zeta**k * x + d and x -> zeta**k * conj(x) + d,
    found with exact integer arithmetic, so the result does not depend on
    where the patch sits.  Only the smallest rotation and one reflection
    are found tile by tile; the rest of the group are their compositions.
    A lone kite has two: its mirror axis fixes it.  Loose half-tiles are
    not considered, and a patch with a repeated tile gets the identity
    only.
    """
    lookup = patch.tile_lookup
    identity = tuple(range(len(patch.tiles)))
    if not identity or len(lookup) != len(identity):
        return (identity,)
    keys = list(lookup)  # (kind, anchor coefficients, rot) in tile order
    s = [sum(c) for c in zip(*(a for _, a, _ in keys))]

    def first(ks, reflect):
        return next((p for k in ks if (p := _isometry_perm(
            lookup, keys, s, k, reflect)) is not None), None)

    rotations = [identity]
    turn = first(range(1, 10), False)
    if turn is not None:
        while (p := tuple(map(turn.__getitem__, rotations[-1]))) != identity:
            rotations.append(p)
    mirror = first(range(10), True)
    if mirror is None:
        return tuple(rotations)
    return (*rotations,
            *(tuple(map(r.__getitem__, mirror)) for r in rotations))


SEED_NAMES = ("kite", "dart", "sun", "star")


def seed_patch(name: str) -> Patch:
    """One of the four canonical seeds, anchored at the origin: a kite, a
    dart, or five kites (sun) or darts (star) meeting at their tips."""
    if name not in SEED_NAMES:
        raise ValueError(f"unknown seed {name!r}")
    rots = range(0, 10, 2) if name in ("sun", "star") else (0,)
    return make_patch(Tile(KITE if name in ("kite", "sun") else DART, ZERO, r)
                      for r in rots)


#: (half-tile kind, rot, chirality) -> frame number; frames 2p and
#: 2p + 1 are chiralities +1 and -1 of pair p, a (kind, rot)
_FRAME_NO = {key: f for f, key in enumerate(
    (kind, rot, chirality) for kind in (HALF_KITE, HALF_DART)
    for rot in range(10) for chirality in (1, -1))}
#: pair number -> (half-tile kind, rot); kites are the pairs below 10
_PAIRS = tuple((kind, rot) for kind, rot, m in _FRAME_NO if m == 1)


def _substitution(p: int, mask: int) -> tuple:
    """The children of the halves of pair p that mask holds (bit 0 for
    chirality +1, bit 1 for -1), as flat (tip offset from phi * tip,
    pair, mask) entries, one per child tip and pair.  A half-kite splits
    into a half-dart and two half-kites, a half-dart into a half-kite and
    a half-dart, so whole-tile counts follow (kites, darts) ->
    (2*kites + darts, kites + darts)."""
    kind, r = _PAIRS[p]
    out: dict[tuple, int] = {}
    for m in (m for m, bit in ((1, 1), (-1, 2)) if mask & bit):
        t, b = ZERO.coeffs, PHI2_ZETA[(r + m) % 10].coeffs
        for off, k, rot, c in (
                ((t, HALF_DART, r + m, -m), (b, HALF_KITE, r + 7 * m, m),
                 (b, HALF_KITE, r + 7 * m, -m)) if kind == HALF_KITE
                else ((t, HALF_KITE, r, m), (b, HALF_DART, r + 6 * m, m))):
            f = _FRAME_NO[k, rot % 10, c]
            out[off, f >> 1] = out.get((off, f >> 1), 0) | 1 << (f & 1)
    return tuple((*off, q, bits) for (off, q), bits in out.items())


#: 4 * pair + mask -> _substitution(pair, mask): the rule, stated once
_SUBSTITUTION = tuple(_substitution(i >> 2, i & 3) for i in range(80))


def _pieces(patch: Patch) -> Iterator[tuple[str, tuple, int, int]]:
    """(half kind, tip coefficients, rot, chirality) of every piece: the
    halves of each tile, chirality +1 first, then the loose halves."""
    for t in patch.tiles:
        kind, tip = _HALF_OF[t.kind], t.anchor.coeffs
        yield kind, tip, t.rot, 1
        yield kind, tip, t.rot, -1
    for h in patch.halves:
        yield h.kind, h.tip.coeffs, h.rot, h.chirality


def inflate(patch: Patch, steps: int = 1) -> Patch:
    """Apply the substitution steps times (inflation at constant tile size).

    Coordinates are multiplied by phi at each step and scale_exp is
    incremented, so physical positions are unchanged while each old tile
    is subdivided into new full-size tiles.

    Each step runs on integers: a dict maps (tip coefficients, pair
    number) to the mask of the halves present, both for a whole tile; each
    tip is multiplied by phi and its children read from _SUBSTITUTION, so
    mirror halves pair up as their masks are ORed under one key.  Tiles,
    loose halves and ring values are made once, at the end.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not steps:
        return patch
    cur: dict[tuple, int] = {}
    for kind, tip, rot, m in _pieces(patch):
        f = _FRAME_NO[kind, rot, m]
        key = (*tip, f >> 1)
        cur[key] = cur.get(key, 0) | 1 << (f & 1)
    for _ in range(steps):
        nxt: dict[tuple, int] = {}
        get = nxt.get
        for (c0, c1, c2, c3, p), mask in cur.items():
            # phi * tip
            t0, t1, t2, t3 = c0 + c1 - c3, c2 + c3, c0 + c1, c2 + c3 - c0
            for o0, o1, o2, o3, q, bits in _SUBSTITUTION[4 * p + mask]:
                key = (t0 + o0, t1 + o1, t2 + o2, t3 + o3, q)
                nxt[key] = get(key, 0) | bits
        cur = nxt
    tiles, halves = [], []
    for (c0, c1, c2, c3, p), mask in cur.items():
        kind, rot = _PAIRS[p]
        if mask == 3:
            tiles.append((c0, c1, c2, c3, KITE if p < 10 else DART, rot))
        else:
            halves.append((c0, c1, c2, c3, kind, rot, 3 - 2 * mask))
    # flat keys sort in make_patch's order, so tiles with one anchor are
    # neighbours and share its ring value
    tiles.sort()
    halves.sort()
    made, z = [], ZERO
    for c0, c1, c2, c3, kind, rot in tiles:
        if z.c0 != c0 or z.c1 != c1 or z.c2 != c2 or z.c3 != c3:
            z = Cyclo10(c0, c1, c2, c3)
        made.append(Tile(kind, z, rot))
    return Patch(tuple(made), tuple(
        HalfTile(kind, Cyclo10(c0, c1, c2, c3), rot, m)
        for c0, c1, c2, c3, kind, rot, m in halves), patch.scale_exp + steps)


# ---------------------------------------------------------------------------
# patch validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class Violation:
    """One structural or matching-rule defect found in a patch.

    kind is "overlap", "partial_edge" or "matching_rule".  owners names the
    participants: "t<i>" for tile id i, "h<j>" for loose half j.
    """

    kind: str
    owners: tuple[str, ...]
    detail: str


# Every half-tile edge vector is L * zeta**k with L in {1, phi}.  Turning
# a difference d = p - a by zeta**-k lays that edge along the positive real
# axis, so the side of p is the sign of Im(d * zeta**-k) and p lies on the
# open edge exactly when that product is real and strictly between 0 and L.
# Both parts are integer linear forms in the coefficients of d.

def _direction_rows(k: int) -> tuple[tuple[int, ...], ...]:
    """Integer rows taking the coefficients of d to the (a, b) pairs of
    Im(d * zeta**-k) / sin(pi/5) and 2 * Re(d * zeta**-k)."""
    img = [Cyclo10(*(int(i == j) for j in range(4))).rotated(-k)
           for i in range(4)]
    return (tuple(e.c1 for e in img), tuple(e.c2 + e.c3 for e in img),
            tuple(2 * e.c0 - e.c2 + e.c3 for e in img),
            tuple(e.c1 + e.c2 - e.c3 for e in img))


#: edge vector coefficients -> (its direction's rows, 2L as an (a, b) pair)
_DIRECTION = {**{ZETA_POW[k].coeffs: (_direction_rows(k), (2, 0))
                 for k in range(10)},
              **{PHI_ZETA[k].coeffs: (_direction_rows(k), (0, 2))
                 for k in range(10)}}


def _side(rows: tuple, a: tuple, p: tuple) -> int:
    """Side of p from the edge leaving a in the direction of rows:
    +1 left, -1 right, 0 on its line."""
    d0, d1, d2, d3 = p[0] - a[0], p[1] - a[1], p[2] - a[2], p[3] - a[3]
    ra, rb = rows[0], rows[1]
    return quad_sign(ra[0] * d0 + ra[1] * d1 + ra[2] * d2 + ra[3] * d3,
                     rb[0] * d0 + rb[1] * d1 + rb[2] * d2 + rb[3] * d3)


def _inside_edge(direction: tuple, a: tuple, p: tuple) -> bool:
    """p lies strictly between the ends of the edge leaving a."""
    (ia, ib, ra, rb), twice_len = direction
    d0, d1, d2, d3 = p[0] - a[0], p[1] - a[1], p[2] - a[2], p[3] - a[3]
    if (ia[0] * d0 + ia[1] * d1 + ia[2] * d2 + ia[3] * d3
            or ib[0] * d0 + ib[1] * d1 + ib[2] * d2 + ib[3] * d3):
        return False
    x = ra[0] * d0 + ra[1] * d1 + ra[2] * d2 + ra[3] * d3
    y = rb[0] * d0 + rb[1] * d1 + rb[2] * d2 + rb[3] * d3
    return (quad_sign(x, y) > 0
            and quad_sign(twice_len[0] - x, twice_len[1] - y) > 0)


#: half-tile kind -> the matching-rule colors of its tip, outline and axis
#: corners, the whole tile's tip, side and far or reflex corners
_HALF_COLOR = {
    HALF_KITE: tuple(VERTEX_COLOR[KITE, s] for s in ("tip", "side", "far")),
    HALF_DART: tuple(VERTEX_COLOR[DART, s] for s in ("tip", "side", "reflex"))}


def _half_frame(kind: str, rot: int, chirality: int) -> tuple:
    """The offsets of a half-tile's outline and axis corners from its
    tip, the rows of its edges t -> b, b -> c, c -> t, the orientation
    of t, b, c (-chirality: clockwise for chirality +1), and per edge the
    positions of its ends among (t, b, c), its table entry and the colors
    of its ends, in both orders.  The third edge is the axis."""
    b = PHI_ZETA[(rot + chirality) % 10]
    c = PHI_ZETA[rot] if kind == HALF_KITE else ZETA_POW[rot]
    dirs = tuple(_DIRECTION[v.coeffs] for v in (b, c - b, -c))
    color = _HALF_COLOR[kind]
    sides = tuple((i, j, d, color[i] + color[j], color[j] + color[i])
                  for (i, j), d in zip(((0, 1), (1, 2), (2, 0)), dirs))
    return (b.coeffs, c.coeffs, tuple(d[0] for d in dirs), -chirality, sides)


#: frame number -> the _half_frame of its (kind, rot, chirality)
_FRAMES = tuple(_half_frame(*key) for key in _FRAME_NO)


def validate_patch(patch: Patch) -> list[Violation]:
    """Check that a patch is a legal fragment of a P2 tiling.

    Detects, with exact arithmetic: duplicated tile pieces, overlapping
    tiles (edge crossings, vertices buried inside tiles, outline edges
    lying along the open axis side of a lone half-tile), partial edge
    contact (a vertex strictly inside another tile's edge), and
    matching-rule breaches (vertex colors disagreeing across a fully
    shared edge).  Returns a sorted list of violations; a valid patch
    yields an empty list.  Each corner's exact floors (ring.grid_floors
    of its offset from the first tip) choose which edges and half-tiles a
    point or edge is tested against; every verdict is an exact integer
    predicate, and no float is taken.
    """
    # Pieces are numbered 2i, 2i + 1 for the halves of tile i and
    # 2 * len(tiles) + j for loose half j; the names "t<i>" and "h<j>"
    # are made only for a violation.
    nt = 2 * len(patch.tiles)
    npieces = nt + len(patch.halves)
    if not npieces:
        return []

    def name(q: int) -> str:
        return f"t{q >> 1}" if q < nt else f"h{q - nt}"

    bad: set[Violation] = set()

    # Corners are numbered once, in order of first appearance, with their
    # coefficients and the grid floors x and y of their exact offset from
    # the first tip, which do not depend on where the patch sits.  Each
    # piece keeps its frame number and its three corner ids (tip, outline,
    # axis) in tri; a piece with the tip and frame of an earlier one
    # duplicates it.  Edges are numbered in order of first appearance,
    # keyed lo * span + hi by their corner ids, and keep their ends and
    # direction in the orientation of the first piece that reached it and
    # the piece and side number of their first two sharers; further
    # sharers go in more.
    o0, o1, o2, o3 = next(_pieces(patch))[1]
    span = 3 * npieces  # above every corner id
    corner_id: dict[tuple, int] = {}
    pts: list[tuple] = []
    xs: list[int] = []
    ys: list[int] = []
    tri: list[int] = []
    frame_of = bytearray()
    first_piece: dict[int, int] = {}
    edge_id: dict[int, int] = {}
    ea: list[int] = []
    eb: list[int] = []
    edir: list[tuple] = []
    q1: list[int] = []
    s1 = bytearray()
    q2: list[int | None] = []
    s2 = bytearray()
    more: dict[int, list[int]] = {}
    for q, (kind, tip, rot, m) in enumerate(_pieces(patch)):
        f = _FRAME_NO[kind, rot, m]
        frame_of.append(f)
        (b0, b1, b2, b3), (c0, c1, c2, c3), _, _, sides = _FRAMES[f]
        t0, t1, t2, t3 = tip
        ids = []
        for k in (tip, (t0 + b0, t1 + b1, t2 + b2, t3 + b3),
                  (t0 + c0, t1 + c1, t2 + c2, t3 + c3)):
            i = corner_id.get(k)
            if i is None:
                i = corner_id[k] = len(pts)
                pts.append(k)
                x, y = grid_floors(k[0] - o0, k[1] - o1, k[2] - o2, k[3] - o3)
                xs.append(x)
                ys.append(y)
            ids.append(i)
        tri += ids
        twin = first_piece.setdefault(ids[0] * len(_FRAMES) + f, q)
        if twin != q:
            bad.add(Violation("overlap", tuple(sorted({name(twin), name(q)})),
                              "duplicate piece"))
        for s, (i, j, direction, _, _) in enumerate(sides):
            a, b = ids[i], ids[j]
            key = a * span + b if a < b else b * span + a
            e = edge_id.get(key)
            if e is None:
                edge_id[key] = len(ea)
                ea.append(a)
                eb.append(b)
                edir.append(direction)
                q1.append(q)
                s1.append(s)
                q2.append(None)
                s2.append(0)
            elif q2[e] is None:
                q2[e] = q
                s2[e] = s
            else:
                more.setdefault(e, []).append(q)
    del corner_id, first_piece, edge_id

    def edge_owners(e: int) -> set[str]:
        return {name(q) for q in (q1[e], q2[e], *more.get(e, ()))
                if q is not None}

    # corner id -> owner names, filled on the first violation that needs it
    corner_owners: list[set[str]] = []

    def owners_at(p: int) -> set[str]:
        if not corner_owners:
            corner_owners.extend(set() for _ in pts)
            for q in range(npieces):
                own = name(q)
                for i in tri[3 * q:3 * q + 3]:
                    corner_owners[i].add(own)
        return corner_owners[p]

    # Shared edges are checked for structure and matching rules, each in
    # the orientation of the first piece that reached it.
    for e, qb in enumerate(q2):
        if qb is None:
            continue
        if e in more:
            bad.add(Violation("overlap", tuple(sorted(edge_owners(e))),
                              "edge shared more than twice"))
            continue
        qa, sa, sb = q1[e], s1[e], s2[e]
        if qa < nt and qb < nt and qa >> 1 == qb >> 1:
            continue  # the two halves of one tile along its axis
        if sa == 2 and sb == 2:
            continue  # two loose halves forming a virtual whole tile
        owners = tuple(sorted({name(qa), name(qb)}))
        if sa == 2 or sb == 2:
            bad.add(Violation("overlap", owners,
                              "outline edge along the open side of a half-tile"))
            continue
        colors = []
        for q, s in ((qa, sa), (qb, sb)):
            i, j, _, fwd, back = _FRAMES[frame_of[q]][4][s]
            colors.append(fwd if tri[3 * q + i] < tri[3 * q + j] else back)
        if colors[0] != colors[1]:
            # name the corner that the first piece's edge, as a frozenset,
            # lists first among those where the colors disagree
            a, b = ea[e], eb[e]
            at = {pts[min(a, b)]: 0, pts[max(a, b)]: 1}
            k = next(k for k in frozenset((pts[a], pts[b]))
                     if colors[0][at[k]] != colors[1][at[k]])
            bad.add(Violation("matching_rule", owners,
                              f"colors disagree at corner {k}"))

    # Corners, edges and half-tiles are filed in hash cells: the floors
    # shifted right by 4, numbered from the lowest.  A corner goes in its
    # own cell; an edge or half-tile gets the box of its corners' floors,
    # which holds the floors of each of its points, and goes in every
    # cell that box touches.  At most 16 floors make a unit and an edge
    # is at most phi long, so a box spans at most 26 floors on each axis
    # and touches at most 3 x 3 cells however far apart the tiles are.
    cx_min, cy_min = min(xs) >> 4, min(ys) >> 4
    column = (max(ys) >> 4) - cy_min + 1  # cells per column

    def file(cells: dict[int, list[int]], item: int,
             x0: int, x1: int, y0: int, y1: int) -> None:
        cy0, cy1 = (y0 >> 4) - cy_min, (y1 >> 4) - cy_min + 1
        for cx in range((x0 >> 4) - cx_min, (x1 >> 4) - cx_min + 1):
            for key in range(cx * column + cy0, cx * column + cy1):
                cell = cells.get(key)
                if cell is None:
                    cells[key] = [item]
                else:
                    cell.append(item)

    corner_cells: dict[int, list[int]] = {}
    for p, (x, y) in enumerate(zip(xs, ys)):
        file(corner_cells, p, x, x, y, y)
    # boxes of the edges and of the half-tiles, one flat table per bound
    ex0, ex1, ey0, ey1 = [], [], [], []
    edge_cells: dict[int, list[int]] = {}
    for e, (a, b) in enumerate(zip(ea, eb)):
        xa, xb, ya, yb = xs[a], xs[b], ys[a], ys[b]
        x0, x1 = (xa, xb) if xa < xb else (xb, xa)
        y0, y1 = (ya, yb) if ya < yb else (yb, ya)
        ex0.append(x0)
        ex1.append(x1)
        ey0.append(y0)
        ey1.append(y1)
        file(edge_cells, e, x0, x1, y0, y1)
    tx0, tx1, ty0, ty1 = [], [], [], []
    tri_cells: dict[int, list[int]] = {}
    corners = iter(tri)
    for q, (it, ib, ic) in enumerate(zip(corners, corners, corners)):
        x0 = x1 = xs[it]
        y0 = y1 = ys[it]
        for i in (ib, ic):
            x, y = xs[i], ys[i]
            if x < x0:
                x0 = x
            elif x > x1:
                x1 = x
            if y < y0:
                y0 = y
            elif y > y1:
                y1 = y
        tx0.append(x0)
        tx1.append(x1)
        ty0.append(y0)
        ty1.append(y1)
        file(tri_cells, q, x0, x1, y0, y1)

    # Cell by cell: vertices strictly inside edges (T junctions) or
    # inside half-tiles, then properly crossing edges; a pair of edges is
    # tested once, in the lowest cell both touch, and only when their
    # boxes overlap.  Every corner lies in a cell of its edges.
    for key, cell in edge_cells.items():
        cx, cy = divmod(key, column)
        # each edge's ends, direction, box and lowest cell
        boxes = [(ea[e], eb[e], edir[e], ex0[e], ex1[e], ey0[e], ey1[e],
                  (ex0[e] >> 4) - cx_min, (ey0[e] >> 4) - cy_min, e)
                 for e in cell]
        for p in corner_cells.get(key, ()):
            k, px, py = pts[p], xs[p], ys[p]
            for a, b, direction, x0, x1, y0, y1, _, _, e in boxes:
                if (p != a and p != b and x0 <= px <= x1 and y0 <= py <= y1
                        and _inside_edge(direction, pts[a], k)):
                    bad.add(Violation("partial_edge", tuple(sorted(
                        owners_at(p) | edge_owners(e))),
                        "vertex inside another tile's edge"))
            for q in tri_cells[key]:
                if not (tx0[q] <= px <= tx1[q] and ty0[q] <= py <= ty1[q]):
                    continue
                it, ib, ic = tri[3 * q:3 * q + 3]
                _, _, (r0, r1, r2), orient, _ = _FRAMES[frame_of[q]]
                if (p != it and p != ib and p != ic
                        and _side(r0, pts[it], k) == orient
                        and _side(r1, pts[ib], k) == orient
                        and _side(r2, pts[ic], k) == orient):
                    bad.add(Violation("overlap",
                                      tuple(sorted(owners_at(p) | {name(q)})),
                                      "vertex inside another tile"))
        for i, (a, b, (r1, _), ax0, ax1, ay0, ay1, acx, acy, e1) in \
                enumerate(boxes):
            for c, d, (r2, _), bx0, bx1, by0, by1, bcx, bcy, e2 in \
                    boxes[i + 1:]:
                if ((acx if acx > bcx else bcx) != cx
                        or (acy if acy > bcy else bcy) != cy
                        or a == c or a == d or b == c or b == d
                        or ax0 > bx1 or bx0 > ax1 or ay0 > by1 or by0 > ay1):
                    continue
                ka, kb, kc, kd = pts[a], pts[b], pts[c], pts[d]
                if (_side(r1, ka, kc) * _side(r1, ka, kd) < 0
                        and _side(r2, kc, ka) * _side(r2, kc, kb) < 0):
                    bad.add(Violation("overlap", tuple(sorted(
                        edge_owners(e1) | edge_owners(e2))), "edges cross"))

    return sorted(bad)
