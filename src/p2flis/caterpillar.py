"""Caterpillar structure of fully leafed induced subtrees.

A caterpillar is a tree whose derived tree (internals only) is a path.
The maximal fully leafed trees whose internals all have degree 3 turn
out to have 8 internal tiles and 10 leaves; they come in six shapes up
to isometry and choice of leaves, and every larger fully leafed tree is
built from them by grafting at shared leaves.

Each prime hugs exactly one star of the tiling (its home star) and
determines two outgoing edges of the star overlay graph; grafted
neighbours sit at the far ends of those edges.  Chains of grafted primes
therefore trace paths in the overlay, and the angle a prime subtends
between its two edges, measured on the side the caterpillar occupies, is
always 4, 6 or 8 in units of pi/5.  The class table, ray table and the
local grammar of angle words below were all established by exhaustive
enumeration over generated patches; the tests re-derive them.

Every placement of the six class templates, homed at the origin, is one
table (`_placements`).  The census matches it at each star
(`inflation_lab.chains_at_star`), and a prime is classified and located
by one lookup of its internal tiles' shape in the same placements
(`_shapes`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

from .ring import Cyclo10
from .geometry import _LINEAR, Patch, Tile
from .dualgraph import P2Graph
from .stargraph import StarGraph
from .flis import InducedSubtree, induced_subtree, leaf_count, \
    leaf_function_formula

PRIME_ORDER = 18        # 8 internal tiles of degree 3 plus 10 leaves
PRIME_INTERNALS = 8


def derive(g: P2Graph, t: InducedSubtree) -> InducedSubtree:
    """The tree on the internal (non-leaf) tiles of t; may be empty."""
    return induced_subtree(g, t.internals)


def internal_chain(g: P2Graph, t: InducedSubtree) -> tuple[int, ...]:
    """Internal tiles in path order; starts at the smaller endpoint id.

    Raises ValueError when the derived tree is not a path.
    """
    d = derive(g, t)
    if d.order == 0:
        return ()
    if any(deg > 2 for deg in d.degrees):
        raise ValueError("derived tree is not a path")
    if d.order == 1:
        return d.tiles
    idset = set(d.tiles)
    ends = [v for v, deg in zip(d.tiles, d.degrees) if deg == 1]
    cur, prev = min(ends), -1
    out = [cur]
    while len(out) < d.order:
        nxt = [u for u in g.neighbors(cur) if u in idset and u != prev]
        prev, cur = cur, nxt[0]
        out.append(cur)
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical shape signatures
# ---------------------------------------------------------------------------

def tiles_from_signature(sig: tuple) -> list[Tile]:
    """Materialize the canonical representative tile sequence encoded by
    a signature (first tile at the origin with rotation 0).

    A signature reads a tile sequence as its first kind, then each step's
    (kind, rotation difference, anchor delta turned into the previous
    tile's frame); the canonical one is the least over both reading
    directions and both mirror images."""
    out = [Tile(sig[0], Cyclo10(0), 0)]
    for kind, drot, delta in sig[1:]:
        prev = out[-1]
        anchor = prev.anchor + Cyclo10(*delta).rotated(prev.rot)
        out.append(Tile(kind, anchor, (prev.rot + drot) % 10))
    return out


# ---------------------------------------------------------------------------
# the six prime classes
#
# Exhaustive enumeration of the order-18 optima over generated patches
# produces exactly these six canonical internal-chain signatures.  Class
# numbering: the unique angle-8 class is 4; the class whose bidirectional
# extension by grafting stalls (never more than 2 primes of cover on both
# sides, in any patch) is 1; the remaining pairs {3, 6} (angle 4) and
# {2, 5} (angle 6) are ordered by canonical signature.
# ---------------------------------------------------------------------------

_SIG_PC1 = ('D', ('K', 5, (1, 0, 0, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('D', 5, (1, 0, 1, 0)))
_SIG_PC3 = ('D', ('K', 5, (1, 0, 0, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 2, (0, 0, 0, 0)))
_SIG_PC2 = ('D', ('K', 5, (1, 0, 0, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)))
_SIG_PC6 = ('K', ('K', 2, (0, 0, 0, 0)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 2, (0, 0, 0, 0)))
_SIG_PC5 = ('K', ('K', 2, (0, 0, 0, 0)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)), ('K', 2, (0, 0, 0, 0)),
            ('K', 6, (2, 0, 2, -1)))
_SIG_PC4 = ('K', ('K', 4, (2, 0, 1, -2)), ('K', 8, (0, 0, 0, 0)),
            ('K', 4, (2, 0, 1, -2)), ('K', 8, (0, 0, 0, 0)),
            ('K', 4, (2, 0, 1, -2)), ('K', 8, (0, 0, 0, 0)),
            ('K', 4, (2, 0, 1, -2)))

CLASS_SIGNATURES: dict[tuple, int] = {
    _SIG_PC1: 1, _SIG_PC2: 2, _SIG_PC3: 3,
    _SIG_PC4: 4, _SIG_PC5: 5, _SIG_PC6: 6,
}

#: class id -> angle in pi/5 units between the two overlay edges,
#: measured on the caterpillar's side
ANGLE_OF_CLASS = {1: 4, 2: 6, 3: 4, 4: 8, 5: 6, 6: 4}

#: class id -> the home star's center in the frame of the canonical
#: representative (first tile at the origin with rotation 0)
CLASS_HOME: dict[int, tuple] = {
    1: (0, -1, -1, -1), 2: (0, -1, -1, -1), 3: (0, -1, -1, -1),
    4: (1, 1, 1, 0), 5: (-1, 1, 0, 2), 6: (-1, 1, 0, 2),
}

#: class id -> the two overlay-edge vectors (home star to flanking star)
#: in the same frame; grafted neighbours sit exactly at these offsets
#: from the home star.  Each pair is listed so that the caterpillar lies
#: right of the overlay path ray 0 -> home -> ray 1.
CLASS_RAYS: dict[int, tuple[tuple, tuple]] = {
    1: ((0, -3, -2, -3), (3, 2, 3, 0)),
    3: ((0, -3, -2, -3), (3, 2, 3, 0)),
    2: ((-5, 0, -3, 3), (3, 2, 3, 0)),
    6: ((-5, 2, -2, 5), (3, -3, 0, -5)),
    5: ((0, 3, 2, 3), (3, -3, 0, -5)),
    4: ((-3, -2, -3, 0), (-5, 2, -2, 5)),
}


@dataclass(frozen=True)
class PrimeCaterpillar:
    """One prime building block located in a patch.

    home_star is the center of the unique star its internal chain
    touches; flanking_stars are the far endpoints of its two overlay
    edges, where grafted neighbours attach.  side, L or R, is the side
    of the overlay path flanking_stars[0] -> home_star ->
    flanking_stars[1] on which the caterpillar lies.
    """

    tree: InducedSubtree
    class_id: int
    home_star: Cyclo10
    flanking_stars: tuple[Cyclo10, Cyclo10]
    side: str

    @property
    def angle_class(self) -> int:
        """The angle between the two edges on the caterpillar side, in
        units of pi/5."""
        return ANGLE_OF_CLASS[self.class_id]


def class_frame(class_id: int, refl: bool, rot: int, anchor: Cyclo10
                ) -> tuple[Cyclo10, tuple[Cyclo10, Cyclo10], str]:
    """The class's home star and flanking stars in the plane, under the
    isometry that conjugates canonical-frame points if refl, rotates them
    by rot and translates them by anchor, and the side of the path
    flanks[0] -> home -> flanks[1] on which the prime lies.  Flanks come
    in the order of their rays' coefficients.  The prime lies right of
    its class's rays in `CLASS_RAYS` order; a mirror image swaps the
    side, and so does reading the rays the other way round."""
    rows = _LINEAR[rot % 10, refl]

    def turn(coeffs: tuple) -> Cyclo10:
        return Cyclo10(*(sum(r * c for r, c in zip(row, coeffs))
                         for row in rows))

    home = turn(CLASS_HOME[class_id]) + anchor
    r1, r2 = map(turn, CLASS_RAYS[class_id])
    swap = r2.coeffs < r1.coeffs
    if swap:
        r1, r2 = r2, r1
    return home, (home + r1, home + r2), "L" if refl != swap else "R"


# ---------------------------------------------------------------------------
# placing a prime: every template placement, read by its shape
# ---------------------------------------------------------------------------

_TEMPLATES = {cid: tiles_from_signature(sig)
              for sig, cid in CLASS_SIGNATURES.items()}


def _placement(cid: int, rot: int, refl: bool) -> tuple[tuple, tuple, str]:
    """The class template mapped by the isometry that sends its home
    star to the origin, reflecting then rotating by rot: (kind, anchor
    coefficients, rotation) per tile in template order, the two flank
    offsets from the home star in `class_frame` order, and the side."""
    home, flanks, side = class_frame(cid, refl, rot, Cyclo10(0))
    tiles = tuple((t.kind, (t.anchor.rotated(rot) - home).coeffs,
                   (t.rot + rot) % 10)
                  for t in (u.reflected() if refl else u
                            for u in _TEMPLATES[cid]))
    return tiles, tuple(f - home for f in flanks), side


@cache
def _placements() -> tuple:
    """Every template under the 20 isometries fixing its home star, homed
    at the origin, as (class id, placed tiles, flank offsets, side); class
    ascending, then unreflected before reflected, then rotations 0..9.
    Built on first use, so importing the module stays cheap."""
    return tuple((cid, *_placement(cid, rot, refl))
                 for cid in sorted(_TEMPLATES)
                 for refl in (False, True) for rot in range(10))


def _shape(rows: Sequence[tuple[str, tuple, int]]
           ) -> tuple[frozenset, tuple]:
    """(kind, anchor coefficients, rotation) rows as a set with every
    anchor taken relative to the least one, which neither a translation
    nor the reading order changes, and that least anchor."""
    least = l0, l1, l2, l3 = min(a for _, a, _ in rows)
    return frozenset((kind, (a0 - l0, a1 - l1, a2 - l2, a3 - l3), rot)
                     for kind, (a0, a1, a2, a3), rot in rows), least


@cache
def _shapes() -> dict[frozenset, tuple[int, Cyclo10, tuple, str]]:
    """The shape (`_shape`) of each placement's chain -> (class id, home
    star offset from the least anchor, flank offsets from the home, side).
    A mirror-symmetric class (1, 4 and 6) has 10 shapes and the others
    20.  Where placements share a shape, the first in `_placements` order
    is kept, as in `inflation_lab.chains_at_star`; they agree on all four
    values (tested)."""
    out: dict = {}
    for cid, placed, rays, side in _placements():
        shape, least = _shape(placed)
        out.setdefault(shape, (cid, -Cyclo10(*least), rays, side))
    return out


def _placement_of(t: InducedSubtree, p: Patch, g: P2Graph
                  ) -> tuple[int, Cyclo10, tuple[Cyclo10, Cyclo10], str]:
    """Check that t is prime-shaped, then find its (class id, home star,
    flanking stars, side) by one lookup of its internal tiles' shape in
    `_shapes`.

    Accepts the full 18-tile prime (all internals of degree 3) and the
    17-tile maximum-leaf tree one leaf short of it (one internal of
    degree 2); both have the same 8-tile internal chain.
    """
    internals = t.internals
    if len(internals) != PRIME_INTERNALS:
        raise ValueError(f"expected {PRIME_INTERNALS} internal tiles, "
                         f"got {len(internals)}")
    if t.order not in (PRIME_ORDER - 1, PRIME_ORDER):
        raise ValueError(f"expected order {PRIME_ORDER - 1} or "
                         f"{PRIME_ORDER}, got {t.order}")
    if leaf_count(t) != leaf_function_formula(t.order):
        raise ValueError("tree is not fully leafed for its order")
    tiles = p.tiles
    shape, least = _shape([(u.kind, u.anchor.coeffs, u.rot)
                           for u in map(tiles.__getitem__, internals)])
    found = _shapes().get(shape)
    if found is None:
        internal_chain(g, t)        # a branching derived tree says so
        raise ValueError("internal chain does not match any of the six "
                         "prime shapes")
    cid, offset, (r1, r2), side = found
    home = offset + Cyclo10(*least)
    return cid, home, (home + r1, home + r2), side


def classify_prime(t: InducedSubtree, p: Patch, g: P2Graph) -> int:
    """Class id 1..6 of a prime caterpillar (or of the order-17 tree one
    leaf short of one), by the shape of its internal tiles."""
    return _placement_of(t, p, g)[0]


def locate_prime(t: InducedSubtree, p: Patch, g: P2Graph,
                 sg: StarGraph) -> PrimeCaterpillar:
    """Classify t and anchor it in the star overlay: home star, the two
    flanking star centers, and its side, all from the one template
    placement its internal tiles match.  Raises ValueError when the
    home star is not a vertex of sg."""
    cid, home, flanks, side = _placement_of(t, p, g)
    if home not in sg.index:
        raise ValueError("home star is not a complete star of the overlay")
    return PrimeCaterpillar(tree=t, class_id=cid, home_star=home,
                            flanking_stars=flanks, side=side)


# ---------------------------------------------------------------------------
# grafting
# ---------------------------------------------------------------------------

def graft(g: P2Graph, i1: InducedSubtree, i2: InducedSubtree,
          t: int) -> InducedSubtree:
    """Join two fully leafed trees at a shared leaf tile t.

    The union must again be an induced subtree and fully leafed for its
    order (leaf count equal to the leaf function); anything else is an
    error, matching the definition of grafting.
    """
    s1, s2 = set(i1.tiles), set(i2.tiles)
    inter = s1 & s2
    if inter != {t}:
        raise ValueError(f"trees must intersect exactly in {{{t}}}, "
                         f"intersection has {len(inter)} tiles")
    if t not in i1.leaves or t not in i2.leaves:
        raise ValueError(f"tile {t} must be a leaf of both trees")
    # Both trees are connected through t, so the union is a tree exactly
    # when no dual edge joins the two sides away from t; then every tile
    # keeps its degree, and t has one edge into each tree.
    adj = g.adj
    if any(u in s2 for v in s1 - inter for u in adj[v] if u != t):
        raise ValueError("union is not an induced subtree: tile set "
                         "induces a cycle")
    deg = dict(zip(i1.tiles, i1.degrees))
    deg.update(zip(i2.tiles, i2.degrees))
    deg[t] = 2
    tiles = tuple(sorted(deg))
    union = InducedSubtree(tiles, tuple(deg[v] for v in tiles))
    if leaf_count(union) != leaf_function_formula(union.order):
        raise ValueError(
            f"union of order {union.order} has {leaf_count(union)} leaves, "
            f"not fully leafed "
            f"({leaf_function_formula(union.order)} required)")
    return union


# ---------------------------------------------------------------------------
# chains of primes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CaterpillarChain:
    """A fully leafed caterpillar decomposed into grafted primes.

    star_chain holds the overlay path: the outer flank of the first
    prime, each prime's home star, and the outer flank of the last
    prime.  partial is a leftover sub-prime segment at one end (tile
    ids), appendix a branch of at most 3 internal tiles and their leaves
    hanging off the derived tree (tile ids, see `decompose`); both are
    empty tuples when absent.
    """

    tree: InducedSubtree
    primes: tuple[PrimeCaterpillar, ...]
    graft_tiles: tuple[int, ...]
    star_chain: tuple[Cyclo10, ...]
    partial: tuple[int, ...] = ()
    appendix: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return self.tree.order

    @property
    def sides(self) -> tuple[str, ...]:
        """Each prime's side, L or R, of the overlay path through its
        home: the prime's own side when the path enters the home from
        its first flank, the other one otherwise.  Alternates strictly
        along a fully leafed chain."""
        return tuple(pc.side if prev == pc.flanking_stars[0]
                     else "R" if pc.side == "L" else "L"
                     for pc, prev in zip(self.primes, self.star_chain))

    def angle_word(self) -> str:
        return "".join(str(pc.angle_class) for pc in self.primes)

    def reversed(self) -> CaterpillarChain:
        """The same chain read from its other end: primes, graft tiles
        and the overlay path reversed."""
        return replace(self, primes=self.primes[::-1],
                       graft_tiles=self.graft_tiles[::-1],
                       star_chain=self.star_chain[::-1])


def ordered(c: CaterpillarChain) -> CaterpillarChain:
    """The chain read so that its first home star is not lexicographically
    greater than its last; c itself when it already reads that way, which
    includes every one-prime chain."""
    if c.primes[0].home_star.coeffs > c.primes[-1].home_star.coeffs:
        return c.reversed()
    return c


def _segment_tree(t: InducedSubtree, path: Sequence[int]
                  ) -> tuple[list[tuple[int, ...]], list[int], tuple[int, ...]]:
    """Split a derived path into 8-tile prime runs separated by single
    junction tiles (internals of degree 2 in t), with at most one
    shorter partial run at one end.  Returns (runs, junctions, partial).
    """
    deg = {v: d for v, d in zip(t.tiles, t.degrees)}
    n = len(path)
    # alignments: optional partial run of derived length q at the left
    # (q=0 means none), then full runs of 8 separated by junctions
    for q in range(0, 9):
        for flip in (False, True):
            seq = list(path[::-1]) if flip else list(path)
            pos = 0
            partial: tuple[int, ...] = ()
            if q:
                partial = tuple(seq[:q])
                pos = q
                if pos >= n or deg[seq[pos]] != 2:
                    continue
                pos += 1          # junction after the partial
                junctions = [seq[q]]
            else:
                junctions = []
            runs = []
            ok = True
            while pos < n:
                run = seq[pos:pos + 8]
                if len(run) != 8:
                    ok = False
                    break
                runs.append(tuple(run))
                pos += 8
                if pos < n:
                    if deg[seq[pos]] != 2:
                        ok = False
                        break
                    junctions.append(seq[pos])
                    pos += 1
            if ok and runs:
                return runs, junctions, partial
    raise ValueError("derived path does not segment into prime runs")


def _peel_appendix(g: P2Graph, t: InducedSubtree
                   ) -> tuple[InducedSubtree, tuple[int, ...]]:
    """If the derived tree is not a path, remove the smallest branch
    hanging off a derived tile b (at most 3 internal tiles, plus their
    leaves) whose removal leaves a caterpillar; the first such branch
    wins a tie, in order of b, then of b's neighbours.  Removing a branch
    changes no other tile's derived degree, so the rest is a caterpillar
    exactly when b has derived degree 3 and every other tile of derived
    degree 3 or more lies in the branch."""
    internals, leaves = set(t.internals), set(t.leaves)
    adj = {v: [u for u in g.neighbors(v) if u in internals]
           for v in t.internals}
    forks = [v for v in t.internals if len(adj[v]) >= 3]
    if not forks:
        return t, ()
    best: set[int] | None = None
    for b in forks:
        if len(adj[b]) != 3:
            continue
        for start in adj[b]:
            # walk the branch hanging off b through start
            comp = {start}
            stack = [start]
            while stack and len(comp) <= 3:
                for u in adj[stack.pop()]:
                    if u != b and u not in comp:
                        comp.add(u)
                        stack.append(u)
            if len(comp) > 3 or any(v != b and v not in comp for v in forks):
                continue
            # the branch's internals and their leaves
            app = comp.union(u for v in comp for u in g.neighbors(v)
                             if u in leaves)
            if best is None or len(app) < len(best):
                best = app
    if best is None:
        raise ValueError("no removable appendix makes the tree a "
                         "caterpillar")
    return (induced_subtree(g, set(t.tiles) - best),
            tuple(sorted(best)))


def prime_chain(pc: PrimeCaterpillar) -> CaterpillarChain:
    """The one-prime chain of pc: its overlay path runs flank, home,
    flank (flanks in `locate_prime` order)."""
    f1, f2 = pc.flanking_stars
    return CaterpillarChain(tree=pc.tree, primes=(pc,), graft_tiles=(),
                            star_chain=(f1, pc.home_star, f2))


def grafted(c: CaterpillarChain, pc: PrimeCaterpillar, tj: int,
            tree: InducedSubtree) -> CaterpillarChain:
    """The growth step: chain c grown at its last end by prime pc,
    grafted at tile tj into tree.  pc must be homed at c's outer flank
    star and flank c's last home; appends pc, tj and pc's other flank."""
    end = c.primes[-1].home_star
    f1, f2 = pc.flanking_stars
    if pc.home_star != c.star_chain[-1] or end not in (f1, f2):
        raise ValueError("consecutive primes are not grafted along "
                         "flanking edges")
    return replace(c, tree=tree, primes=c.primes + (pc,),
                   graft_tiles=c.graft_tiles + (tj,),
                   star_chain=c.star_chain + (f2 if f1 == end else f1,))


def _fold(primes: Sequence[PrimeCaterpillar], links: Sequence[int],
          tree: InducedSubtree) -> CaterpillarChain:
    """Primes in path order, joined at the link tiles, grown one prime
    at a time from the first, whose outer flank points away from the
    second prime's home."""
    c = prime_chain(primes[0])
    if len(primes) > 1 and c.star_chain[0] == primes[1].home_star:
        c = c.reversed()
    for pc, tj in zip(primes[1:], links):
        c = grafted(c, pc, tj, tree)
    return c


def decompose(t: InducedSubtree, p: Patch, g: P2Graph,
              sg: StarGraph) -> CaterpillarChain:
    """Decompose a fully leafed tree into grafted primes, an optional
    partial prime at one end, and an optional small appendix.

    The three possible outcomes mirror the structure theorem: a (sub)
    prime caterpillar alone, a chain of grafted primes with at most one
    partial, or such a chain with an appendix, a branch of at most 3
    internal tiles and their leaves (`_peel_appendix`).  The paper bounds
    an appendix by six tiles; on the optima of orders 19 to 22 of small
    sun and star patches, appendices have 2 to 5 tiles, 1 to 3 of them
    internal.
    """
    if leaf_count(t) != leaf_function_formula(t.order):
        raise ValueError("tree is not fully leafed for its order")
    core, appendix = _peel_appendix(g, t)
    path = internal_chain(g, core)
    runs, junctions, partial = _segment_tree(core, path)

    # grow each 8-run back to a located prime: the run plus every leaf
    # of the core next to it, private or a shared junction tile, which
    # reconstitutes an order 17/18 prime
    leaves = set(core.tiles) - set(path) | set(junctions)
    primes = []
    for run in runs:
        ext = set(run).union(u for v in run for u in g.neighbors(v)
                             if u in leaves)
        primes.append(locate_prime(induced_subtree(g, ext), p, g, sg))

    # primes come out of segmentation in path order; a partial's
    # junction comes first and links no two primes
    c = _fold(primes, junctions[1:] if partial else junctions, t)
    return ordered(replace(c, tree=t, graft_tiles=tuple(junctions),
                           partial=partial, appendix=appendix))


def chain_from_primes(trees: Sequence[InducedSubtree], p: Patch,
                      g: P2Graph, sg: StarGraph) -> CaterpillarChain:
    """The chain of prime trees given in chain order, consecutive ones
    sharing exactly one tile: the trees are grafted first, then each is
    located once and the chain grown through them, in `ordered`
    reading.  Equals `decompose` of the grafted tree (tested)."""
    acc = trees[0]
    links = []
    for nxt in trees[1:]:
        shared = set(acc.tiles) & set(nxt.tiles)
        if len(shared) != 1:
            raise ValueError("consecutive primes must share exactly one "
                             "tile")
        links.append(shared.pop())
        acc = graft(g, acc, nxt, links[-1])
    return ordered(_fold([locate_prime(t, p, g, sg) for t in trees], links,
                         acc))


# ---------------------------------------------------------------------------
# words and forbidden patterns
# ---------------------------------------------------------------------------

def chain_word(c: CaterpillarChain, sg: StarGraph) -> str:
    """The chain's color word: the vertex colors of the overlay path
    including both flanks (over RGB); an uncolorable one is named by path
    position and center.  The angle word is `CaterpillarChain.angle_word`."""
    out = []
    for k, center in enumerate(c.star_chain):
        i = sg.index.get(center)
        if i is None or sg.vertices[i].color is None:
            raise ValueError(f"star chain vertex {k} at {center!r} missing "
                             f"from the colored star graph")
        out.append(sg.vertices[i].color)
    return "".join(out)


#: angle-word templates whose presence excludes a bi-infinite extension:
#: two consecutive sharp turns, and the capes 2 and 3 (an angle-4 or
#: angle-6 prime pinched between two angle-4 primes).  Cape 4 (8 between
#: two 4s) is the one pinched pattern that does extend.
CAPE_WORDS = {2: "444", 3: "464", 4: "484"}


@dataclass(frozen=True)
class ChainViolation:
    kind: str
    detail: str
    start: int


def forbidden_patterns(c: CaterpillarChain) -> list[ChainViolation]:
    """All patterns that exclude extension to a bi-infinite caterpillar:
    consecutive 4,4 angles, any class-1 prime, and capes 2 and 3."""
    return word_violations([pc.class_id for pc in c.primes], c.angle_word())


def word_violations(class_ids: Sequence[int], w: str
                    ) -> list[ChainViolation]:
    """The forbidden patterns of a chain given by its primes' class ids
    and its angle word, in the order forbidden_patterns reports them."""
    out: list[ChainViolation] = []
    for i in range(len(w) - 1):
        if w[i] == w[i + 1] == "4":
            out.append(ChainViolation("angle-pair",
                                      "consecutive 4,4 angles", i))
    for i, cid in enumerate(class_ids):
        if cid == 1:
            out.append(ChainViolation("class-1", "prime of class 1", i))
    for cape in (2, 3):
        pat = CAPE_WORDS[cape]
        for i in range(len(w) - len(pat) + 1):
            if w[i:i + len(pat)] == pat:
                out.append(ChainViolation(
                    f"cape-{cape}", f"cape {cape} pattern {pat}", i))
    return out
