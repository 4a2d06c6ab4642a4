"""Prime caterpillar classification, grafting, chains, and angle words.

The class table is re-derived here from a fresh exhaustive enumeration of
the order-18 optima on a level-6 sun patch: exactly six canonical
internal-chain signatures occur, the census per class is pinned, and the
geometric claims (one home star per prime, flank distance, angle per
class, strict side alternation, two junction configurations) are checked
on every witness or a deterministic sample.

The package places each prime's home star, flanks and side with its class
frame alone.  The oracles for those facts live in this module and never
read the frame: `home_star_of` finds the one star the internal chain
touches, `prime_side` and `angle_of` sum tile outlines around the home,
and `graft_configuration` reads the derived path around a junction.
"""
from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from itertools import combinations

import pytest

from p2flis.caterpillar import (
    ANGLE_OF_CLASS,
    CAPE_WORDS,
    CLASS_RAYS,
    CLASS_SIGNATURES,
    CaterpillarChain,
    PrimeCaterpillar,
    chain_from_primes,
    chain_word,
    class_frame,
    classify_prime,
    decompose,
    derive,
    forbidden_patterns,
    graft,
    internal_chain,
    locate_prime,
    tiles_from_signature,
    _placement_of,
    _placements,
    _shape,
    _shapes,
)
from p2flis.dualgraph import build_dual
from p2flis.flis import Budget, enumerate_flis, induced_subtree, \
    leaf_count, leaf_function_formula
from p2flis.geometry import make_patch, inflate, seed_patch
from p2flis.inflation_lab import chains_at_star, complete_prime, \
    find_prime_chains
from p2flis.ring import Cyclo10, cross_sign, dot_sign, sq_abs
from p2flis.stargraph import build_star_graph, detect_stars_and_suns


@pytest.fixture(scope="module")
def ctx(l6):
    return l6


@pytest.fixture(scope="module")
def census6(ctx):
    """The first completion of every census chain of the level-6 sun."""
    return [next(complete_prime(ctx.g, chain))
            for _, _, chain in find_prime_chains(ctx.p, ctx.g, ctx.sg)]


def _one_tile_pairs(trees):
    """Index pairs (i, j), i < j, of trees sharing exactly one tile."""
    holders = defaultdict(list)
    for i, t in enumerate(trees):
        for x in t.tiles:
            holders[x].append(i)
    shared = Counter(pair for ids in holders.values()
                     for pair in combinations(ids, 2))
    return sorted(pair for pair, n in shared.items() if n == 1)


# ---------------------------------------------------------------------------
# caterpillar shape predicates
# ---------------------------------------------------------------------------

def is_caterpillar(g, t):
    """True when the derived tree is a path (or empty)."""
    return all(d <= 2 for d in derive(g, t).degrees)


def test_primes_are_caterpillars_with_8_chain(ctx):
    for t in ctx.w18[::29]:
        assert is_caterpillar(ctx.g, t)
        chain = internal_chain(ctx.g, t)
        assert len(chain) == 8
        assert set(chain) == set(t.internals)
        # consecutive chain tiles really are dual neighbours
        for a, b in zip(chain, chain[1:]):
            assert ctx.g.has_edge(a, b)


def test_derive_of_path_is_shorter_path(ctx):
    t = ctx.w18[0]
    d = derive(ctx.g, t)
    assert d.order == 8
    assert sorted(d.tiles) == sorted(t.internals)


def test_internal_chain_rejects_branching_tree():
    p = inflate(seed_patch("sun"), 4)
    g = build_dual(p)
    # grow a tripod: a degree>=3 vertex, three neighbours, and one more
    # step on each arm, so three internals meet at a point
    for v in range(g.n):
        nb = sorted(g.neighbors(v))
        if len(nb) < 3:
            continue
        arms = []
        used = {v, *nb[:3]}
        for a in nb[:3]:
            ext = [u for u in g.neighbors(a)
                   if u not in used
                   and sum(1 for w in g.neighbors(u) if w in used) == 1]
            if not ext:
                break
            arms.append(ext[0])
            used.add(ext[0])
        if len(arms) != 3:
            continue
        try:
            t = induced_subtree(g, used)
        except ValueError:
            continue
        if sorted(t.internals) != sorted([v] + nb[:3]):
            continue
        assert not is_caterpillar(g, t)
        with pytest.raises(ValueError):
            internal_chain(g, t)
        return
    pytest.skip("no tripod found at this level")


# ---------------------------------------------------------------------------
# signatures and the class table
# ---------------------------------------------------------------------------

def test_exactly_six_signatures_rederived(ctx):
    sigs = {_reading_reference(_chain_tiles(ctx, t))[0] for t in ctx.w18}
    assert sigs == set(CLASS_SIGNATURES)


def test_class_census_level6(ctx):
    assert Counter(ctx.classes) == {1: 105, 2: 540, 3: 60, 4: 400,
                                    5: 240, 6: 25}
    chains = {}
    for t, c in zip(ctx.w18, ctx.classes):
        chains.setdefault(frozenset(t.internals), c)
    assert Counter(chains.values()) == {1: 105, 2: 270, 3: 60, 4: 200,
                                        5: 120, 6: 25}


def _chain_tiles(ctx, t):
    return [ctx.p.tiles[i] for i in internal_chain(ctx.g, t)]


def _reading_reference(tiles):
    """The canonical reading of a tile sequence from whole tiles, as
    (signature, mirrored, the reading's first tile): the least signature
    over both directions and both mirror images, the first such reading
    on a tie.  Each reading's tiles are reflected with Tile.reflected,
    each anchor delta turned with Cyclo10.rotated."""
    best = None
    for seq in (tiles, tiles[::-1]):
        for refl in (False, True):
            read = [t.reflected() for t in seq] if refl else seq
            sig = [read[0].kind]
            for a, b in zip(read, read[1:]):
                sig.append((b.kind, (b.rot - a.rot) % 10,
                            (b.anchor - a.anchor).rotated(-a.rot).coeffs))
            if best is None or tuple(sig) < best[0]:
                best = (tuple(sig), refl, seq[0])
    return best


@pytest.mark.parametrize("seed", ["sun", "star"])
def test_placement_matches_tile_reading(ctx, star6, seed):
    # _placement_of against the tile reading of the internal chain, its
    # signature's class and that class's frame: every completion of the
    # level-6 census, the same tree one leaf short, and on the sun the
    # order-18 corpus
    p, g, sg = (ctx.p, ctx.g, ctx.sg) if seed == "sun" else star6
    trees = [] if seed == "star" else list(ctx.w18)
    for _, _, chain in find_prime_chains(p, g, sg):
        for t in complete_prime(g, chain):
            trees += [t, induced_subtree(g, set(t.tiles) - {t.leaves[0]})]
    want: dict = {}
    mirrored = Counter()
    for t in trees:
        key = frozenset(t.internals)
        if key not in want:
            sig, refl, first = _reading_reference(
                [p.tiles[i] for i in internal_chain(g, t)])
            cid = CLASS_SIGNATURES[sig]
            want[key] = (cid, *class_frame(cid, refl, first.rot,
                                           first.anchor))
            mirrored[refl] += 1
        assert _placement_of(t, p, g) == want[key]
    assert len(mirrored) == 2
    assert {w[0] for w in want.values()} == set(CLASS_RAYS)


def test_one_shape_per_class_placement():
    # 20 placements per class; the mirror-symmetric classes 1, 4 and 6
    # meet each shape twice, and every placement reads back as itself
    assert Counter(cid for cid, *_ in _shapes().values()) == \
        {1: 10, 2: 20, 3: 20, 4: 10, 5: 20, 6: 10}
    for cid, placed, rays, side in _placements():
        shape, least = _shape(placed)
        assert _shapes()[shape] == (cid, -Cyclo10(*least), rays, side)


def test_signature_roundtrip_through_tiles():
    for sig in CLASS_SIGNATURES:
        tiles = tiles_from_signature(sig)
        assert len(tiles) == 8
        p = make_patch(tiles, scale_exp=0)   # note: reorders tiles
        where = {(t.kind, t.anchor.coeffs, t.rot): i
                 for i, t in enumerate(p.tiles)}
        chain = [where[(t.kind, t.anchor.coeffs, t.rot)] for t in tiles]
        assert _reading_reference([p.tiles[i] for i in chain])[0] == sig


def test_classification_is_isometry_invariant(ctx):
    def remap(patch, images):
        where = {(t.kind, t.anchor.coeffs, t.rot): i
                 for i, t in enumerate(patch.tiles)}
        return [where[(t.kind, t.anchor.coeffs, t.rot)] for t in images]

    shift = Cyclo10(1, -2, 0, 2)
    moved_tiles = [t.rotated(7).translated(shift) for t in ctx.p.tiles]
    moved = make_patch(moved_tiles, scale_exp=ctx.p.scale_exp)
    g2 = build_dual(moved)
    mirror_tiles = [t.reflected() for t in ctx.p.tiles]
    mirrored = make_patch(mirror_tiles, scale_exp=ctx.p.scale_exp)
    g3 = build_dual(mirrored)
    for t in ctx.w18[::61]:
        c = classify_prime(t, ctx.p, ctx.g)
        ids2 = remap(moved, [moved_tiles[i] for i in t.tiles])
        assert classify_prime(induced_subtree(g2, ids2), moved, g2) == c
        ids3 = remap(mirrored, [mirror_tiles[i] for i in t.tiles])
        assert classify_prime(induced_subtree(g3, ids3),
                              mirrored, g3) == c


def test_one_leaf_short_same_class(ctx):
    for t in ctx.w18[::101]:
        c = classify_prime(t, ctx.p, ctx.g)
        leaf = next(i for i, d in zip(t.tiles, t.degrees) if d == 1)
        t17 = induced_subtree(ctx.g, [i for i in t.tiles if i != leaf])
        assert t17.order == 17
        assert leaf_count(t17) == leaf_function_formula(17)
        assert classify_prime(t17, ctx.p, ctx.g) == c


def test_classify_rejects_wrong_shapes(ctx):
    t = ctx.w18[0]
    leaves = [i for i, d in zip(t.tiles, t.degrees) if d == 1]
    # two leaves gone: order 16 is outside the accepted range
    t16 = induced_subtree(ctx.g, [i for i in t.tiles
                                  if i not in leaves[:2]])
    with pytest.raises(ValueError):
        classify_prime(t16, ctx.p, ctx.g)
    # a bare 8-tile path has the wrong internal count
    path = induced_subtree(ctx.g, internal_chain(ctx.g, t))
    with pytest.raises(ValueError):
        classify_prime(path, ctx.p, ctx.g)


def test_classify_outcomes_on_order17_optima():
    # every order-17 optimum of the level-4 sun: a branching derived tree
    # and a path of no prime shape each keep their own error text
    p = inflate(seed_patch("sun"), 4)
    g = build_dual(p)

    def outcome(t):
        try:
            return classify_prime(t, p, g)
        except ValueError as e:
            return str(e)

    trees = enumerate_flis(g, 17, budget=Budget(max_nodes=None,
                                                witness_cap=None))
    assert Counter(map(outcome, trees)) == {
        "derived tree is not a path": 1880,
        "internal chain does not match any of the six prime shapes": 1570,
        1: 20, 2: 460, 3: 120, 4: 500, 5: 420, 6: 60}


# ---------------------------------------------------------------------------
# location: home star, flanks, rays
# ---------------------------------------------------------------------------

def home_star_of(chain, g, stars):
    """Index of the unique star whose darts belong to or share a dual
    edge with the internal chain; error if there is not exactly one.
    Independent of the class frame, which places the home directly."""
    star_of_tile = {}
    for si, s in enumerate(stars):
        for ti in s.star_tiles:
            star_of_tile[ti] = si
    hit = set()
    for i in chain:
        if i in star_of_tile:
            hit.add(star_of_tile[i])
        for u in g.neighbors(i):
            if u in star_of_tile:
                hit.add(star_of_tile[u])
    if len(hit) != 1:
        raise ValueError(f"internal chain touches {len(hit)} complete "
                         f"stars, expected exactly 1")
    return hit.pop()


def test_home_star_unique_per_prime(ctx):
    for t in ctx.w18[::17]:
        chain = internal_chain(ctx.g, t)
        si = home_star_of(chain, ctx.g, ctx.stars)
        assert 0 <= si < len(ctx.stars)


def test_home_star_rejects_two_star_chain(ctx):
    # the 16 internals of a grafted pair touch two stars
    a, b, tj = _sample_pair(ctx)
    u = graft(ctx.g, a, b, tj)
    with pytest.raises(ValueError):
        home_star_of(internal_chain(ctx.g, u), ctx.g, ctx.stars)


def test_flanks_at_overlay_distance(ctx):
    d0 = {sq_abs(Cyclo10(*r)) for rays in CLASS_RAYS.values()
          for r in rays}
    assert d0 == {(13, 21)}   # squared overlay edge length
    for t in ctx.w18[::13]:
        pc = locate_prime(t, ctx.p, ctx.g, ctx.sg)
        assert pc.class_id == classify_prime(t, ctx.p, ctx.g)
        assert pc.angle_class == ANGLE_OF_CLASS[pc.class_id]
        for f in pc.flanking_stars:
            assert sq_abs(f - pc.home_star) == (13, 21)


def test_locate_prime_agrees_with_classify_and_rays(ctx):
    # the home from the stars the chain touches, the flanks from the
    # template match at that home: neither reads the chain's signature
    matches: dict = {}
    rows = []
    for t, cid in zip(ctx.w18, ctx.classes):
        pc = locate_prime(t, ctx.p, ctx.g, ctx.sg)
        assert pc.class_id == classify_prime(t, ctx.p, ctx.g) == cid
        chain = internal_chain(ctx.g, t)
        home = ctx.sg.vertices[home_star_of(chain, ctx.g,
                                            ctx.sg.vertices)].center
        if home not in matches:
            matches[home] = {frozenset(ids): (c, flanks)
                             for c, ids, flanks, _
                             in chains_at_star(ctx.p, home)}
        assert pc.home_star == home
        assert (cid, pc.flanking_stars) == matches[home][frozenset(chain)]
        rows.append((cid, home.coeffs,
                     tuple(f.coeffs for f in pc.flanking_stars)))
    # class, home star and flanks of all 1370 level-6 primes
    assert len(rows) == 1370
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "9eb114e46279813b05375dd8e6f128f5a6fdd01de162a1bc0b472e6d57154ec9"


def test_locate_prime_rejects_incomplete_home_star(ctx):
    # drop one dart of the home star that the prime does not use: the
    # prime keeps its shape, but its home is no longer a complete star
    for t in ctx.w18:
        home = ctx.stars[home_star_of(internal_chain(ctx.g, t), ctx.g,
                                      ctx.stars)]
        spare = [i for i in home.star_tiles if i not in t.tiles]
        if spare:
            break
    kept = [u for i, u in enumerate(ctx.p.tiles) if i != spare[0]]
    p = make_patch(kept, scale_exp=ctx.p.scale_exp)
    g = build_dual(p)
    sg = build_star_graph(p, detect_stars_and_suns(p, g)[0])
    ids = [p.tile_lookup[(u.kind, u.anchor.coeffs, u.rot)]
           for u in (ctx.p.tiles[i] for i in t.tiles)]
    tree = induced_subtree(g, sorted(ids))
    assert classify_prime(tree, p, g) == classify_prime(t, ctx.p, ctx.g)
    with pytest.raises(ValueError):
        locate_prime(tree, p, g, sg)


# ---------------------------------------------------------------------------
# exact angles and sides from tile outlines
# ---------------------------------------------------------------------------

def angle_tenths(u, v):
    """Counterclockwise angle from u to v in units of pi/5 (0..9);
    requires both vectors to point in lattice directions so the angle is
    an exact multiple."""
    for k in range(10):
        w = u.rotated(k)
        if cross_sign(w, v) == 0 and dot_sign(w, v) > 0:
            return k
    raise ValueError("angle between vectors is not a multiple of pi/5")


def _in_ccw_sector(a, b, z):
    """Is direction z strictly inside the sector swept counterclockwise
    from a to b?  All vectors nonzero; boundary rays count as outside."""
    cab = cross_sign(a, b)
    if cab > 0:
        return cross_sign(a, z) > 0 and cross_sign(z, b) > 0
    if cab < 0:
        on_a = cross_sign(a, z) == 0 and dot_sign(a, z) > 0
        on_b = cross_sign(b, z) == 0 and dot_sign(b, z) > 0
        inside_comp = cross_sign(b, z) > 0 and cross_sign(z, a) > 0
        return not (inside_comp or on_a or on_b)
    if dot_sign(a, b) < 0:        # straight line, sector is a half plane
        return cross_sign(a, z) > 0
    raise ValueError("degenerate sector: rays coincide")


def _centroid4(p, i):
    o = p.tiles[i].outline
    return o[0] + o[1] + o[2] + o[3]


def _body_direction(pc, p, g):
    """Mean direction from the home star to the caterpillar body: the
    sum of centroid offsets of the twice-derived tiles.  The chain wraps
    most of the way around its star, so single tiles sit on both sides
    of any ray; their sum always points into the body's wedge."""
    a4 = pc.home_star * 4
    z = Cyclo10(0)
    for i in derive(g, pc.tree).internals:
        z = z + (_centroid4(p, i) - a4)
    return z


def prime_side(pc, prev_star, next_star, p, g):
    """Side L or R of the directed overlay path prev -> home -> next on
    which the caterpillar body lies; error if the body direction falls
    on the path itself.  Recomputed from geometry, not the class frame,
    so `PrimeCaterpillar.side` is independently checkable."""
    u = (prev_star - pc.home_star) * 4
    v = (next_star - pc.home_star) * 4
    z = _body_direction(pc, p, g)
    if _in_ccw_sector(v, u, z):
        return "L"
    if _in_ccw_sector(u, v, z):
        return "R"
    raise ValueError("caterpillar body direction lies on the overlay "
                     "path")


def angle_of(pc, sg, p, g):
    """Exact angle between the prime's two overlay edges, measured on
    the caterpillar's side, in units of pi/5.

    Requires both flanking stars to be vertices of sg (with the edges to
    the home star present); recomputed from geometry, not the class
    table, so the table is independently checkable.
    """
    if pc.home_star not in sg.index:
        raise ValueError("home star not found in star graph")
    hi = sg.index[pc.home_star]
    for f in pc.flanking_stars:
        if f not in sg.index:
            raise ValueError("flanking star not found in star graph")
        fi = sg.index[f]
        e = (min(hi, fi), max(hi, fi))
        if e not in sg.edges:
            raise ValueError("flanking edge not present in star graph")
    u = pc.flanking_stars[0] - pc.home_star
    v = pc.flanking_stars[1] - pc.home_star
    k = angle_tenths(u, v)
    z = _body_direction(pc, p, g)
    if _in_ccw_sector(u, v, z):
        return k
    if _in_ccw_sector(v, u, z):
        return 10 - k
    raise ValueError("caterpillar body direction lies on a flanking "
                     "edge")


def test_frame_side_matches_geometric_side(ctx):
    # the side each prime takes from its class frame against prime_side,
    # which sums tile outlines around the home: every level-6 optimum and
    # a 17-tile variant of each, the k-th dropping its (k mod 10)-th leaf
    seen = set()
    for k, (t, cid) in enumerate(zip(ctx.w18, ctx.classes)):
        drop = t.leaves[k % len(t.leaves)]
        t17 = induced_subtree(ctx.g, [i for i in t.tiles if i != drop])
        for u in (t, t17):
            pc = locate_prime(u, ctx.p, ctx.g, ctx.sg)
            assert pc.side == prime_side(pc, *pc.flanking_stars,
                                         ctx.p, ctx.g)
        seen.add((cid, _reading_reference(_chain_tiles(ctx, t))[1]))
    # all six classes, each in both mirror images
    assert seen == {(cid, refl) for cid in CLASS_RAYS
                    for refl in (False, True)}


def test_rays_subtend_the_class_angle():
    for cid, (u, v) in CLASS_RAYS.items():
        k = angle_tenths(Cyclo10(*u), Cyclo10(*v))
        assert k in (ANGLE_OF_CLASS[cid], 10 - ANGLE_OF_CLASS[cid])


def test_angle_theorem_on_checkable_witnesses(ctx):
    centers = {v.center for v in ctx.sg.vertices}
    checked = 0
    for t in ctx.w18[::7]:
        pc = locate_prime(t, ctx.p, ctx.g, ctx.sg)
        if any(f not in centers for f in pc.flanking_stars):
            continue   # flank outside the patch overlay
        try:
            k = angle_of(pc, ctx.sg, ctx.p, ctx.g)
        except ValueError:
            continue
        checked += 1
        assert k == ANGLE_OF_CLASS[pc.class_id]
    assert checked > 50


# ---------------------------------------------------------------------------
# grafting
# ---------------------------------------------------------------------------

def _graftable_pairs(ctx):
    if not hasattr(ctx, "_pairs"):
        tilesets = [set(t.tiles) for t in ctx.w18]
        out = []
        for i in range(len(ctx.w18)):
            for j in range(i + 1, len(ctx.w18)):
                inter = tilesets[i] & tilesets[j]
                if len(inter) != 1:
                    continue
                tj = next(iter(inter))
                try:
                    graft(ctx.g, ctx.w18[i], ctx.w18[j], tj)
                except ValueError:
                    continue
                out.append((i, j, tj))
        ctx._pairs = out
    return ctx._pairs


def _sample_pair(ctx):
    i, j, tj = _graftable_pairs(ctx)[0]
    return ctx.w18[i], ctx.w18[j], tj


def test_graft_produces_fully_leafed_35(ctx):
    a, b, tj = _sample_pair(ctx)
    u = graft(ctx.g, a, b, tj)
    assert u.order == 35
    assert leaf_count(u) == leaf_function_formula(35)
    assert tj in u.tiles
    # the shared tile became internal: a junction between the two runs
    assert u.degrees[u.tiles.index(tj)] == 2


def test_graft_error_cases(ctx):
    a, b, tj = _sample_pair(ctx)
    with pytest.raises(ValueError):
        graft(ctx.g, a, b, -1)              # junction not shared
    with pytest.raises(ValueError):
        graft(ctx.g, a, a, tj)              # identical trees share all
    far = next(t for t in ctx.w18 if not set(t.tiles) & set(a.tiles))
    with pytest.raises(ValueError):
        graft(ctx.g, a, far, tj)            # disjoint trees


#: tiles on each side of the shared tile in a junction's signature window
GRAFT_HALFWINDOW = 2


def graft_configuration(p, g, union, t):
    """Canonical signature of the junction: the derived-path window of
    +-GRAFT_HALFWINDOW tiles around the shared tile t.  Over all
    two-prime graftings in a patch this takes exactly two values."""
    chain = internal_chain(g, union)
    pos = chain.index(t)
    lo = max(0, pos - GRAFT_HALFWINDOW)
    window = [p.tiles[i] for i in chain[lo:pos + GRAFT_HALFWINDOW + 1]]
    return _reading_reference(window)[0]


def test_graft_census_and_two_junction_configurations(ctx):
    pairs = _graftable_pairs(ctx)
    assert len(pairs) == 2120
    confs = set()
    for i, j, tj in pairs[::5]:
        u = graft(ctx.g, ctx.w18[i], ctx.w18[j], tj)
        confs.add(graft_configuration(ctx.p, ctx.g, u, tj))
    assert len(confs) == 2


def _graft_reference(g, a, b, t):
    """Grafting by definition: t a leaf of both trees, the union built
    and checked by induced_subtree, and fully leafed."""
    if t not in a.leaves or t not in b.leaves:
        raise ValueError("not a shared leaf")
    union = induced_subtree(g, set(a.tiles) | set(b.tiles))
    if leaf_count(union) != leaf_function_formula(union.order):
        raise ValueError("union is not fully leafed")
    return union


def test_graft_agrees_with_union_oracle(ctx):
    # every pair of level-6 optima (the completions of the level-6
    # census chains) that shares exactly one tile
    grafted = refused = 0
    for i, j in _one_tile_pairs(ctx.w18):
        a, b = ctx.w18[i], ctx.w18[j]
        (t,) = set(a.tiles) & set(b.tiles)
        try:
            want = _graft_reference(ctx.g, a, b, t)
        except ValueError:
            with pytest.raises(ValueError):
                graft(ctx.g, a, b, t)
            refused += 1
            continue
        assert graft(ctx.g, a, b, t) == want
        grafted += 1
    assert grafted == len(_graftable_pairs(ctx)) == 2120
    assert refused > grafted


def test_graft_symmetric_in_arguments(ctx):
    a, b, tj = _sample_pair(ctx)
    assert graft(ctx.g, a, b, tj).tiles == graft(ctx.g, b, a, tj).tiles


# ---------------------------------------------------------------------------
# chains, decomposition, words
# ---------------------------------------------------------------------------

def _sample_triples(ctx, want=6, interior=False):
    """Deterministic chain triples (a, b, c) with b grafted to both.
    interior restricts to chains whose whole star path (flanks included)
    lies on overlay vertices, so words and colors are computable."""
    centers = {v.center for v in ctx.sg.vertices}
    pairs = _graftable_pairs(ctx)
    by_left = {}
    for i, j, tj in pairs:
        by_left.setdefault(i, []).append((j, tj))
        by_left.setdefault(j, []).append((i, tj))
    out = []
    for i, j, tj in pairs:
        for k, tk in by_left.get(j, []):
            if k == i or tk == tj:
                continue
            if set(ctx.w18[i].tiles) & set(ctx.w18[k].tiles):
                continue
            try:
                c = chain_from_primes(
                    [ctx.w18[i], ctx.w18[j], ctx.w18[k]],
                    ctx.p, ctx.g, ctx.sg)
            except ValueError:
                continue
            if interior and any(s not in centers for s in c.star_chain):
                continue
            out.append(c)
            if len(out) >= want:
                return out
    return out


def test_pair_chain_roundtrip(ctx):
    a, b, tj = _sample_pair(ctx)
    c = chain_from_primes([a, b], ctx.p, ctx.g, ctx.sg)
    assert c.order == 35 and len(c.primes) == 2
    assert len(c.star_chain) == 4
    d = decompose(c.tree, ctx.p, ctx.g, ctx.sg)
    assert d.order == c.order
    assert [pc.class_id for pc in d.primes] in \
        ([pc.class_id for pc in c.primes],
         [pc.class_id for pc in c.primes][::-1])
    assert sorted(d.tree.tiles) == sorted(c.tree.tiles)


def test_flank_of_one_prime_is_home_of_next(ctx):
    for c in _sample_triples(ctx, want=4):
        for a, b in zip(c.primes, c.primes[1:]):
            assert b.home_star in a.flanking_stars
            assert a.home_star in b.flanking_stars


def test_sides_alternate_strictly(ctx):
    for c in _sample_triples(ctx, want=6):
        seq = c.sides
        assert len(seq) == len(c.primes)
        assert set(seq) <= {"L", "R"}
        for x, y in zip(seq, seq[1:]):
            assert x != y


def test_triple_words_and_colors(ctx):
    legal = {"466", "468", "484", "486", "646", "648", "664", "666",
             "668", "684", "686", "846", "848", "864", "866"}
    triples = _sample_triples(ctx, want=4, interior=True)
    assert triples
    for c in triples:
        w = c.angle_word()
        assert len(w) == 3 and w in legal
        assert int(w[1]) == ANGLE_OF_CLASS[c.primes[1].class_id]
        col = chain_word(c, ctx.sg)
        assert len(col) == 5 and set(col) <= {"R", "G", "B"}


def test_chain_word_names_the_uncolorable_star(ctx):
    # the first order-18 optimum of the level-6 sun, which is also the
    # first witness `p2flis search --order 18` writes: its outer flank at
    # path position 0 lies outside the overlay
    c = decompose(ctx.w18[0], ctx.p, ctx.g, ctx.sg)
    with pytest.raises(ValueError, match=r"^star chain vertex 0 at "
                       r"Cyclo10\(-21, 3, -11, 16\) missing from the "
                       r"colored star graph$"):
        chain_word(c, ctx.sg)


def test_decompose_triple_restores_classes(ctx):
    for c in _sample_triples(ctx, want=3):
        d = decompose(c.tree, ctx.p, ctx.g, ctx.sg)
        assert d.order == 52 and len(d.primes) == 3
        got = [pc.class_id for pc in d.primes]
        want = [pc.class_id for pc in c.primes]
        assert got in (want, want[::-1])


def test_prime_side_is_L_or_R(ctx):
    for c in _sample_triples(ctx, want=3):
        mid = c.primes[1]
        s = prime_side(mid, c.star_chain[1], c.star_chain[3],
                       ctx.p, ctx.g)
        assert s in ("L", "R")
        flip = prime_side(mid, c.star_chain[3], c.star_chain[1],
                          ctx.p, ctx.g)
        assert flip != s


def _chain_row(c):
    """A chain as plain integers and strings, for digests."""
    return (c.tree.tiles,
            tuple((pc.class_id, pc.tree.tiles, pc.home_star.coeffs,
                   tuple(f.coeffs for f in pc.flanking_stars))
                  for pc in c.primes),
            c.graft_tiles, tuple(s.coeffs for s in c.star_chain), c.sides,
            c.partial, c.appendix)


def _path_reference(c, ctx):
    """Star chain and sides of c from its primes alone: the homes in
    order between each end prime's flank away from its neighbour's home,
    and prime_side on each triple of path stars around a home."""
    homes = [pc.home_star for pc in c.primes]
    (first,) = set(c.primes[0].flanking_stars) - {homes[1]}
    (last,) = set(c.primes[-1].flanking_stars) - {homes[-2]}
    path = (first, *homes, last)
    return path, tuple(prime_side(pc, path[k], path[k + 2], ctx.p, ctx.g)
                       for k, pc in enumerate(c.primes))


def test_growth_step_matches_decompose_on_census_pairs(ctx, census6):
    # every census pair sharing one tile, and every tenth one reversed:
    # chain_from_primes, which grows the chain from the located primes,
    # raises exactly when decompose of the grafted tree raises and
    # otherwise equals it; its overlay path and sides match a reference
    pairs = _one_tile_pairs(census6)
    pairs += [(j, i) for i, j in pairs[::10]]
    rows = []
    for i, j in pairs:
        a, b = census6[i], census6[j]
        (tj,) = set(a.tiles) & set(b.tiles)
        try:
            c = chain_from_primes([a, b], ctx.p, ctx.g, ctx.sg)
        except ValueError:
            with pytest.raises(ValueError):
                decompose(graft(ctx.g, a, b, tj), ctx.p, ctx.g, ctx.sg)
            rows.append((i, j, None))
            continue
        assert decompose(c.tree, ctx.p, ctx.g, ctx.sg) == c
        assert {pc.tree for pc in c.primes} == {a, b}
        assert c.graft_tiles == (tj,) and c.partial == c.appendix == ()
        assert c.primes[0].home_star.coeffs < c.primes[1].home_star.coeffs
        assert (c.star_chain, c.sides) == _path_reference(c, ctx)
        rows.append((i, j, _chain_row(c)))
    assert len(pairs) == 3960
    assert sum(r is not None for _, _, r in rows) == 765
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "2198b994677a189be167efe546200d068589d7300b9406bc30b06506ff4be7eb"


@pytest.fixture(scope="module")
def sun3():
    p = inflate(seed_patch("sun"), 3)
    g = build_dual(p)
    return p, g, build_star_graph(p, detect_stars_and_suns(p, g)[0])


def test_decompose_partials_and_appendices(sun3):
    # every order-19 and order-21 optimum of the level-3 sun:
    # decompositions with a partial prime or an appendix, pinned with the
    # count that raise; no appendix exceeds the paper's six tiles
    p, g, sg = sun3
    want = {19: (380, 1350, 0, 220, "fa899dde03932c3c3256a607a83ab64b"
                                    "fc764924aeeb1fac1c63704651968408"),
            21: (290, 740, 150, 140, "ca017b1d82d614da3c3ffe125a555ba5"
                                     "8c272530a0fb24ed9915cf249e715945")}
    for n, (decomposed, raising, partials, appendices, digest) \
            in want.items():
        rows, raised = [], 0
        for t in enumerate_flis(g, n, Budget(max_nodes=None,
                                              witness_cap=None)):
            try:
                c = decompose(t, p, g, sg)
            except ValueError:
                raised += 1
                continue
            assert c.tree == t
            assert {x for pc in c.primes for x in pc.tree.tiles} \
                | set(c.partial) | set(c.appendix) <= set(t.tiles)
            assert len(c.appendix) <= 6
            rows.append(_chain_row(c))
        assert (len(rows), raised) == (decomposed, raising)
        assert sum(bool(r[5]) for r in rows) == partials
        assert sum(bool(r[6]) for r in rows) == appendices
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_appendix_with_three_internal_tiles(sun3):
    # one of the 860 order-22 optima of the level-3 sun (of 32,120) whose
    # appendix has 5 tiles, 3 of them internal
    p, g, sg = sun3
    t = induced_subtree(g, (1, 2, 10, 12, 13, 22, 24, 25, 26, 32, 33, 35,
                            36, 41, 43, 44, 49, 59, 60, 70, 71, 74))
    assert leaf_count(t) == leaf_function_formula(22)
    c = decompose(t, p, g, sg)
    assert c.appendix == (1, 2, 12, 13, 22)
    assert [x for x in c.appendix if x in t.internals] == [12, 13, 22]
    assert len(c.appendix) <= 6
    assert len(c.primes) == 1 and c.partial == ()


# ---------------------------------------------------------------------------
# word grammar: capes, forbidden patterns, sea caterpillars
# ---------------------------------------------------------------------------

def test_cape_words():
    assert CAPE_WORDS == {2: "444", 3: "464", 4: "484"}


def test_forbidden_class1_flagged(ctx):
    pairs = _graftable_pairs(ctx)
    for i, j, tj in pairs:
        c = chain_from_primes([ctx.w18[i], ctx.w18[j]],
                              ctx.p, ctx.g, ctx.sg)
        kinds = {v.kind for v in forbidden_patterns(c)}
        if any(pc.class_id == 1 for pc in c.primes):
            assert "class-1" in kinds
            return
    pytest.skip("no class-1 pair at this level")


def test_clean_pair_has_no_violations(ctx):
    pairs = _graftable_pairs(ctx)
    for i, j, tj in pairs:
        c = chain_from_primes([ctx.w18[i], ctx.w18[j]],
                              ctx.p, ctx.g, ctx.sg)
        if all(pc.class_id != 1 for pc in c.primes):
            assert forbidden_patterns(c) == []
            return
    pytest.skip("no clean pair at this level")


def test_sea_caterpillars_named(ctx):
    names = {"466": "reach", "664": "reach", "666": "reach",
             "668": "reach", "866": "reach",
             "646": "bend", "686": "bend",
             "846": "spur", "648": "spur",
             "468": "turn", "864": "turn", "486": "turn",
             "684": "turn", "848": "turn",
             "484": "cape 4"}
    triples = _sample_triples(ctx, want=4, interior=True)
    assert triples
    for c in triples:
        assert c.angle_word() in names
