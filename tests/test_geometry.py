"""Tiles, substitution, and patch validation."""
import hashlib
import math
import random
import time
import tracemalloc
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2flis import geometry
from p2flis.geometry import (CORNER_SLOTS, DART, HALF_DART, HALF_KITE, KITE,
                             SEED_NAMES, VERTEX_COLOR, HalfTile, Patch, Tile,
                             deflate_half, inflate, make_patch, merge_halves,
                             patch_symmetries, seed_patch, validate_patch)
from p2flis.ring import (PHI, Cyclo10, PHI_ZETA, ZERO, ZETA_POW, cross_sign,
                         dot_sign, sq_abs)

coeff = st.integers(min_value=-8, max_value=8)
point = st.builds(Cyclo10, coeff, coeff, coeff, coeff)
halftile = st.builds(HalfTile, st.sampled_from((HALF_KITE, HALF_DART)), point,
                     st.integers(min_value=0, max_value=9),
                     st.sampled_from((1, -1)))


# -- prototile tables, confirmed against independent exact reductions -------

def interior_angles(outline) -> list[int]:
    """Interior angles of a simple polygon in units of 36 degrees (exact
    coordinates, measured numerically and snapped; all P2 angles are
    multiples of 36 so the snap is safe)."""
    n = len(outline)
    pts = [complex(p) for p in outline]
    ccw = _signed_area(pts) > 0
    out = []
    for i in range(n):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
        ang = (cmath_phase(a - b) - cmath_phase(c - b)) % (2 * math.pi)
        if not ccw:
            ang = 2 * math.pi - ang
        k = round(ang / (math.pi / 5))
        assert abs(ang - k * math.pi / 5) < 1e-9
        out.append(k)
    return out


def cmath_phase(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _signed_area(pts) -> float:
    s = 0.0
    for i in range(len(pts)):
        a, b = pts[i], pts[(i + 1) % len(pts)]
        s += a.real * b.imag - a.imag * b.real
    return s / 2


def test_kite_outline_table():
    k = Tile(KITE, ZERO, 0)
    assert k.outline == (ZERO, PHI_ZETA[1], PHI_ZETA[0], PHI_ZETA[9])
    # squared side lengths phi+1, 1, 1, phi+1 (pairs a + b*phi)
    sides = [sq_abs(b - a) for a, b in k.edges()]
    assert sides == [(1, 1), (1, 0), (1, 0), (1, 1)]
    # angles 72, 72, 144, 72
    assert interior_angles(k.outline) == [2, 2, 4, 2]


def test_dart_outline_table():
    d = Tile(DART, ZERO, 0)
    assert d.outline == (ZERO, PHI_ZETA[1], ZETA_POW[0], PHI_ZETA[9])
    sides = [sq_abs(b - a) for a, b in d.edges()]
    assert sides == [(1, 1), (1, 0), (1, 0), (1, 1)]
    # angles 72, 36, 216 (reflex), 36
    assert interior_angles(d.outline) == [2, 1, 6, 1]


def test_half_tile_shapes():
    hk = HalfTile(HALF_KITE, ZERO, 0, 1)
    t, b, c = hk.vertices
    assert [sq_abs(x) for x in (b - t, c - b, t - c)] == [(1, 1), (1, 0), (1, 1)]
    hd = HalfTile(HALF_DART, ZERO, 0, 1)
    t, b, c = hd.vertices
    assert [sq_abs(x) for x in (b - t, c - b, t - c)] == [(1, 1), (1, 0), (1, 0)]


@given(st.sampled_from((KITE, DART)), point, st.integers(0, 9))
def test_halves_cover_tile_corners(kind, p, r):
    tile = Tile(kind, p, r)
    h1, h2 = tile.halves()
    assert {v.coeffs for v in h1.vertices} | {v.coeffs for v in h2.vertices} \
        == {v.coeffs for v in tile.outline}
    assert h1.area2() == h2.area2()


# -- substitution -----------------------------------------------------------

def _inside_or_on(p, tri):
    a, b, c = tri
    s = cross_sign(b - a, c - a)
    return all(cross_sign(v - u, p - u) in (0, s)
               for u, v in ((a, b), (b, c), (c, a)))


@given(halftile)
@settings(max_examples=120)
def test_deflation_partitions_parent(h):
    kids = deflate_half(h)
    assert len(kids) == (3 if h.kind == HALF_KITE else 2)
    parent = [v.times_phi() for v in h.vertices]
    area = (0, 0)
    for k in kids:
        a2 = k.area2()
        area = (area[0] + a2[0], area[1] + a2[1])
        for v in k.vertices:
            assert _inside_or_on(v, parent)
    a, b = h.area2()
    assert area == (a + b, a + 2 * b)     # (a + b*phi) * phi**2


def test_substitution_respects_symmetry():
    base = HalfTile(HALF_KITE, Cyclo10(1, 2, 0, -1), 3, 1)
    for k in range(10):
        assert sorted(map(repr, deflate_half(base.rotated(k)))) \
            == sorted(repr(c.rotated(k)) for c in deflate_half(base))
    assert sorted(map(repr, deflate_half(base.reflected()))) \
        == sorted(repr(c.reflected()) for c in deflate_half(base))


def test_single_kite_inflation():
    p = inflate(seed_patch("kite"))
    assert sorted(t.kind for t in p.tiles) == [KITE, KITE]
    assert len(p.halves) == 2
    assert all(h.kind == HALF_DART for h in p.halves)
    assert p.scale_exp == 1


def test_single_dart_inflation():
    p = inflate(seed_patch("dart"))
    assert [t.kind for t in p.tiles] == [KITE]
    assert len(p.halves) == 2
    assert all(h.kind == HALF_DART for h in p.halves)


def test_sun_half_tile_counts():
    expect = [(10, 0), (20, 10), (50, 30), (130, 80), (340, 210), (890, 550)]
    p = seed_patch("sun")
    for lvl, (nk, nd) in enumerate(expect):
        kinds = [h.kind for _, h in p.all_halves()]
        assert (kinds.count(HALF_KITE), kinds.count(HALF_DART)) == (nk, nd), lvl
        p = inflate(p)


def test_count_recurrence_all_seeds():
    for name in SEED_NAMES:
        p = seed_patch(name)
        for _ in range(5):
            kinds = [h.kind for _, h in p.all_halves()]
            a, b = kinds.count(HALF_KITE), kinds.count(HALF_DART)
            p = inflate(p)
            kinds = [h.kind for _, h in p.all_halves()]
            assert (kinds.count(HALF_KITE), kinds.count(HALF_DART)) \
                == (2 * a + b, a + b)


def test_area_conserved_up_to_scale():
    for name in SEED_NAMES:
        a = seed_patch(name).area2()
        p = inflate(seed_patch(name), 4)
        for _ in range(8):
            a = (a[1], a[0] + a[1])       # (a + b*phi) * phi
        assert p.area2() == a


def test_inflation_is_deterministic():
    a = inflate(seed_patch("sun"), 3)
    b = inflate(seed_patch("sun"), 3)
    assert a == b
    assert [t for t in a.tiles] == sorted(a.tiles, key=lambda t:
                                          (t.anchor.coeffs, t.kind, t.rot))


def test_merge_rebuilds_whole_tiles():
    tiles = [Tile(KITE, Cyclo10(2, 1, 0, 0), 4), Tile(DART, ZERO, 7)]
    halves = [h for t in tiles for h in t.halves()]
    rebuilt, loose = merge_halves(halves)
    assert sorted(rebuilt, key=repr) == sorted(tiles, key=repr)
    assert loose == []
    some, rest = merge_halves(halves[:-1])
    assert len(some) == 1 and len(rest) == 1


# -- validation -------------------------------------------------------------

@pytest.mark.parametrize("name", SEED_NAMES)
@pytest.mark.parametrize("level", [0, 2, 4])
def test_generated_patches_are_valid(name, level):
    assert validate_patch(inflate(seed_patch(name), level)) == []


def test_mismatched_long_edge_glue():
    # two kites sharing a long edge tip-to-side: one matching-rule breach
    p = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, PHI_ZETA[1], 5)])
    v = validate_patch(p)
    assert [x.kind for x in v] == ["matching_rule"]
    assert v[0].owners == ("t0", "t1")


def test_aligned_long_edge_glue_is_valid():
    # tip-to-tip long edge contact, as in the sun: no violations
    p = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, ZERO, 2)])
    assert validate_patch(p) == []


def test_overlap_detected():
    p = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, ZERO, 1)])
    assert any(x.kind == "overlap" for x in validate_patch(p))


def test_duplicate_detected():
    p = Patch((Tile(KITE, ZERO, 0), Tile(KITE, ZERO, 0)), (), 0)
    v = validate_patch(p)
    assert any(x.detail == "duplicate piece" for x in v)


def test_partial_edge_detected():
    # second kite's tip lands strictly inside the first kite's long edge
    p = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, ZETA_POW[1], 3)])
    assert any(x.kind == "partial_edge" for x in validate_patch(p))


def test_loose_half_keeps_patch_valid():
    p = inflate(seed_patch("kite"), 2)
    assert len(p.halves) > 0
    assert validate_patch(p) == []


def oracle_pieces(patch: Patch) -> list[tuple[str, HalfTile]]:
    """(owner, half-tile) of every piece, tiles' halves first."""
    pieces = [(f"t{i}", h) for i, t in enumerate(patch.tiles)
              for h in t.halves()]
    return pieces + [(f"h{j}", h) for j, h in enumerate(patch.halves)]


def oracle_edges(pieces) -> dict[frozenset, list]:
    """Every half-tile edge as its set of ends -> (owner, long, short or
    axis, corner -> (tile kind, slot)) of each piece that has it."""
    whole = {HALF_KITE: KITE, HALF_DART: DART}
    edges = defaultdict(list)
    for own, h in pieces:
        t, b, c = h.vertices
        slot = {v: (whole[h.kind], s) for v, s in zip(h.vertices, h.slots)}
        for label, u, v in (("long", t, b), ("short", b, c), ("axis", c, t)):
            edges[frozenset((u, v))].append((own, label, slot))
    return edges


def validation_oracle(patch: Patch) -> list[tuple[str, tuple[str, ...]]]:
    """(kind, owners) of every defect, by testing all pairs of points,
    edges and half-tiles with the generic ring predicates."""
    pieces = oracle_pieces(patch)
    out = set()
    first = {}
    for own, h in pieces:
        key = (h.kind, h.tip, h.rot, h.chirality)
        if key in first:
            out.add(("overlap", tuple(sorted({first[key], own}))))
        first.setdefault(key, own)
    at = defaultdict(set)
    for own, h in pieces:
        for v in h.vertices:
            at[v].add(own)
    edges = oracle_edges(pieces)
    segs = []
    for e, entries in edges.items():
        eowners = tuple(sorted({o for o, _, _ in entries}))
        segs.append((tuple(e), set(eowners)))
        if len(entries) > 2:
            out.add(("overlap", eowners))
        elif len(entries) == 2:
            (o1, l1, s1), (o2, l2, s2) = entries
            if o1 == o2 or l1 == l2 == "axis":
                continue
            if "axis" in (l1, l2):
                out.add(("overlap", eowners))
            elif any(VERTEX_COLOR[s1[v]] != VERTEX_COLOR[s2[v]] for v in e):
                out.add(("matching_rule", eowners))
    for p, powners in at.items():
        for (a, b), eowners in segs:
            if (p not in (a, b) and cross_sign(b - a, p - a) == 0
                    and dot_sign(p - a, b - a) > 0
                    and dot_sign(p - b, a - b) > 0):
                out.add(("partial_edge", tuple(sorted(powners | eowners))))
        for own, h in pieces:
            a, b, c = h.vertices
            s = cross_sign(b - a, c - a)
            if p not in (a, b, c) and all(
                    cross_sign(v - u, p - u) == s
                    for u, v in ((a, b), (b, c), (c, a))):
                out.add(("overlap", tuple(sorted(powners | {own}))))
    for i, ((a, b), o1) in enumerate(segs):
        for (c, d), o2 in segs[i + 1:]:
            if (cross_sign(b - a, c - a) * cross_sign(b - a, d - a) < 0
                    and cross_sign(d - c, a - c) * cross_sign(d - c, b - c)
                    < 0):
                out.add(("overlap", tuple(sorted(o1 | o2))))
    return sorted(out)


def test_direction_table_matches_ring_predicates():
    # points on and beside the line of each of the 20 edge vectors u,
    # at multiples a + b*phi of u on both sides of 0, 1 and phi
    a0 = Cyclo10(3, -1, 2, 5)
    for u in ZETA_POW + PHI_ZETA:
        entry = geometry._DIRECTION[u.coeffs]
        for x in (Cyclo10(a) + PHI * b for a in range(-3, 4)
                  for b in range(-2, 3)):
            for off in (ZERO,) + ZETA_POW:
                p = a0 + u * x + off
                side = cross_sign(u, p - a0)
                assert geometry._side(entry[0], a0.coeffs, p.coeffs) == side
                inside = (side == 0 and dot_sign(p - a0, u) > 0
                          and dot_sign(p - a0 - u, -u) > 0)
                assert geometry._inside_edge(entry, a0.coeffs,
                                             p.coeffs) == inside


def found(patch: Patch) -> list[tuple[str, tuple[str, ...]]]:
    return sorted({(v.kind, v.owners) for v in validate_patch(patch)})


T_JUNCTION = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, ZETA_POW[1], 3)])

HAND_BUILT = [
    make_patch([Tile(KITE, ZERO, 0), Tile(KITE, PHI_ZETA[1], 5)]),
    make_patch([Tile(KITE, ZERO, 0), Tile(KITE, ZERO, 1)]),
    T_JUNCTION,
    make_patch([Tile(DART, ZERO, 0), Tile(KITE, ZETA_POW[2], 7),
                Tile(KITE, PHI_ZETA[3], 4)]),
    Patch((Tile(KITE, ZERO, 0), Tile(KITE, ZERO, 0)), (), 0),
    # a kite over the sun's center; a dart burying corners of two kites
    make_patch(seed_patch("sun").tiles + (Tile(KITE, Cyclo10(1, 0, 0, 1), 6),)),
    make_patch(seed_patch("sun").tiles + (Tile(DART, Cyclo10(2), 3),)),
]


def turned(p: Patch, k: int) -> Patch:
    """p rotated by k * 36 degrees, ids kept."""
    return Patch(tuple(t.rotated(k) for t in p.tiles),
                 tuple(h.rotated(k) for h in p.halves), p.scale_exp)


def perturbed(seed: int, seeds: tuple[str, ...] = ("sun", "star"),
              level: int = 1) -> Patch:
    """One of seeds at the given level, a sun or star at level 1 by
    default, with a few tiles moved, turned, swapped or added."""
    rng = random.Random(seed)
    base = inflate(seed_patch(rng.choice(seeds)), level)
    tiles = list(base.tiles)
    steps = ZETA_POW + PHI_ZETA
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(tiles))
        t = tiles[j]
        op = rng.randrange(4)
        if op == 0:
            tiles[j] = t.translated(rng.choice(steps))
        elif op == 1:
            tiles[j] = Tile(t.kind, t.anchor, rng.randrange(10))
        elif op == 2:
            tiles[j] = Tile(KITE if t.kind == DART else DART, t.anchor, t.rot)
        else:
            tiles.append(Tile(rng.choice((KITE, DART)),
                              t.anchor + rng.choice(steps), rng.randrange(10)))
    return make_patch(tiles, base.halves, base.scale_exp)


def test_validation_agrees_with_all_pairs_oracle(l6):
    # every rotation, so that each of the 20 edge directions is met;
    # level-3 patches spread their edges over many hash cells
    patches = [turned(p, k) for p in HAND_BUILT for k in range(10)]
    patches += [inflate(seed_patch("kite"), 2)]
    patches += [perturbed(s) for s in range(6)]
    patches += [perturbed(s, ("kite", "dart"), 3) for s in range(8)]
    verdicts = [found(p) for p in patches]
    assert verdicts == [validation_oracle(p) for p in patches]
    kinds = {k for v in verdicts for k, _ in v}
    assert kinds == {"overlap", "partial_edge", "matching_rule"}
    assert not all(verdicts)
    assert validate_patch(l6.p) == []


def test_violation_at_a_corner_of_many_pieces():
    # the sun's centre, a corner of all ten of its half-kites, lies
    # strictly inside the long edge of a kite laid across it; corner
    # owners are gathered only once a violation names them
    p = make_patch(seed_patch("sun").tiles + (Tile(KITE, -ZETA_POW[1], 0),))
    want = validation_oracle(p)
    assert ("partial_edge", ("t0", "t1", "t2", "t3", "t4", "t5")) in want
    assert found(p) == want


def test_screen_lets_through_as_many_exact_tests(monkeypatch):
    # the cells and boxes that screen candidates decide how many exact
    # predicates run; on the level-5 sun these are the counts of the float
    # screen that exact cells replaced
    calls = Counter()
    for fn in ("_side", "_inside_edge"):
        def counted(*args, fn=fn, exact=getattr(geometry, fn)):
            calls[fn] += 1
            return exact(*args)
        monkeypatch.setattr(geometry, fn, counted)
    assert validate_patch(inflate(seed_patch("sun"), 5)) == []
    assert calls == {"_side": 2768, "_inside_edge": 220}


def test_validation_working_set(l6):
    # validation keeps flat integer tables, without per-corner owner sets
    # or per-edge tuples: on the level-6 sun (3,710 half-tiles) its
    # tracemalloc peak stays under 3.4 MB (2.5 MB); with those it was 8.1
    tracemalloc.start()
    try:
        assert validate_patch(l6.p) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6


def digest_corpus() -> list[Patch]:
    """Perturbed suns, stars, kites and darts at levels 1 and 3, and
    every rotation of the hand-built patches."""
    return ([perturbed(s, ("sun", "star", "kite", "dart"), level)
             for level in (1, 3) for s in range(40)]
            + [turned(p, k) for p in HAND_BUILT for k in range(10)])


def both_ends_disagree(patch: Patch) -> int:
    """Outline edges shared by two pieces whose corner colors disagree at
    both ends."""
    return sum(len(entries) == 2 and entries[0][0] != entries[1][0]
               and "axis" not in (entries[0][1], entries[1][1])
               and all(VERTEX_COLOR[entries[0][2][v]]
                       != VERTEX_COLOR[entries[1][2][v]] for v in e)
               for e, entries in oracle_edges(oracle_pieces(patch)).items())


def test_violation_lists_digest():
    # whole violation lists, details included, in the lines p2flis
    # validate prints; a matching-rule detail names one corner, which on
    # an edge whose colors disagree at both ends is the one the first
    # piece's edge lists first as a frozenset (digest taken from the
    # implementation that keyed edges by frozensets of corners)
    patches = digest_corpus()
    text = "".join(
        "".join(f"{i} {v.kind} {' '.join(v.owners)}: {v.detail}\n"
                for v in validate_patch(p)) + f"{i} end\n"
        for i, p in enumerate(patches))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8dfae3e58b213a18d69095f496a5967ee719ae65c2e696d93b4eff683b74fa5b")
    assert sum(map(both_ends_disagree, patches)) >= 10


@pytest.mark.parametrize("shift", [Cyclo10(10**12), Cyclo10(10**30),
                                   Cyclo10(-10**30, 10**30 // 7, 3, 10**29)])
def test_validation_translation_invariant(shift):
    # every verdict is exact, and the grid floors that bucket points are
    # taken relative to the patch, so a patch far from the origin keeps
    # its verdicts
    assert found(T_JUNCTION) == [("partial_edge", ("t0", "t1"))]
    for p in HAND_BUILT + [perturbed(s) for s in range(4)]:
        moved = Patch(tuple(t.translated(shift) for t in p.tiles),
                      tuple(h.translated(shift) for h in p.halves),
                      p.scale_exp)
        assert found(moved) == found(p)


def on_cell_line(d: Cyclo10) -> bool:
    """The point d from the first tip has an integer x or y = 0, so it
    lies on a line of validate_patch's cells: 2x = a + b*phi with (a, b)
    below, and cells are one unit wide in x."""
    a, b = (d + d.conj()).real_pair()
    return (b == 0 and a % 2 == 0) or d.is_real


#: a kite far from the hand-built patches; listed first, its tip is the
#: point that validate_patch takes grid floors from
FAR = Tile(KITE, Cyclo10(-5), 5)


def test_validation_on_cell_lines():
    # Moving a whole patch moves none of its points across cells, since
    # floors are taken from its first tip.  Listing FAR first and moving
    # each hand-built patch by the 20 edge vectors L * zeta**k puts its
    # points at new offsets from that tip, on cell lines for every
    # patch: the T junction's defect point zeta lands on a cell corner
    # under -zeta.  FAR meets no other tile, so the verdicts are the
    # all-pairs oracle's with tile ids one higher.
    assert on_cell_line(ZETA_POW[1] + ZETA_POW[6] - FAR.anchor)
    for p in HAND_BUILT:
        want = sorted((kind, tuple(sorted(f"t{int(o[1:]) + 1}"
                                          for o in owners)))
                      for kind, owners in validation_oracle(p))
        assert want
        lines = 0
        for v in ZETA_POW + PHI_ZETA:
            moved = Patch((FAR, *(t.translated(v) for t in p.tiles)), (),
                          p.scale_exp)
            assert found(moved) == want
            lines += sum(on_cell_line(c - FAR.anchor)
                         for t in moved.tiles[1:] for c in t.outline)
        assert lines
    # level-2 kites and darts with loose halves, bucketed from their own
    # first tip
    patches = [perturbed(s, ("kite", "dart"), 2) for s in range(20)]
    verdicts = [found(p) for p in patches]
    assert verdicts == [validation_oracle(p) for p in patches]
    assert sum(map(bool, verdicts)) >= 10


def test_validation_of_far_apart_tiles():
    # Cells are exact grid floors of each corner's offset, so every box
    # is filed in at most 3 x 3 cells however far apart the tiles are,
    # and a dense part keeps its own cells when one tile lies far away.
    for e in (16, 30):
        p = make_patch([Tile(KITE, ZERO, 0), Tile(KITE, Cyclo10(10**e), 7)])
        assert found(p) == validation_oracle(p) == []
    sun = inflate(seed_patch("sun"), 5)
    dense_far = make_patch([*sun.tiles, Tile(KITE, Cyclo10(10**16), 0)],
                           sun.halves, sun.scale_exp)
    start = time.perf_counter()
    assert validate_patch(dense_far) == []
    assert time.perf_counter() - start < 1.0
    shift = Cyclo10(10**30, -3, 10**30 // 7, 1)
    for p in HAND_BUILT:
        moved = Patch((FAR, *(t.translated(shift) for t in p.tiles)), (),
                      p.scale_exp)
        want = validation_oracle(moved)
        assert want and found(moved) == want


# -- exact symmetries -------------------------------------------------------

def origin_symmetries(p: Patch) -> list[tuple[int, ...]]:
    """Tile permutations of the 20 rotations and reflections about the
    origin that map p onto itself, through Tile.rotated/Tile.reflected
    (the seeds are centred on the origin)."""
    index = {t: i for i, t in enumerate(p.tiles)}
    out = []
    for k in range(10):
        for moved in ([t.rotated(k) for t in p.tiles],
                      [t.reflected().rotated(k) for t in p.tiles]):
            if all(t in index for t in moved):
                out.append(tuple(index[t] for t in moved))
    return out


def translated(p: Patch, d: Cyclo10) -> Patch:
    return make_patch([t.translated(d) for t in p.tiles],
                      [h.translated(d) for h in p.halves], p.scale_exp)


@pytest.mark.parametrize("name", SEED_NAMES)
@pytest.mark.parametrize("level", [0, 1, 3, 5])
def test_symmetries_match_origin_isometries(name, level):
    # D5 on the sun and star, a mirror on the kite and dart; a lone kite
    # or dart is fixed by its mirror, so the permutation repeats
    p = inflate(seed_patch(name), level)
    group = patch_symmetries(p)
    assert group[0] == tuple(range(len(p)))
    assert len(group) == (10 if name in ("sun", "star") else 2)
    assert sorted(group) == sorted(origin_symmetries(p))
    assert all(sorted(q) == list(range(len(p))) for q in group)


@pytest.mark.parametrize("shift", [
    Cyclo10(*(random.Random(seed).randint(-20, 20) for _ in range(4)))
    for seed in (1, 2)] + [Cyclo10(10**12, -3, 7, 10**12 + 1)])
def test_symmetries_translation_invariant(shift):
    # the permutations do not depend on where the patch sits; tile ids
    # follow the order of anchor coefficients, which translation keeps
    for name in ("sun", "star", "kite"):
        p = inflate(seed_patch(name), 4)
        assert patch_symmetries(translated(p, shift)) == patch_symmetries(p)


def test_symmetries_broken_by_an_off_axis_tile():
    p = inflate(seed_patch("sun"), 3)
    group = patch_symmetries(p)
    # a tile on no mirror axis has ten distinct images
    off = next(i for i in range(len(p)) if len({q[i] for q in group}) == 10)
    q = make_patch(p.tiles[:off] + p.tiles[off + 1:], p.halves, p.scale_exp)
    assert patch_symmetries(q) == (tuple(range(len(q))),)
    assert patch_symmetries(make_patch([])) == ((),)
    twice = make_patch([Tile(KITE, ZERO, 0)] * 2)
    assert patch_symmetries(twice) == ((0, 1),)


# -- matching-rule colors are forced by the substitution --------------------

def test_vertex_colors_rederived_from_patches():
    whole = {HALF_KITE: KITE, HALF_DART: DART}
    labels = sorted(VERTEX_COLOR)
    parent = {l: l for l in labels}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for name in SEED_NAMES:
        p = inflate(seed_patch(name), 4)
        at_vertex = defaultdict(set)
        for _, h in p.all_halves():
            for v, slot in zip(h.vertices, h.slots):
                at_vertex[v.coeffs].add((whole[h.kind], slot))
        for group in at_vertex.values():
            first, *others = sorted(group)
            for o in others:
                ra, rb = find(first), find(o)
                if ra != rb:
                    parent[ra] = rb

    classes = defaultdict(set)
    for l in labels:
        classes[find(l)].add(l)
    derived = {frozenset(c) for c in classes.values()}
    by_color = defaultdict(set)
    for label, col in VERTEX_COLOR.items():
        by_color[col].add(label)
    assert derived == {frozenset(c) for c in by_color.values()}


def test_corner_slots_consistent():
    for kind in (KITE, DART):
        t = Tile(kind, ZERO, 0)
        for slot, p in zip(CORNER_SLOTS[kind], t.outline):
            assert t.corner(slot) == p
