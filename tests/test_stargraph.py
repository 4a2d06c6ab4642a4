"""Star/sun detection, overlay graph, faces, and coloring tests.

Detection is checked against an independent corner-incidence oracle that
never looks at tile anchors.  The overlay's structure is pinned by exact
facts: the shared edge length is phi^8 (squared), sun centers become star
centers one level up under scaling by phi, and the red stars of level k
are precisely the phi^2-images of all stars of level k-2.  The faces of
the overlay's straight-line embedding are walked here, from an exact
rotation system, to check Euler's formula and the face shapes.
"""
from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from p2flis.dualgraph import P2Graph, build_dual
from p2flis.geometry import DART, KITE, Patch, inflate, make_patch, seed_patch
from p2flis.ring import (Cyclo10, cross_area2, cross_sign, imag_sign,
                         quad_cmp, quad_sign, real_sign, sq_abs)
from p2flis.stargraph import (
    Sun,
    StarGraph,
    StarVertex,
    build_star_graph,
    color_star_vertices,
    detect_stars_and_suns,
)


def level(name: str, k: int):
    p = inflate(seed_patch(name), k)
    return p, build_dual(p)


def detect(name: str, k: int):
    p, g = level(name, k)
    return p, g, *detect_stars_and_suns(p, g)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_seed_patches():
    p, g = level("star", 0)
    stars, suns = detect_stars_and_suns(p, g)
    assert len(stars) == 1 and len(suns) == 0
    assert stars[0].center == Cyclo10(0, 0, 0, 0)
    assert stars[0].star_tiles == (0, 1, 2, 3, 4)
    assert stars[0].color is None
    p, g = level("sun", 0)
    stars, suns = detect_stars_and_suns(p, g)
    assert len(stars) == 0 and len(suns) == 1
    assert suns[0].kite_tiles == (0, 1, 2, 3, 4)


def corner_incidence_oracle(p: Patch):
    """Count 5-dart and 5-kite tip meetings from raw corner coordinates,
    without using the anchor bookkeeping of the detector."""
    at_point: dict = {}
    for i, t in enumerate(p.tiles):
        for slot in ("tip", "side1", "far", "reflex", "side2"):
            try:
                c = t.corner(slot)
            except ValueError:
                continue
            at_point.setdefault(c.coeffs, []).append((i, t.kind, slot))
    stars = suns = 0
    for _, inc in at_point.items():
        tips = [(i, kind) for i, kind, slot in inc if slot == "tip"]
        if len(tips) == 5:
            kinds = {kind for _, kind in tips}
            if kinds == {DART}:
                stars += 1
            elif kinds == {KITE}:
                suns += 1
    return stars, suns


@pytest.mark.parametrize("k", [2, 3, 4])
def test_detection_matches_corner_oracle(k):
    p, g, stars, suns = detect("sun", k)
    o_stars, o_suns = corner_incidence_oracle(p)
    assert (len(stars), len(suns)) == (o_stars, o_suns)


def test_known_counts_by_level():
    counts = {}
    for k in range(2, 7):
        _, _, stars, suns = detect("sun", k)
        counts[k] = (len(stars), len(suns))
    assert counts == {2: (0, 1), 3: (1, 5), 4: (5, 16), 5: (16, 40),
                      6: (40, 111)}
    # suns turn into stars one level down the substitution
    for k in range(3, 7):
        assert counts[k][0] == counts[k - 1][1]


def test_deflation_maps_suns_to_stars_exactly():
    prev = detect("sun", 4)
    for k in (5, 6):
        cur = detect("sun", k)
        sun_images = {s.center.times_phi().coeffs for s in prev[3]}
        star_centers = {s.center.coeffs for s in cur[2]}
        assert sun_images == star_centers
        star_images = {s.center.times_phi().coeffs for s in prev[2]}
        sun_centers = {s.center.coeffs for s in cur[3]}
        assert star_images <= sun_centers
        prev = cur


def test_star_darts_form_dual_cycle():
    p, g, stars, _ = detect("sun", 5)
    assert stars
    for s in stars:
        ids = s.star_tiles
        assert len(ids) == 5
        assert all(p.tiles[i].kind == DART for i in ids)
        for a in ids:
            deg_in = sum(1 for b in ids if b != a and g.has_edge(a, b))
            assert deg_in == 2


def test_detection_isometry_invariant():
    p, g, stars, suns = detect("sun", 3)
    shift = Cyclo10(2, -1, 0, 3)
    moved = make_patch([t.rotated(3).translated(shift) for t in p.tiles],
                       scale_exp=p.scale_exp)
    g2 = build_dual(moved)
    stars2, suns2 = detect_stars_and_suns(moved, g2)
    assert len(stars2) == len(stars) and len(suns2) == len(suns)
    want = {s.center.rotated(3).coeffs for s in stars} or set()
    want = {(Cyclo10(*c) + shift).coeffs for c in want}
    assert {s.center.coeffs for s in stars2} == want


def test_mismatched_graph_rejected():
    p, g, _, _ = detect("sun", 3)
    q, h = level("sun", 4)
    with pytest.raises(ValueError):
        detect_stars_and_suns(p, h)


# ---------------------------------------------------------------------------
# overlay graph
# ---------------------------------------------------------------------------

def test_no_stars_is_an_error():
    p, g = level("sun", 0)
    stars, _ = detect_stars_and_suns(p, g)
    with pytest.raises(ValueError):
        build_star_graph(p, stars)


def test_single_star_graph():
    p, g = level("star", 0)
    stars, _ = detect_stars_and_suns(p, g)
    sg = build_star_graph(p, stars)
    assert sg.n == 1 and sg.edges == () and sg.d0 is None


@pytest.mark.parametrize("k", [5, 6, 7])
def test_edge_length_is_phi_to_the_eighth(k):
    p, g, stars, _ = detect("sun", k)
    sg = build_star_graph(p, stars)
    assert sg.d0 == (13, 21)  # phi^8 = 13 + 21 phi
    for a, b in sg.edges:
        d = sq_abs(sg.vertices[a].center - sg.vertices[b].center)
        assert d == sg.d0


@pytest.mark.parametrize("shift", [10**14, 10**16])
def test_overlay_translation_invariant(shift):
    # centers are filed by exact grid floors relative to the first one,
    # so far from the origin every edge is still found
    p, g, stars, _ = detect("sun", 5)
    d = Cyclo10(shift, 3, -shift // 7, 1)
    moved = Patch(tuple(t.translated(d) for t in p.tiles),
                  tuple(h.translated(d) for h in p.halves), p.scale_exp)
    stars2, _ = detect_stars_and_suns(moved, build_dual(moved))
    sg, sg2 = build_star_graph(p, stars), build_star_graph(moved, stars2)
    assert sg2.edges == sg.edges and len(sg.edges) == 15
    assert sg2.d0 == sg.d0 == (13, 21)


@pytest.mark.parametrize("shift", [10**14, 10**16])
def test_overlay_of_far_apart_suns(shift):
    # two level-5 suns far apart in one patch: each keeps its 15 edges
    p = inflate(seed_patch("sun"), 5)
    d = Cyclo10(shift)
    both = make_patch([*p.tiles, *(t.translated(d) for t in p.tiles)],
                      [*p.halves, *(h.translated(d) for h in p.halves)],
                      p.scale_exp)
    stars, _ = detect_stars_and_suns(both, build_dual(both))
    sg = build_star_graph(both, stars)
    assert len(sg.edges) == 30 and sg.d0 == (13, 21)


small = st.integers(min_value=-6, max_value=6)
spread = st.builds(lambda c, e: Cyclo10(*c) * 10**e,
                   st.tuples(small, small, small, small),
                   st.integers(min_value=0, max_value=20))


@given(st.lists(spread, min_size=2, max_size=12, unique=True),
       st.lists(st.tuples(small, small, small, small), max_size=16))
def test_overlay_matches_all_pairs_oracle(centers, offsets):
    # clusters of nearby centers at spread-out places: the cells grow
    # until the nearest pairs are settled, and give every pair the
    # all-pairs exact comparison gives
    pts = list(dict.fromkeys(
        [*centers, *(centers[0] + Cyclo10(*o) for o in offsets)]))
    verts = [StarVertex(c, ()) for c in pts]
    dist = {(i, j): sq_abs(pts[i] - pts[j])
            for i in range(len(pts)) for j in range(i + 1, len(pts))}
    d0 = min(dist.values(), key=functools.cmp_to_key(quad_cmp))
    sg = build_star_graph(make_patch([]), verts)
    assert sg.d0 == d0
    assert sg.edges == tuple(sorted(k for k, d in dist.items() if d == d0))


def test_overlay_shape_by_level():
    p, g, stars, _ = detect("sun", 6)
    sg = build_star_graph(p, stars)
    assert (sg.n, len(sg.edges)) == (40, 45)
    degs = Counter(len(neighbors(sg, i)) for i in range(sg.n))
    assert max(degs) <= 5


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def neighbors(sg, i):
    out = [b if a == i else a for a, b in sg.edges if i in (a, b)]
    return tuple(sorted(out))


def _angle_cmp(u, v):
    """Exact counterclockwise angular order of nonzero vectors from 0."""
    def half(w):
        s = imag_sign(w)
        if s > 0:
            return 0
        if s < 0:
            return 1
        return 0 if real_sign(w) > 0 else 1

    hu, hv = half(u), half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = cross_sign(u, v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def _rotation_system(sg):
    """Neighbors of each vertex sorted counterclockwise (exact)."""
    order = {}
    for i in range(sg.n):
        nbs = list(neighbors(sg, i))
        ci = sg.vertices[i].center

        def cmp(a, b):
            return _angle_cmp(sg.vertices[a].center - ci,
                              sg.vertices[b].center - ci)

        nbs.sort(key=functools.cmp_to_key(cmp))
        order[i] = nbs
    return order


def faces(sg):
    """All faces of the straight-line embedding, outer face included.

    Each face is the cyclic vertex sequence of one orbit of the standard
    next-edge rule: after arriving u -> v, leave v along the neighbor
    that follows u clockwise in v's rotation, which traces every face
    once (bounded ones counterclockwise).
    """
    rot = _rotation_system(sg)
    pos = {i: {u: k for k, u in enumerate(rot[i])} for i in rot}
    out = []
    used = set()
    for a in range(sg.n):
        for b in rot[a]:
            if (a, b) in used:
                continue
            face = []
            u, v = a, b
            while (u, v) not in used:
                used.add((u, v))
                face.append(u)
                nxt = rot[v][(pos[v][u] - 1) % len(rot[v])]
                u, v = v, nxt
            out.append(face)
    return out


def face_area2(sg, face):
    """Twice the signed face area, exact, in units of sin(pi/5)."""
    a = b = 0
    for k in range(len(face)):
        u = sg.vertices[face[k]].center
        v = sg.vertices[face[(k + 1) % len(face)]].center
        da, db = cross_area2(u, v)
        a += da
        b += db
    return a, b


def bounded_faces(sg):
    """Faces with positive signed area (drops outer and degenerate)."""
    return [f for f in faces(sg) if quad_sign(*face_area2(sg, f)) > 0]


def classify_face(sg, face):
    """(edge count, reflex corner count), distinguishing the overlay
    shapes: hexagons have no reflex corners, boats and stars do."""
    m = len(face)
    reflex = 0
    for k in range(m):
        a = sg.vertices[face[(k - 1) % m]].center
        b = sg.vertices[face[k]].center
        c = sg.vertices[face[(k + 1) % m]].center
        if cross_sign(b - a, c - b) < 0:
            reflex += 1
    return m, reflex


def face_census(sg):
    """Histogram of classify_face over the bounded faces."""
    return Counter(classify_face(sg, f) for f in bounded_faces(sg))


def test_face_census_shapes():
    # (edges, reflex corners): hexagon, boat, and star shapes only
    p, g, stars, _ = detect("sun", 6)
    sg = build_star_graph(p, stars)
    assert face_census(sg) == {(8, 2): 5, (10, 5): 1}
    p, g, stars, _ = detect("sun", 7)
    sg = build_star_graph(p, stars)
    assert face_census(sg) == {(6, 0): 15, (8, 2): 10, (10, 5): 5}


@pytest.mark.parametrize("k", [6, 7])
def test_euler_formula(k):
    p, g, stars, _ = detect("sun", k)
    sg = build_star_graph(p, stars)
    all_faces = faces(sg)
    # connected straight-line embedding: V - E + F = 2
    assert sg.n - len(sg.edges) + len(all_faces) == 2
    negative = [f for f in all_faces if quad_sign(*face_area2(sg, f)) < 0]
    assert len(negative) == 1  # exactly one outer face
    assert len(bounded_faces(sg)) == len(all_faces) - 1


def test_tree_overlay_has_no_bounded_faces():
    p, g, stars, _ = detect("sun", 5)
    sg = build_star_graph(p, stars)
    assert len(sg.edges) == sg.n - 1
    assert bounded_faces(sg) == []


# ---------------------------------------------------------------------------
# colors
# ---------------------------------------------------------------------------

def test_isolated_star_is_red():
    p, g = level("star", 0)
    stars, suns = detect_stars_and_suns(p, g)
    sg = color_star_vertices(build_star_graph(p, stars), suns, g)
    assert sg.vertices[0].color == "R"


def test_three_adjacent_suns_rejected():
    # a hand-built star whose darts 0, 1 and 2 each share an edge with a
    # kite of a different sun; the message carries no category prefix,
    # which the CLI adds
    adj = [[1, 4, 5], [0, 2, 6], [1, 3, 7], [2, 4], [3, 0], [0], [1], [2]]
    g = P2Graph(tuple(map(tuple, adj)))
    sg = StarGraph((StarVertex(Cyclo10(0), (0, 1, 2, 3, 4)),), ())
    suns = [Sun(Cyclo10(k), (5 + k,)) for k in range(3)]
    with pytest.raises(ValueError) as err:
        color_star_vertices(sg, suns, g)
    assert str(err.value) == ("star at Cyclo10(0, 0, 0, 0) is adjacent to "
                              "3 suns (more than 2)")
    assert color_star_vertices(sg, suns[:2], g).vertices[0].color == "B"


def colored_overlay(k: int) -> StarGraph:
    p, g, stars, suns = detect("sun", k)
    return color_star_vertices(build_star_graph(p, stars), suns, g)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_sun_counts_within_range(k):
    sg = colored_overlay(k)
    for v in sg.vertices:
        assert v.color in ("R", "G", "B")


def test_color_histograms():
    assert Counter(v.color for v in colored_overlay(6).vertices) == \
        Counter(B=25, G=10, R=5)
    assert Counter(v.color for v in colored_overlay(7).vertices) == \
        Counter(B=60, G=35, R=16)


def test_histogram_frequencies_stable_between_levels():
    a = Counter(v.color for v in colored_overlay(6).vertices)
    b = Counter(v.color for v in colored_overlay(7).vertices)
    ta, tb = sum(a.values()), sum(b.values())
    for c in "RGB":
        assert abs(a[c] / ta - b[c] / tb) < 0.15


def test_red_stars_are_images_of_older_stars():
    """A star center two levels old always ends up red: its neighborhood
    deflates into dart-heavy structure with no complete sun adjacent."""
    for lo, hi in ((4, 6), (5, 7)):
        _, _, stars_lo, _ = detect("sun", lo)
        sg_hi = colored_overlay(hi)
        images = {s.center.times_phi().times_phi().coeffs for s in stars_lo}
        reds = {v.center.coeffs for v in sg_hi.vertices if v.color == "R"}
        assert images == reds
