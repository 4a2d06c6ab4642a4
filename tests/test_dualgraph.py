"""Dual graph construction against a pairwise oracle."""
import hashlib

import pytest

from p2flis.dualgraph import P2Graph, build_dual, interior_tiles
from p2flis.formats import read_graph, write_graph
from p2flis.geometry import (DART, KITE, SEED_NAMES, Tile, inflate, make_patch,
                             seed_patch)
from p2flis.ring import PHI_ZETA, ZERO, ZETA_POW


def oracle_adjacent(t1, t2) -> bool:
    """Independent pairwise test: some side of t1 equals some side of t2."""
    e1 = [{a.coeffs, b.coeffs} for a, b in t1.edges()]
    e2 = [{a.coeffs, b.coeffs} for a, b in t2.edges()]
    return any(x == y for x in e1 for y in e2)


@pytest.mark.parametrize("name", SEED_NAMES)
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_matches_pairwise_oracle(name, level):
    p = inflate(seed_patch(name), level)
    g = build_dual(p)
    for i in range(len(p.tiles)):
        for j in range(i + 1, len(p.tiles)):
            assert g.has_edge(i, j) == oracle_adjacent(p.tiles[i], p.tiles[j])


def test_dual_digests():
    # adjacency and symmetries of the level-7 sun and star (digests taken
    # from the implementation that keyed sides by frozensets of corners)
    got = {}
    for name in ("sun", "star"):
        g = build_dual(inflate(seed_patch(name), 7))
        text = [" ".join(map(str, a)) + "\n" for a in g.adj]
        text += ["sym " + " ".join(map(str, q)) + "\n" for q in g.symmetries]
        got[name] = hashlib.sha256("".join(text).encode()).hexdigest()
    assert got == {
        "sun": "768c2550f053df6b7321125f9a06184f5731c6d14ca73e8bd7f76db142121e7c",
        "star": "332da364b13745364110fea346d934b330feaa8bf8f826198054df009e93bca1",
    }


def test_edge_vectors_differ_mod_2():
    # build_dual keys a side by its doubled midpoint alone: sides with one
    # key have edge vectors e and f with f - e even, which of the 20 edge
    # vectors only e and -e are
    vectors = ZETA_POW + PHI_ZETA
    for e in vectors:
        for f in vectors:
            even = all((x - y) % 2 == 0 for x, y in zip(e.coeffs, f.coeffs))
            assert even == (f == e or f == -e)


def test_repeated_and_overlapping_tiles():
    # a repeated tile shares all four sides with its copy, and a kite and
    # a dart on one anchor share two: each lists the other once
    kite = Tile(KITE, ZERO, 0)
    assert build_dual(make_patch([kite, kite])).adj == ((1,), (0,))
    assert build_dual(make_patch([kite, Tile(DART, ZERO, 0)])).adj \
        == ((1,), (0,))
    # a third tile on a side raises
    with pytest.raises(ValueError, match="^patch has an edge shared by "
                       "more than two tiles$"):
        build_dual(make_patch([kite, kite, Tile(KITE, ZERO, 2)]))


@pytest.mark.parametrize("other", [
    Tile(KITE, ZETA_POW[1], 3),  # its tip inside the first kite's long side
    Tile(KITE, ZETA_POW[1], 0),  # long sides overlapping in part
    Tile(KITE, -ZETA_POW[1], 5),  # long sides on one line, apart
])
def test_partial_contact_is_no_edge(other):
    p = make_patch([Tile(KITE, ZERO, 0), other])
    assert not oracle_adjacent(*p.tiles)
    assert build_dual(p).adj == ((), ())


def test_sun_dual_is_a_five_cycle():
    g = build_dual(seed_patch("sun"))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(i) == 2 for i in range(5))
    # connected single cycle: walk it
    seen, cur, prev = {0}, 0, -1
    for _ in range(4):
        nxt = [x for x in g.neighbors(cur) if x != prev]
        prev, cur = cur, nxt[0]
        seen.add(cur)
    assert seen == set(range(5))


def test_star_dual_is_a_five_cycle():
    g = build_dual(seed_patch("star"))
    assert g.n == 5 and g.m == 5
    assert all(g.degree(i) == 2 for i in range(5))


@pytest.mark.parametrize("name", SEED_NAMES)
def test_degrees_bounded_by_four(name):
    g = build_dual(inflate(seed_patch(name), 4))
    assert all(g.degree(i) <= 4 for i in range(g.n))


def test_interior_tiles():
    p = inflate(seed_patch("sun"), 3)
    g = build_dual(p)
    inner = interior_tiles(g)
    assert len(inner) > 0
    assert all(g.degree(i) == 4 for i in inner)
    assert all(g.degree(i) < 4 for i in range(g.n) if i not in inner)


def test_interior_fraction_grows():
    fractions = []
    for level in (2, 3, 4):
        p = inflate(seed_patch("sun"), level)
        g = build_dual(p)
        fractions.append(len(interior_tiles(g)) / g.n)
    assert fractions[0] < fractions[1] < fractions[2]


def test_deterministic_and_sorted():
    p = inflate(seed_patch("star"), 3)
    assert build_dual(p) == build_dual(p)
    g = build_dual(p)
    assert all(list(a) == sorted(a) for a in g.adj)


def test_degree_four_neighborhoods_never_independent():
    # any tile with four neighbors has at least one adjacent pair among
    # them; this is what caps induced-tree degrees at 3
    for name in ("sun", "star"):
        g = build_dual(inflate(seed_patch(name), 5))
        for v in interior_tiles(g):
            nb = g.neighbors(v)
            assert any(g.has_edge(a, b) for ai, a in enumerate(nb)
                       for b in nb[ai + 1:]), v


@pytest.mark.parametrize("name", ["sun", "star"])
@pytest.mark.parametrize("level", range(7))
def test_symmetries_are_automorphisms(name, level):
    # build_dual attaches the patch's symmetries without checking them;
    # an isometry mapping tiles onto tiles maps shared edges onto shared
    # edges, and this checks that it does
    g = build_dual(inflate(seed_patch(name), level))
    assert len(g.symmetries) == 10
    assert g.symmetries[0] == tuple(range(g.n))
    edges = set(g.edges())
    for q in g.symmetries:
        assert sorted(q) == list(range(g.n))
        assert {tuple(sorted((q[a], q[b]))) for a, b in edges} == edges


def test_symmetries_stay_out_of_equality_and_format():
    g = build_dual(inflate(seed_patch("star"), 3))
    h = read_graph(write_graph(g))
    assert h.symmetries == () and len(g.symmetries) == 10
    assert h == g and hash(h) == hash(g)
    assert write_graph(h) == write_graph(g)
    assert "symmetries" not in repr(g)
