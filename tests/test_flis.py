"""Leaf function and FLIS search tests.

The search engine is checked against the closed-form leaf function on
known values, and against an oracle built from the definition of an
induced subtree: on small graphs (including random ones) the complete
sets of optimal witnesses must agree tile for tile.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from p2flis import flis
from p2flis.dualgraph import P2Graph, build_dual
from p2flis.flis import (
    Budget,
    BudgetExceeded,
    InducedSubtree,
    LeafRecord,
    enumerate_flis,
    induced_subtree,
    internal_degree_cap,
    is_saturated,
    leaf_count,
    leaf_function_formula,
    leaf_profile,
    overline_leaf_function,
    search_max_leaves,
    stabilize,
)
from p2flis.geometry import inflate, seed_patch
from p2flis.inflation_lab import _leaf_candidates


def graph_from_edges(n: int, edges) -> P2Graph:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return P2Graph(tuple(tuple(sorted(set(x))) for x in adj))


def cycle(n: int) -> P2Graph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> P2Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def sun_dual(level: int) -> P2Graph:
    return build_dual(inflate(seed_patch("sun"), level))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

KNOWN_VALUES = {
    0: 0, 1: 0, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4, 8: 5, 9: 5, 10: 6,
    11: 6, 12: 7, 13: 7, 14: 8, 15: 8, 16: 9, 17: 9, 18: 10, 19: 10,
    20: 10, 21: 11, 22: 11, 23: 12, 35: 18, 36: 18, 52: 26, 69: 34,
}


def test_formula_known_values():
    for n, want in KNOWN_VALUES.items():
        assert leaf_function_formula(n) == want


def test_formula_rejects_negative():
    with pytest.raises(ValueError):
        leaf_function_formula(-1)
    with pytest.raises(ValueError):
        overline_leaf_function(-3)


def test_formula_nondecreasing_and_periodic():
    vals = [leaf_function_formula(n) for n in range(3000)]
    assert vals[:3] == [0, 0, 2]  # order 2 is the first order with leaves
    assert all(b - a in (0, 1) for a, b in zip(vals[2:], vals[3:]))
    # period-17 shift adds exactly 8 once past the initial segment
    for n in range(2, 2900):
        assert vals[n + 17] == vals[n] + 8


def test_overline_is_least_linear_upper_bound():
    # re-derive the intercept: smallest c with L(n) <= (8 n + c) / 17
    need = max(17 * leaf_function_formula(n) - 8 * n for n in range(5000))
    assert need == 26
    for n in range(5000):
        ub = overline_leaf_function(n)
        assert ub == Fraction(8 * n + 26, 17)
        assert leaf_function_formula(n) <= ub
        assert (leaf_function_formula(n) == ub) == is_saturated(n)
    # any flatter slope is eventually violated
    assert leaf_function_formula(18 + 17 * 100) - leaf_function_formula(18) \
        == 8 * 100


def test_saturated_orders():
    sat = [n for n in range(130) if is_saturated(n)]
    assert sat == [18, 35, 52, 69, 86, 103, 120]
    assert all(n % 17 == 1 for n in sat)


# ---------------------------------------------------------------------------
# induced subtrees
# ---------------------------------------------------------------------------

def test_induced_subtree_accepts_trees():
    g = path(5)
    t = induced_subtree(g, [1, 2, 3])
    assert t.tiles == (1, 2, 3)
    assert t.degrees == (1, 2, 1)
    assert leaf_count(t) == 2
    assert t.leaves == (1, 3)
    assert t.internals == (2,)
    assert t.degree_of(2) == 2


def test_induced_subtree_rejects_bad_sets():
    g = cycle(5)
    with pytest.raises(ValueError):
        induced_subtree(g, range(5))  # the full cycle
    with pytest.raises(ValueError):
        induced_subtree(g, [0, 2])  # disconnected
    with pytest.raises(ValueError):
        induced_subtree(g, [0, 0, 1])
    with pytest.raises(ValueError):
        induced_subtree(g, [0, 7])


def test_singletons_and_empty():
    g = path(3)
    assert leaf_count(induced_subtree(g, [1])) == 0
    assert induced_subtree(g, []).order == 0


# ---------------------------------------------------------------------------
# degree cap certificate
# ---------------------------------------------------------------------------

def test_degree_cap_examples():
    assert internal_degree_cap(cycle(5)) == 2
    assert internal_degree_cap(path(4)) == 2
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert internal_degree_cap(star) == 3
    k4 = graph_from_edges(4, [(a, b) for a in range(4) for b in range(a)])
    assert internal_degree_cap(k4) == 1


@pytest.mark.parametrize("level", [0, 2, 4])
def test_degree_cap_of_p2_duals(level):
    cap = internal_degree_cap(sun_dual(level))
    assert cap == (2 if level == 0 else 3)


def brute_alpha(g: P2Graph, tiles) -> int:
    """Independence number of the subgraph of g induced by tiles."""
    return max(r for r in range(len(tiles) + 1)
               for sub in combinations(tiles, r)
               if not any(g.has_edge(a, b) for a, b in combinations(sub, 2)))


# ---------------------------------------------------------------------------
# search vs oracle
# ---------------------------------------------------------------------------

def brute_trees(g: P2Graph, n: int):
    """Reference enumeration: every induced subtree of order n, found by
    subset filtering (only viable for tiny graphs)."""
    out = []
    for sub in combinations(range(g.n), n):
        try:
            out.append(induced_subtree(g, sub))
        except ValueError:
            continue
    return out


def test_search_on_five_cycle():
    g = cycle(5)
    assert search_max_leaves(g, 4).max_leaves == 2
    assert search_max_leaves(g, 3).max_leaves == 2
    # the whole cycle is not a tree, so order 5 has no witness at all
    rec = search_max_leaves(g, 5)
    assert rec.max_leaves == 0 and rec.witnesses == ()


def test_search_on_triangle():
    g = cycle(3)
    rec = search_max_leaves(g, 3)
    assert rec.max_leaves == 0


def test_search_small_orders():
    g = sun_dual(1)
    assert search_max_leaves(g, 0).max_leaves == 0
    assert search_max_leaves(g, 1).max_leaves == 0
    assert search_max_leaves(g, 2).max_leaves == 2
    with pytest.raises(ValueError):
        search_max_leaves(g, g.n + 1)
    with pytest.raises(ValueError):
        search_max_leaves(g, -1)


def grown_trees(g: P2Graph, n_max: int) -> list[list[frozenset]]:
    """Reference enumeration by order 0..n_max, from the definition alone.

    An induced tree of order k + 1 is T | {v} for an induced tree T of
    order k and a vertex v outside T with exactly one neighbour in T
    (remove any leaf to see one way back).  Shares nothing with the
    spine search.
    """
    levels = [[frozenset()], [frozenset([v]) for v in range(g.n)]]
    while len(levels) <= n_max:
        grown = set()
        for t in levels[-1]:
            for v in {v for u in t for v in g.neighbors(u)} - t:
                if sum(u in t for u in g.neighbors(v)) == 1:
                    grown.add(t | {v})
        levels.append(list(grown))
    return levels[:n_max + 1]


def oracle_optima(g: P2Graph, n_max: int):
    """Per order 0..n_max: the most leaves of any grown tree, and the
    sorted tile tuples of the trees attaining it ((0, []) where no tree
    of that order exists)."""
    def leaves(t):
        return sum(sum(u in t for u in g.neighbors(v)) == 1 for v in t)

    out = []
    for trees in grown_trees(g, n_max):
        best = max(map(leaves, trees), default=0)
        out.append((best, sorted(tuple(sorted(t)) for t in trees
                                 if leaves(t) == best)))
    return out


def assert_matches_oracle(g: P2Graph, n_max: int) -> None:
    """Single-order searches, enumerate_flis, and the multi-order sweep
    of leaf_profile (values and complete witness sets) all agree with
    the oracle at every order 0..n_max."""
    oracle = oracle_optima(g, n_max)
    profile = leaf_profile(g, n_max, Budget(witness_cap=None),
                           with_witnesses=True)
    assert [r.max_leaves for r in leaf_profile(g, n_max)] == \
        [best for best, _ in oracle]
    for n, (best, tiles) in enumerate(oracle):
        rec = search_max_leaves(g, n, with_witnesses=False)
        assert rec.max_leaves == best, n
        assert profile[n].max_leaves == best, n
        if n:
            assert [w.tiles for w in enumerate_flis(g, n)] == tiles, n
            assert [w.tiles for w in profile[n].witnesses] == tiles, n


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
    return graph_from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_grown_trees_match_subset_enumeration(g):
    for n, trees in enumerate(grown_trees(g, g.n)):
        assert sorted(tuple(sorted(t)) for t in trees) == \
            sorted(t.tiles for t in brute_trees(g, n))


# graphs on which the spine walk's forced leaves cut branches whose room
# is 0 at slack > 0, where a spine tile v needs alpha(v, lost) - deg(v)
# tiles, fewer than cap - deg(v); the second has degree cap 4.  Asking
# cap - deg(v) instead, or cutting at room 1, loses optima on both
ROOM0_CAP3 = graph_from_edges(9, [
    (1, 0), (2, 1), (3, 0), (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (6, 0),
    (6, 3), (6, 4), (7, 5), (8, 4), (8, 5)])
ROOM0_CAP4 = graph_from_edges(10, [
    (2, 0), (2, 1), (3, 1), (5, 0), (5, 3), (5, 4), (6, 5), (7, 0), (7, 1),
    (7, 3), (9, 2)])


@settings(max_examples=100, deadline=None)
@given(random_graphs())
@example(ROOM0_CAP3)
@example(ROOM0_CAP4)
def test_search_matches_oracle_on_random_graphs(g):
    assert_matches_oracle(g, g.n)


STAR_11 = graph_from_edges(12, [(0, i) for i in range(1, 12)])


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=(1 << 11) - 1))
@example(STAR_11, 0)
@example(STAR_11, 0b10100100101)
def test_neighborhood_alpha_matches_brute_force(g, lost):
    # the slack prune's per-tile bound: alpha of v's neighbors outside
    # the bit positions in lost, memoised on first use
    alpha = flis._NeighborhoodAlpha([g.neighbors(v) for v in range(g.n)])
    for v in range(g.n):
        nb = g.neighbors(v)
        for mask in (0, lost & ((1 << len(nb)) - 1)):
            want = brute_alpha(g, [x for j, x in enumerate(nb)
                                   if not mask >> j & 1])
            assert alpha(v, mask) == want
            assert alpha.memo[v][mask] == want
    assert alpha.degree_cap() == internal_degree_cap(g) == \
        max([1] + [brute_alpha(g, g.neighbors(v)) for v in range(g.n)])


def oracle_covering_sets(g: P2Graph, spine, cap: int, room: int):
    """Every leaf set completing spine at the given slack, by trying each
    subset of the candidates: tiles outside the spine with exactly one
    spine neighbor.  A set is independent; spine tile v with spine
    degree d takes t <= cap - d leaves, at least one when d <= 1, and
    the terms cap - d - t sum to room.  Each set is listed tile by tile,
    each tile's leaves ascending, and the sets are sorted by their
    per-tile tuples."""
    inside = set(spine)
    degs = [sum(g.has_edge(v, u) for u in spine) for v in spine]
    owner = {}
    for x in range(g.n):
        hits = [j for j, v in enumerate(spine) if g.has_edge(x, v)]
        if x not in inside and len(hits) == 1:
            owner[x] = hits[0]
    found = []
    for r in range(len(owner) + 1):
        for sub in combinations(sorted(owner), r):
            if any(g.has_edge(a, b) for a, b in combinations(sub, 2)):
                continue
            per = [tuple(x for x in sub if owner[x] == j)
                   for j in range(len(spine))]
            if all(len(t) <= cap - d and (t or d > 1)
                   for t, d in zip(per, degs)) and \
                    sum(cap - d - len(t) for t, d in zip(per, degs)) == room:
                found.append(per)
    return [[x for t in per for x in t] for per in sorted(found)]


@st.composite
def spines_to_cover(draw):
    """A random graph, a spine in it with spine degrees at most cap, a
    cap of 3 or 4 and a room of 0 to 2."""
    g = draw(random_graphs())
    cap = draw(st.sampled_from([3, 4]))
    spine = draw(st.lists(st.integers(min_value=0, max_value=g.n - 1),
                          min_size=1, max_size=g.n, unique=True))
    assume(all(sum(g.has_edge(v, u) for u in spine) <= cap for v in spine))
    return g, spine, cap, draw(st.integers(min_value=0, max_value=2))


# forced leaves at room 0: path spine 0-1-2, each tile's candidates
# beyond it; tiles 0 and 2 need two leaves and tile 1 needs one
COVER_BASE = [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7),
              (2, 8)]


@settings(max_examples=200, deadline=None)
@given(spines_to_cover())
@example((graph_from_edges(9, COVER_BASE), [0, 1, 2], 3, 0))
# tiles 0 and 2 are forced and a forced leaf of each meets the other's
@example((graph_from_edges(9, COVER_BASE + [(4, 7)]), [0, 1, 2], 3, 0))
# forced tile 0 bans one candidate of tile 1, which is then forced and
# bans a forced leaf of tile 2
@example((graph_from_edges(9, COVER_BASE + [(4, 5), (6, 8)]), [0, 1, 2],
          3, 0))
# forced tile 0 bans both candidates of tile 1
@example((graph_from_edges(9, COVER_BASE + [(3, 5), (4, 6)]), [0, 1, 2],
          3, 0))
# two forced leaves of one tile are adjacent
@example((graph_from_edges(9, COVER_BASE + [(3, 4)]), [0, 1, 2], 3, 0))
# forced tile 2 bans a candidate of tile 1, which is then forced and
# bans a candidate of tile 0; tile 0 is then forced (one covering set),
# or left short when tile 1's forced leaf meets both of its others
@example((graph_from_edges(10, COVER_BASE + [(0, 9), (6, 8), (5, 9)]),
          [0, 1, 2], 3, 0))
@example((graph_from_edges(10, COVER_BASE + [(0, 9), (6, 8), (5, 9),
                                              (3, 5)]), [0, 1, 2], 3, 0))
@example((graph_from_edges(9, COVER_BASE + [(4, 5)]), [0, 1, 2], 3, 1))
@example((graph_from_edges(9, COVER_BASE + [(4, 5)]), [0, 1, 2], 4, 2))
def test_covering_sets_match_subset_oracle(case):
    # the leaf kernel, fed as the search feeds it (neighbor masks of the
    # whole graph, bit positions are vertex ids) and as the prime
    # completion feeds it (its own numbering of the candidates), emits
    # exactly the oracle's sets in the oracle's order
    g, spine, cap, room = case
    want = oracle_covering_sets(g, spine, cap, room)
    in_spine = [x in spine for x in range(g.n)]
    nbr_count = [sum(g.has_edge(x, v) for v in spine) for x in range(g.n)]
    degs = [nbr_count[v] for v in spine]
    nbm = [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]
    free = sum(1 << x for x in range(g.n)
               if not in_spine[x] and nbr_count[x] == 1)
    got = []
    flis._covering_sets(nbm, [nbm[v] & free for v in spine], degs, cap, room,
                        lambda chosen: got.append(list(chosen)))
    assert got == want
    cand, conf, masks = _leaf_candidates(g.adj, in_spine, nbr_count, spine)
    local = []
    flis._covering_sets(conf, masks, degs, cap, room,
                        lambda chosen: local.append([cand[i] for i in chosen]))
    assert local == want


@pytest.mark.parametrize("level", [1, 2])
def test_search_matches_oracle_on_sun_duals(level):
    g = sun_dual(level)
    assert_matches_oracle(g, g.n if level == 1 else 10)


# ---------------------------------------------------------------------------
# orbit representatives as anchors
# ---------------------------------------------------------------------------

@st.composite
def glued_copies(draw):
    """Two copies of a random graph on n vertices, vertex v of one joined
    to v of the other for some v, with the swap of the copies as the
    supplied automorphism."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(a)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))
                 if pairs else st.just(set()))
    glue = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    g = graph_from_edges(2 * n, [e for a, b in edges
                                 for e in ((a, b), (a + n, b + n))]
                         + [(v, v + n) for v in glue])
    swap = tuple(range(n, 2 * n)) + tuple(range(n))
    return replace(g, symmetries=(tuple(range(2 * n)), swap))


@settings(max_examples=60, deadline=None)
@given(glued_copies())
def test_search_matches_oracle_with_a_swap(g):
    assert_matches_oracle(g, g.n)


@pytest.mark.parametrize("n", range(3, 10))
def test_search_matches_oracle_with_cycle_rotations(n):
    # one orbit: every spine is anchored at vertex 0
    turns = tuple(tuple((v + r) % n for v in range(n)) for r in range(n))
    assert_matches_oracle(replace(cycle(n), symmetries=turns), n)
    # the mirror of a path: orbits of one and of two vertices
    flip = tuple(range(n))[::-1]
    assert_matches_oracle(
        replace(path(n), symmetries=(tuple(range(n)), flip)), n)


@pytest.mark.parametrize("name, level, n_max, orders", [
    ("sun", 1, 15, ()), ("sun", 2, 12, ()), ("sun", 3, 2, (19,)),
    ("sun", 4, 10, ()), ("sun", 5, 2, (18,)), ("star", 5, 2, (18,))])
def test_symmetries_keep_witnesses_and_values(name, level, n_max, orders):
    # anchoring on orbit representatives and adding the images of each
    # witness gives the same complete witness sets as anchoring on every
    # tile; order 19 leaves positive slack (the n21 corpus is pinned by
    # its digest in test_positive_slack_corpus)
    g = build_dual(inflate(seed_patch(name), level))
    assert len(g.symmetries) == 10

    def run(h):
        return (leaf_profile(h, n_max, Budget(witness_cap=None),
                             with_witnesses=True),
                [enumerate_flis(h, n) for n in orders])

    assert run(g) == run(replace(g, symmetries=()))


def test_orbit_anchors_bound_the_work():
    # all 530 order-18 optima of the level-5 sun dual in exactly 925
    # spine nodes from the anchors of its 76 orbits.  The walk, its slack
    # prune and its forced leaves fix the spines visited; the covering
    # sets only decide each finished one
    g = sun_dual(5)
    wits = enumerate_flis(g, 18, Budget(max_nodes=925))
    assert len(wits) == 530
    with pytest.raises(BudgetExceeded, match=re.escape(
            "witness collection budget exhausted at order 18 (530 "
            "witnesses) after 925 spine nodes")):
        enumerate_flis(g, 18, Budget(max_nodes=924))


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_witnesses_on_five_cycle_complete():
    g = cycle(5)
    wits = enumerate_flis(g, 4)
    # dropping any one vertex of the 5-cycle leaves a path
    assert [w.tiles for w in wits] == [
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]
    for w in wits:
        assert leaf_count(w) == 2


def test_witness_invariants_on_sun_dual():
    g = sun_dual(2)
    cap = internal_degree_cap(g)
    for n in range(3, 9):
        rec = search_max_leaves(g, n)
        assert rec.n == n
        for w in rec.witnesses:
            assert w.order == n
            assert leaf_count(w) == rec.max_leaves
            assert all(d <= cap for d in w.degrees)
            assert w.tiles == tuple(sorted(w.tiles))
        ids = [w.tiles for w in rec.witnesses]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


def test_witnesses_match_subset_enumeration():
    g = sun_dual(1)
    for n in (3, 4, 5):
        rec = search_max_leaves(g, n, budget=Budget(witness_cap=None))
        ref = brute_trees(g, n)
        best = max(leaf_count(t) for t in ref)
        expected = sorted(t.tiles for t in ref if leaf_count(t) == best)
        assert rec.max_leaves == best
        assert [w.tiles for w in rec.witnesses] == expected


def test_witness_cap_and_lex_order():
    g = cycle(5)
    rec = search_max_leaves(g, 4, budget=Budget(witness_cap=3))
    all_w = enumerate_flis(g, 4)
    assert [w.tiles for w in rec.witnesses] == \
        [w.tiles for w in all_w][:3]


def test_witness_cap_zero_skips_collection():
    g = sun_dual(1)
    none = Budget(witness_cap=0)
    for n in range(6):
        rec = search_max_leaves(g, n, budget=none)
        assert rec.witnesses == ()
        assert rec.max_leaves == search_max_leaves(g, n).max_leaves
    profile = leaf_profile(g, 5, none, with_witnesses=True)
    assert all(r.witnesses == () for r in profile)


@pytest.mark.parametrize("field", ["max_nodes", "max_seconds",
                                   "witness_cap"])
def test_budget_rejects_negative_limits(field):
    with pytest.raises(ValueError, match=field):
        Budget(**{field: -1})
    Budget(**{field: 0})


def test_budget_rejects_nan_time():
    # a NaN deadline never fires, so it would mean no limit at all
    with pytest.raises(ValueError, match="max_seconds"):
        Budget(max_seconds=float("nan"))


def test_order_one_and_two_witnesses():
    g = sun_dual(0)
    r1 = search_max_leaves(g, 1)
    assert [w.tiles for w in r1.witnesses] == [(i,) for i in range(5)]
    r2 = search_max_leaves(g, 2)
    assert r2.max_leaves == 2
    assert all(g.has_edge(*w.tiles) for w in r2.witnesses)
    assert [w.tiles for w in r2.witnesses] == sorted(w.tiles
                                                     for w in r2.witnesses)


def test_search_deterministic():
    g = sun_dual(2)
    a = search_max_leaves(g, 7)
    b = search_max_leaves(g, 7)
    assert a == b


def test_slack_prune_bounds_the_work():
    # every order-18 optimum of the level-4 sun dual within 60k spine
    # nodes; without the slack prune the enumeration visits 257,475
    g = sun_dual(4)
    wits = enumerate_flis(g, 18, Budget(max_nodes=60_000, witness_cap=None))
    assert len(wits) == 145
    assert {leaf_count(w) for w in wits} == {10}


def test_value_rounds_bound_the_work():
    # the leaf function up to 22 on the level-4 sun dual within 64k spine
    # nodes (2,273 needed, see below); asking every leaf count of a round
    # at once, at the loosest slack of the round, visits 517,282
    recs = leaf_profile(sun_dual(4), 22, Budget(max_nodes=64_000))
    assert [r.max_leaves for r in recs[2:]] == \
        [leaf_function_formula(n) for n in range(2, 23)]


def test_room_zero_forced_leaves_bound_the_work():
    # the same profile in exactly 2,273 spine nodes: most rounds run at
    # slack > 0, and forced leaves cut each branch once its room is used
    # up (11,921 nodes when only finished spines at slack 0 are tested)
    g = sun_dual(4)
    recs = leaf_profile(g, 22, Budget(max_nodes=2_273))
    assert [r.max_leaves for r in recs[2:]] == \
        [leaf_function_formula(n) for n in range(2, 23)]
    with pytest.raises(BudgetExceeded, match=re.escape(
            "search budget exhausted in the value round (i, k) = (11, 11) "
            "after 2273 spine nodes")):
        leaf_profile(g, 22, Budget(max_nodes=2_272))


def test_level6_order18_corpus(l6):
    # the complete order-18 corpus of the level-6 sun dual; the digest
    # comes from an enumeration without the slack prune, so a prune that
    # cuts an optimum fails here
    tiles = sorted(w.tiles for w in l6.w18)
    assert len(tiles) == 1370
    assert hashlib.sha256(repr(tiles).encode()).hexdigest() == \
        "574aa5f9073071a6f1341a3b61ed18d84e5d1c7414fbc20222e9ad81aec3db88"


@pytest.mark.parametrize("n, count, digest", [
    (19, 1730,
     "7aa290e366b15faf8171dad35993e4e07e6600110bad060b87a03dfaf6c2891c"),
    (21, 1030,
     "1d3027daee8b14e1f9d599d38a1c23b6f55f747c6fb75e04f5de293052efce7d"),
], ids=["n19", "n21"])
def test_positive_slack_corpus(n, count, digest):
    # orders whose optima leave slack (c-2)i + 2 - k > 0, so some spine
    # tile takes fewer leaves than it could; the digests come from the
    # enumeration that chose leaves by subset, not by spine tile
    tiles = sorted(w.tiles for w in enumerate_flis(sun_dual(3), n))
    assert len(tiles) == count
    assert hashlib.sha256(repr(tiles).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# budgets, profiles, stability
# ---------------------------------------------------------------------------

def test_node_budget_raises_with_partial():
    g = sun_dual(3)
    with pytest.raises(BudgetExceeded) as exc:
        search_max_leaves(g, 12, budget=Budget(max_nodes=10))
    partial = exc.value.partial
    assert isinstance(partial, LeafRecord)
    assert partial.n == 12


def test_budget_reason_names_the_round_and_nodes():
    # every node budget short of the call's need names the value round
    # (i, k) or the witness order it stopped in, and the spine nodes spent
    g = sun_dual(1)
    value = re.compile(r"search budget exhausted in the value round "
                       r"\(i, k\) = \((\d+), (\d+)\) after (\d+) spine nodes")
    witness = re.compile(r"witness collection budget exhausted at order 7 "
                         r"\((\d+) witnesses\) after (\d+) spine nodes")
    phases = []
    for limit in count():
        try:
            search_max_leaves(g, 7, Budget(max_nodes=limit, witness_cap=None))
            break
        except BudgetExceeded as exc:
            m = value.fullmatch(exc.reason) or witness.fullmatch(exc.reason)
            assert m, exc.reason
            assert int(m.groups()[-1]) == limit + 1
            if m.re is value:
                i, k = int(m[1]), int(m[2])
                assert i + k == 7 and 2 <= k <= i + 2
            phases.append(m.re)
    assert phases[0] is value and phases[-1] is witness
    assert phases == sorted(phases, key=lambda r: r is witness)


def test_time_budget_raises():
    g = sun_dual(3)
    with pytest.raises(BudgetExceeded):
        leaf_profile(g, 14, budget=Budget(max_seconds=0.0))


def test_one_node_budget_per_call(monkeypatch):
    # the value rounds and every witness collection draw on one node
    # counter, so the budget bounds the call, not each phase
    g = sun_dual(2)
    real = flis._enumerate_spines

    def phase_nodes(run):
        """run(Budget) unbudgeted, and the nodes of its value phase
        followed by those of each witness collection."""
        spent = []

        def counting(adj, order, cap, visit, counter, limits, *rest):
            before = counter[0]
            ok = real(adj, order, cap, visit, counter, limits, *rest)
            spent.append((visit.__qualname__.split(".")[0],
                          counter[0] - before))
            return ok

        monkeypatch.setattr(flis, "_enumerate_spines", counting)
        out = run(Budget(witness_cap=None))
        monkeypatch.undo()
        return out, [sum(k for f, k in spent if f == "_round")] + \
            [k for f, k in spent if f == "_collect_witnesses"]

    def search(budget):
        return search_max_leaves(g, 8, budget)

    def profile(budget):
        return leaf_profile(g, 8, budget, with_witnesses=True)

    for run in (search, profile):
        want, nodes = phase_nodes(run)
        assert len(nodes) == (2 if run is search else 7)
        assert min(nodes) > 1
        assert run(Budget(max_nodes=sum(nodes), witness_cap=None)) == want
        with pytest.raises(BudgetExceeded) as exc:
            run(Budget(max_nodes=max(nodes), witness_cap=None))
        partial = exc.value.partial
        if run is search:
            assert partial.max_leaves == want.max_leaves
        else:
            assert [r.max_leaves for r in partial] == \
                [r.max_leaves for r in want]


def test_leaf_profile_matches_individual_searches():
    g = sun_dual(1)
    profile = leaf_profile(g, 7)
    assert [r.n for r in profile] == list(range(8))
    for rec in profile:
        solo = search_max_leaves(g, rec.n, with_witnesses=False)
        assert rec == solo
    with_wit = leaf_profile(g, 7, with_witnesses=True)
    assert with_wit == [search_max_leaves(g, n) for n in range(8)]


def test_stabilize_flags_agreement():
    lo = [LeafRecord(3, 2), LeafRecord(4, 3), LeafRecord(5, 3)]
    hi = [LeafRecord(3, 2), LeafRecord(4, 3), LeafRecord(5, 4),
          LeafRecord(6, 4)]
    out = stabilize(lo, hi)
    assert [r.stable for r in out] == [True, True, False, False]
    assert [r.max_leaves for r in out] == [2, 3, 4, 4]
