"""Template matching, prime completion, context growth, and extension.

The six chain shapes are rigid, so the full prime census of a patch can
be computed by placing canonical templates at stars and looking tiles up
by exact coordinates.  The census must agree with the chains appearing
in the exhaustively enumerated order-18 corpus; completion, growth, and
bidirectional extension are checked on top of that shared corpus.
"""
from __future__ import annotations

import cmath
import hashlib
from collections import Counter, defaultdict

import pytest

from p2flis.caterpillar import CLASS_HOME, CLASS_RAYS, CLASS_SIGNATURES, \
    chain_from_primes, classify_prime, decompose, forbidden_patterns, \
    locate_prime, ordered, tiles_from_signature
from p2flis.dualgraph import P2Graph, build_dual
from p2flis.flis import Budget, BudgetExceeded, induced_subtree, \
    leaf_count, leaf_function_formula
from p2flis.geometry import Patch, Tile, inflate, seed_patch
from p2flis.inflation_lab import ExtensionOutcome, _candidate_steps, \
    chains_at_star, complete_prime, extend_chain, find_prime_chains
from p2flis.ring import Cyclo10, phi_power
from p2flis.stargraph import StarGraph, detect_stars_and_suns


@pytest.fixture(scope="module")
def census(l6):
    return find_prime_chains(l6.p, l6.g, l6.sg)


# ---------------------------------------------------------------------------
# template census
# ---------------------------------------------------------------------------

def test_census_agrees_with_enumeration(l6, census):
    enumerated = {}
    for t, c in zip(l6.w18, l6.classes):
        enumerated[frozenset(t.internals)] = c
    matched = {frozenset(chain): cid for cid, _, chain in census}
    assert matched == enumerated


def test_census_class_histogram(census):
    assert Counter(c for c, _, _ in census) == \
        {1: 105, 2: 270, 3: 60, 4: 200, 5: 120, 6: 25}


def test_census_chains_are_deduplicated(census):
    keys = [frozenset(chain) for _, _, chain in census]
    assert len(keys) == len(set(keys))


def test_chains_at_star_covers_census(l6, census):
    by_star: dict = {}
    for cid, si, chain in census:
        by_star.setdefault(si, set()).add((cid, chain))
    some = sorted(by_star)[:5]
    for si in some:
        got = {(cid, chain) for cid, chain, _, _
               in chains_at_star(l6.p, l6.sg.vertices[si].center)}
        # census keeps only completable matches, so it is a subset
        assert by_star[si] <= got


def test_tile_index_is_exact_lookup(l6):
    index = l6.p.tile_lookup
    assert len(index) == len(l6.p.tiles)
    for i in (0, 7, len(l6.p.tiles) - 1):
        t = l6.p.tiles[i]
        assert index[(t.kind, t.anchor.coeffs, t.rot)] == i


def test_tile_index_is_built_once(l6):
    index = l6.p.tile_lookup
    assert l6.p.tile_lookup is index
    assert index == {(t.kind, t.anchor.coeffs, t.rot): i
                     for i, t in enumerate(l6.p.tiles)}


def _side(prev, home, nxt, body: complex) -> str:
    """R when the body direction lies strictly inside the counterclockwise
    sweep from the ray home -> prev to the ray home -> nxt, else L: the
    side of the path prev -> home -> nxt, in floating point."""
    u, v = complex(prev - home), complex(nxt - home)
    z = cmath.phase(body / u) % (2 * cmath.pi)
    return "R" if 0 < z < cmath.phase(v / u) % (2 * cmath.pi) else "L"


def _placement_oracle(p, g, sg) -> dict:
    """Every placement of every class template in the patch, by brute
    force over the tile that the template's first tile lands on, grouped
    by the one complete star whose darts the chain contains or touches.
    Built from the tile isometries alone, which also carry the class's
    home and flanks (home plus each ray) as tile anchors; flanks are
    ordered by their offsets from the home.  The side is that of the
    path through the flanks in that order, with the body direction the
    sum of the middle six chain tiles' centers seen from the home.  Per
    star the matches come in class, mirror, rotation order, deduplicated
    by tile set."""
    lookup = {(t.kind, t.anchor, t.rot): i for i, t in enumerate(p.tiles)}
    by_pose = defaultdict(list)
    for t in p.tiles:
        by_pose[(t.kind, t.rot)].append(t)
    star_of = {ti: si for si, v in enumerate(sg.vertices)
               for ti in v.star_tiles}
    found: dict = defaultdict(list)
    for sig, cid in sorted(CLASS_SIGNATURES.items(), key=lambda kv: kv[1]):
        home = Cyclo10(*CLASS_HOME[cid])
        marks = [Tile("D", home + Cyclo10(*r), 0) for r in CLASS_RAYS[cid]]
        template = tiles_from_signature(sig) + [Tile("D", home, 0)] + marks
        for refl in (False, True):
            for rot in range(10):
                placed = [(t.reflected() if refl else t).rotated(rot)
                          for t in template]
                first = placed[0]
                for target in by_pose[(first.kind, first.rot)]:
                    d = target.anchor - first.anchor
                    moved = [t.translated(d) for t in placed]
                    ids = [lookup.get((u.kind, u.anchor, u.rot))
                           for u in moved[:8]]
                    if None in ids:
                        continue
                    homes = {star_of[u] for i in ids
                             for u in (i, *g.neighbors(i)) if u in star_of}
                    if len(homes) == 1:
                        home, *rays = (t.anchor for t in moved[8:])
                        flanks = sorted(rays, key=lambda f: (f - home).coeffs)
                        body = sum(complex(c) for t in moved[1:7]
                                   for c in t.outline) / 4 - 6 * complex(home)
                        found[homes.pop()].append(
                            (cid, tuple(ids), tuple(flanks),
                             _side(flanks[0], home, flanks[1], body)))
    out: dict = {}
    for si, matches in found.items():
        seen: set = set()
        out[si] = []
        for match in matches:
            if frozenset(match[1]) not in seen:
                seen.add(frozenset(match[1]))
                out[si].append(match)
    return out


def test_chains_at_star_matches_placement_oracle(l6, census):
    oracle = _placement_oracle(l6.p, l6.g, l6.sg)
    total = 0
    for si, v in enumerate(l6.sg.vertices):
        got = chains_at_star(l6.p, v.center)
        assert got == tuple(oracle.get(si, ()))
        total += len(got)
    assert set(oracle) <= set(range(len(l6.sg.vertices)))
    assert total > len(census)   # blocked matches are listed too


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_census_digest_level6(census):
    # (class id, star index, chain tile ids) for all 780 completable chains
    assert len(census) == 780
    assert _digest(census) == \
        "0ef99f1ba40db999910f9b9a96f1406930a76294b557c9e8dfa2c49da4475141"


def _clean_pairs(l6) -> list:
    """The first 24 grafted pairs on overlay stars without a forbidden
    pattern, as (i, j, chain)."""
    out = []
    for i, j, c in l6.chain_pairs():
        if all(s in l6.sg.index for s in c.star_chain) \
                and not forbidden_patterns(c):
            out.append((i, j, c))
            if len(out) == 24:
                break
    return out


def test_extension_digest_level6(l6):
    # the first 24 clean pairs, each extended by one prime per side
    rows = []
    for i, j, c in _clean_pairs(l6):
        out = extend_chain(l6.p, l6.g, l6.sg, c, 1)
        rows.append((i, j, out.leftmax, out.rightmax, out.met, out.nodes,
                     out.chain.tree.tiles))
    assert len(rows) == 24
    assert {r[4] for r in rows} == {True, False}
    assert _digest(rows) == \
        "709c12795add692a03b0df3989ee82692d2db672fd1f235bcabc167014ce469c"


def test_extended_chain_is_its_decomposition(l6):
    # extension appends each graft's prime, junction, flank and side to
    # the chain; decompose, reading the grown tree afresh, is the
    # independent reference for every field
    def check(c):
        assert c == decompose(c.tree, l6.p, l6.g, l6.sg)

    grown = 0
    for _, _, c in _clean_pairs(l6):
        assert c.reversed().reversed() == c
        assert ordered(c.reversed()) == c
        for target in (1, 2):
            out = extend_chain(l6.p, l6.g, l6.sg, c, target)
            check(out.chain)
            grown += len(out.chain.primes) > len(c.primes)
    assert grown == 44
    _, _, c = _clean_pairs(l6)[0]
    with pytest.raises(BudgetExceeded) as err:
        extend_chain(l6.p, l6.g, l6.sg, c, 3,
                     budget=Budget(max_nodes=15, witness_cap=None))
    partial = err.value.partial
    assert (partial.leftmax, partial.rightmax) == (3, 1)
    assert len(partial.chain.primes) == len(c.primes) + 3
    check(partial.chain)


def test_candidate_steps_carry_located_primes(l6):
    # each grafting move's prime, built from its template match, is the
    # prime locate_prime reads off the completed tree
    moves = 0
    for _, _, c in _clean_pairs(l6):
        for outer in (c.star_chain[0], c.star_chain[-1]):
            for _, pc in _candidate_steps(l6.p, l6.g, l6.sg, c.tree, outer):
                assert pc == locate_prime(pc.tree, l6.p, l6.g, l6.sg)
                moves += 1
    assert moves == 164


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------

def test_completions_are_fully_leafed_primes(l6, census):
    for cid, si, chain in census[:8]:
        n = 0
        for wit in complete_prime(l6.g, chain):
            n += 1
            assert wit.order == 18
            assert leaf_count(wit) == leaf_function_formula(18)
            assert set(chain) <= set(wit.tiles)
            assert sorted(wit.internals) == sorted(chain)
            assert classify_prime(wit, l6.p, l6.g) == cid
        assert n >= 1   # census only reports completable chains


def test_completions_are_the_level6_optima(l6, census):
    # the exhaustive search is the oracle: the completions of a census
    # chain are exactly the order-18 optima with that internal chain
    optima = defaultdict(set)
    for t in l6.w18:
        optima[frozenset(t.internals)].add(t)
    total = 0
    for _, _, chain in census:
        got = list(complete_prime(l6.g, chain))
        assert len(set(got)) == len(got)
        assert set(got) == optima[frozenset(chain)]
        total += len(got)
    assert total == len(l6.w18) == 1370


def test_completion_needs_an_induced_path_in_order(l6, census):
    g = l6.g
    chain = census[0][2]
    want = set(complete_prime(g, chain))
    assert want
    assert set(complete_prime(g, chain[::-1])) == want
    branch = next(u for u in g.neighbors(chain[3]) if u not in chain)
    far = next(u for u in range(g.n)
               if u not in chain and not any(g.has_edge(u, v) for v in chain))

    def walk_on(walk: list) -> list | None:
        # a simple walk of 8 tiles that starts with the given ones
        if len(walk) == 8:
            return walk
        return next(filter(None, (walk_on(walk + [u])
                                  for u in g.neighbors(walk[-1])
                                  if u not in walk)), None)

    # around a 4-cycle v-a-w-b: consecutive tiles adjacent, chord v-b
    walk = next(filter(None, (walk_on([v, a, w, b]) for v in range(g.n)
                              for a in g.neighbors(v)
                              for b in g.neighbors(v) if a < b
                              for w in sorted(set(g.neighbors(a))
                                              & set(g.neighbors(b)) - {v}))))
    assert g.has_edge(walk[0], walk[3])
    for bad in (chain[:7], chain + (branch,), chain[:7] + (branch,),
                chain[:7] + (chain[0],), chain[:7] + (far,),
                (chain[0], chain[2], chain[1], *chain[3:]),
                chain[1:] + chain[:1], tuple(walk)):
        assert list(complete_prime(g, bad)) == [], bad


def test_candidate_steps_meet_the_tree_at_one_leaf(l6):
    # a move grafts at a leaf tj of the tree that is a leaf of the new
    # prime too, and no other leaf of the prime lies in, or next to, the
    # rest of the tree; every optimum of the exhaustive search on a
    # template chain at the outer star that meets this is a move
    optima = defaultdict(list)
    for t in l6.w18:
        optima[frozenset(t.internals)].append(t)

    def apart(t, tj, rest) -> bool:
        return all(u == tj or (u not in rest
                               and rest.isdisjoint(l6.g.neighbors(u)))
                   for u in t.leaves)

    moves = 0
    for _, _, c in _clean_pairs(l6):
        treeset = set(c.tree.tiles)
        for outer in (c.star_chain[0], c.star_chain[-1]):
            got = []
            for tj, pc in _candidate_steps(l6.p, l6.g, l6.sg, c.tree, outer):
                assert c.tree.degree_of(tj) == 1
                assert pc.tree.degree_of(tj) == 1
                assert apart(pc.tree, tj, treeset - {tj})
                got.append((tj, pc.tree))
            want = {(tj, t)
                    for _, chain, _, _ in chains_at_star(l6.p, outer)
                    if treeset.isdisjoint(chain)
                    for tj in c.tree.leaves
                    if l6.g.has_edge(tj, chain[0])
                    or l6.g.has_edge(tj, chain[7])
                    for t in optima[frozenset(chain)]
                    if tj in t.leaves and apart(t, tj, treeset - {tj})}
            assert len(set(got)) == len(got)
            assert set(got) == want
            moves += len(got)
    assert moves == 164


def test_completion_and_move_digest_level6(l6, census):
    # completion order for every census chain, and every grafting move
    # at the outer flanks of the clean pairs
    completions = [tuple(w.tiles for w in complete_prime(l6.g, chain))
                   for _, _, chain in census]
    moves = [(i, j, outer.coeffs, tj, pc.tree.tiles, pc.class_id,
              pc.home_star.coeffs, tuple(f.coeffs for f in pc.flanking_stars))
             for i, j, c in _clean_pairs(l6)
             for outer in (c.star_chain[0], c.star_chain[-1])
             for tj, pc in _candidate_steps(l6.p, l6.g, l6.sg, c.tree, outer)]
    assert _digest(completions) == \
        "f1bae6e416c99f718652329f7cf4a0a9192c0e11191a80442ca1c16c87cb3f63"
    assert _digest(moves) == \
        "4c8a3d508f199283e427bc44aae13e857a9f62cd077f4cf05dffb0a22914a218"


# ---------------------------------------------------------------------------
# the chain memos: matches on the patch, completions on the graph; a fresh
# copy of either starts cold
# ---------------------------------------------------------------------------

def _cold(p: Patch, g: P2Graph) -> tuple[Patch, P2Graph]:
    """Copies of p and g that share their contents but no memo."""
    return Patch(p.tiles, p.halves, p.scale_exp), P2Graph(g.adj, g.symmetries)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return "ValueError", str(e)


def test_chains_at_star_is_kept_with_the_patch(l6, census):
    center = l6.sg.vertices[census[0][1]].center
    got = chains_at_star(l6.p, center)
    assert isinstance(got, tuple) and got
    assert chains_at_star(l6.p, center) is got
    cold, _ = _cold(l6.p, l6.g)
    again = chains_at_star(cold, center)
    assert again == got and again is not got


def test_complete_prime_is_kept_with_the_graph(l6, census):
    _, cold = _cold(l6.p, l6.g)
    for _, _, chain in census:
        first = list(complete_prime(l6.g, chain))
        again = list(complete_prime(l6.g, list(chain)))
        assert len(again) == len(first)
        assert all(a is b for a, b in zip(again, first))
        assert list(complete_prime(cold, chain)) == first
    assert len(cold.prime_completions) == len(census)


@pytest.mark.parametrize("seed", ["sun", "star"])
def test_placements_agree_cold_and_warm(l6, star6, seed):
    # classify_prime and locate_prime on the census completions, on the
    # same trees one or two leaves short (order 17 and 16), and against
    # an overlay that lacks their homes: equal values or the same error
    # text whether or not the patch has been through a census
    p, g, sg = (l6.p, l6.g, l6.sg) if seed == "sun" else star6
    lone = StarGraph(sg.vertices[:1], ())
    trees = []
    for _, _, chain in find_prime_chains(p, g, sg):
        t = next(complete_prime(g, chain))
        trees += [t, induced_subtree(g, set(t.tiles) - {t.leaves[0]}),
                  induced_subtree(g, set(t.tiles) - set(t.leaves[:2]))]

    def readings(q):
        return [(_outcome(classify_prime, t, q, g),
                 _outcome(locate_prime, t, q, g, sg)) for t in trees] + \
            [_outcome(locate_prime, t, q, g, lone) for t in trees[::3]]

    cold, _ = _cold(p, g)
    want = readings(cold)
    assert not cold.chain_matches         # reading creates no memo
    assert readings(p) == want
    shapes = want[:len(trees)]
    assert all(isinstance(w[0], int) for w in shapes[::3] + shapes[1::3])
    assert all(w[0][0] == "ValueError" for w in shapes[2::3])
    assert {w for w in want[len(trees):] if isinstance(w, tuple)} == \
        {("ValueError", "home star is not a complete star of the overlay")}


def test_corpus_placements_agree_cold_and_warm(l6, census):
    # every optimum of the pinned order-18 corpus, classified with no
    # census as the witness path does, builds no memo and reads the same
    # once the census has filled it
    cold, _ = _cold(l6.p, l6.g)
    classes = [classify_prime(t, cold, l6.g) for t in l6.w18]
    located = [locate_prime(t, cold, l6.g, l6.sg) for t in l6.w18]
    assert not cold.chain_matches
    assert classes == l6.classes
    assert [classify_prime(t, l6.p, l6.g) for t in l6.w18] == classes
    assert [locate_prime(t, l6.p, l6.g, l6.sg) for t in l6.w18] == located


def test_census_after_extension_is_the_fresh_census(l6, census):
    p, g = _cold(l6.p, l6.g)
    _, _, c = _clean_pairs(l6)[0]
    out = extend_chain(p, g, l6.sg, c, 2)
    assert out.nodes > 0 and p.chain_matches and g.prime_completions
    assert find_prime_chains(p, g, l6.sg) == census


# ---------------------------------------------------------------------------
# context growth
# ---------------------------------------------------------------------------

def test_inflation_factor_and_star_recurrence():
    # a reference coordinate z of a patch is z * phi**2 two inflations on
    p4 = inflate(seed_patch("sun"), 4)
    stars4, _ = detect_stars_and_suns(p4, build_dual(p4))
    p6 = inflate(p4, 2)
    stars6, _ = detect_stars_and_suns(p6, build_dual(p6))
    centers6 = {s.center.coeffs for s in stars6}
    # every star center recurs as a star center two levels up
    for s in stars4:
        assert (s.center * phi_power(2)).coeffs in centers6


def test_odd_inflation_sends_stars_to_suns():
    p4 = inflate(seed_patch("sun"), 4)
    stars4, _ = detect_stars_and_suns(p4, build_dual(p4))
    p5 = inflate(p4, 1)
    _, suns5 = detect_stars_and_suns(p5, build_dual(p5))
    sun_centers = {s.center.coeffs for s in suns5}
    for s in stars4:
        assert (s.center * phi_power(1)).coeffs in sun_centers


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_extension_reaches_target_one(l6):
    for nth in range(6):
        c = l6.interior_pair(nth=nth)
        out = extend_chain(l6.p, l6.g, l6.sg, c, 1)
        assert isinstance(out, ExtensionOutcome)
        assert not out.rejected
        assert (out.leftmax, out.rightmax, out.met) == (1, 1, True)
        assert out.target == 1
        assert out.nodes > 0
        # the witness chain really grew by one prime on one side
        assert out.chain.order == c.order + 17
        assert len(out.chain.primes) == len(c.primes) + 1


def test_extension_rejects_class1_seed(l6):
    c = l6.class1_pair()
    out = extend_chain(l6.p, l6.g, l6.sg, c, 1)
    assert out.rejected
    assert (out.leftmax, out.rightmax, out.met) == (0, 0, False)
    assert out.chain is c
    assert out.nodes == 0


def test_extension_rejects_unsaturated_seed(l6):
    t = l6.w18[0]
    leaf = next(i for i, d in zip(t.tiles, t.degrees) if d == 1)
    t17 = induced_subtree(l6.g, [i for i in t.tiles if i != leaf])
    c = chain_from_primes([t17], l6.p, l6.g, l6.sg)
    assert c.order == 17
    with pytest.raises(ValueError):
        extend_chain(l6.p, l6.g, l6.sg, c, 1)


def test_extension_rejects_negative_target(l6):
    with pytest.raises(ValueError):
        extend_chain(l6.p, l6.g, l6.sg, l6.interior_pair(), -1)


def test_extension_budget_raises_with_partial(l6):
    c = l6.interior_pair()
    with pytest.raises(BudgetExceeded) as err:
        extend_chain(l6.p, l6.g, l6.sg, c, 3,
                     budget=Budget(max_nodes=1, witness_cap=None))
    partial = err.value.partial
    assert isinstance(partial, ExtensionOutcome)
    assert not partial.met
    assert partial.nodes == 2        # the limit plus one, as in the search
    assert err.value.reason == (
        "extension node budget exhausted growing the left arm, with 0 left "
        "and 0 right primes reached after 2 graft attempts")
    _, _, c = _clean_pairs(l6)[0]
    with pytest.raises(BudgetExceeded) as err:
        extend_chain(l6.p, l6.g, l6.sg, c, 3,
                     budget=Budget(max_nodes=15, witness_cap=None))
    assert err.value.reason == (
        "extension node budget exhausted growing the right arm, with 3 left "
        "and 1 right primes reached after 16 graft attempts")


def test_extension_deterministic(l6):
    c = l6.interior_pair()
    a = extend_chain(l6.p, l6.g, l6.sg, c, 1)
    b = extend_chain(l6.p, l6.g, l6.sg, c, 1)
    assert a.leftmax == b.leftmax and a.rightmax == b.rightmax
    assert a.chain.tree.tiles == b.chain.tree.tiles
