"""The prime census of a patch and extending caterpillar chains prime by
prime.

The six prime chain shapes are rigid, so all prime chains in a patch can
be found by exact template matching.  `caterpillar` holds the table, built
once: each canonical chain under all 20 isometries fixing its home star,
placed at the origin as integer anchor offsets, together with its two
flank offsets and its side, all from its class frame (`class_frame`).
Matching at a star adds the star's four coefficients to each offset and
looks the tile up in the patch's exact lookup (`Patch.tile_lookup`, built
once per patch).  No tree search and no per-star ring arithmetic is
involved, which keeps bidirectional chain extension cheap even in large
grown patches.  `caterpillar.classify_prime` and `locate_prime` read the
same table, by the shape of a tree's internal tiles.

Each prime chain is matched and completed once per patch.  This module
fills two memos on first use and keeps them with the objects that
determine them: each star's matches (`chains_at_star`) on the patch, and
each chain's completions (`complete_prime`) on the graph.  The census and
extension's moves read them; the values are tuples, shared by every
reader, and nothing is built before a census or an extension asks.

Extension is the computational companion of the bi-infinite question:
seeds whose angle word already contains an excluded pattern stall or are
rejected, while cape-4 seeds keep growing as the context grows.  The
search grows the last end of a `CaterpillarChain` (the left arm on the
reversed chain) through `caterpillar.grafted`, the step every chain is
built by: each graft appends the new prime, located by the template
match that found it, with its junction tile and outer flank, so no
chain is read twice.  A larger context is just a more inflated patch
(`geometry.inflate`): z in the old patch is z * phi**k after k more
steps (`ring.phi_power`).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .ring import Cyclo10
from .geometry import Patch
from .dualgraph import P2Graph
from .stargraph import StarGraph
from .flis import Budget, BudgetExceeded, InducedSubtree, _covering_sets
from .caterpillar import CaterpillarChain, PrimeCaterpillar, \
    _placements, forbidden_patterns, graft, grafted, ordered

#: spine degrees along a prime chain: an induced path of 8 tiles
_PATH_DEGREES = [1, 2, 2, 2, 2, 2, 2, 1]


def chains_at_star(p: Patch, star: Cyclo10
                   ) -> tuple[tuple[int, tuple[int, ...],
                                    tuple[Cyclo10, Cyclo10], str], ...]:
    """All prime chains homed at the given star center, as (class id,
    chain tile ids in template order, flanking star centers and side in
    `locate_prime` order), by matching `caterpillar`'s table of template
    placements over the 20 isometries fixing the star.  Deduplicated by
    tile set, the first placement in table order kept, which is the one
    `locate_prime` reads from the same table.

    Memoised with the patch: the first call for a star keeps the tuple
    in `Patch.chain_matches`, and a repeat call returns the identical
    tuple for as long as the patch lives."""
    found = p.chain_matches.get(star)
    if found is not None:
        return found
    lookup = p.tile_lookup
    s0, s1, s2, s3 = star.coeffs
    seen = set()
    out = []
    for cid, placed, (r1, r2), side in _placements():
        ids = []
        for kind, (o0, o1, o2, o3), rot in placed:
            i = lookup.get((kind, (s0 + o0, s1 + o1, s2 + o2, s3 + o3), rot))
            if i is None:
                break
            ids.append(i)
        else:
            key = frozenset(ids)
            if key not in seen:
                seen.add(key)
                out.append((cid, tuple(ids), (star + r1, star + r2), side))
    found = p.chain_matches[star] = tuple(out)
    return found


def find_prime_chains(p: Patch, g: P2Graph, sg: StarGraph
                      ) -> list[tuple[int, int, tuple[int, ...]]]:
    """Census of all prime chains in a patch: (class id, star index,
    chain tile ids).

    Only chains that complete to a full order-18 prime are reported;
    template matches whose leaf slots are blocked (patch boundary) are
    dropped.  The result agrees exactly with the chains derived from
    exhaustive subtree enumeration (tested), without any tree search.
    """
    out = []
    for si, v in enumerate(sg.vertices):
        for cid, chain, _, _ in chains_at_star(p, v.center):
            if next(complete_prime(g, chain), None) is not None:
                out.append((cid, si, chain))
    return out


def complete_prime(g: P2Graph, chain: Sequence[int]
                   ) -> Iterator[InducedSubtree]:
    """All ways to extend an 8-tile prime chain to a full order-18 prime
    by choosing its 10 leaves: one per interior chain tile, two per end.

    The chain must be an induced path listed in path order; anything else
    yields nothing.  The leaf sets are flis's covering sets of the chain
    as a spine at cap 3 and slack 0 (`_covering_sets`): independent, each
    leaf with exactly one chain neighbor, so every completion is an
    induced tree whose chain tiles all have degree 3.  The chain's few
    candidate leaves are numbered locally (`_leaf_candidates`), not by
    tile id, and at slack 0 the kernel's forced leaves reject a chain
    with no completion before any choice.  Yields witnesses in a
    canonical deterministic order: by the leaves of chain[0], then
    chain[1], and so on, each tile's choices in adjacency order.

    Memoised with the graph: the completions of a chain, as given, are
    computed on its first call and kept in `P2Graph.prime_completions`
    for as long as the graph lives, so a repeat call yields the
    identical witnesses in the same order.
    """
    key = tuple(chain)
    found = g.prime_completions.get(key)
    if found is None:
        found = g.prime_completions[key] = _completions(g, key)
    return iter(found)


def _completions(g: P2Graph, chain: tuple[int, ...]
                 ) -> tuple[InducedSubtree, ...]:
    """The witnesses `complete_prime` yields, computed afresh."""
    in_spine = Counter(chain)
    nbr_count = Counter(u for v in chain for u in g.neighbors(v))
    if len(chain) != 8 or len(in_spine) != 8 \
            or [nbr_count[v] for v in chain] != _PATH_DEGREES \
            or not all(g.has_edge(a, b) for a, b in zip(chain, chain[1:])):
        return ()
    cand, conf, masks = _leaf_candidates(g.adj, in_spine, nbr_count, chain)
    degree = dict.fromkeys(cand, 1) | dict.fromkeys(chain, 3)
    found: list[InducedSubtree] = []

    def emit(chosen: Sequence[int]) -> None:
        tiles = tuple(sorted([*chain, *map(cand.__getitem__, chosen)]))
        found.append(InducedSubtree(tiles, tuple(map(degree.get, tiles))))

    _covering_sets(conf, masks, _PATH_DEGREES, 3, 0, emit)
    return tuple(found)


def _leaf_candidates(adj, in_spine, nbr_count, spine):
    """The candidate leaves of a spine in a local numbering, grouped by
    spine tile: (cand, conf, masks).

    A candidate is a tile outside the spine with exactly one spine
    neighbor, so it is found in that neighbor's adjacency alone; each
    spine tile's candidates are numbered in its adjacency order.
    masks[j] has the bits of the candidates of spine[j] and conf[i] the
    bits of the candidates adjacent to cand[i], as `_covering_sets`
    takes them.
    """
    cand: list[int] = []
    masks = []
    for v in spine:
        start = len(cand)
        cand += [u for u in adj[v] if not in_spine[u] and nbr_count[u] == 1]
        masks.append((1 << len(cand)) - (1 << start))
    index = {u: i for i, u in enumerate(cand)}
    conf = [0] * len(cand)
    for i, u in enumerate(cand):
        for x in adj[u]:
            j = index.get(x)
            if j is not None:
                conf[i] |= 1 << j
    return cand, conf, masks


# ---------------------------------------------------------------------------
# bidirectional extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionOutcome:
    """Result of a bidirectional prime-at-a-time extension search."""

    leftmax: int
    rightmax: int
    target: int
    met: bool
    rejected: bool              # seed failed the forbidden-pattern gate
    chain: CaterpillarChain     # the longest chain reached (or the seed)
    nodes: int                  # graft attempts spent


def _candidate_steps(p: Patch, g: P2Graph, sg: StarGraph,
                     tree: InducedSubtree, outer: Cyclo10
                     ) -> Iterator[tuple[int, PrimeCaterpillar]]:
    """Grafting moves at the outer flank star of an end prime: every
    (junction tile, located new prime) for every template chain homed
    there, the prime's class, flanks and side taken from the match.  The
    junction tile tj is a leaf of the tree next to an end of the chain;
    each completion of the chain that has tj as a leaf, and no other
    leaf in or next to the rest of the tree, is a move.  Deterministic
    order: by chain, then tj, then completion."""
    if outer not in sg.index:
        return
    treeset = set(tree.tiles)
    leaves = set(tree.leaves)
    # tj -> the tree's tiles other than tj and their neighbours
    nears: dict[int, set[int]] = {}
    for cid2, chain2, flanks2, side2 in chains_at_star(p, outer):
        if not treeset.isdisjoint(chain2):
            continue
        juncts = sorted(leaves & {*g.neighbors(chain2[0]),
                                  *g.neighbors(chain2[7])})
        if not juncts:
            continue
        completions = [(w, set(w.leaves)) for w in complete_prime(g, chain2)]
        for tj in juncts:
            near = nears.get(tj)
            if near is None:
                rest = treeset - {tj}
                near = nears[tj] = rest.union(*map(g.neighbors, rest))
            for wit, wleaves in completions:
                if tj in wleaves and near.isdisjoint(wleaves - {tj}):
                    yield tj, PrimeCaterpillar(wit, cid2, outer, flanks2,
                                               side2)


def _grow(p: Patch, g: P2Graph, sg: StarGraph, c: CaterpillarChain,
          depth: int, target: int, counter: list[int],
          max_nodes: int | None, best: list) -> bool:
    """Depth-first search growing the chain's last end prime by prime,
    with full backtracking over graft choices.  A move whose outer flank
    is off the overlay is dropped before grafting; each legal graft
    grows the chain by `grafted` with the template-located prime.  best
    keeps the deepest [depth, chain] reached, surviving a budget abort;
    returns True when the target depth is hit."""
    if depth > best[0]:
        best[:] = depth, c
    if depth >= target:
        return True
    end = c.primes[-1].home_star
    for tj, pc in _candidate_steps(p, g, sg, c.tree, c.star_chain[-1]):
        counter[0] += 1
        if max_nodes is not None and counter[0] > max_nodes:
            raise BudgetExceeded("extension node budget exhausted", None)
        nf = [s for s in pc.flanking_stars if s != end]
        if len(nf) != 1 or nf[0] not in sg.index:
            continue       # keep the path on colored, in-patch stars
        try:
            tree = graft(g, c.tree, pc.tree, tj)
        except ValueError:
            continue
        grown = grafted(c, pc, tj, tree)
        if grown.sides[-1] == c.sides[-1]:
            continue       # alternation must hold at every graft
        if _grow(p, g, sg, grown, depth + 1, target, counter, max_nodes,
                 best):
            return True
    return False


def extend_chain(p: Patch, g: P2Graph, sg: StarGraph, c: CaterpillarChain,
                 target: int, budget: Budget | None = None
                 ) -> ExtensionOutcome:
    """How far the seed chain extends by whole primes in each direction.

    The two arms are searched independently from the seed, each growing
    the last end of a chain: the right arm on c, the left arm on
    `c.reversed()`.  leftmax and rightmax count the primes each arm adds,
    and `chain` is the longer of the two witnesses (the left one on a
    tie, the seed when neither arm grows) in `ordered` reading.
    (Growing both arms inside one finite patch at once is typically
    blocked by leaf crowding where the arms approach each other, which
    says nothing about extendability in the infinite tiling; the
    per-direction maxima are the meaningful finite-context evidence.)

    Seeds carrying a forbidden pattern (a 4,4 angle pair, class-1 prime,
    cape 2 or cape 3) are rejected without search.  Each accepted step
    is validated by exact grafting, the leaf-count formula, and strict
    side alternation.  When the node budget runs out, raises
    BudgetExceeded with the partial outcome and a reason naming the arm
    being grown, the primes reached on each side and the graft attempts
    spent; raises ValueError for a negative target.
    """
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    if forbidden_patterns(c):
        return ExtensionOutcome(0, 0, target, False, True, c, 0)
    if c.order % 17 != 1:
        raise ValueError("seed chain is not saturated")
    budget = budget or Budget(max_nodes=200000, witness_cap=None)
    counter = [0]
    left, right = [0, c], [0, c]

    def outcome(met: bool) -> ExtensionOutcome:
        chain = (left if left[0] >= right[0] else right)[1]
        return ExtensionOutcome(left[0], right[0], target, met, False,
                                ordered(chain), counter[0])

    for arm, start, best in (("left", c.reversed(), left),
                             ("right", c, right)):
        try:
            _grow(p, g, sg, start, 0, target, counter, budget.max_nodes, best)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"extension node budget exhausted growing the {arm} arm, "
                f"with {left[0]} left and {right[0]} right primes reached "
                f"after {counter[0]} graft attempts", outcome(False)) from None
    return outcome(left[0] >= target and right[0] >= target)
