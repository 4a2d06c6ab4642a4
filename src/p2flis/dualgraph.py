"""Dual graphs of P2 patches.

Vertices are whole-tile ids of a patch; two tiles are joined exactly when
they share a full geometric edge (endpoint-exact, no partial contact).
Loose boundary half-tiles take no part.  Tiles have four sides, so degrees
are at most 4; a tile is interior when all four sides are shared.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .geometry import DART, KITE, Patch, Tile, patch_symmetries
from .ring import ZERO


@dataclass(frozen=True)
class P2Graph:
    """Immutable adjacency-list graph over tile ids 0..n-1.

    symmetries holds automorphisms as vertex permutations, identity
    first; () means that only the identity is known, as for a graph read
    from a file or built by hand.  They take no part in equality, hashing
    or the P2GRAPH format.
    """

    adj: tuple[tuple[int, ...], ...]
    symmetries: tuple[tuple[int, ...], ...] = field(default=(), compare=False,
                                                    repr=False)

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adj[i]

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, nbrs in enumerate(self.adj):
            for j in nbrs:
                if i < j:
                    yield (i, j)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adj[i]

    @cached_property
    def prime_completions(self) -> dict:
        """8-tile chain -> the tuple of its prime completions, filled one
        chain at a time by `inflation_lab.complete_prime` and kept with
        the graph."""
        return {}


#: (tile kind, rot) -> for each side of that tile anchored at 0, the
#: coefficients of the sum of its ends
_SIDES = {(kind, rot): tuple((u + v).coeffs
                             for u, v in Tile(kind, ZERO, rot).edges())
          for kind in (KITE, DART) for rot in range(10)}


def build_dual(patch: Patch) -> P2Graph:
    """Dual graph of a patch: one vertex per tile, edges via shared sides,
    carrying the patch's exact symmetries (geometry.patch_symmetries).
    An isometry that maps tiles onto tiles maps shared full edges onto
    shared full edges, so each is an automorphism.

    Each side is keyed by the coefficients of its doubled midpoint, twice
    the anchor plus its _SIDES entry, and the key is exact.  Sides
    u -> u + e and w -> w + f with one key have f - e = 2(u - w), so e
    and f have the same coefficients mod 2.  Of the 20 edge vectors
    L * zeta**k, L in {1, phi}, only e and -e agree mod 2 (the tests
    check every pair), so f = +-e and the sides are one segment.  The
    first tile on a side is kept under its key and the second matched
    with it; a third raises.  A repeated tile lists each neighbour once.
    """
    sharer: dict[tuple, int] = {}
    nbrs: list[list[int]] = [[] for _ in patch.tiles]
    for i, t in enumerate(patch.tiles):
        a = t.anchor
        a0, a1, a2, a3 = 2 * a.c0, 2 * a.c1, 2 * a.c2, 2 * a.c3
        for o0, o1, o2, o3 in _SIDES[t.kind, t.rot]:
            key = (a0 + o0, a1 + o1, a2 + o2, a3 + o3)
            j = sharer.setdefault(key, i)
            if j < 0:
                raise ValueError(
                    "patch has an edge shared by more than two tiles")
            if j != i:
                sharer[key] = -1  # matched: a third sharer raises
                if j not in nbrs[i]:
                    nbrs[i].append(j)
                    nbrs[j].append(i)
    return P2Graph(tuple(tuple(sorted(s)) for s in nbrs),
                   patch_symmetries(patch))


def interior_tiles(graph: P2Graph) -> tuple[int, ...]:
    """Ids of tiles with all four sides shared (degree 4)."""
    return tuple(i for i in range(graph.n) if graph.degree(i) == 4)
