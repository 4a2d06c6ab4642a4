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

from .geometry import Patch, patch_symmetries


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


def build_dual(patch: Patch) -> P2Graph:
    """Dual graph of a patch: one vertex per tile, edges via shared sides,
    carrying the patch's exact symmetries (geometry.patch_symmetries).
    An isometry that maps tiles onto tiles maps shared full edges onto
    shared full edges, so each is an automorphism."""
    by_edge: dict[frozenset, list[int]] = {}
    for i, t in enumerate(patch.tiles):
        for a, b in t.edges():
            by_edge.setdefault(frozenset((a.coeffs, b.coeffs)), []).append(i)
    nbrs: list[set[int]] = [set() for _ in patch.tiles]
    for ids in by_edge.values():
        if len(ids) == 2:
            a, b = ids
            nbrs[a].add(b)
            nbrs[b].add(a)
        elif len(ids) > 2:
            raise ValueError("patch has an edge shared by more than two tiles")
    return P2Graph(tuple(tuple(sorted(s)) for s in nbrs),
                   patch_symmetries(patch))


def interior_tiles(graph: P2Graph) -> tuple[int, ...]:
    """Ids of tiles with all four sides shared (degree 4)."""
    return tuple(i for i in range(graph.n) if graph.degree(i) == 4)
