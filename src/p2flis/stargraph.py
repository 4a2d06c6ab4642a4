"""Star and sun configurations and the star-center overlay graph.

A star is a vertex where five darts meet tip to tip, a sun the same with
five kites.  Joining nearest star centers yields an equilateral overlay
graph whose bounded regions are hexagon, boat and star shapes (the tests
walk them).  Star vertices are colored R, G or B by how many suns sit
next to them (0, 1 or 2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable

from .ring import Cyclo10, grid_floors, quad_cmp, quad_sign, sq_abs
from .geometry import DART, Patch
from .dualgraph import P2Graph


@dataclass(frozen=True)
class StarVertex:
    """Five darts around a common tip.  color (`COLOR_OF_COUNT` of the
    adjacent suns) stays None until color_star_vertices fills it in."""

    center: Cyclo10
    star_tiles: tuple[int, ...]
    color: str | None = None


@dataclass(frozen=True)
class Sun:
    center: Cyclo10
    kite_tiles: tuple[int, ...]


@dataclass(frozen=True)
class StarGraph:
    """Star centers joined at the minimal center distance.

    d0 is the shared squared edge length as an exact (a, b) pair meaning
    a + b*phi, or None when there are no edges.
    """

    vertices: tuple[StarVertex, ...]
    edges: tuple[tuple[int, int], ...]
    d0: tuple[int, int] | None = None

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def index(self) -> dict[Cyclo10, int]:
        """Vertex id of each star center, built on first use and kept
        with the graph."""
        return {v.center: i for i, v in enumerate(self.vertices)}


COLOR_OF_COUNT = {0: "R", 1: "G", 2: "B"}


def detect_stars_and_suns(p: Patch, g: P2Graph
                          ) -> tuple[tuple[StarVertex, ...], tuple[Sun, ...]]:
    """All complete stars (5 darts tip-to-tip) and suns (5 kites).

    Incomplete flowers at the patch boundary are not reported.  Each
    star's darts are checked to form a 5-cycle in the dual graph; a
    mismatch means the graph does not belong to the patch.
    """
    darts_at: dict[tuple[int, int, int, int], list[int]] = {}
    kites_at: dict[tuple[int, int, int, int], list[int]] = {}
    for i, t in enumerate(p.tiles):
        key = t.anchor.coeffs
        if t.kind == DART:
            darts_at.setdefault(key, []).append(i)
        else:
            kites_at.setdefault(key, []).append(i)
    stars = []
    for key, ids in sorted(darts_at.items()):
        if len(ids) != 5:
            continue
        ids = tuple(sorted(ids))
        for a in ids:
            # tip-to-tip darts share their short edges pairwise: 5-cycle
            if sum(1 for b in ids if b != a and g.has_edge(a, b)) != 2:
                raise ValueError("star darts do not form a dual 5-cycle; "
                                 "patch and graph do not match")
        stars.append(StarVertex(Cyclo10(*key), ids))
    suns = [Sun(Cyclo10(*key), tuple(sorted(ids)))
            for key, ids in sorted(kites_at.items()) if len(ids) == 5]
    return tuple(stars), tuple(suns)


def build_star_graph(p: Patch, stars: Iterable[StarVertex]) -> StarGraph:
    """Join star centers at the minimal exact squared distance d0.

    A single star gives a one-vertex graph with no edges; no stars at all
    is an error.  Centers are filed by the ring.grid_floors of their
    offset from the first center shifted right by j, in cells at least
    w = 2**(j - 4) units wide, so two centers within w lie in touching
    cells.  j grows until the least exact squared distance over pairs in
    touching cells is at most w**2: then it is d0, and every pair at d0
    has been compared.
    """
    verts = tuple(stars)
    if not verts:
        raise ValueError("no stars detected; cannot build a star graph")
    if len(verts) == 1:
        return StarGraph(verts, ())
    first = verts[0].center
    floors = [grid_floors(*(v.center - first)) for v in verts]
    exact: dict[tuple[int, int], tuple[int, int]] = {}
    d0, j = None, 3
    # until d0 <= w**2 = 4**j / 256
    while d0 is None or quad_sign(4 ** j - 256 * d0[0], -256 * d0[1]) < 0:
        j += 1
        cells: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(floors):
            cells.setdefault((x >> j, y >> j), []).append(i)
        for (cx, cy), ids in cells.items():
            for dx, dy in ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1)):
                for b in cells.get((cx + dx, cy + dy), ()):
                    for a in ids:
                        pair = (a, b) if a < b else (b, a)
                        if a != b and pair not in exact:
                            exact[pair] = sq_abs(verts[a].center
                                                 - verts[b].center)
        d0 = min(exact.values(), key=functools.cmp_to_key(quad_cmp),
                 default=None)
    edges = tuple(sorted(pair for pair, d in exact.items() if d == d0))
    return StarGraph(verts, edges, d0)


def color_star_vertices(sg: StarGraph, suns: Iterable[Sun],
                        g: P2Graph) -> StarGraph:
    """Color each star vertex by its number of adjacent suns.

    A sun counts when one of its kites shares a full tile edge (a dual
    graph edge) with one of the star's darts.  More than two adjacent
    suns contradicts the 3-color scheme and raises ValueError.
    """
    sun_list = tuple(suns)
    kite_sun: dict[int, int] = {}
    for si, sun in enumerate(sun_list):
        for kid in sun.kite_tiles:
            kite_sun[kid] = si
    colored = []
    for v in sg.vertices:
        near = set()
        for dart in v.star_tiles:
            for nb in g.neighbors(dart):
                si = kite_sun.get(nb)
                if si is not None:
                    near.add(si)
        count = len(near)
        if count > 2:
            raise ValueError(
                f"star at {v.center!r} is adjacent to {count} suns "
                f"(more than 2)")
        colored.append(replace(v, color=COLOR_OF_COUNT[count]))
    return replace(sg, vertices=tuple(colored))
