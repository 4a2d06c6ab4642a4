"""Star and sun configurations and the star-center overlay graph.

A star is a vertex where five darts meet tip to tip, a sun the same with
five kites.  Joining nearest star centers yields an equilateral overlay
graph whose complete faces are the hexagon, boat, and star shapes.  Star
vertices are colored by how many suns sit next to them (0, 1, or 2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable

from .ring import Cyclo10, cross_sign, imag_sign, quad_cmp, real_sign, sq_abs
from .geometry import DART, KITE, Patch
from .dualgraph import P2Graph


@dataclass(frozen=True)
class StarVertex:
    """Five darts around a common tip.  sun_count/color are filled in by
    color_star_vertices; both stay None until then."""

    center: Cyclo10
    star_tiles: tuple[int, ...]
    sun_count: int | None = None
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

    def neighbors(self, i: int) -> tuple[int, ...]:
        out = [b if a == i else a for a, b in self.edges if i in (a, b)]
        return tuple(sorted(out))


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


def _angle_cmp(u: Cyclo10, v: Cyclo10) -> int:
    """Exact counterclockwise angular order of nonzero vectors from 0."""
    def half(w: Cyclo10) -> int:
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


def build_star_graph(p: Patch, stars: Iterable[StarVertex]) -> StarGraph:
    """Join star centers at the minimal exact squared distance d0.

    A single star gives a one-vertex graph with no edges; no stars at all
    is an error.  Candidate nearest pairs are prefiltered with floats,
    taken after exact subtraction of the first center so that they do
    not depend on where the patch sits, and then compared exactly in
    Z[phi].
    """
    verts = tuple(stars)
    if not verts:
        raise ValueError("no stars detected; cannot build a star graph")
    if len(verts) == 1:
        return StarGraph(verts, ())
    first = verts[0].center
    pts = [complex(v.center - first) for v in verts]
    n = len(verts)
    dmin_f = min(abs(pts[i] - pts[j]) ** 2
                 for i in range(n) for j in range(i + 1, n))
    # floats identify the near pairs; exact arithmetic settles d0
    window = dmin_f * 1.001 + 1e-9
    cand = [(i, j) for i in range(n) for j in range(i + 1, n)
            if abs(pts[i] - pts[j]) ** 2 <= window]
    exact = {pair: sq_abs(verts[pair[0]].center - verts[pair[1]].center)
             for pair in cand}
    d0 = min(exact.values(), key=functools.cmp_to_key(quad_cmp))
    edges = tuple(sorted(pair for pair, d in exact.items() if d == d0))
    return StarGraph(verts, edges, d0)


def color_star_vertices(sg: StarGraph, suns: Iterable[Sun],
                        g: P2Graph) -> StarGraph:
    """Fill sun_count and color per star vertex.

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
                f"structural violation: star at {v.center!r} is adjacent "
                f"to {count} suns (more than 2)")
        colored.append(replace(v, sun_count=count,
                               color=COLOR_OF_COUNT[count]))
    return replace(sg, vertices=tuple(colored))


# ---------------------------------------------------------------------------
# planar faces of the overlay
# ---------------------------------------------------------------------------

def _rotation_system(sg: StarGraph) -> dict[int, list[int]]:
    """Neighbors of each vertex sorted counterclockwise (exact)."""
    order: dict[int, list[int]] = {}
    for i in range(sg.n):
        nbs = list(sg.neighbors(i))
        ci = sg.vertices[i].center

        def cmp(a: int, b: int) -> int:
            return _angle_cmp(sg.vertices[a].center - ci,
                              sg.vertices[b].center - ci)

        nbs.sort(key=functools.cmp_to_key(cmp))
        order[i] = nbs
    return order


def faces(sg: StarGraph) -> list[list[int]]:
    """All faces of the straight-line embedding, outer face included.

    Each face is the cyclic vertex sequence of one orbit of the standard
    next-edge rule: after arriving u -> v, leave v along the neighbor
    that follows u clockwise in v's rotation, which traces every face
    once (bounded ones counterclockwise).
    """
    rot = _rotation_system(sg)
    pos = {i: {u: k for k, u in enumerate(rot[i])} for i in rot}
    out: list[list[int]] = []
    used: set[tuple[int, int]] = set()
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


def face_area2(sg: StarGraph, face: list[int]) -> tuple[int, int]:
    """Twice the signed face area, exact, in units of sin(pi/5)."""
    from .ring import cross_area2
    a = b = 0
    for k in range(len(face)):
        u = sg.vertices[face[k]].center
        v = sg.vertices[face[(k + 1) % len(face)]].center
        da, db = cross_area2(u, v)
        a += da
        b += db
    return a, b


def bounded_faces(sg: StarGraph) -> list[list[int]]:
    """Faces with positive signed area (drops outer and degenerate)."""
    from .ring import quad_sign
    return [f for f in faces(sg) if quad_sign(*face_area2(sg, f)) > 0]


def classify_face(sg: StarGraph, face: list[int]) -> tuple[int, int]:
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


def face_census(sg: StarGraph) -> dict[tuple[int, int], int]:
    """Histogram of classify_face over the bounded faces."""
    census: dict[tuple[int, int], int] = {}
    for f in bounded_faces(sg):
        key = classify_face(sg, f)
        census[key] = census.get(key, 0) + 1
    return census
