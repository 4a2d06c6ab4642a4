"""Standalone SVG 1.1 rendering of patches, subtrees and star overlays.

Floats appear only here, at output time; every geometric decision in the
rest of the package is made in exact ring arithmetic.  Output is
deterministic: fixed 4-decimal coordinates, stable element order.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

from .geometry import Patch
from .dualgraph import P2Graph
from .stargraph import StarGraph

_KITE_FILL = "#f6e9c5"
_DART_FILL = "#c9d7e8"
_STAR_COLORS = {"R": "#d03030", "G": "#2f9e44", "B": "#2a5bd7"}
#: pixels per unit of patch length in the document's width and height
_UNIT = 24.0


class RenderError(ValueError):
    """A patch that cannot be drawn: its coordinates overflow a float."""


def _fmt(x: float) -> str:
    s = f"{x:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _pt(z: complex) -> str:
    # flip y so counterclockwise math coordinates render upright
    return f"{_fmt(z.real)},{_fmt(-z.imag)}"


def _centroid(p: Patch, i: int) -> complex:
    o = p.tiles[i].outline
    return sum(complex(v) for v in o) / 4.0


def svg_document(p: Patch, *, tree: Sequence[int] | None = None,
                 g: P2Graph | None = None, sg: StarGraph | None = None
                 ) -> str:
    """Render a patch; optionally overlay an induced subtree (needs the
    dual graph for its edges) and/or the colored star graph.  A patch
    whose coordinates overflow a float raises RenderError."""
    if not p.tiles:
        raise ValueError("cannot render an empty patch")
    # the outlines and the bounding box in one pass; the document's head,
    # which needs the box, fills the second slot afterwards
    out = ['<?xml version="1.0" encoding="UTF-8"?>', "",
           '<g stroke="#6b5f4b" stroke-width="0.03" stroke-linejoin="round">']
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    try:
        for t in p.tiles:
            zs = [complex(v) for v in t.outline]
            for z in zs:
                x, y = z.real, -z.imag
                if x < xmin:
                    xmin = x
                if x > xmax:
                    xmax = x
                if y < ymin:
                    ymin = y
                if y > ymax:
                    ymax = y
            fill = _KITE_FILL if t.kind == "K" else _DART_FILL
            out.append(f'<polygon points="{" ".join(map(_pt, zs))}" '
                       f'fill="{fill}"/>')
        m = 1.5
        x0, y0 = xmin - m, ymin - m
        w, h = xmax - xmin + 2 * m, ymax - ymin + 2 * m
        # every number written, centroid sums included, is within this
        if not math.isfinite(4 * _UNIT * (abs(x0) + abs(y0) + w + h)):
            raise OverflowError
    except OverflowError:
        raise RenderError("patch coordinates overflow a float") from None
    out[1] = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              f'width="{_fmt(w * _UNIT)}" height="{_fmt(h * _UNIT)}" '
              f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">')
    out.append('</g>')

    if tree is not None:
        if g is None:
            raise ValueError("tree overlay needs the dual graph")
        tset = set(tree)
        cent = {i: _centroid(p, i) for i in tset}
        out.append('<g stroke="#1d7a33" stroke-width="0.08" fill="none">')
        for i in sorted(tset):
            for j in g.neighbors(i):
                if j in tset and i < j:
                    a, b = cent[i], cent[j]
                    out.append(f'<line x1="{_fmt(a.real)}" '
                               f'y1="{_fmt(-a.imag)}" x2="{_fmt(b.real)}" '
                               f'y2="{_fmt(-b.imag)}"/>')
        out.append('</g>')
        deg = {i: sum(1 for j in g.neighbors(i) if j in tset) for i in tset}
        out.append('<g stroke="none">')
        for i in sorted(tset):
            z = cent[i]
            r, fill = (0.10, "#73c686") if deg[i] <= 1 else (0.13, "#1d7a33")
            out.append(f'<circle cx="{_fmt(z.real)}" cy="{_fmt(-z.imag)}" '
                       f'r="{r}" fill="{fill}"/>')
        out.append('</g>')

    if sg is not None:
        out.append('<g stroke="#444444" stroke-width="0.06">')
        for a, b in sg.edges:
            za = complex(sg.vertices[a].center)
            zb = complex(sg.vertices[b].center)
            out.append(f'<line x1="{_fmt(za.real)}" y1="{_fmt(-za.imag)}" '
                       f'x2="{_fmt(zb.real)}" y2="{_fmt(-zb.imag)}"/>')
        out.append('</g>')
        out.append('<g stroke="#222222" stroke-width="0.03">')
        for v in sg.vertices:
            z = complex(v.center)
            fill = _STAR_COLORS.get(v.color or "", "#999999")
            out.append(f'<circle cx="{_fmt(z.real)}" cy="{_fmt(-z.imag)}" '
                       f'r="0.35" fill="{fill}"/>')
        out.append('</g>')

    out.append('</svg>\n')
    return "\n".join(out)
