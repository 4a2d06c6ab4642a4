"""SVG output: well-formed, deterministic, element counts as expected."""
from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from p2flis.dualgraph import build_dual
from p2flis.flis import search_max_leaves
from p2flis.geometry import KITE, Patch, Tile, inflate, make_patch, seed_patch
from p2flis.ring import Cyclo10
from p2flis.render import svg_document
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns

NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def scene():
    p = inflate(seed_patch("sun"), 3)
    g = build_dual(p)
    tree = search_max_leaves(g, 6).witnesses[0].tiles
    return p, g, tree


def _count(root, tag: str) -> int:
    return sum(1 for _ in root.iter(NS + tag))


def test_document_is_wellformed_xml(scene):
    p, g, tree = scene
    svg = svg_document(p)
    assert svg.startswith('<?xml version="1.0"')
    assert svg.endswith("</svg>\n")
    root = ET.fromstring(svg)
    assert root.tag == NS + "svg"
    assert _count(root, "polygon") == len(p.tiles)
    assert _count(root, "circle") == 0


def test_output_is_deterministic(scene):
    p, g, tree = scene
    assert svg_document(p, tree=tree, g=g) == svg_document(p, tree=tree, g=g)


def test_no_negative_zero_coordinates(scene):
    p, g, tree = scene
    assert "-0.0000" not in svg_document(p, tree=tree, g=g)


def test_tree_overlay_counts(scene):
    p, g, tree = scene
    root = ET.fromstring(svg_document(p, tree=tree, g=g))
    assert _count(root, "circle") == len(tree)
    # a tree on n tiles has n-1 edges
    assert _count(root, "line") == len(tree) - 1


def test_tree_overlay_requires_graph(scene):
    p, g, tree = scene
    with pytest.raises(ValueError):
        svg_document(p, tree=tree)


def test_star_overlay_counts_and_colors():
    p = inflate(seed_patch("sun"), 4)
    g = build_dual(p)
    stars, suns = detect_stars_and_suns(p, g)
    sg = color_star_vertices(build_star_graph(p, stars), suns, g)
    root = ET.fromstring(svg_document(p, sg=sg))
    assert _count(root, "circle") == len(sg.vertices)
    assert _count(root, "line") == len(sg.edges)
    fills = {c.get("fill") for c in root.iter(NS + "circle")}
    assert fills <= {"#d03030", "#2f9e44", "#2a5bd7"}


def test_empty_patch_is_an_error():
    with pytest.raises(ValueError):
        svg_document(Patch(tiles=(), halves=(), scale_exp=0))


@pytest.mark.parametrize("c", [10**400, 10**308])
def test_coordinates_beyond_float_range_are_an_error(c):
    # 10**400 does not convert to a float; 10**308 does, but the numbers
    # the document would hold do not stay finite
    p = make_patch([Tile(KITE, Cyclo10(0), 0), Tile(KITE, Cyclo10(0, c), 0)])
    with pytest.raises(ValueError, match="overflow a float"):
        svg_document(p)
