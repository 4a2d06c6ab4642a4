"""Round-trips and strictness of the six text formats.

Every writer is canonical, so write -> read -> write must reproduce the
exact bytes.  Parsers reject structural lies (ids out of order, colors
missing, word lengths off) rather than repairing them.
"""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from p2flis.caterpillar import ANGLE_OF_CLASS, chain_from_primes, \
    word_violations
from p2flis.dualgraph import P2Graph, build_dual
from p2flis.flis import Budget, search_max_leaves
from p2flis.formats import ChainReport, ExtendReport, FormatError, \
    chain_report, read_chain, read_extend, read_flis, read_graph, \
    read_patch, read_stargraph, write_chain, write_extend, write_flis, \
    write_graph, write_patch, write_stargraph
from p2flis.geometry import SEED_NAMES, inflate, seed_patch
from p2flis.ring import Cyclo10
from p2flis.stargraph import StarGraph, StarVertex, build_star_graph, \
    color_star_vertices, detect_stars_and_suns


@pytest.fixture(scope="module")
def small():
    p = inflate(seed_patch("sun"), 3)
    return p, build_dual(p)


def _interior_prime_chain(l6, want_class: int | None = None):
    centers = {v.center for v in l6.sg.vertices}
    for t, cid in zip(l6.w18, l6.classes):
        if want_class is not None and cid != want_class:
            continue
        c = chain_from_primes([t], l6.p, l6.g, l6.sg)
        if all(s in centers for s in c.star_chain):
            return c
    raise AssertionError("no interior prime of the requested class")


# ---------------------------------------------------------------------------
# byte-identical round-trips
# ---------------------------------------------------------------------------

def test_patch_roundtrip(small):
    p, _ = small
    s = write_patch(p)
    q = read_patch(s)
    assert write_patch(q) == s
    assert q.tiles == p.tiles
    assert q.scale_exp == p.scale_exp
    assert q.halves == ()   # boundary half-tiles are not serialized


def test_graph_roundtrip(small):
    p, g = small
    s = write_graph(g)
    h = read_graph(s)
    assert write_graph(h) == s
    assert h.adj == g.adj


@pytest.mark.parametrize("seed", SEED_NAMES)
def test_graph_roundtrip_keeps_isolated_tiles(seed):
    # level-0 kite and dart are one isolated tile; the level-2 star dual
    # has isolated tiles inside and at the top of its id range
    for k in range(4):
        g = build_dual(inflate(seed_patch(seed), k))
        assert read_graph(write_graph(g)) == g


def test_flis_roundtrip(small):
    p, g = small
    rec = search_max_leaves(g, 6)
    s = write_flis(rec)
    r2 = read_flis(s, g)
    assert write_flis(r2) == s
    assert r2.n == rec.n and r2.max_leaves == rec.max_leaves
    assert r2.stable == rec.stable
    assert [w.tiles for w in r2.witnesses] == \
        [w.tiles for w in rec.witnesses]


def test_flis_search_records_read_back():
    # every order of a few graphs, including orders no tree reaches
    sun1 = build_dual(inflate(seed_patch("sun"), 1))
    graphs = (sun1, P2Graph(((1,), (0, 2), (1,))), P2Graph(((), (), ())))
    for g in graphs:
        for n in range(g.n + 1):
            s = write_flis(search_max_leaves(g, n))
            assert write_flis(read_flis(s, g)) == s


def test_stargraph_roundtrip(l6):
    s = write_stargraph(l6.sg)
    sg2 = read_stargraph(s)
    assert write_stargraph(sg2) == s
    assert [v.center for v in sg2.vertices] == \
        [v.center for v in l6.sg.vertices]
    assert [v.color for v in sg2.vertices] == \
        [v.color for v in l6.sg.vertices]
    assert sg2.edges == l6.sg.edges


def test_chain_roundtrip(l6):
    c = _interior_prime_chain(l6)
    r = chain_report(c, l6.sg)
    assert len(r.colors) == 3 and len(r.angles) == 1
    s = write_chain(r)
    r2 = read_chain(s)
    assert r2 == r
    assert write_chain(r2) == s


def test_chain_roundtrip_with_violations():
    r = ChainReport(primes=((1, 4, "L"), (4, 8, "R"), (4, 8, "L")),
                    colors="RGBGR", angles="488",
                    violations=(("class-1", 0),))
    s = write_chain(r)
    assert "violations class-1@0" in s
    assert read_chain(s) == r


def test_extend_roundtrip():
    best = ChainReport(primes=((5, 6, "L"), (3, 4, "R")),
                       colors="BGRB", angles="64", violations=())
    r = ExtendReport(seed="pair.chain", leftmax=2, rightmax=1,
                     target=3, met=False, best=best)
    s = write_extend(r)
    assert read_extend(s) == r
    assert write_extend(read_extend(s)) == s


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

def test_header_and_newline_required(small):
    p, _ = small
    good = write_patch(p)
    with pytest.raises(FormatError):
        read_patch(good.rstrip("\n"))
    with pytest.raises(FormatError):
        read_patch("P2PATCH v2\n" + good.split("\n", 1)[1])
    with pytest.raises(FormatError):
        read_graph(good)    # wrong magic for this reader


@pytest.mark.parametrize("line", [
    "tile 0 X 0 0 0 0 0 0",         # unknown kind
    "tile 0 K 10 0 0 0 0 0",        # rotation out of range
    "tile 0 K 0 1 0 0 0 0",         # mirror flag unsupported
    "tile 1 K 0 0 0 0 0 0",         # ids must start at 0
    "tile 0 K 0 0 0 0 0",           # wrong field count
])
def test_patch_rejects_bad_tile_lines(line):
    with pytest.raises(FormatError):
        read_patch(f"P2PATCH v1\nscale 0\n{line}\n")


def test_patch_requires_scale_line():
    with pytest.raises(FormatError):
        read_patch("P2PATCH v1\ntile 0 K 0 0 0 0 0 0\n")


def test_graph_rejects_disorder(small):
    p, g = small
    s = write_graph(g)
    lines = s.split("\n")
    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:])
    with pytest.raises(FormatError):
        read_graph(swapped)
    with pytest.raises(FormatError):
        read_graph("P2GRAPH v1\nedge 1 0\n")
    with pytest.raises(FormatError):
        read_graph("P2GRAPH v1\nedge 0 1\ninterior 0\n")


def test_graph_rejects_repeated_edge():
    # a repeated edge would build a multigraph on which the search is
    # wrong: 0-1-2 is an induced path with 2 leaves
    text = "P2GRAPH v1\nedge 0 1\nedge 0 1\nedge 1 2\n"
    with pytest.raises(FormatError):
        read_graph(text)
    g = read_graph(text.replace("edge 0 1\n", "", 1))
    assert g.m == 2
    assert search_max_leaves(g, 3).max_leaves == 2


def test_flis_rejects_bad_witnesses(small):
    p, g = small
    with pytest.raises(FormatError):
        read_flis("FLIS v1\nn 2 maxleaves 2 stable 1\nwitness 1 0\n", g)
    a = 0
    b = min(g.neighbors(a))
    with pytest.raises(FormatError):
        # a genuine induced edge, but the order claims n = 3
        read_flis(f"FLIS v1\nn 3 maxleaves 2 stable 1\nwitness {a} {b}\n", g)
    with pytest.raises(FormatError):
        read_flis("FLIS v1\nn 2 maxleaves 2 stable 2\n", g)
    with pytest.raises(FormatError):
        # not an induced subtree of g: nonadjacent pair
        far = "witness 0 " + str(g.n - 1)
        read_flis(f"FLIS v1\nn 2 maxleaves 2 stable 1\n{far}\n", g)
    with pytest.raises(FormatError):
        read_flis("FLIS v1\nn -1 maxleaves -5 stable 0\n", g)
    path = P2Graph(((1,), (0, 2), (1,)))
    with pytest.raises(FormatError):
        # 0-1-2 is an induced path with 2 leaves, not 0
        read_flis("FLIS v1\nn 3 maxleaves 0 stable 1\nwitness 0 1 2\n", path)
    assert read_flis("FLIS v1\nn 3 maxleaves 2 stable 1\nwitness 0 1 2\n",
                     path).max_leaves == 2
    for text in ("n 3 maxleaves 7 stable 0",   # more leaves than tiles
                 "n 1 maxleaves 1 stable 0",   # an order-1 tree has none
                 "n 9 maxleaves 2 stable 1",   # order above the 3 tiles
                 "n 3 maxleaves 3 stable 0",   # at most n - 1 from n = 3
                 "n 2 maxleaves 3 stable 0"):  # at most 2 at n = 2
        with pytest.raises(FormatError):
            read_flis(f"FLIS v1\n{text}\n", path)


def test_stargraph_rejects_uncolored_and_bad_lines():
    p4 = inflate(seed_patch("sun"), 4)
    stars, _ = detect_stars_and_suns(p4, build_dual(p4))
    bare = build_star_graph(p4, stars)
    with pytest.raises(FormatError):
        write_stargraph(bare)
    with pytest.raises(FormatError):
        read_stargraph("STARGRAPH v1\nvertex 0 0 0 0 0 X\n")
    with pytest.raises(FormatError):
        read_stargraph("STARGRAPH v1\nvertex 0 0 0 0 0 R\nedge 0 1\n")


def test_stargraph_rejects_repeated_edge():
    text = "STARGRAPH v1\nvertex 0 0 0 0 0 R\nvertex 1 1 0 0 0 G\n" \
        "edge 0 1\n"
    assert read_stargraph(text).edges == ((0, 1),)
    with pytest.raises(FormatError):
        read_stargraph(text + "edge 0 1\n")


SEED_LINES = "seed s\nleftmax 1 rightmax 1 target 1 met 1\n"

#: texts that cannot round-trip (a repeated, missing or misplaced line)
#: or that lie about the chain or graph they describe
NON_CANONICAL = {
    "chain-repeated-line": (read_chain, "CHAIN v1\nword colors R\n"
                            "word colors G\nword angles \nviolations none\n"),
    "chain-no-violations": (read_chain,
                            "CHAIN v1\nword colors R\nword angles \n"),
    "chain-out-of-order": (read_chain, "CHAIN v1\nword angles \n"
                           "word colors R\nviolations none\n"),
    "chain-angle-word": (read_chain, "CHAIN v1\nprime 0 class 2 angle 6 "
                         "side L\nword colors RGB\nword angles 4\n"
                         "violations none\n"),
    "chain-class-angle": (read_chain, "CHAIN v1\nprime 0 class 1 angle 6 "
                          "side L\nword colors RGB\nword angles 6\n"
                          "violations none\n"),
    "chain-color-length": (read_chain, "CHAIN v1\nprime 0 class 2 angle 6 "
                           "side L\nword colors RG\nword angles 6\n"
                           "violations none\n"),
    "extend-repeated-line": (read_extend, "EXTEND v1\n" + SEED_LINES
                             + "CHAIN v1\nword colors R\nword colors G\n"
                             "word angles \nviolations none\n"),
    "extend-no-violations": (read_extend, "EXTEND v1\n" + SEED_LINES
                             + "CHAIN v1\nword colors R\nword angles \n"),
    "extend-out-of-order": (read_extend, "EXTEND v1\n" + SEED_LINES
                            + "CHAIN v1\nword angles \nword colors R\n"
                            "violations none\n"),
    "chain-untrue-violation": (read_chain, "CHAIN v1\nprime 0 class 2 "
                               "angle 6 side L\nword colors RGB\n"
                               "word angles 6\nviolations x@0\n"),
    "chain-missing-violation": (read_chain, "CHAIN v1\nprime 0 class 3 "
                                "angle 4 side L\nprime 1 class 6 angle 4 "
                                "side R\nword colors RGBR\n"
                                "word angles 44\nviolations none\n"),
    "extend-negative-target": (read_extend, "EXTEND v1\nseed s\nleftmax 0 "
                               "rightmax 0 target -1 met 0\n" + "CHAIN v1\n"
                               "prime 0 class 2 angle 6 side L\n"
                               "word colors RGB\nword angles 6\n"
                               "violations none\n"),
    "extend-counts-outside-target": (read_extend, "EXTEND v1\nseed s\n"
                                     "leftmax -4 rightmax 9 target 2 met 0\n"
                                     "CHAIN v1\nprime 0 class 2 angle 6 "
                                     "side L\nword colors RGB\n"
                                     "word angles 6\nviolations none\n"),
    "extend-met-unreached": (read_extend, "EXTEND v1\nseed s\nleftmax 1 "
                             "rightmax 1 target 2 met 1\nCHAIN v1\n"
                             "prime 0 class 2 angle 6 side L\n"
                             "word colors RGB\nword angles 6\n"
                             "violations none\n"),
    "stargraph-same-center": (read_stargraph, "STARGRAPH v1\n"
                              "vertex 0 0 0 0 0 R\nvertex 1 0 0 0 0 G\n"
                              "edge 0 1\n"),
    "stargraph-late-vertex": (read_stargraph, "STARGRAPH v1\n"
                              "vertex 0 0 0 0 0 R\nvertex 1 1 0 0 0 G\n"
                              "edge 0 1\nvertex 2 0 1 0 0 B\n"),
    "stargraph-edge-order": (read_stargraph, "STARGRAPH v1\n"
                             "vertex 0 0 0 0 0 R\nvertex 1 1 0 0 0 G\n"
                             "vertex 2 0 1 0 0 B\nedge 1 2\nedge 0 1\n"),
}


@pytest.mark.parametrize("read, text", NON_CANONICAL.values(),
                         ids=NON_CANONICAL.keys())
def test_non_canonical_texts_rejected(read, text):
    with pytest.raises(FormatError):
        read(text)


@pytest.mark.parametrize("body", [
    "prime 0 class 7 angle 4 side L\nword colors RGB\nword angles 4\n"
    "violations none",                              # class out of range
    "prime 0 class 2 angle 5 side L\nword colors RGB\nword angles 6\n"
    "violations none",                              # angle not in 4/6/8
    "prime 0 class 2 angle 6 side X\nword colors RGB\nword angles 6\n"
    "violations none",                              # side not L/R
    "prime 0 class 2 angle 6 side L\nword angles 6\nviolations none",
    "prime 0 class 2 angle 6 side L\nword colors RGB\nword angles 66\n"
    "violations none",                              # word length mismatch
    "prime 0 class 2 angle 6 side L\nword colors RGB\nword angles 6\n"
    "violations foo",                               # token without @
])
def test_chain_rejects_malformed(body):
    with pytest.raises(FormatError):
        read_chain(f"CHAIN v1\n{body}\n")


PATCH = "P2PATCH v1\nscale 0\n"
EDGES = "P2GRAPH v1\nedge 0 1\nedge 1 2\nedge 1 3\nedge 1 4\n"
STAR = "STARGRAPH v1\nvertex 0 0 0 0 0 R\n"
PRIME = "CHAIN v1\nprime 0 class 2 angle 6 side L\n"
WORDS = "word colors RGB\nword angles 6\n"
CHAIN = PRIME + WORDS + "violations none\n"


def read_flis_edge(text: str):
    return read_flis(text, P2Graph(((1,), (0,))))


# (id, reader, text with one integer field -- or the EXTEND met flag --
# marked {}, the canonical token the reader accepts there)
INTEGER_FIELDS = [
    ("patch-scale", read_patch, "P2PATCH v1\nscale {}\n", "0"),
    ("patch-id", read_patch, PATCH + "tile {} K 0 0 0 0 0 0\n", "0"),
    ("patch-rotation", read_patch, PATCH + "tile 0 K {} 0 0 0 0 0\n", "3"),
    ("patch-anchor", read_patch, PATCH + "tile 0 K 0 0 0 {} 0 0\n", "-3"),
    ("graph-edge", read_graph, "P2GRAPH v1\nedge 0 {}\n", "1"),
    ("graph-interior", read_graph, EDGES + "interior {}\n", "1"),
    ("graph-isolated", read_graph, "P2GRAPH v1\nisolated {}\n", "0"),
    ("flis-n", read_flis_edge, "FLIS v1\nn {} maxleaves 0 stable 0\n", "1"),
    ("flis-maxleaves", read_flis_edge,
     "FLIS v1\nn 1 maxleaves {} stable 0\n", "0"),
    ("flis-witness", read_flis_edge,
     "FLIS v1\nn 2 maxleaves 2 stable 0\nwitness 0 {}\n", "1"),
    ("star-id", read_stargraph, "STARGRAPH v1\nvertex {} 0 0 0 0 R\n", "0"),
    ("star-center", read_stargraph, "STARGRAPH v1\nvertex 0 0 0 {} 0 R\n",
     "-3"),
    ("star-edge", read_stargraph, STAR + "vertex 1 1 0 0 0 G\nedge 0 {}\n",
     "1"),
    ("chain-index", read_chain,
     "CHAIN v1\nprime {} class 2 angle 6 side L\n" + WORDS
     + "violations none\n", "0"),
    ("chain-class", read_chain,
     "CHAIN v1\nprime 0 class {} angle 6 side L\n" + WORDS
     + "violations none\n", "2"),
    ("chain-violation", read_chain, "CHAIN v1\nprime 0 class 1 angle 4 "
     "side L\nword colors RGB\nword angles 4\nviolations class-1@{}\n", "0"),
    ("extend-target", read_extend, "EXTEND v1\nseed s\nleftmax 1 rightmax 1 "
     "target {} met 1\n" + CHAIN, "1"),
    ("extend-met", read_extend, "EXTEND v1\nseed s\nleftmax 1 rightmax 1 "
     "target 1 met {}\n" + CHAIN, "1"),
]


@pytest.mark.parametrize("read, template, good",
                         [case[1:] for case in INTEGER_FIELDS],
                         ids=[case[0] for case in INTEGER_FIELDS])
@pytest.mark.parametrize("bad", ["x", "+3", "03", "01", "-0", "0_0", ""])
def test_integer_fields_are_canonical(read, template, good, bad):
    read(template.format(good))
    with pytest.raises(FormatError):
        read(template.format(bad))


def test_extend_rejects_malformed():
    chain = ("CHAIN v1\nprime 0 class 2 angle 6 side L\n"
             "word colors RGB\nword angles 6\nviolations none\n")
    with pytest.raises(FormatError):
        read_extend("EXTEND v1\nleftmax 1 rightmax 1 target 1 met 1\n"
                    + chain)    # seed line missing
    with pytest.raises(FormatError):
        read_extend("EXTEND v1\nseed s\nleftmax 1 rightmax 1 target 1 "
                    "met 2\n" + chain)
    with pytest.raises(FormatError):
        read_extend("EXTEND v1\nseed s\nleftmax 1 rightmax 1 target 1 "
                    "met 1\nGRAPH v1\n")


# ---------------------------------------------------------------------------
# round-trip property: any text is rejected or reproduced byte for byte
# ---------------------------------------------------------------------------

def assert_rejected_or_reproduced(read, write, text: str) -> None:
    try:
        obj = read(text)
    except FormatError:
        return
    assert write(obj) == text


def mutations(valid):
    """Texts one edit away from a valid text: a line dropped, repeated
    or moved, two neighboring words of a line swapped, or one character
    replaced, inserted or deleted."""
    def edit(text, kind, i, j, ch):
        lines = text.split("\n")
        i, j = i % len(lines), j % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(j, lines[i])
        elif kind == "move":
            lines.insert(j, lines.pop(i))
        elif kind == "swap":
            words = lines[i].split(" ")
            j %= len(words)
            words[j - 1], words[j] = words[j], words[j - 1]
            lines[i] = " ".join(words)
        else:
            pos = (i * 7 + j) % (len(text) + 1)
            tail = text[pos + (kind != "insert"):]
            return text[:pos] + (ch if kind != "delete" else "") + tail
        return "\n".join(lines)
    return st.builds(edit, valid,
                     st.sampled_from(["drop", "repeat", "move", "swap",
                                      "replace", "insert", "delete"]),
                     st.integers(0, 99), st.integers(0, 99),
                     st.sampled_from("0123456789- \nx\r"))


def line_soup(header: str, words: list[str], *grammar):
    """Headed texts of lines built from the format's own words, or drawn
    from the line strategies in grammar."""
    line = st.one_of(st.lists(st.sampled_from(words), max_size=6
                              ).map(" ".join), *grammar)
    return st.lists(line, max_size=8).map(
        lambda ls: "\n".join([header] + ls) + "\n")


IDS = st.integers(-3, 6)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return P2Graph(tuple(tuple(sorted(x)) for x in adj))


VALID_GRAPH = small_graphs().map(write_graph)
GRAPH_TEXTS = st.one_of(
    VALID_GRAPH, mutations(VALID_GRAPH),
    line_soup("P2GRAPH v1", ["edge", "interior", "isolated", "0", "1", "2",
                             "4", "-1", "01", ""],
              st.builds("edge {} {}".format, IDS, IDS),
              st.builds("interior {}".format, IDS),
              st.builds("isolated {}".format, IDS)),
    st.text(max_size=40).map(lambda s: "P2GRAPH v1\n" + s), st.text())

SUN1 = build_dual(inflate(seed_patch("sun"), 1))


def flis_text(n: int, stable: bool) -> str:
    """The FLIS text of a level-1 sun dual record, two witnesses."""
    rec = search_max_leaves(SUN1, n, Budget(witness_cap=2))
    return write_flis(replace(rec, stable=stable))


VALID_FLIS = st.builds(flis_text, st.integers(0, 6), st.booleans())
FLIS_TEXTS = st.one_of(
    VALID_FLIS, mutations(VALID_FLIS),
    line_soup("FLIS v1", ["n", "maxleaves", "stable", "witness", "0", "1",
                          "2", "3", "5", "-1", "01", ""],
              st.builds("n {} maxleaves {} stable {}".format, IDS, IDS,
                        st.integers(-1, 2)),
              st.lists(IDS, min_size=1, max_size=4).map(
                  lambda ids: " ".join(["witness"] + [str(i) for i in ids]))),
    st.text(max_size=40).map(lambda s: "FLIS v1\n" + s), st.text())


VALID_PATCH = st.sampled_from([write_patch(inflate(seed_patch(name), k))
                               for name in SEED_NAMES for k in range(3)])
PATCH_TEXTS = st.one_of(
    VALID_PATCH, mutations(VALID_PATCH),
    line_soup("P2PATCH v1", ["scale", "tile", "K", "D", "0", "1", "9",
                             "10", "-1", "01", ""],
              st.builds("scale {}".format, IDS),
              st.builds("tile {} {} {} {} {} {} {} {}".format, IDS,
                        st.sampled_from("KDX"), IDS, st.integers(0, 1),
                        IDS, IDS, IDS, IDS)),
    st.text(max_size=40).map(lambda s: "P2PATCH v1\n" + s), st.text())

COEFFS = st.integers(-3, 3)


@st.composite
def small_stargraphs(draw):
    centers = draw(st.lists(st.builds(Cyclo10, COEFFS, COEFFS, COEFFS, COEFFS),
                            max_size=5, unique=True))
    n = len(centers)
    verts = tuple(StarVertex(c, (), draw(st.sampled_from("RGB")))
                  for c in centers)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) \
        if pairs else []
    return StarGraph(verts, tuple(sorted(edges)))


VALID_STARGRAPH = small_stargraphs().map(write_stargraph)
STARGRAPH_TEXTS = st.one_of(
    VALID_STARGRAPH, mutations(VALID_STARGRAPH),
    line_soup("STARGRAPH v1", ["vertex", "edge", "R", "G", "B", "0", "1",
                               "2", "-1", "01", ""],
              st.builds("vertex {} {} {} {} {} {}".format, IDS, IDS, IDS,
                        IDS, IDS, st.sampled_from("RGBX")),
              st.builds("edge {} {}".format, IDS, IDS)),
    st.text(max_size=40).map(lambda s: "STARGRAPH v1\n" + s), st.text())


@st.composite
def chain_reports(draw):
    classes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    primes = tuple((c, ANGLE_OF_CLASS[c], draw(st.sampled_from("LR")))
                   for c in classes)
    colors = "".join(draw(st.lists(st.sampled_from("RGB"),
                                   min_size=len(primes) + 2,
                                   max_size=len(primes) + 2)))
    angles = "".join(str(a) for _, a, _ in primes)
    return ChainReport(primes, colors, angles,
                       tuple((v.kind, v.start)
                             for v in word_violations(classes, angles)))


CHAIN_WORDS = ["prime", "class", "angle", "side", "word", "colors",
               "angles", "violations", "none", "L", "R", "RGB", "4", "6",
               "0", "1", "2", "-1", "01", "class-1@0", ""]
CHAIN_LINES = (
    st.builds("prime {} class {} angle {} side {}".format, IDS, IDS,
              st.sampled_from([4, 5, 6, 8]), st.sampled_from("LRX")),
    st.builds("word colors {}".format, st.text("RGBX", max_size=5)),
    st.builds("word angles {}".format, st.text("4568", max_size=4)),
    st.sampled_from(["violations none", "violations class-1@0",
                     "violations cape-2@1 angle-pair@0", "violations x"]))
VALID_CHAIN = chain_reports().map(write_chain)
CHAIN_TEXTS = st.one_of(
    VALID_CHAIN, mutations(VALID_CHAIN),
    line_soup("CHAIN v1", CHAIN_WORDS, *CHAIN_LINES),
    st.text(max_size=40).map(lambda s: "CHAIN v1\n" + s), st.text())


@st.composite
def extend_reports(draw):
    target = draw(st.integers(0, 3))
    left, right = (draw(st.integers(0, target)) for _ in range(2))
    met = draw(st.booleans()) and left == right == target
    return ExtendReport(draw(st.sampled_from(["s", "pair.chain"])), left,
                        right, target, met, draw(chain_reports()))


VALID_EXTEND = extend_reports().map(write_extend)
EXTEND_TEXTS = st.one_of(
    VALID_EXTEND, mutations(VALID_EXTEND),
    line_soup("EXTEND v1", CHAIN_WORDS + ["seed", "leftmax", "rightmax",
                                          "target", "met", "CHAIN", "v1"],
              st.just("seed s"), st.just("CHAIN v1"),
              st.builds("leftmax {} rightmax {} target {} met {}".format,
                        IDS, IDS, IDS, st.integers(-1, 2)),
              *CHAIN_LINES),
    st.text(max_size=40).map(lambda s: "EXTEND v1\n" + s), st.text())


@settings(max_examples=200, deadline=None)
@given(PATCH_TEXTS)
@example("P2PATCH v1\nscale 0\ntile 0 K 0 0 0 0 0 0\nscale 0\n")
def test_patch_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(read_patch, write_patch, text)


def _non_canonical(prefix: str):
    """Apply the NON_CANONICAL texts whose id starts with prefix as
    Hypothesis examples."""
    def apply(test):
        for key, (_, text) in NON_CANONICAL.items():
            if key.startswith(prefix):
                test = example(text)(test)
        return test
    return apply


@settings(max_examples=200, deadline=None)
@given(STARGRAPH_TEXTS)
@_non_canonical("stargraph-")
def test_stargraph_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(read_stargraph, write_stargraph, text)


@settings(max_examples=200, deadline=None)
@given(CHAIN_TEXTS)
@_non_canonical("chain-")
def test_chain_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(read_chain, write_chain, text)


@settings(max_examples=200, deadline=None)
@given(EXTEND_TEXTS)
@_non_canonical("extend-")
def test_extend_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(read_extend, write_extend, text)


@settings(max_examples=400, deadline=None)
@given(GRAPH_TEXTS)
@example("P2GRAPH v1\nedge -1 0\n")
@example("P2GRAPH v1\ninterior 0\n"
         "edge 0 1\nedge 0 2\nedge 0 3\nedge 0 4\n")
def test_graph_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(read_graph, write_graph, text)


@settings(max_examples=400, deadline=None)
@given(FLIS_TEXTS)
@example("FLIS v1\nn -1 maxleaves -5 stable 0\n")
@example("FLIS v1\nn 3 maxleaves 0 stable 1\nwitness 0 1 2\n")
@example("FLIS v1\nn 3 maxleaves 7 stable 0\n")
@example("FLIS v1\nn 1 maxleaves 1 stable 0\n")
@example("FLIS v1\nn 9 maxleaves 2 stable 1\n")
def test_flis_text_rejected_or_reproduced(text):
    assert_rejected_or_reproduced(lambda s: read_flis(s, SUN1), write_flis,
                                  text)
