"""End-to-end command tests driving main() with real files.

Cheap commands run on small patches built here; the extension commands
need prime pairs, which first appear around level 6, so those reuse the
session corpus.
"""
from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import p2flis
from p2flis.cli import build_parser, main
from p2flis.dualgraph import build_dual
from p2flis.flis import LeafRecord, leaf_function_formula
from p2flis.formats import read_extend, read_flis, read_patch, write_flis, \
    write_patch
from p2flis.geometry import KITE, Tile, inflate, make_patch, seed_patch
from p2flis.inflation_lab import complete_prime, find_prime_chains
from p2flis.ring import ZETA_POW, Cyclo10
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns


@pytest.fixture(scope="module")
def arts(tmp_path_factory):
    """Level-4 artifacts: patch file plus one decomposable prime witness."""
    d = tmp_path_factory.mktemp("cli")
    p = inflate(seed_patch("sun"), 4)
    g = build_dual(p)
    stars, suns = detect_stars_and_suns(p, g)
    sg = color_star_vertices(build_star_graph(p, stars), suns, g)
    cid, si, chain = find_prime_chains(p, g, sg)[0]
    wit = next(complete_prime(g, chain))
    patch = d / "s4.patch"
    patch.write_text(write_patch(p))
    flis = d / "w18.flis"
    flis.write_text(write_flis(LeafRecord(
        n=18, max_leaves=10, witnesses=(wit,), stable=True)))
    return {"dir": d, "patch": str(patch), "flis": str(flis), "g": g}


def test_generate_then_dual_gives_c5(tmp_path, capsys):
    patch = tmp_path / "s0.patch"
    assert main(["generate", "--seed", "sun", "--inflations", "0",
                 "-o", str(patch)]) == 0
    q = read_patch(patch.read_text())
    assert len(q.tiles) == 5
    assert main(["dual", str(patch)]) == 0
    out = capsys.readouterr().out
    edges = [ln for ln in out.split("\n") if ln.startswith("edge ")]
    assert len(edges) == 5          # the dual of the sun seed is a 5-cycle


def test_leaffn_table(capsys):
    assert main(["leaffn", "--max", "40"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert "L(2)=2" in lines
    assert "L(17)=9" in lines
    assert "L(18)=10" in lines
    assert "L(19)=10" in lines
    assert "L(35)=18" in lines


def test_search_writes_record(arts, tmp_path, capsys):
    out = tmp_path / "r.flis"
    assert main(["search", "--order", "6", arts["patch"],
                 "-o", str(out)]) == 0
    rec = read_flis(out.read_text(), arts["g"])
    assert rec.n == 6
    assert rec.max_leaves == leaf_function_formula(6)
    assert 1 <= len(rec.witnesses) <= 10      # default witness cap


def test_search_witness_cap_zero(arts, capsys):
    assert main(["search", "--order", "2", "--witness-cap", "0",
                 arts["patch"]]) == 0
    rec = read_flis(capsys.readouterr().out, arts["g"])
    assert (rec.n, rec.max_leaves, rec.witnesses) == (2, 2, ())


def test_search_budget_exit(arts, capsys):
    rv = main(["search", "--order", "14", "--max-nodes", "10",
               arts["patch"]])
    assert rv == 3
    err = capsys.readouterr().err
    assert "budget" in err
    assert "value round (i, k) = (" in err and "spine nodes" in err


def test_verify_leaffn_small_levels(capsys):
    assert main(["verify-leaffn", "--max", "6", "--levels", "2,3"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.strip().split("\n")]
    assert len(rows) == 5
    assert all(ln.endswith("ok") for ln in rows)


def test_verify_leaffn_needs_two_distinct_levels(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify-leaffn", "--max", "6", "--levels", "2,2"])
    assert e.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "distinct" in cap.err


@pytest.mark.parametrize("argv", [
    ["verify-leaffn", "--max", "6", "--levels", "a,b"],
    ["verify-leaffn", "--max", "6", "--levels=-1,2"],
    ["verify-leaffn", "--max", "6", "--levels", "2,3,4"],
    ["verify-leaffn", "--max", "6", "--levels", "3"],
    ["generate", "--seed", "sun", "--inflations", "-1"],
    ["search", "--order", "-1", "x.patch"],
    ["leaffn", "--max", "-5"],
    ["verify-leaffn", "--max", "-1", "--levels", "2,3"],
    ["chain", "--witness", "x.flis", "--index", "-1", "x.patch"],
    ["extend", "--chain", "x.flis", "--index", "-1", "--target", "1",
     "x.patch"],
    ["render", "--svg", "x.svg", "--tree", "x.flis", "--index", "-1",
     "x.patch"],
    ["search", "--order", "2", "--max-seconds", "nan", "x.patch"],
])
def test_bad_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "structural violation" not in cap.err


def test_stars_file_and_svg(arts, tmp_path, capsys):
    sgf = tmp_path / "s4.stars"
    svg = tmp_path / "s4.svg"
    assert main(["stars", arts["patch"], "-o", str(sgf),
                 "--svg", str(svg)]) == 0
    assert sgf.read_text().startswith("STARGRAPH v1\n")
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")


def test_classify_census(arts, capsys):
    assert main(["classify", arts["patch"]]) == 0
    out = capsys.readouterr().out
    assert "class 4 angle 8 count 25" in out
    assert out.strip().endswith("total 80")


def test_chain_report_of_pair(l6, tmp_path, capsys):
    # color words need flank stars on the overlay; the small patch has
    # none such, so this one runs on the level-6 corpus
    patch, seed = _seed_files(l6, tmp_path, l6.interior_pair())
    assert main(["chain", "--witness", seed, patch]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CHAIN v1\n")
    primes = [ln for ln in out.split("\n") if ln.startswith("prime ")]
    assert len(primes) == 2
    assert "violations none" in out


def test_render_with_tree(arts, tmp_path):
    svg = tmp_path / "t.svg"
    assert main(["render", arts["patch"], "--tree", arts["flis"],
                 "--svg", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    circles = sum(1 for e in root.iter()
                  if e.tag.endswith("circle"))
    assert circles == 18


def test_validate_ok(arts, capsys):
    assert main(["validate", arts["patch"]]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_far_t_junction(tmp_path, capsys):
    # a kite tip inside another kite's edge, 10**12 from the origin
    far = Cyclo10(10**12)
    patch = tmp_path / "far.patch"
    patch.write_text(write_patch(make_patch(
        [Tile(KITE, far, 0), Tile(KITE, far + ZETA_POW[1], 3)])))
    assert main(["validate", str(patch)]) == 4
    assert capsys.readouterr().out.startswith("partial_edge t0 t1:")


def test_validate_names_the_first_disagreeing_corner(tmp_path, capsys):
    # two kites on one long edge, tip against side: the colors disagree
    # at both ends, and the detail names the corner that the first
    # piece's edge lists first as a frozenset
    patch = tmp_path / "glue.patch"
    patch.write_text("P2PATCH v1\nscale 0\ntile 0 K 0 0 0 0 0 0\n"
                     "tile 1 K 5 0 1 0 1 0\n")
    assert main(["validate", str(patch)]) == 4
    assert capsys.readouterr().out == (
        "matching_rule t0 t1: colors disagree at corner (1, 0, 1, 0)\n")


def test_coordinates_beyond_float_range(tmp_path, capsys):
    # two overlapping kites with a 10**400 coefficient, after a kite at
    # the origin: validation is exact and gives the verdict of the same
    # kites moved next to the origin; render refuses in one line
    texts = {}
    for name, c in (("huge", 10**400), ("near", 3)):
        texts[name] = path = tmp_path / f"{name}.patch"
        path.write_text("P2PATCH v1\nscale 0\ntile 0 K 0 0 0 0 0 0\n"
                        f"tile 1 K 0 0 {c} 0 0 0\ntile 2 K 1 0 {c} 0 0 0\n")
    verdicts = []
    for name in ("near", "huge"):
        assert main(["validate", str(texts[name])]) == 4
        out = capsys.readouterr().out
        verdicts.append([ln.split(":")[0] for ln in out.splitlines()])
    assert verdicts[0] == verdicts[1] == ["matching_rule t1 t2",
                                          "overlap t1 t2"]
    svg = tmp_path / "huge.svg"
    assert main(["render", str(texts["huge"]), "--svg", str(svg)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "overflow a float" in err
    assert err.startswith("p2flis: cannot render:")
    assert "structural violation" not in err
    assert not svg.exists()


def test_usage_errors_exit_2(arts, capsys):
    with pytest.raises(SystemExit) as e:
        main(["dual"])                  # missing positional
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["generate", "--seed", "moon", "--inflations", "1"])
    assert e.value.code == 2
    assert main(["dual", "/nonexistent/file.patch"]) == 2
    for flag in ("--max-nodes", "--max-seconds", "--witness-cap"):
        with pytest.raises(SystemExit) as e:
            main(["search", "--order", "2", flag, "-1", arts["patch"]])
        assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["extend", "--chain", arts["flis"], "--target", "-1",
              arts["patch"]])
    assert e.value.code == 2
    # budget flags a command would not read are not accepted
    for argv in (["verify-leaffn", "--max", "6", "--levels", "2,3",
                  "--witness-cap", "1"],
                 ["extend", "--chain", arts["flis"], "--target", "1",
                  "--witness-cap", "1", arts["patch"]],
                 ["extend", "--chain", arts["flis"], "--target", "1",
                  "--max-seconds", "1", arts["patch"]]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


def test_order_above_patch_size_is_usage_error(tmp_path, capsys):
    patch = tmp_path / "k1.patch"
    patch.write_text(write_patch(inflate(seed_patch("kite"), 1)))
    assert main(["search", "--order", "5", str(patch)]) == 2
    err = capsys.readouterr().err
    assert "order 5 exceeds graph size 2" in err
    assert "structural violation" not in err
    sun1 = build_dual(inflate(seed_patch("sun"), 1)).n
    assert main(["verify-leaffn", "--max", "30", "--levels", "1,2"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert f"order 30 exceeds graph size {sun1}" in cap.err
    assert "structural violation" not in cap.err


def test_malformed_input_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.patch"
    bad.write_text("P2PATCH v1\nscale 0\ntile 0 Q 0 0 0 0 0 0\n")
    assert main(["dual", str(bad)]) == 4
    assert "bad input" in capsys.readouterr().err


def test_witness_index_out_of_range(arts, capsys):
    assert main(["chain", "--witness", arts["flis"], "--index", "5",
                 arts["patch"]]) == 4


# ---------------------------------------------------------------------------
# extension commands (need the level-6 corpus)
# ---------------------------------------------------------------------------

def _seed_files(l6, tmp_path, chain):
    patch = tmp_path / "s6.patch"
    patch.write_text(write_patch(l6.p))
    seed = tmp_path / "seed.flis"
    seed.write_text(write_flis(LeafRecord(
        n=chain.order, max_leaves=leaf_function_formula(chain.order),
        witnesses=(chain.tree,), stable=True)))
    return str(patch), str(seed)


def test_extend_meets_target(l6, tmp_path, capsys):
    patch, seed = _seed_files(l6, tmp_path, l6.interior_pair())
    assert main(["extend", "--chain", seed, "--target", "1", patch]) == 0
    out = capsys.readouterr().out
    rep = read_extend(out)
    assert rep.met
    assert rep.leftmax >= 1 and rep.rightmax >= 1
    assert rep.seed == "seed.flis"
    assert len(rep.best.angles) == 3        # seed pair plus one prime


def test_extend_rejects_forbidden_seed(l6, tmp_path, capsys):
    patch, seed = _seed_files(l6, tmp_path, l6.class1_pair())
    rv = main(["extend", "--chain", seed, "--target", "1", patch])
    assert rv == 4
    cap = capsys.readouterr()
    assert "forbidden" in cap.err or "structural" in cap.err


def test_extend_budget_exit(l6, tmp_path, capsys):
    patch, seed = _seed_files(l6, tmp_path, l6.interior_pair())
    rv = main(["extend", "--chain", seed, "--target", "3",
               "--max-nodes", "1", patch])
    assert rv == 3
    err = capsys.readouterr().err
    assert "budget exhausted" in err
    assert "growing the left arm" in err


def _readme() -> str:
    root = os.path.dirname(os.path.dirname(os.path.dirname(p2flis.__file__)))
    with open(os.path.join(root, "README.md")) as f:
        return f.read()


def test_documented_commands_parse():
    # every `p2flis ...` line of README's Quick start and of the cli
    # module docstring names only subcommands and flags that exist
    import p2flis.cli
    quick = _readme().split("## Quick start", 1)[1].split("```")[1]
    lines = [ln.strip() for ln in quick.split("\n")
             + p2flis.cli.__doc__.split("\n")]
    commands = [ln.split()[1:] for ln in lines if ln.startswith("p2flis ")]
    assert len(commands) >= 20
    for argv in commands:
        build_parser().parse_args(argv)


def test_library_tour_names_exist():
    # every backticked identifier in a row of README's library tour is an
    # attribute of that row's module, so no moved or deleted name stays
    # documented there
    tour = _readme().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", tour, re.M)
    assert len(rows) == 10
    for mod, text in rows:
        module = importlib.import_module(f"p2flis.{mod}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", text):
            assert hasattr(module, name), f"{mod}.{name}"


def test_runtime_imports_only_stdlib():
    # every module of the package, imported in a fresh interpreter, pulls
    # in nothing outside the standard library
    code = (
        "import pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import p2flis\n"
        "for m in pkgutil.iter_modules(p2flis.__path__):\n"
        "    __import__('p2flis.' + m.name)\n"
        "new = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - sys.stdlib_module_names)))\n")
    src = os.path.dirname(os.path.dirname(p2flis.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["p2flis"]
