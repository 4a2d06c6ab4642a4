"""Command-line surface: generation, search, reports, rendering.

    p2flis generate --seed sun --inflations 6 -o sun6.patch
    p2flis dual sun6.patch -o sun6.graph
    p2flis validate sun6.patch
    p2flis search --order 18 sun6.patch -o w18.flis
    p2flis leaffn --max 20
    p2flis verify-leaffn --max 12 --levels 4,5
    p2flis stars sun6.patch -o sun6.stars --svg overlay.svg
    p2flis classify sun6.patch
    p2flis chain --witness w18.flis sun6.patch
    p2flis extend --chain seed.flis --target 3 sun6.patch
    p2flis render sun6.patch --tree w18.flis --stars --svg out.svg

Text artifacts go to -o when given, else stdout.  Exit codes: 0 success,
2 usage error (an order above the patch size included) or unreadable
file, 3 budget exhausted, 4 structural violation (malformed file
content, failed patch validation, or a seed carrying a forbidden
pattern) or a patch that cannot be rendered (coordinates beyond the
float range).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable

from .caterpillar import ANGLE_OF_CLASS, decompose
from .dualgraph import P2Graph, build_dual
from .flis import Budget, BudgetExceeded, leaf_function_formula, \
    leaf_profile, search_max_leaves, stabilize
from .formats import ExtendReport, FormatError, chain_report, read_flis, \
    read_patch, write_chain, write_extend, write_flis, write_graph, \
    write_patch, write_stargraph
from .geometry import Patch, inflate, seed_patch, validate_patch
from .inflation_lab import extend_chain, find_prime_chains
from .render import RenderError, svg_document
from .stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_STRUCTURAL = 4


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _load_patch(path: str) -> Patch:
    with open(path) as f:
        return read_patch(f.read())


def _overlay(p: Patch, g: P2Graph):
    stars, suns = detect_stars_and_suns(p, g)
    return color_star_vertices(build_star_graph(p, stars), suns, g)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(**{f.name: getattr(args, f.name) for f in fields(Budget)
                     if hasattr(args, f.name)})


def _order_fits(n: int, g: P2Graph) -> bool:
    """Whether order n fits g; if not, says so as a usage error."""
    if n > g.n:
        print(f"p2flis: order {n} exceeds graph size {g.n}", file=sys.stderr)
    return n <= g.n


def _witness(args: argparse.Namespace, path: str, g: P2Graph):
    with open(path) as f:
        rec = read_flis(f.read(), g)
    if args.index >= len(rec.witnesses):
        raise FormatError(f"file holds {len(rec.witnesses)} witnesses; "
                          f"index {args.index} is out of range")
    return rec.witnesses[args.index]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    p = inflate(seed_patch(args.seed), args.inflations)
    _emit(write_patch(p), args.output)
    return EXIT_OK


def cmd_dual(args) -> int:
    g = build_dual(_load_patch(args.patch))
    _emit(write_graph(g), args.output)
    return EXIT_OK


def cmd_search(args) -> int:
    g = build_dual(_load_patch(args.patch))
    if not _order_fits(args.order, g):
        return EXIT_USAGE
    rec = search_max_leaves(g, args.order, _budget(args))
    _emit(write_flis(rec), args.output)
    return EXIT_OK


def cmd_leaffn(args) -> int:
    out = [f"L({n})={leaf_function_formula(n)}"
           for n in range(2, args.max + 1)]
    _emit("\n".join(out) + "\n", args.output)
    return EXIT_OK


def cmd_verify_leaffn(args) -> int:
    runs = []
    for k in args.levels:
        g = build_dual(inflate(seed_patch(args.seed), k))
        if not _order_fits(args.max, g):
            return EXIT_USAGE
        runs.append(leaf_profile(g, args.max, _budget(args))[2:])
    rows = stabilize(runs[0], runs[1])
    bad = 0
    lines = []
    for rec in rows:
        f = leaf_function_formula(rec.n)
        ok = rec.stable and rec.max_leaves == f
        if rec.stable and rec.max_leaves != f:
            bad += 1
        lines.append(f"n {rec.n} formula {f} search {rec.max_leaves} "
                     f"stable {1 if rec.stable else 0} "
                     f"{'ok' if ok else 'open'}")
    _emit("\n".join(lines) + "\n", args.output)
    if bad:
        print(f"p2flis: {bad} stabilized order(s) disagree with the "
              f"formula", file=sys.stderr)
        return EXIT_STRUCTURAL
    return EXIT_OK


def cmd_stars(args) -> int:
    p = _load_patch(args.patch)
    sg = _overlay(p, build_dual(p))
    text = write_stargraph(sg)
    if args.svg:
        with open(args.svg, "w") as f:
            f.write(svg_document(p, sg=sg))
    if args.output or not args.svg:
        _emit(text, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    p = _load_patch(args.patch)
    g = build_dual(p)
    census = find_prime_chains(p, g, _overlay(p, g))
    counts = {cid: 0 for cid in range(1, 7)}
    for cid, _, _ in census:
        counts[cid] += 1
    lines = [f"class {cid} angle {ANGLE_OF_CLASS[cid]} count {counts[cid]}"
             for cid in range(1, 7)]
    lines.append(f"total {len(census)}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_chain(args) -> int:
    p = _load_patch(args.patch)
    g = build_dual(p)
    sg = _overlay(p, g)
    c = decompose(_witness(args, args.witness, g), p, g, sg)
    _emit(write_chain(chain_report(c, sg)), args.output)
    return EXIT_OK


def cmd_extend(args) -> int:
    p = _load_patch(args.patch)
    g = build_dual(p)
    sg = _overlay(p, g)
    c = decompose(_witness(args, args.chain, g), p, g, sg)
    out = extend_chain(p, g, sg, c, args.target, budget=_budget(args))
    report = ExtendReport(seed=os.path.basename(args.chain),
                          leftmax=out.leftmax, rightmax=out.rightmax,
                          target=out.target, met=out.met,
                          best=chain_report(out.chain, sg))
    _emit(write_extend(report), args.output)
    if out.rejected:
        print("p2flis: seed chain carries a forbidden pattern; "
              "extension refused", file=sys.stderr)
        return EXIT_STRUCTURAL
    return EXIT_OK


def cmd_render(args) -> int:
    p = _load_patch(args.patch)
    g = None
    tree = None
    if args.tree:
        g = build_dual(p)
        tree = _witness(args, args.tree, g).tiles
    sg = None
    if args.stars:
        g = g or build_dual(p)
        sg = _overlay(p, g)
    doc = svg_document(p, tree=tree, g=g, sg=sg)
    with open(args.svg, "w") as f:
        f.write(doc)
    return EXIT_OK


def cmd_validate(args) -> int:
    violations = validate_patch(_load_patch(args.patch))
    for v in violations:
        print(f"{v.kind} {' '.join(v.owners)}: {v.detail}")
    if violations:
        return EXIT_STRUCTURAL
    print("ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _non_negative(kind: type) -> Callable[[str], int | float]:
    def parse(text: str):
        value = kind(text)
        if not value >= 0:      # NaN fails too
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in errors
    return parse


def _levels(text: str) -> tuple[int, ...]:
    """Two distinct non-negative inflation counts, ascending."""
    try:
        levels = sorted(map(_non_negative(int), text.split(",")))
    except ValueError:
        levels = []
    if len(levels) != 2 or levels[0] == levels[1]:
        raise argparse.ArgumentTypeError(
            f"needs exactly two distinct comma-separated inflation counts, "
            f"got {text}")
    return tuple(levels)


def _add_budget_flags(sp: argparse.ArgumentParser, *flags: str) -> None:
    """Register the Budget flags a subcommand's command reads."""
    spec = {"--max-nodes": (int, None, "abort after this many search nodes"),
            "--max-seconds": (float, None, "abort after this much wall time"),
            "--witness-cap": (int, 10, "keep at most this many witnesses")}
    for flag in flags:
        kind, default, text = spec[flag]
        sp.add_argument(flag, type=_non_negative(kind), default=default,
                        help=text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="p2flis",
        description="Penrose P2 patches, their dual graphs, and fully "
                    "leafed induced subtree structure.")
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name: str, func: Callable, help: str, *, patch: bool = True,
            output: bool = True) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help, description=help)
        sp.set_defaults(func=func)
        if patch:
            sp.add_argument("patch", help="P2PATCH v1 input file")
        if output:
            sp.add_argument("-o", "--output", default=None,
                            help="output file (default: stdout)")
        return sp

    sp = new("generate", cmd_generate, "emit a patch by substitution",
             patch=False)
    sp.add_argument("--seed", required=True,
                    choices=("sun", "star", "kite", "dart"))
    sp.add_argument("--inflations", type=_non_negative(int), required=True,
                    help="number of substitution steps (>= 0)")

    new("dual", cmd_dual, "emit the dual graph of a patch")

    sp = new("search", cmd_search, "maximum leaves at one order")
    sp.add_argument("--order", type=_non_negative(int), required=True)
    _add_budget_flags(sp, "--max-nodes", "--max-seconds", "--witness-cap")

    sp = new("leaffn", cmd_leaffn, "print the leaf-function table",
             patch=False)
    sp.add_argument("--max", type=_non_negative(int), required=True)

    sp = new("verify-leaffn", cmd_verify_leaffn,
             "compare search against the formula at two patch levels; "
             "the budget bounds each level's sweep", patch=False)
    sp.add_argument("--max", type=_non_negative(int), required=True)
    sp.add_argument("--levels", type=_levels, required=True,
                    help="two inflation counts, e.g. 4,5")
    sp.add_argument("--seed", default="sun",
                    choices=("sun", "star", "kite", "dart"))
    _add_budget_flags(sp, "--max-nodes", "--max-seconds")

    sp = new("stars", cmd_stars, "star overlay graph with colors")
    sp.add_argument("--svg", default=None, help="also render the overlay")

    new("classify", cmd_classify, "prime chain census by class")

    sp = new("chain", cmd_chain, "decompose a witness into a chain report")
    sp.add_argument("--witness", required=True, help="FLIS v1 file")
    sp.add_argument("--index", type=_non_negative(int), default=0,
                    help="which witness in the file")

    sp = new("extend", cmd_extend, "grow a seed chain prime by prime")
    sp.add_argument("--chain", required=True,
                    help="FLIS v1 file holding the seed chain tree")
    sp.add_argument("--index", type=_non_negative(int), default=0)
    sp.add_argument("--target", type=_non_negative(int), required=True,
                    help="primes to reach on each side")
    _add_budget_flags(sp, "--max-nodes")

    sp = new("render", cmd_render, "render a patch to SVG", output=False)
    sp.add_argument("--tree", default=None,
                    help="FLIS v1 file; overlay one witness")
    sp.add_argument("--index", type=_non_negative(int), default=0)
    sp.add_argument("--stars", action="store_true",
                    help="overlay the colored star graph")
    sp.add_argument("--svg", required=True, help="output SVG file")

    new("validate", cmd_validate, "check matching rules and overlaps")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"p2flis: budget exhausted: {e.reason}", file=sys.stderr)
        return EXIT_BUDGET
    except FormatError as e:
        print(f"p2flis: bad input: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except RenderError as e:
        print(f"p2flis: cannot render: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ValueError as e:
        print(f"p2flis: structural violation: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except OSError as e:
        print(f"p2flis: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
