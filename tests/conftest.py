"""Shared per-session contexts for the heavier test fixtures.

Enumerating all order-18 optima of a level-6 sun patch (1370 of them)
and classifying them takes 5-7 s on a 2-core machine; several test
modules need that corpus, so it is built once per session here.
"""
from __future__ import annotations

import pytest

from p2flis.caterpillar import classify_prime
from p2flis.dualgraph import build_dual
from p2flis.flis import Budget, enumerate_flis
from p2flis.geometry import inflate, seed_patch
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns


class Level6:
    """Level-6 sun patch with dual graph, colored overlay, and the full
    order-18 witness corpus."""

    def __init__(self):
        self.p = inflate(seed_patch("sun"), 6)
        self.g = build_dual(self.p)
        stars, suns = detect_stars_and_suns(self.p, self.g)
        self.stars = stars
        self.suns = suns
        self.sg = color_star_vertices(build_star_graph(self.p, stars),
                                      suns, self.g)
        self.w18 = enumerate_flis(
            self.g, 18, budget=Budget(max_nodes=None, witness_cap=None))
        self.classes = [classify_prime(t, self.p, self.g)
                        for t in self.w18]

    def chain_pairs(self) -> list:
        """All graftable two-prime chains, as (i, j, chain) over witness
        indices.  Cached; the quadratic scan runs once per session."""
        if not hasattr(self, "_chain_pairs"):
            from p2flis.caterpillar import chain_from_primes
            tilesets = [set(t.tiles) for t in self.w18]
            out = []
            for i in range(len(self.w18)):
                for j in range(i + 1, len(self.w18)):
                    if len(tilesets[i] & tilesets[j]) != 1:
                        continue
                    try:
                        c = chain_from_primes([self.w18[i], self.w18[j]],
                                              self.p, self.g, self.sg)
                    except ValueError:
                        continue
                    out.append((i, j, c))
            self._chain_pairs = out
        return self._chain_pairs

    def interior_pair(self, nth: int = 0, skip_class1: bool = True):
        """The nth two-prime chain whose star chain lies entirely on
        overlay vertices (so color words and extension are available)."""
        centers = {v.center for v in self.sg.vertices}
        k = 0
        for i, j, c in self.chain_pairs():
            if any(s not in centers for s in c.star_chain):
                continue
            if skip_class1 and any(pc.class_id == 1 for pc in c.primes):
                continue
            if k == nth:
                return c
            k += 1
        raise LookupError("no such interior pair")

    def class1_pair(self):
        for i, j, c in self.chain_pairs():
            if any(pc.class_id == 1 for pc in c.primes):
                return c
        raise LookupError("no class-1 pair at this level")


@pytest.fixture(scope="session")
def l6() -> Level6:
    return Level6()
