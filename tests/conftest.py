"""Shared per-session contexts for the heavier test fixtures.

Enumerating all order-18 optima of a level-6 sun patch (1370 of them)
and classifying them takes about 0.2 s on a 2-core machine, the
enumeration 0.16 s of it; several test modules need that corpus, so it
is built once per session here.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

import pytest

from p2flis.caterpillar import chain_from_primes, classify_prime
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

    def chain_pairs(self):
        """Yield every graftable two-prime chain as (i, j, chain) over
        witness indices, (i, j) in increasing order.  Only pairs that
        share exactly one tile are tried; each is grafted on first
        demand and cached for the session."""
        if not hasattr(self, "_chains"):
            holders = defaultdict(list)
            for i, t in enumerate(self.w18):
                for x in t.tiles:
                    holders[x].append(i)
            shared = Counter(pair for ids in holders.values()
                             for pair in combinations(ids, 2))
            self._untried = iter(sorted(p for p, c in shared.items()
                                        if c == 1))
            self._chains = []
        k = 0
        while k < len(self._chains) or self._graft_next():
            yield self._chains[k]
            k += 1

    def _graft_next(self) -> bool:
        """Append the next graftable untried pair to the cache; False
        when none is left."""
        for pair in self._untried:
            try:
                c = chain_from_primes([self.w18[i] for i in pair],
                                      self.p, self.g, self.sg)
            except ValueError:
                continue
            self._chains.append((*pair, c))
            return True
        return False

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


@pytest.fixture(scope="session")
def star6():
    """Level-6 star patch, dual graph and colored overlay."""
    p = inflate(seed_patch("star"), 6)
    g = build_dual(p)
    stars, suns = detect_stars_and_suns(p, g)
    return p, g, color_star_vertices(build_star_graph(p, stars), suns, g)
