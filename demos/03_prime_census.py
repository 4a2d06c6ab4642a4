"""
Prime caterpillars and their six shapes
=======================================

Every optimal induced subtree with 18 tiles is a caterpillar: an
8-tile path (the spine) whose tiles each carry enough leaves to reach
10 in total.  The spine is pinned to a "star" vertex of the tiling --
five darts meeting at a point -- and up to isometry there are exactly
six ways it can wrap around its star.  This demo takes a level-6 sun
patch, finds every prime by template matching, and prints the census
with the turning angle of each class.

Takes under a second on a 2-core machine.
"""
import os
from collections import Counter

from p2flis.caterpillar import ANGLE_OF_CLASS
from p2flis.dualgraph import build_dual
from p2flis.geometry import inflate, seed_patch
from p2flis.inflation_lab import complete_prime, find_prime_chains
from p2flis.render import svg_document
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns

here = os.path.dirname(os.path.abspath(__file__))

p = inflate(seed_patch("sun"), 6)
g = build_dual(p)
stars, suns = detect_stars_and_suns(p, g)
sg = color_star_vertices(build_star_graph(p, stars), suns, g)
print(f"patch: {len(p.tiles)} tiles, {len(stars)} stars, "
      f"{len(suns)} suns")

# A prime is determined by its spine; the census matches the six rigid
# spine templates at every star.
census = find_prime_chains(p, g, sg)
counts = Counter(cid for cid, _, _ in census)
print(f"{len(census)} prime spines:")
for cid in range(1, 7):
    ang = ANGLE_OF_CLASS[cid]
    print(f"  class {cid}: {counts[cid]:4d} instances, "
          f"turning angle {ang}pi/5 between its flank rays")

# Each spine completes to a full 18-tile prime by choosing leaves; the
# count of completions varies with how much of the patch is free around
# the star.
cid, si, chain = census[0]
completions = list(complete_prime(g, chain))
print(f"first spine (class {cid}) completes {len(completions)} ways")

# Render the patch with one prime overlaid and the star graph colored
# by sun adjacency (red = 2 suns, green = 1, blue = 0).
tree = completions[0].tiles
out = os.path.join(here, "prime_on_stars.svg")
with open(out, "w") as f:
    f.write(svg_document(p, tree=tree, g=g, sg=sg))
print(f"wrote {out}")
