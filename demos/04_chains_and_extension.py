"""
Grafting chains and growing them outward
========================================

Two primes that share exactly one leaf graft into a 35-tile caterpillar
that is again optimal; longer chains work the same way, one shared leaf
per junction.  A chain remembers the stars its primes are pinned to, so
it reads as a word: one turning angle (4, 6 or 8) per prime.  Words
with a 4,4 factor or a class-1 prime never continue; the interesting
seeds are the ones that keep all doors open.

This demo finds a two-prime chain in a level-6 patch, grows it by one
prime in each direction, and shows a forbidden seed being refused.

Runs in about 2.5 s on a 2-core machine: the order-18 enumeration takes
about 0.5 s of it, scanning and grafting the pairs most of the rest.
"""
from p2flis.caterpillar import chain_from_primes, forbidden_patterns
from p2flis.dualgraph import build_dual
from p2flis.flis import Budget, enumerate_flis
from p2flis.geometry import inflate, seed_patch
from p2flis.inflation_lab import extend_chain
from p2flis.stargraph import build_star_graph, color_star_vertices, \
    detect_stars_and_suns

p = inflate(seed_patch("sun"), 6)
g = build_dual(p)
stars, suns = detect_stars_and_suns(p, g)
sg = color_star_vertices(build_star_graph(p, stars), suns, g)

print("enumerating all optimal 18-tile subtrees...")
w18 = enumerate_flis(g, 18, budget=Budget(max_nodes=None, witness_cap=None))
print(f"  {len(w18)} witnesses")

# Scan for graftable pairs: tile sets sharing exactly one tile whose
# union is again an optimal tree.
tilesets = [set(t.tiles) for t in w18]
pairs = []
for i in range(len(w18)):
    for j in range(i + 1, len(w18)):
        if len(tilesets[i] & tilesets[j]) != 1:
            continue
        try:
            pairs.append(chain_from_primes([w18[i], w18[j]], p, g, sg))
        except ValueError:
            continue
print(f"  {len(pairs)} graftable pairs")

# Pick a seed whose stars all lie inside the patch and which carries no
# forbidden pattern, then grow it.
centers = {v.center for v in sg.vertices}
seed = next(c for c in pairs
            if all(s in centers for s in c.star_chain)
            and not forbidden_patterns(c))
print(f"seed word: {seed.angle_word()}  "
      f"classes {[pc.class_id for pc in seed.primes]}")

out = extend_chain(p, g, sg, seed, target=1)
print(f"extension: left +{out.leftmax}, right +{out.rightmax}, "
      f"target met: {out.met}")
print(f"grown word: {out.chain.angle_word()}")

# A chain containing a class-1 prime is dead on arrival: its flank rays
# close off one side, and the search refuses it outright.
bad = next((c for c in pairs
            if any(pc.class_id == 1 for pc in c.primes)), None)
if bad is not None:
    res = extend_chain(p, g, sg, bad, target=1)
    print(f"class-1 seed {bad.angle_word()}: rejected = {res.rejected}")
