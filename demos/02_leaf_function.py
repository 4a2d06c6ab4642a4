"""
The leaf function of P2 tilings
===============================

Among all induced subtrees with n tiles, how many leaves can you get?
The answer is a closed formula: linear pieces of slope 1/2 glued with a
jump of +8 every 17 tiles, plus a bonus leaf exactly when n = 1 mod 17.
This demo checks the formula against exhaustive search on two patch
sizes.  When both sizes agree the value has stabilized: a larger patch
can only add room, and these orders already have all the room they can
use.
"""
import time

from p2flis.dualgraph import build_dual
from p2flis.flis import leaf_function_formula, leaf_profile, stabilize
from p2flis.geometry import inflate, seed_patch

# The formula itself is instant; here is the interesting stretch where
# the first jump happens.
print("formula:", ", ".join(f"L({n})={leaf_function_formula(n)}"
                            for n in range(15, 22)))

# Exhaustive search on level-4 and level-5 sun patches: one sweep of
# orders 0..22 per patch, keeping n >= 2, so the jump at 21 is searched.
levels = (4, 5)
runs = []
for k in levels:
    g = build_dual(inflate(seed_patch("sun"), k))
    t0 = time.monotonic()
    recs = leaf_profile(g, 22)[2:]
    print(f"level {k}: {g.n} tiles, searched orders 2..22 "
          f"in {time.monotonic() - t0:.1f}s")
    runs.append(recs)

print()
print(" n  formula  search  stable")
for rec in stabilize(runs[0], runs[1]):
    f = leaf_function_formula(rec.n)
    mark = "  <-- disagrees!" if rec.stable and rec.max_leaves != f else ""
    print(f"{rec.n:3d}  {f:7d} {rec.max_leaves:7d}   {int(rec.stable)}"
          f"{mark}")
