"""Fully leafed induced subtrees (FLIS) of P2 dual graphs.

An induced subtree of order n is a tile set whose induced subgraph is a
tree; it is fully leafed when it maximizes the number of leaves among all
induced subtrees of the same order.  This module evaluates the exact leaf
function closed form and searches dual graphs for maximum-leaf subtrees
with exact results.

Search strategy.  For n >= 3 every induced subtree T decomposes uniquely
into its internal tree I (vertices of tree-degree >= 2, itself an induced
subtree) plus the leaf set U, where each u in U has exactly one neighbor
in I, U is independent, and every end of I (internal-degree <= 1) receives
at least one leaf.  Conversely any such (I, U) is an induced subtree with
|U| leaves.  The search therefore enumerates internal trees ("spines") by
anchored canonical extension in increasing order (iterative deepening) and
decides the leaf attachment per spine exactly, by the per-tile covering
sets below, each leaf count at its own slack.  The walk keeps the leaf
candidates, the tiles outside the spine with exactly one spine neighbor,
as one bitmask that it updates as tiles enter and leave the spine, so a
finished spine's candidates for tile v are the neighbor mask of v masked
by it: nothing is rebuilt per spine.  For a fixed order n the
leaf count n - |I| shrinks as spines grow, so the first spine order
admitting n is optimal; infeasible spine orders below that are certified
by exhausting the enumeration.

Slack.  With internal degree cap c, a tree T = I + U with |I| = i and
|U| = k satisfies, summed over the spine, sum(c - deg_T(v)) =
(c-2)i + 2 - k exactly; as each term is >= 0, k <= (c-2)i + 2 restricts
the spine orders examined.  Along a branch of the enumeration each term
has a lower bound that only grows, c minus the independence number of
the neighbors of v still able to join T, and a branch is pruned as soon
as these bounds sum to more than the slack (c-2)i + 2 - k.  The prune
is exact: no spine of an optimal tree is cut.  Each term is need_v - t_v
>= 0, with need_v = c - deg_I(v) and t_v the leaves of v, so leaves are
chosen one spine tile at a time, t_v between need_v minus the slack left
and need_v, and a choice is accepted when the slack is used up exactly.
The bounds only grow along a branch and each tile added brings a term
>= 0, so once they sum to the slack (the branch's room is 0, at any
slack) every tree below has deg_T(v) equal to v's bound, and v's
candidates must supply exactly that bound minus deg_I(v) tiles, its
leaves and its later spine tiles.
A tile with exactly that many candidates left takes them all and bans
their neighbors from the other tiles; these forced leaves, propagated
until nothing changes, cut the branch in the walk when they collide or
fall short, so most spines that carry no tree are never finished.  At
slack 0 the bound is c and every t_v equals need_v.  Witness collection
keeps every accepted choice; a value round, which asks whether some
spine of order i carries exactly k leaves, stops at the first.

Symmetry.  A graph built from a patch carries the patch's exact
symmetries as automorphisms (P2Graph.symmetries; sun and star patches
have ten).  The search relabels vertices orbit by orbit, each orbit
contiguous with its least tile first, and anchors the enumeration only
on those representatives.  The spine of a tree is mapped to the spine
of its image, and some image of every spine has its least vertex at its
orbit's representative, so every tree is reached up to symmetry.  Value
rounds need nothing more, as feasibility is invariant under the group;
witness collection adds every image of each emitted tree, and the
witness buffer, which dedupes and keeps the cap smallest, makes the
witness sets the same as those of the walk from every tile.  A graph
with no symmetries known runs the same code with every vertex its own
orbit.

Degrees inside induced subtrees of P2 dual graphs never exceed 3; this is
re-checked per graph (every 4-neighborhood contains an adjacent pair) and
the engine falls back to a general degree cap when the check fails, so
non-P2 graphs still get exact answers.
"""
from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .dualgraph import P2Graph


# ---------------------------------------------------------------------------
# leaf function closed forms
# ---------------------------------------------------------------------------

def leaf_function_formula(n: int) -> int:
    """Maximum leaves over induced subtrees of order n in a P2 tiling.

    Piecewise exact: 0 for n <= 1; n//2 + 1 for 2 <= n <= 18; for n >= 19
    it is 8*(n//17) + (n%17)//2 + 1, plus 1 more when n % 17 == 1.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n <= 1:
        return 0
    if n <= 18:
        return n // 2 + 1
    q, r = divmod(n, 17)
    return 8 * q + r // 2 + 1 + (1 if r == 1 else 0)


def overline_leaf_function(n: int) -> Fraction:
    """Lowest linear upper bound of the leaf function: (8n + 26) / 17.

    The slope 8/17 is forced by the growth along n = 17k + 1 and the
    intercept by the orders attaining the bound; tests re-derive both from
    the formula by exhaustive maximization.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    return Fraction(8 * n + 26, 17)


def is_saturated(n: int) -> bool:
    """True when the leaf function meets its linear upper bound at n."""
    return n >= 0 and leaf_function_formula(n) == overline_leaf_function(n)


# ---------------------------------------------------------------------------
# induced subtrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InducedSubtree:
    """A validated induced subtree: sorted tile ids + induced degrees."""

    tiles: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.tiles)

    @property
    def leaves(self) -> tuple[int, ...]:
        return tuple(t for t, d in zip(self.tiles, self.degrees) if d == 1)

    @property
    def internals(self) -> tuple[int, ...]:
        return tuple(t for t, d in zip(self.tiles, self.degrees) if d >= 2)

    def degree_of(self, tile: int) -> int:
        return self.degrees[self.tiles.index(tile)]


def induced_subtree(g: P2Graph, tiles: Iterable[int]) -> InducedSubtree:
    """Build an InducedSubtree, verifying connectivity and acyclicity."""
    tl = tuple(tiles)
    ids = tuple(sorted(set(tl)))
    if len(ids) != len(tl):
        raise ValueError("duplicate tile ids")
    adj = g.adj
    n = len(adj)
    for t in ids:
        if not 0 <= t < n:
            raise ValueError(f"tile id {t} outside graph")
    idset = set(ids)
    degs = [sum(1 for u in adj[t] if u in idset) for t in ids]
    edges = sum(degs) // 2
    if ids:
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in idset and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(ids):
            raise ValueError("tile set is not connected")
    if edges != max(0, len(ids) - 1):
        raise ValueError("tile set induces a cycle")
    return InducedSubtree(ids, tuple(degs))


def leaf_count(t: InducedSubtree) -> int:
    """Number of degree-1 tiles; 0 for order 0 or 1."""
    return sum(1 for d in t.degrees if d == 1)


# ---------------------------------------------------------------------------
# budgets and results
# ---------------------------------------------------------------------------

@dataclass
class Budget:
    """Limits for a search run.  None means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None
    witness_cap: int | None = 10

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_seconds", "witness_cap"):
            value = getattr(self, name)
            if value is not None and not value >= 0:    # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {value}")

    def node_limit(self) -> int:
        return self.max_nodes if self.max_nodes is not None else (1 << 62)

    def deadline(self) -> float:
        if self.max_seconds is None:
            return float("inf")
        return time.monotonic() + self.max_seconds


class BudgetExceeded(RuntimeError):
    """Raised when a search hits its node or time budget.

    partial holds whatever complete results were established before the
    limit hit; nothing is silently truncated.
    """

    def __init__(self, reason: str, partial):
        super().__init__(reason)
        self.reason = reason
        self.partial = partial


@dataclass(frozen=True)
class LeafRecord:
    """Search outcome for one order: exact max leaves plus witnesses.

    stable is set by two-level comparisons (see stabilize), not by a
    single-graph search.  max_leaves is 0 with no witnesses when the graph
    contains no induced subtree of the requested order.
    """

    n: int
    max_leaves: int
    witnesses: tuple[InducedSubtree, ...] = ()
    stable: bool = False


# ---------------------------------------------------------------------------
# degree cap certificate
# ---------------------------------------------------------------------------

def _max_independent(conf: Sequence[int]) -> int:
    """Size of a maximum independent set; conf[i] is the conflict
    bitmask of vertex i."""
    best = 0
    stack = [((1 << len(conf)) - 1, 0)]
    while stack:
        avail, chosen = stack.pop()
        # sweep in conflict-free vertices (always optimal to take)
        a = avail
        while a:
            bit = a & -a
            a ^= bit
            if conf[bit.bit_length() - 1] & avail == 0:
                avail ^= bit
                chosen += 1
        best = max(best, chosen)
        if not avail or chosen + avail.bit_count() <= best:
            continue
        bit = avail & -avail
        i = bit.bit_length() - 1
        stack.append((avail ^ bit, chosen))
        stack.append((avail & ~(conf[i] | bit), chosen + 1))
    return best


class _NeighborhoodAlpha:
    """Independence numbers of the open neighborhoods of a graph, with
    some neighbors removed, memoised per vertex.

    self(v, lost) is the independence number of adj[v] without the
    neighbors at the bit positions set in lost, a plain maximum
    independent set (_max_independent).  Entries, and each vertex's
    conflict masks conf[v], are computed on first use, so a vertex the
    search never reaches costs nothing and a high-degree vertex costs
    only the masks asked for.
    """

    def __init__(self, adj: Sequence[Sequence[int]]):
        self.adj = adj
        # conf[v][j]: positions in adj[v] of the neighbors of adj[v][j]
        self.conf: list[list[int] | None] = [None] * len(adj)
        self.memo: list[dict[int, int]] = [{} for _ in adj]

    def __call__(self, v: int, lost: int) -> int:
        alpha = self.memo[v].get(lost)
        if alpha is None:
            conf = self.conf[v]
            if conf is None:
                nb = self.adj[v]
                conf = self.conf[v] = [
                    sum(1 << j for j, b in enumerate(nb) if b in self.adj[a])
                    for a in nb]
            keep = [j for j in range(len(conf)) if not lost >> j & 1]
            sub = [sum(1 << i for i, b in enumerate(keep) if conf[j] >> b & 1)
                   for j in keep]
            alpha = self.memo[v][lost] = _max_independent(sub)
        return alpha

    def degree_cap(self, vertices: Iterable[int] | None = None) -> int:
        """The largest alpha(v, 0) over vertices (default: all), at least
        1.  Automorphisms keep alpha(v, 0), so one vertex per orbit is
        enough."""
        if vertices is None:
            vertices = range(len(self.memo))
        return max([1] + [self(v, 0) for v in vertices])


def internal_degree_cap(g: P2Graph) -> int:
    """Largest possible vertex degree of an induced subtree of g.

    Equals the maximum independence number over open neighborhoods (at
    least 1).  For P2 dual graphs this is 3: no tile has four mutually
    non-adjacent neighbors.
    """
    return _NeighborhoodAlpha([g.neighbors(v) for v in range(g.n)]
                              ).degree_cap()


# ---------------------------------------------------------------------------
# per-spine leaf attachment (exact)
# ---------------------------------------------------------------------------

def _forced_leaves_fit(conf, masks, need) -> bool:
    """False when forced leaves prove that a spine has no covering set
    at slack 0.

    At slack 0 spine tile j takes exactly need[j] of its candidates
    masks[j], so a tile with exactly need[j] unbanned candidates takes
    them all: they must be pairwise non-adjacent, and their neighbors
    are banned from every other tile.  A tile with fewer unbanned
    candidates than it needs has no leaf set.  Tiles are forced until
    nothing changes.  A neighbor of a forced leaf is banned before any
    later tile is forced, so a forced tile keeps its candidates.  The
    spine walk also calls it on unfinished spines whose room is 0, where
    need[j] counts tile j's later spine tiles as well as its leaves
    (_enumerate_spines)."""
    banned = 0
    todo = range(len(masks))
    while True:
        rest = []
        for j in todo:
            avail = masks[j] & ~banned
            c = avail.bit_count()
            if c > need[j]:
                rest.append(j)
                continue
            if c < need[j]:
                return False
            a = avail
            while a:
                bit = a & -a
                a ^= bit
                banned |= conf[bit.bit_length() - 1]
            if banned & avail:
                return False
        if len(rest) == len(todo):
            return True
        todo = rest


def _covering_sets(conf, masks, degs, cap, room, emit) -> None:
    """Call emit(chosen) with the bit positions of every independent
    leaf set that completes the spine to a tree with the given slack.

    masks[j] holds the candidate leaves of spine tile j: the tiles
    outside the spine whose one spine neighbor is tile j, so the masks
    are disjoint.  conf[i] is a bitmask holding the neighbors of
    candidate i; its other bits are never read.  The search passes the
    neighbor masks of the whole graph, so bit positions are vertex ids;
    `inflation_lab.complete_prime` numbers a prime chain's candidates
    itself and calls it at cap 3 and room 0 to choose the prime's 10
    leaves.

    Spine tile j with spine degree degs[j] needs need_j = cap - degs[j]
    and receives t_j <= need_j leaves, at least one at an end; the terms
    need_j - t_j sum to exactly room.  At room 0 every tile takes
    exactly need_j, and forced leaves (_forced_leaves_fit) reject most
    spines that have no covering set before any choice is made.  Tiles
    are then visited in turn: tile j takes between need_j - room and
    need_j leaves, and on entering a tile the shortfall of the later
    tiles, need_t minus their unbanned candidates, must fit in the room
    left.  chosen lists tile 0's leaves, then tile 1's, and so on, each
    tile's in increasing bit position; sets are emitted in that order,
    a tile's choice before its extensions.
    """
    need = [cap - d for d in degs]
    if room == 0 and not _forced_leaves_fit(conf, masks, need):
        return
    last = len(masks)
    chosen: list[int] = []

    def tile(j: int, banned: int, room: int) -> None:
        if j == last:
            if room == 0:
                emit(chosen)
            return
        short = 0
        for t in range(j, last):
            d = need[t] - (masks[t] & ~banned).bit_count()
            if d > 0:
                short += d
        if short <= room:
            least = need[j] - room if degs[j] > 1 else max(need[j] - room, 1)
            pick(j, masks[j] & ~banned, banned, 0, least, room)

    def pick(j, avail, banned, t, least, room) -> None:
        if t >= least:
            tile(j + 1, banned, room - need[j] + t)
        if t < need[j]:
            while avail:
                bit = avail & -avail
                avail ^= bit
                i = bit.bit_length() - 1
                chosen.append(i)
                pick(j, avail & ~conf[i], banned | conf[i], t + 1, least,
                     room)
                chosen.pop()

    tile(0, 0, room)


# ---------------------------------------------------------------------------
# spine enumeration
# ---------------------------------------------------------------------------

def _enumerate_spines(adj, order, cap, visit, counter, limits, slack, alpha,
                      anchors, nbm):
    """Anchored enumeration of induced subtrees of exactly `order` whose
    least vertex is one of `anchors`.

    visit(spine, nbr_count, free, cnt_deg1) is called for each; a False
    return aborts (used when a round has resolved everything).  free is
    the bitmask of the leaf candidates, the tiles outside the spine with
    exactly one spine neighbor, kept up to date as the walk adds and
    removes tiles: a neighbor count going 0 -> 1 sets a tile's bit,
    1 -> 2 clears it, and a tile entering the spine clears its own.
    counter is a 1-element node count list; limits = (node_limit,
    deadline).  Every node, a finished spine included, is counted and
    checked against the limit before anything else, so an abort leaves
    the count at node_limit + 1.  Returns False when aborted by budget.

    Spines that cannot carry a tree T within `slack`, the largest sum
    over the spine of cap - deg_T(v) the caller accepts, are cut.  A
    neighbor of a spine tile v is lost to v for the rest of the branch
    once it lies outside the spine with two spine neighbors: it can
    neither join the spine nor become a leaf.  The T-neighbors of v are
    independent and not lost, so cap - alpha(v, lost[v]) is at most
    cap - deg_T(v) (alpha is the graph's _NeighborhoodAlpha), and it
    only grows along a branch.  `room` is slack minus these bounds
    summed over the spine; a branch whose room goes negative is cut.

    Room never rises along a branch, so once it is 0 every tree below
    has deg_T(v) = alpha(v, lost[v]) at each spine tile v.  The
    T-neighbors of v outside the spine, its leaves and its later spine
    tiles alike, all lie among its current candidates nbm[v] & free,
    and there must be exactly alpha(v, lost[v]) - deg_I(v) of them.  A
    neighbor of one of them can neither be a leaf nor join the spine
    without closing a cycle, so forced leaves (_forced_leaves_fit) cut
    the branch at every node whose room is 0, at any slack.

    nbm[v] is the neighbor bitmask of vertex v.  par[x] is the spine
    tile that raised nbr_count[x] to 1 and parbit[x] the bit of x's
    position in adj[par[x]]; tiles enter and leave the spine in LIFO
    order, so while nbr_count[x] is 1, par[x] is x's one spine neighbor.
    """
    n = len(adj)
    seen = bytearray(n)
    nbr_count = [0] * n
    par = [0] * n
    parbit = [0] * n
    bits = [1 << j for j in range(max(map(len, adj), default=0))]
    lost = [0] * n       # per spine tile v: positions in adj[v] lost to v
    alpha_of = [0] * n   # per spine tile v: alpha(v, lost[v])
    memo = alpha.memo
    node_limit, deadline = limits
    spine: list[int] = []

    def rec(cand: list[int], start: int, anchor: int, cnt_deg1: int,
            room: int, free: int) -> bool:
        counter[0] += 1
        if counter[0] > node_limit or (counter[0] & 4095 == 0
                                       and time.monotonic() > deadline):
            return False
        if room == 0 and not _forced_leaves_fit(
                nbm, [nbm[v] & free for v in spine],
                [alpha_of[v] - nbr_count[v] for v in spine]):
            return True
        if len(spine) == order:
            return visit(spine, nbr_count, free, cnt_deg1)
        i = start
        while i < len(cand):
            u = cand[i]
            i += 1
            if nbr_count[u] != 1:
                continue
            w = par[u]
            if nbr_count[w] >= cap:
                continue  # internal degree of w would exceed the cap
            new_deg1 = cnt_deg1 + 1  # u enters with spine-degree 1
            if nbr_count[w] == 1:
                new_deg1 -= 1
            elif len(spine) == 1:
                new_deg1 += 1  # anchor leaves degree 0
            spine.append(u)
            f = free ^ (1 << u)
            before = len(cand)
            r = room
            undo = []
            lost_u = 0
            for x, bit in zip(adj[u], bits):
                c = nbr_count[x] = nbr_count[x] + 1
                if x == w:
                    continue
                if c == 1:
                    par[x] = u
                    parbit[x] = bit
                    f ^= 1 << x
                    if x > anchor and not seen[x]:
                        seen[x] = 1
                        cand.append(x)
                    continue
                lost_u |= bit
                if c == 2:
                    f ^= 1 << x
                    # x is now lost to its other spine neighbor y as well
                    y = par[x]
                    lost_y = lost[y]
                    undo.append((y, lost_y, alpha_of[y]))
                    lost_y = lost[y] = lost_y | parbit[x]
                    a = memo[y].get(lost_y)
                    if a is None:
                        a = alpha(y, lost_y)
                    r += a - alpha_of[y]
                    alpha_of[y] = a
            lost[u] = lost_u
            a = memo[u].get(lost_u)
            if a is None:
                a = alpha(u, lost_u)
            alpha_of[u] = a
            r -= cap - a
            ok = r < 0 or rec(cand, i, anchor, new_deg1, r, f)
            for y, lost_y, alpha_y in reversed(undo):
                lost[y] = lost_y
                alpha_of[y] = alpha_y
            while len(cand) > before:
                seen[cand.pop()] = 0
            for x in adj[u]:
                nbr_count[x] -= 1
            spine.pop()
            if not ok:
                return False
        return True

    for a in anchors:
        if time.monotonic() > deadline or counter[0] > node_limit:
            return False
        spine.append(a)
        cand = []
        free = 0
        for x, bit in zip(adj[a], bits):
            nbr_count[x] += 1
            par[x] = a
            parbit[x] = bit
            free |= 1 << x
            if x > a:
                seen[x] = 1
                cand.append(x)
        lost[a] = 0
        alpha_of[a] = alpha(a, 0)
        room = slack - (cap - alpha_of[a])
        ok = room < 0 or rec(cand, 0, a, 0, room, free)
        for x in adj[a]:
            nbr_count[x] -= 1
            if x > a:
                seen[x] = 0
        spine.pop()
        if not ok:
            return False
    return True


def _round(adj, nbm, alpha, anchors, i_round, k, cap, counter,
           limits) -> bool | None:
    """One deepening round: does some spine of order i_round carry
    exactly k leaves?  The spines are enumerated at k's own slack and
    each is decided by _covering_sets on the walk's candidate mask,
    stopping at the first leaf set.  nbm[v] is the neighbor bitmask of
    vertex v.  Exact; None when the budget ran out first."""
    found = False

    def emit(chosen: list[int]) -> None:
        nonlocal found
        found = True

    def visit(spine, nbr_count, free, cnt_deg1) -> bool:
        if k < (2 if len(spine) == 1 else cnt_deg1) or k > free.bit_count():
            return True  # an end would get no leaf, or too few candidates
        _covering_sets(nbm, [nbm[v] & free for v in spine],
                       [nbr_count[v] for v in spine], cap, slack, emit)
        return not found

    slack = (cap - 2) * i_round + 2 - k
    finished = _enumerate_spines(adj, i_round, cap, visit, counter, limits,
                                 slack, alpha, anchors, nbm)
    return found or (False if finished else None)


def _solve_orders(adj, nbm, alpha, anchors, cap, orders: Sequence[int],
                  best: dict[int, int], counter,
                  limits) -> tuple[int, int] | None:
    """Exact max leaves for each order (all >= 3) into best, 0 when the
    graph has no induced subtree of that order.  Round i asks _round, for
    the leaf count k = n - i of each open order n in increasing k, whether
    a spine of order i carries exactly k leaves; the first yes settles n.
    Returns None when every order is settled, or the (i, k) of the round
    the budget ran out in; best then holds the orders settled so far."""
    todo = sorted(orders)
    if cap < 2:
        # no vertex can ever be internal: no trees of order >= 3
        best.update(dict.fromkeys(todo, 0))
        return None

    # slots bound: k <= (cap-2) i + 2, so i >= (n - 2) / (cap - 1)
    i_round = max(1, -(-(todo[0] - 2) // (cap - 1)))
    while todo and i_round <= todo[-1] - 2:
        for n in list(todo):
            k = n - i_round
            if 2 <= k <= (cap - 2) * i_round + 2:
                found = _round(adj, nbm, alpha, anchors, i_round, k, cap,
                               counter, limits)
                if found is None:
                    return i_round, k
                if found:
                    best[n] = k
                    todo.remove(n)
        i_round += 1
    best.update(dict.fromkeys(todo, 0))
    return None


class _WitnessBuffer:
    """Keeps the cap lexicographically smallest witness tile tuples."""

    def __init__(self, cap: int | None):
        self.cap = cap
        self.items: list[tuple[int, ...]] = []

    def add(self, item: tuple[int, ...]) -> None:
        pos = bisect.bisect_left(self.items, item)
        if pos < len(self.items) and self.items[pos] == item:
            return
        if self.cap is not None and len(self.items) >= self.cap:
            if item >= self.items[-1]:
                return
            self.items.insert(pos, item)
            self.items.pop()
        else:
            self.items.insert(pos, item)


def _collect_witnesses(adj, nbm, alpha, anchors, images, cap, n: int,
                       k: int, buf: _WitnessBuffer, counter, limits) -> bool:
    """Add every order-n witness with k leaves to buf, given that k is
    the exact maximum.  Spine order is n - k.  Each emitted tree enters
    buf as its image under every map of images, which take vertices to
    tile ids.  Returns False when the budget ran out first."""

    def visit(spine, nbr_count, free, cnt_deg1) -> bool:
        if k < (2 if len(spine) == 1 else cnt_deg1) or k > free.bit_count():
            return True  # an end would get no leaf, or too few candidates

        def emit(chosen: list[int]) -> None:
            tree = spine + chosen
            for image in images:
                buf.add(tuple(sorted([image[v] for v in tree])))

        _covering_sets(nbm, [nbm[v] & free for v in spine],
                       [nbr_count[v] for v in spine], cap, slack, emit)
        return True

    slack = (cap - 2) * (n - k) + 2 - k
    return _enumerate_spines(adj, n - k, cap, visit, counter, limits,
                             slack, alpha, anchors, nbm)


def _orbit_frame(g: P2Graph):
    """g relabelled orbit by orbit under g.symmetries: (adj, anchors,
    images).

    Vertex r of adj is tile order[r], where order lists each orbit
    contiguously, least tile first, orbits by their least tile, so a
    tree's least vertex lies in the first orbit it meets.  anchors are
    the orbits' first vertices, and images[s][r] is the tile that
    symmetry s maps tile order[r] to.  Without symmetries every vertex
    is its own orbit and anchor, and the only image is the identity.
    """
    group = list(dict.fromkeys(g.symmetries)) or [tuple(range(g.n))]
    order: list[int] = []
    anchors: list[int] = []
    placed = bytearray(g.n)
    for v in range(g.n):
        if not placed[v]:
            anchors.append(len(order))
            orbit = sorted({p[v] for p in group})
            for u in orbit:
                placed[u] = 1
            order += orbit
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    adj = [sorted(rank[u] for u in g.neighbors(v)) for v in order]
    images = [[p[v] for v in order] for p in group]
    return adj, anchors, images


def _as_subtree(g: P2Graph, tiles: tuple[int, ...]) -> InducedSubtree:
    idset = set(tiles)
    degs = tuple(sum(1 for u in g.neighbors(t) if u in idset) for t in tiles)
    return InducedSubtree(tuple(tiles), degs)


def _search(g: P2Graph, orders: range, budget: Budget | None,
            with_witnesses: bool) -> list[LeafRecord]:
    """LeafRecords for every order in orders: the one search driver.

    Orders 0-2 are settled directly.  Larger orders share one sweep of
    deepening rounds, then witness collection order by order, and one
    node counter and one deadline bound all of it.  When they run out,
    BudgetExceeded.partial holds a record for each order whose value was
    settled, with the witnesses collected so far; when one order was
    requested it is that order's record alone (max_leaves 0 if the value
    was not reached).
    """
    if orders and orders[0] < 0:
        raise ValueError("order must be >= 0")
    if orders and orders[-1] > g.n:
        raise ValueError(f"order {orders[-1]} exceeds graph size {g.n}")
    budget = budget or Budget()
    counter = [0]
    limits = (budget.node_limit(), budget.deadline())
    wcap = budget.witness_cap
    with_witnesses = with_witnesses and wcap != 0
    value: dict[int, int] = {}
    wits: dict[int, list[tuple[int, ...]]] = {}
    if 0 in orders:
        value[0] = 0
    if 1 in orders:
        value[1] = 0
        if with_witnesses:
            wits[1] = [(i,) for i in range(g.n)][:wcap]
    if 2 in orders:
        value[2] = 2 if g.m else 0
        if with_witnesses:
            wits[2] = sorted(g.edges())[:wcap]

    def records() -> list[LeafRecord]:
        return [LeafRecord(n, value[n], tuple(_as_subtree(g, w)
                                              for w in wits.get(n, ())))
                for n in orders if n in value]

    def partial():
        done = records()
        if len(orders) > 1:
            return done
        return done[0] if done else LeafRecord(orders[0], 0)

    big = [n for n in orders if n >= 3]
    if big:
        adj, anchors, images = _orbit_frame(g)
        nbm = [sum(1 << u for u in nb) for nb in adj]
        alpha = _NeighborhoodAlpha(adj)
        cap = alpha.degree_cap(anchors)
        stuck = _solve_orders(adj, nbm, alpha, anchors, cap, big, value,
                              counter, limits)
        if stuck is not None:
            raise BudgetExceeded(
                "search budget exhausted in the value round (i, k) = "
                f"{stuck} after {counter[0]} spine nodes", partial())
        for n in big:
            if with_witnesses and value[n]:
                buf = _WitnessBuffer(wcap)
                wits[n] = buf.items  # filled in place, kept on abort
                if not _collect_witnesses(adj, nbm, alpha, anchors, images,
                                          cap, n, value[n], buf, counter,
                                          limits):
                    raise BudgetExceeded(
                        f"witness collection budget exhausted at order {n} "
                        f"({len(buf.items)} witnesses) after {counter[0]} "
                        "spine nodes", partial())
    return records()


def search_max_leaves(g: P2Graph, n: int, budget: Budget | None = None, *,
                      with_witnesses: bool = True) -> LeafRecord:
    """Exact maximum leaf count over induced subtrees of order n in g.

    Returns a LeafRecord whose witnesses are the lexicographically
    smallest canonical (sorted tile id) optimal subtrees, up to the
    budget's witness cap (None = all).  The budget bounds the whole
    call, value search and witness collection together.  Raises
    BudgetExceeded with the partial LeafRecord when limits hit; raises
    ValueError when n < 0 or n > |g|.  If g simply has no induced
    subtree of order n, the record reports max_leaves 0 with no
    witnesses.  A witness cap of 0 means no witnesses at every order.
    """
    return _search(g, range(n, n + 1), budget, with_witnesses)[0]


def leaf_profile(g: P2Graph, n_max: int, budget: Budget | None = None, *,
                 with_witnesses: bool = False) -> list[LeafRecord]:
    """LeafRecords for all orders 0..n_max in one shared sweep.

    The budget bounds the whole call, the value search of every order
    and any witness collection together.  BudgetExceeded.partial is the
    list of records whose value was settled before the limit hit.
    """
    return _search(g, range(n_max + 1), budget, with_witnesses)


def enumerate_flis(g: P2Graph, n: int, budget: Budget | None = None
                   ) -> tuple[InducedSubtree, ...]:
    """All fully leafed induced subtrees of order n, canonical order.

    "Fully leafed" here means attaining the exact maximum leaf count for
    order n within g.  The list is complete (no witness cap).
    """
    budget = budget or Budget()
    budget = replace(budget, witness_cap=None)
    return search_max_leaves(g, n, budget).witnesses


def stabilize(lo: Sequence[LeafRecord], hi: Sequence[LeafRecord]
              ) -> list[LeafRecord]:
    """Mark records of the larger context stable where the smaller one
    already produced the same value (two-level agreement protocol)."""
    out = []
    lo_by_n = {r.n: r for r in lo}
    for rec in hi:
        other = lo_by_n.get(rec.n)
        stable = other is not None and other.max_leaves == rec.max_leaves
        out.append(replace(rec, stable=stable))
    return out
