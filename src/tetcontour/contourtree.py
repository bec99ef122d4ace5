"""Contour tree construction: join and split trees, merge, augmentation.

Both trees are built in rank space over monotone links taken from the
tets: in each tet's corners sorted by rank, the consecutive pairs (r0,r1),
(r1,r2) and (r2,r3), less any pair that some tet skips over as (r0,r2),
(r0,r3) or (r1,r3). A dropped pair (v,u) has a vertex w ranked between
them in a common tet; u and w lie in one component of the ranks beyond
v, and w is nearer to v, so v's kept links touch every component its
full link touches and every parent pointer equals the full edge graph's
(Carr, Snoeyink & Axen, CGTA 2003; monotone paths as in Chiang, Lenz, Lu
& Vegter, CGTA 2005).

The join tree gives each vertex x as parent the highest lower rank linked
to C(x), the component of the ranks >= x that holds x; -1 marks the root.
It is built by rounds of peak pruning in rank space, all in numpy (Carr,
Weber, Sewell & Ahrens, LDAV 2016; Carr et al., IEEE TVCG 2021). In a
round each live vertex ascends by its highest upper link, a peak by none,
and pointer doubling finds its peak p; the vertices with peak p are p's
region. The governing saddle g(p) is the largest lower end of the links
between p's region and another. The region's vertices above g(p), S,
make one component of the ranks above g(p): each ascends inside S to p,
and a link leaving S has its lower end at or below g(p). So C(z) is the
part of S at or above z for each z in S, which the next lower vertex of S
reaches by its ascent, and z hangs below it. The lowest of S hangs below
g(p), which links to S (through its own ascent when it is in p's
region), and is the root when no link leaves the region: that region is
a whole component. The round prunes S. Every link of a pruned vertex
stays in S or ends at or below g(p), and g(p) stays live; so moving the
link ends in S to g(p) keeps the components, and the parents, of the
live vertices, and the next round runs on them. Each round prunes at
least the peaks; smooth fields take 2 or 3 rounds, noisy ones a few
more. The split tree is the join tree of the reversed ranks, with
parents pointing up. A mesh that is not connected leaves more than one
root and is refused.

The merge works on the supernodes, the vertices whose join or split child
count is not 1. Pointer doubling contracts each tree to them, iterated
leaf pruning merges the two into the superarcs, and binary lifting over
the supernode tree places every regular vertex on its superarc, all in
numpy; only the k supernodes see a Python loop. Superarc ids go by the
lower supernode's vertex id, ties by the order in which a leaf pruning of
the fully augmented tree would emit each arc's lowest edge. That pruning
is a breadth-first leaf peel, so a heap over the supernodes, with each
superarc weighted by its count of regular vertices, gives its order
without visiting the regular vertices.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .mesh import _CHUNK, StructuralError, TetMesh, VertexOrder, _sort4


@dataclass(frozen=True)
class MonotoneLinks:
    """The rank pairs the join and split trees are built over.

    lo, hi:  (k,) int64 vertex ranks, lo < hi, sorted by (lo, hi).
    unused:  number of vertices in no tet, reported when the mesh is
             refused as not connected.
    """

    lo: np.ndarray
    hi: np.ndarray
    unused: int


# each tet's sorted corner ranks: consecutive pairs, then skipping pairs
_PAIR_LO = [0, 1, 2, 0, 0, 1]
_PAIR_HI = [1, 2, 3, 2, 3, 3]


def build_monotone_links(mesh: TetMesh, order: VertexOrder) -> MonotoneLinks:
    """Consecutive rank pairs of every tet that no tet skips over.

    One 1-D sort of the codes lo * 2n + 2 hi + skip: a key's group ends
    in a skipping code whenever any tet skips the pair, so the pairs kept
    are the keys whose last code is consecutive. The codes are filled, and
    the kept ones marked, in blocks of _CHUNK tets.
    """
    n = mesh.vertex_count
    m = mesh.tet_count
    codes = np.empty((m, 6), dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        r = _sort4(order.rank[mesh.tets[lo:lo + _CHUNK]])
        block = codes[lo:lo + _CHUNK]
        for j, (a, b) in enumerate(zip(_PAIR_LO, _PAIR_HI)):
            column = block[:, j]
            np.multiply(r[:, a], 2 * n, out=column)
            column += 2 * r[:, b] + (j >= 3)     # the skip bit
    codes = codes.ravel()
    codes.sort()
    keys = codes[_last_of_key(codes)]
    # no block view outlives the mask, so this frees the codes
    del codes
    keys >>= 1
    lo, hi = np.divmod(keys, n)
    unused = np.bincount(mesh.tets.ravel(), minlength=n) == 0
    return MonotoneLinks(lo, hi, int(np.count_nonzero(unused)))


def _last_of_key(codes: np.ndarray) -> np.ndarray:
    """Mask of the sorted codes that are consecutive and last of their key,
    in blocks of 6 * _CHUNK codes: an even code c is its key's last exactly
    when the next code exceeds c | 1 = c + 1, which a copy of c or the
    skipping code c + 1 would not."""
    kept = np.empty(codes.shape, dtype=bool)
    step = 6 * _CHUNK
    for lo in range(0, codes.size, step):
        c = codes[lo:lo + step + 1]
        out = kept[lo:lo + step]
        np.equal(c[:out.size] & 1, 0, out=out)
        out[:c.size - 1] &= c[1:] > (c[:-1] | 1)
    return kept


def _sweep(links: MonotoneLinks, order: VertexOrder,
           descending: bool) -> np.ndarray:
    """The join tree of the links by rounds of peak pruning in rank
    space; the split tree is the join tree of the reversed ranks.

    Raises ValueError on links with lo >= hi: with lo < hi every round
    prunes at least its peaks, so the rounds end."""
    bad = int(np.count_nonzero(links.lo >= links.hi))
    if bad:
        raise ValueError(f"{bad} of {links.lo.size} links have lo >= hi")
    sort_index = order.sort_index
    n = sort_index.shape[0]
    if descending:
        lo, hi = links.lo, links.hi
    else:
        lo, hi = np.subtract(n - 1, links.hi), np.subtract(n - 1, links.lo)
    parent = np.empty(n, dtype=np.int64)
    # the ranks still live, ascending; lo and hi index this array
    ids = np.arange(n)
    while ids.size:
        live = ids.size
        # each vertex ascends by its highest upper link, a peak by none;
        # pointer doubling follows the ascents to each vertex's peak
        peak = np.arange(live)
        np.maximum.at(peak, lo, hi)
        while True:
            nxt = peak[peak]
            if np.array_equal(nxt, peak):
                break
            peak = nxt
        # a peak's governing saddle: the largest lower end of the links
        # between its region and another, -1 when there are none
        cross = peak[lo] != peak[hi]
        x = lo[cross]
        saddle = np.full(live, -1)
        np.maximum.at(saddle, peak[x], x)
        np.maximum.at(saddle, peak[hi[cross]], x)
        del cross, x
        # prune each region above its saddle: every pruned vertex hangs
        # below the next lower one of its region, the lowest on the saddle
        floor = saddle[peak]
        pruned = np.arange(live) > floor
        key = np.flatnonzero(pruned)
        key += peak[key] * live
        key.sort()
        region, v = np.divmod(key, live)
        up = np.empty_like(v)
        up[1:] = v[:-1]
        lowest = np.ones(v.size, dtype=bool)
        np.not_equal(region[1:], region[:-1], out=lowest[1:])
        up[lowest] = saddle[region[lowest]]
        parent[ids[v]] = np.where(up >= 0, ids[up], -1)
        # a pruned lower end has its upper end pruned in its region too;
        # a pruned upper end moves to its region's saddle, which is live
        keep = ~pruned[lo]
        lo = lo[keep]
        hi = hi[keep]
        hi = np.where(pruned[hi], floor[hi], hi)
        keep = lo != hi
        stay = ~pruned
        renumber = np.cumsum(stay) - 1
        lo = renumber[lo[keep]]
        hi = renumber[hi[keep]]
        ids = ids[stay]
    if not descending:
        parent = np.where(parent >= 0, (n - 1) - parent, -1)[::-1]
    # each connected component leaves exactly one rank without a parent
    components = int(np.count_nonzero(parent < 0))
    if components != 1:
        raise StructuralError(
            f"mesh is not connected: {components} components, "
            f"{links.unused} vertices in no tet")
    # from ranks back to vertex ids
    tree = np.empty(n, dtype=np.int64)
    tree[sort_index] = np.where(parent >= 0, sort_index[parent], -1)
    return tree


def build_join_tree(links: MonotoneLinks, order: VertexOrder) -> np.ndarray:
    """The join tree by peak pruning: parents point down, leaves are the
    local maxima, -1 marks the root, the global min."""
    return _sweep(links, order, descending=True)


def build_split_tree(links: MonotoneLinks, order: VertexOrder) -> np.ndarray:
    """The split tree, peak pruning on the reversed ranks: parents point
    up, leaves are the local minima, -1 marks the root, the global max."""
    return _sweep(links, order, descending=False)


@dataclass
class ContourTree:
    """Contour tree with full augmentation.

    supernodes:    (k,) vertex indices of the critical points.
    supernode_of:  (n,) supernode id per vertex, -1 for regular vertices.
    superarcs:     (k-1, 2) rows (lo, hi) of supernode ids, lo below hi in
                   the global vertex order.
    arc_regulars:  per superarc, regular vertex indices in ascending order.
    arc_of:        (n,) superarc id for every vertex; supernodes carry
                   their canonical arc (the arc toward the global maximum,
                   for the global maximum itself its single incident arc).
    up_arcs:       per supernode, the superarcs leaving it upward (ids
                   ascending); down_arcs likewise those arriving from below.
    root:          supernode id of the global maximum.
    arc_child:     (k-1,) per superarc, the supernode on its far side from
                   the root.
    arc_order:     (k-1,) superarc ids root first: each arc after the arc
                   into its root-side end, a supernode's arcs to its
                   children in descending id.
    values:        (n,) the scalar field the tree was built from.
    """

    supernodes: np.ndarray
    supernode_of: np.ndarray
    superarcs: np.ndarray
    arc_regulars: list
    arc_of: np.ndarray
    up_arcs: list
    down_arcs: list
    root: int
    arc_child: np.ndarray
    arc_order: np.ndarray
    values: np.ndarray

    @property
    def supernode_count(self) -> int:
        return self.supernodes.shape[0]

    @property
    def superarc_count(self) -> int:
        return self.superarcs.shape[0]

    def arc_value_range(self, arc: int):
        lo, hi = self.superarcs[arc]
        return (float(self.values[self.supernodes[lo]]),
                float(self.values[self.supernodes[hi]]))

    def supernode_value(self, sn: int) -> float:
        return float(self.values[self.supernodes[sn]])


class InconsistentTreesError(Exception):
    """Join/split trees do not describe the same simply connected field."""


def merge_trees(join: np.ndarray, split: np.ndarray, order: VertexOrder,
                values: np.ndarray) -> ContourTree:
    """The contour tree from its join and split trees, with Python loops
    over the k supernodes only.

    1. Supernodes: the vertices whose join or split child count is not 1,
       that is whose up- or down-degree in the tree is not 1.
    2. Each tree is contracted to its supernodes by pointer doubling, and
       the two are merged by iterated leaf pruning (Carr, Snoeyink & Axen,
       CGTA 2003) into the superarcs.
    3. A regular vertex v lies on the superarc where the tree path from
       J(v) to S(v) crosses rank(v): J(v) and S(v) are the first
       supernodes reached from v by unique join children (upward) and by
       unique split children (downward). Binary lifting finds every
       vertex's superarc at once (augmentation in arrays, as in Carr,
       Weber, Sewell & Ahrens, LDAV 2016).
    4. Superarc ids: by the vertex id of the lower supernode, ties in
       the order in which a per-vertex FIFO leaf pruning of the augmented
       tree would emit the arcs' lowest edges. That pruning is a
       breadth-first leaf peel keyed by (generation, vertex id of the
       chain's first leaf), which a heap over the supernodes replays with
       each superarc weighted by its count of regular vertices
       (_peel_keys).

    Trees that do not belong together are refused with
    InconsistentTreesError: a tree with other than one root or with a
    parent on the wrong side of its child in `order`, a pruning that
    leaves the supernodes unconnected, superarc up- or down-degrees that
    differ from the join or split child counts, or a regular vertex whose
    superarc does not span its rank.
    """
    n = join.shape[0]
    values = np.asarray(values, dtype=np.float64)
    if n == 1:
        raise InconsistentTreesError("need at least 2 vertices")
    rank = order.rank
    j_child = _check_tree(join, rank, "join", -1)
    s_child = _check_tree(split, rank, "split", 1)
    j_parent = join[j_child]
    s_parent = split[s_child]
    up_count = np.bincount(j_parent, minlength=n)
    down_count = np.bincount(s_parent, minlength=n)
    is_super = (up_count != 1) | (down_count != 1)
    supernodes = np.flatnonzero(is_super)
    k = supernodes.shape[0]
    supernode_of = np.full(n, -1, dtype=np.int64)
    supernode_of[supernodes] = np.arange(k)

    top = _chain_ends(j_child, j_parent, is_super)
    bottom = _chain_ends(s_child, s_parent, is_super)
    rows = _prune(
        _contracted_parents(j_child, j_parent, top, is_super, supernode_of,
                            k),
        _contracted_parents(s_child, s_parent, bottom, is_super,
                            supernode_of, k))

    # regular vertices in rank order, each on its pruning row
    regs = order.sort_index[~is_super[order.sort_index]]
    reg_rank = rank[regs]
    sn_rank = rank[supernodes]
    row = _place(rows, supernode_of[top[regs]], supernode_of[bottom[regs]],
                 sn_rank, reg_rank)
    del top, bottom
    ends = np.array(rows, dtype=np.int64).reshape(k - 1, 2)
    flip = sn_rank[ends[:, 0]] > sn_rank[ends[:, 1]]
    lo = np.where(flip, ends[:, 1], ends[:, 0])
    hi = np.where(flip, ends[:, 0], ends[:, 1])
    if not (np.array_equal(np.bincount(lo, minlength=k),
                           up_count[supernodes])
            and np.array_equal(np.bincount(hi, minlength=k),
                               down_count[supernodes])):
        raise InconsistentTreesError(
            "superarc degrees differ from the trees' child counts")
    if not (np.all(sn_rank[lo[row]] < reg_rank)
            and np.all(reg_rank < sn_rank[hi[row]])):
        raise InconsistentTreesError(
            "a regular vertex lies outside its superarc's rank range")
    counts = np.bincount(row, minlength=k - 1)

    by_id = np.lexsort((_peel_keys(lo, hi, counts, supernodes, n), lo))
    arc_id = np.empty(k - 1, dtype=np.int64)
    arc_id[by_id] = np.arange(k - 1)
    superarcs = np.stack([lo[by_id], hi[by_id]], axis=1)
    row = arc_id[row]
    arc_of = np.full(n, -1, dtype=np.int64)
    arc_of[regs] = row
    # stable, so each superarc's regular vertices stay in rank order
    regs = regs[np.argsort(row, kind="stable")]
    stops = np.cumsum(counts[by_id]).tolist()
    arc_regulars = [regs[a:b] for a, b in zip([0] + stops, stops)]

    up_arcs = [[] for _ in range(k)]
    down_arcs = [[] for _ in range(k)]
    for a, (s, t) in enumerate(superarcs.tolist()):
        up_arcs[s].append(a)
        down_arcs[t].append(a)
    # each supernode's arcs in descending id, in CSR form
    by_node = np.lexsort((-np.arange(2 * k - 2), superarcs.ravel())) // 2
    incident = by_node.tolist()
    offsets = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(superarcs.ravel(), minlength=k), out=offsets[1:])
    offsets = offsets.tolist()
    # root at the global maximum supernode; each arc's child is the end
    # first reached through it; arcs join arc_order as they are reached
    root = int(np.argmax(sn_rank))
    far = (superarcs[:, 0] + superarcs[:, 1]).tolist()
    arc_child = [-1] * (k - 1)
    arc_order = []
    seen = [False] * k
    stack = [root]
    seen[root] = True
    while stack:
        s = stack.pop()
        for a in incident[offsets[s]:offsets[s + 1]]:
            t = far[a] - s
            if not seen[t]:
                seen[t] = True
                arc_child[a] = t
                arc_order.append(a)
                stack.append(t)
    # canonical supernode-to-superarc assignment: the upward arc (largest
    # id when a split saddle offers several), falling back to the largest
    # downward arc at maxima
    arc_of[supernodes] = [(up or down)[-1]
                          for up, down in zip(up_arcs, down_arcs)]
    return ContourTree(supernodes=supernodes, supernode_of=supernode_of,
                       superarcs=superarcs, arc_regulars=arc_regulars,
                       arc_of=arc_of, up_arcs=up_arcs, down_arcs=down_arcs,
                       root=root,
                       arc_child=np.array(arc_child, dtype=np.int64),
                       arc_order=np.array(arc_order, dtype=np.int64),
                       values=values)


def _check_tree(parent: np.ndarray, rank: np.ndarray, name: str,
                sign: int) -> np.ndarray:
    """Refuse a parent array that is not one rooted tree whose parents rank
    below their children (sign -1) or above them (sign +1); return the
    vertices that have a parent."""
    n = rank.shape[0]
    if parent.shape != (n,):
        raise InconsistentTreesError("vertex count mismatch")
    if parent.max() >= n:
        raise InconsistentTreesError(f"{name} tree names a vertex >= {n}")
    child = np.flatnonzero(parent >= 0)
    if child.size != n - 1:
        raise InconsistentTreesError(
            f"{name} tree has {n - child.size} roots")
    if not np.all((rank[parent[child]] - rank[child]) * sign > 0):
        side = "below" if sign < 0 else "above"
        raise InconsistentTreesError(
            f"{name} tree has a parent not ranked {side} its child")
    return child


def _chain_ends(child: np.ndarray, parent: np.ndarray,
                is_super: np.ndarray) -> np.ndarray:
    """Per vertex, the first supernode reached by stepping to the only
    child while at a regular vertex (the vertex itself at a supernode),
    by pointer doubling; a checked tree's steps all run one way in rank,
    so every chain ends."""
    end = np.arange(is_super.shape[0])
    regular = ~is_super[parent]
    end[parent[regular]] = child[regular]
    while True:
        nxt = end[end]
        if np.array_equal(nxt, end):
            return end
        end = nxt


def _contracted_parents(child: np.ndarray, parent: np.ndarray,
                        ends: np.ndarray, is_super: np.ndarray,
                        supernode_of: np.ndarray, k: int) -> np.ndarray:
    """Per supernode, the supernode id of the first supernode on its
    parent chain, -1 at the root. A vertex whose parent is a supernode is
    itself a supernode, or the last regular vertex below the supernode
    its chain of only children ends at."""
    out = np.full(k, -1, dtype=np.int64)
    last = is_super[parent]
    out[supernode_of[ends[child[last]]]] = supernode_of[parent[last]]
    return out


def _prune(jp: np.ndarray, sp: np.ndarray) -> list:
    """Iterated leaf pruning of the contracted join and split trees, given
    as (k,) parent arrays, over per-node child counts and child-id sums. A
    pruned node has at most one child in the other tree: its child-id sum
    there. Returns the (node, neighbour) rows in pruning order."""
    k = jp.shape[0]

    def children(parent):
        has = parent >= 0
        count = np.bincount(parent[has], minlength=k)
        id_sum = np.bincount(parent[has], np.flatnonzero(has), minlength=k)
        return count, id_sum.astype(np.int64)

    jn, js = children(jp)
    sn, ss = children(sp)
    queue = deque(np.flatnonzero(((jn == 0) & (sn <= 1))
                                 | ((sn == 0) & (jn <= 1))).tolist())
    jp, jn, js = jp.tolist(), jn.tolist(), js.tolist()
    sp, sn, ss = sp.tolist(), sn.tolist(), ss.tolist()

    def is_leaf(v):
        return (not jn[v] and sn[v] <= 1) or (not sn[v] and jn[v] <= 1)

    rows = []
    removed = [False] * k
    remaining = k
    while queue and remaining > 1:
        v = queue.popleft()
        if removed[v] or not is_leaf(v):
            continue
        if not jn[v] and jp[v] >= 0:
            w = jp[v]
            leaf_count, leaf_sum = jn, js
            other_parent, other_count, other_sum = sp, sn, ss
        elif not sn[v] and sp[v] >= 0:
            w = sp[v]
            leaf_count, leaf_sum = sn, ss
            other_parent, other_count, other_sum = jp, jn, js
        else:
            # root of one tree with no remaining arc in the other: done
            continue
        rows.append((v, w))
        removed[v] = True
        remaining -= 1
        # leaf deletion from the tree that supplied the arc
        leaf_count[w] -= 1
        leaf_sum[w] -= v
        # bypass deletion from the other tree: v's child c takes its place
        p = other_parent[v]
        c = other_sum[v] if other_count[v] else -1
        if c >= 0:
            other_parent[c] = p
            if p >= 0:
                other_sum[p] += c - v
        elif p >= 0:
            other_count[p] -= 1
            other_sum[p] -= v
        for cand in (w, p, c):
            if cand >= 0 and not removed[cand] and is_leaf(cand):
                queue.append(cand)
    if len(rows) != k - 1:
        raise InconsistentTreesError(
            f"merge produced {len(rows)} arcs for {k} supernodes")
    return rows


def _place(rows: list, top: np.ndarray, bottom: np.ndarray,
           sn_rank: np.ndarray, v_rank: np.ndarray) -> np.ndarray:
    """The pruning row holding each regular vertex v, given J(v) (top),
    S(v) (bottom) and rank(v).

    The rows root the tree at the node the pruning leaves: each row's
    node hangs below its neighbour. On the path J(v)...S(v), the nodes on
    J's side rank above v and those on S's side below, so v's row is
    where the path crosses rank(v). Binary lifting climbs from J while the
    ancestor ranks above v and is not an ancestor of S, and from S while
    it ranks below v and is not an ancestor of J; each climb stops below
    the crossing or below the lowest common ancestor. The crossing is on
    J's side when J is not an ancestor of S and the node past J's climb
    ranks below v. Ancestors are tested by preorder intervals."""
    k = len(rows) + 1
    node = [v for v, _ in rows]
    root = (set(range(k)) - set(node)).pop()
    size = [1] * k
    for v, w in rows:
        size[w] += size[v]
    tin = [0] * k
    free = [1] * k        # per node, the next preorder slot of its subtree
    for v, w in reversed(rows):
        tin[v] = free[w]
        free[w] += size[v]
        free[v] = tin[v] + 1
    tin = np.array(tin, dtype=np.int64)
    tout = tin + size
    parent = np.full(k, root, dtype=np.int64)
    parent[node] = [w for _, w in rows]
    row_of = np.full(k, -1, dtype=np.int64)
    row_of[node] = np.arange(k - 1)
    # jumps[i][s]: the 2**i-th ancestor of s, or the root
    jumps = [parent]
    while np.any(jumps[-1] != root):
        jumps.append(jumps[-1][jumps[-1]])

    def climb(x, other, ranked_above):
        t_other = tin[other]
        for up in reversed(jumps[:-1]):
            y = up[x]
            ok = (tin[y] > t_other) | (t_other >= tout[y])
            ok &= (sn_rank[y] > v_rank) == ranked_above
            x = np.where(ok, y, x)
        return x

    from_top = climb(top, bottom, True)
    on_top = (((tin[top] > tin[bottom]) | (tin[bottom] >= tout[top]))
              & (sn_rank[parent[from_top]] < v_rank))
    return row_of[np.where(on_top, from_top, climb(bottom, top, False))]


def _peel_keys(lo: np.ndarray, hi: np.ndarray, regulars: np.ndarray,
               supernodes: np.ndarray, n: int) -> np.ndarray:
    """Per superarc, a key that orders the up-arcs of each supernode as a
    FIFO leaf pruning of the augmented tree emits their lowest edges.

    That pruning queues the initial leaves by vertex id, and each removal
    queues only its one remaining neighbour, once that is a leaf. So the
    queue runs in (generation, vertex id of the chain's first leaf)
    order, encoded as generation * n + id. The heap replays it over the
    supernodes: a supernode's removal crosses its last superarc, one
    generation per regular vertex, and the arrival that leaves the far
    end one superarc queues it one generation later. The key is the step
    at which the peel has crossed the arc. The lowest edge of an up-arc
    of supernode a goes at that step when the peel reaches a through the
    arc; the one arc a leaves by goes at a's removal or later, after all
    of a's other arcs, and is crossed later still, or never (largest
    int64) when both its ends peel into it."""
    k = supernodes.shape[0]
    arcs = np.arange(lo.shape[0])
    degree = np.bincount(lo, minlength=k) + np.bincount(hi, minlength=k)
    incident = (np.bincount(lo, arcs, minlength=k)
                + np.bincount(hi, arcs, minlength=k)).astype(np.int64)
    degree, incident = degree.tolist(), incident.tolist()
    ends = (lo + hi).tolist()
    steps = (regulars * n).tolist()
    removed = [False] * k
    key = np.full(arcs.shape, np.iinfo(np.int64).max)
    # (step, supernode, arc it is reached by, or -1 for its removal)
    heap = [(v, s, -1) for s, v in enumerate(supernodes.tolist())
            if degree[s] == 1]
    while heap:
        t, s, via = heappop(heap)
        if removed[s]:
            continue
        if via < 0:
            if degree[s] == 1:     # else no arc is left: s is left last
                removed[s] = True
                a = incident[s]
                heappush(heap, (t + steps[a], ends[a] - s, a))
            continue
        key[via] = t
        degree[s] -= 1
        incident[s] -= via
        if degree[s] == 1:
            heappush(heap, (t + n, s, -1))
    return key


def build_contour_tree(mesh: TetMesh, order: VertexOrder) -> ContourTree:
    """Convenience: links + join + split + merge."""
    links = build_monotone_links(mesh, order)
    return merge_trees(build_join_tree(links, order),
                       build_split_tree(links, order), order, mesh.values)


def _arc_contains(tree: ContourTree, arc: int, h: float) -> bool:
    lo, hi = tree.superarcs[arc].tolist()
    values, supernodes = tree.values, tree.supernodes
    return bool(values[supernodes[lo]] <= h < values[supernodes[hi]])


def _arcs_past(tree: ContourTree, sn: int, h: float, memo: dict) -> frozenset:
    """The arcs holding h that a value-monotone walk reaches past supernode
    sn: up when its value is at or below h, else down. The direction is
    fixed by sn alone, so one memo of (tree, h) serves both directions;
    an explicit stack, since a walk can pass thousands of supernodes."""
    stack = [sn]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        up = bool(tree.values[tree.supernodes[s]] <= h)
        found, pending = set(), []
        for a in (tree.up_arcs[s] if up else tree.down_arcs[s]):
            if _arc_contains(tree, a, h):
                found.add(a)
                continue
            # the arc lies wholly before h: its far end walks on the same way
            far = int(tree.superarcs[a, int(up)])
            if far in memo:
                found |= memo[far]
            else:
                pending.append(far)
        if pending:
            stack += pending
        else:
            stack.pop()
            memo[s] = frozenset(found)
    return memo[sn]


def straddling_arcs(tree: ContourTree, seed_vertex: int, h: float,
                    memo: dict | None = None) -> frozenset:
    """All superarcs containing isovalue h reachable from the seed by a
    value-monotone walk (upward when h is at or above the seed's value).

    A regular seed whose own arc holds h finds that arc alone. Any other
    regular seed walks exactly as its arc's end supernode does, the upper
    one when the walk goes up and the lower one when it goes down: the
    arc lies wholly before h, and past that end the two walks visit the
    same arcs. A supernode seed walks through every arc leaving it in the
    walk's direction (all up-arcs of a split saddle, not only its
    canonical one); at an extremum with no arc that way it finds nothing.

    memo, a dict shared by calls on one tree at one h, keeps the arcs
    found past each supernode, so calls that share it visit each
    supernode once between them. Each call does work only along its walk.
    """
    memo = {} if memo is None else memo
    sn = int(tree.supernode_of[seed_vertex])
    if sn < 0:
        arc = int(tree.arc_of[seed_vertex])
        if _arc_contains(tree, arc, h):
            return frozenset((arc,))
        sn = int(tree.superarcs[arc, int(tree.values[seed_vertex] <= h)])
    return _arcs_past(tree, sn, h, memo)
