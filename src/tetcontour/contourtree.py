"""Contour tree construction: join/split sweeps, merge, augmentation.

The sweeps run in rank space over monotone links taken from the tets: in
each tet's corners sorted by rank, the consecutive pairs (r0,r1), (r1,r2)
and (r2,r3), less any pair that some tet skips over as (r0,r2), (r0,r3) or
(r1,r3). A dropped pair (v,u) has a vertex w ranked between them in a
common tet; u and w are joined before v is swept, and w is nearer to v, so
v's kept links touch every component its full link touches and every
parent pointer equals the full edge graph's sweep (Carr, Snoeyink & Axen,
CGTA 2003; monotone paths as in Chiang, Lenz, Lu & Vegter, CGTA 2005). The
join tree is a descending union-find sweep over each vertex's upper links,
the split tree its dual over the lower links; each comes back as an (n,)
array of parent vertices, -1 at its root. A mesh that is not connected
leaves more than one sweep root and is refused. The two trees are merged
by iterated leaf pruning into the fully augmented contour tree, which is
then contracted into supernodes and superarcs with every regular vertex
mapped to its superarc.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import _CHUNK, StructuralError, TetMesh, VertexOrder


@dataclass(frozen=True)
class MonotoneLinks:
    """The rank pairs the join and split sweeps union over.

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

    One 1-D sort of the codes (lo * n + hi) * 2 + skip: a key's group ends
    in a skipping code whenever any tet skips the pair, so the pairs kept
    are the keys whose last code is consecutive. The codes are filled, and
    the kept ones marked, in blocks of _CHUNK tets.
    """
    n = mesh.vertex_count
    m = mesh.tet_count
    codes = np.empty((m, 6), dtype=np.int64)
    for lo in range(0, m, _CHUNK):
        r = np.sort(order.rank[mesh.tets[lo:lo + _CHUNK]], axis=1)
        block = codes[lo:lo + _CHUNK]
        np.multiply(r[:, _PAIR_LO], n, out=block)
        block += r[:, _PAIR_HI]
        block *= 2
        block[:, 3:] += 1
    codes = codes.ravel()
    codes.sort()
    # an even code c is its key's last exactly when the next code exceeds
    # c | 1 = c + 1: a copy of c or the skipping code c + 1 would not
    kept = np.empty(codes.shape, dtype=bool)
    step = 6 * _CHUNK
    for lo in range(0, codes.size, step):
        c = codes[lo:lo + step + 1]
        out = kept[lo:lo + step]
        np.equal(c[:out.size] & 1, 0, out=out)
        out[:c.size - 1] &= c[1:] > (c[:-1] | 1)
    keys = codes[kept]
    keys >>= 1
    lo, hi = np.divmod(keys, n)
    unused = np.bincount(mesh.tets.ravel(), minlength=n) == 0
    return MonotoneLinks(lo, hi, int(np.count_nonzero(unused)))


def _sweep(links: MonotoneLinks, order: VertexOrder,
           descending: bool) -> np.ndarray:
    sort_index = order.sort_index
    n = sort_index.shape[0]
    # the link of rank v: its linked ranks the sweep visits before v, in
    # CSR form; the pairs come grouped by lo, and are regrouped by hi
    if descending:
        src, nbrs = links.lo, links.hi
    else:
        by_hi = np.argsort(links.hi, kind="stable")
        src, nbrs = links.hi[by_hi], links.lo[by_hi]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    offsets = offsets.tolist()
    nbrs = nbrs.tolist()

    # union-find with path halving over ranks; every link rank is already
    # swept, and v, joining each component it touches, stays the root of
    # its own, so a component's root is always its latest swept rank
    parent = [-1] * n
    uf = list(range(n))
    for v in (range(n - 1, -1, -1) if descending else range(n)):
        for u in nbrs[offsets[v]:offsets[v + 1]]:
            while uf[u] != u:
                uf[u] = u = uf[uf[u]]
            if u != v:
                parent[u] = v
                uf[u] = v
    parent = np.array(parent, dtype=np.int64)
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
    """Descending sweep over each rank's upper links: parents point down,
    leaves are the local maxima, -1 marks the root, the global min."""
    return _sweep(links, order, descending=True)


def build_split_tree(links: MonotoneLinks, order: VertexOrder) -> np.ndarray:
    """Ascending sweep over each rank's lower links: parents point up,
    leaves are the local minima, -1 marks the root, the global max."""
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
    """Iterated leaf pruning of the two merge trees into the contour tree
    (Carr, Snoeyink & Axen, CGTA 2003), over flat per-vertex int lists of
    each tree's parents, child counts and child-id sums. A pruned vertex
    has at most one child in the other tree: its child-id sum there."""
    n = join.shape[0]
    values = np.asarray(values, dtype=np.float64)
    if split.shape[0] != n:
        raise InconsistentTreesError("vertex count mismatch")
    if n == 1:
        raise InconsistentTreesError("need at least 2 vertices")

    def children(parent):
        has = parent >= 0
        count = np.bincount(parent[has], minlength=n)
        id_sum = np.zeros(n, dtype=np.int64)
        np.add.at(id_sum, parent[has], np.flatnonzero(has))
        return count, id_sum

    j_count, j_sum = children(join)
    s_count, s_sum = children(split)
    leaves = (((j_count == 0) & (s_count <= 1))
              | ((s_count == 0) & (j_count <= 1)))
    queue = deque(np.flatnonzero(leaves).tolist())
    jp, jn, js = join.tolist(), j_count.tolist(), j_sum.tolist()
    sp, sn, ss = split.tolist(), s_count.tolist(), s_sum.tolist()
    arcs = []
    removed = [False] * n

    def is_leaf(v):
        return (not jn[v] and sn[v] <= 1) or (not sn[v] and jn[v] <= 1)

    remaining = n
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
        arcs += (v, w)
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
    if len(arcs) != 2 * (n - 1):
        raise InconsistentTreesError(
            f"merge produced {len(arcs) // 2} arcs for {n} vertices")
    return _contract(np.array(arcs, dtype=np.int64).reshape(n - 1, 2),
                     order, values)


def _contract(arcs: np.ndarray, order: VertexOrder,
              values: np.ndarray) -> ContourTree:
    """Contract the augmented contour tree into supernodes and superarcs."""
    n = arcs.shape[0] + 1
    rank = order.rank
    flip = rank[arcs[:, 0]] > rank[arcs[:, 1]]
    lo = np.where(flip, arcs[:, 1], arcs[:, 0])
    hi = np.where(flip, arcs[:, 0], arcs[:, 1])
    is_super = ((np.bincount(lo, minlength=n) != 1)
                | (np.bincount(hi, minlength=n) != 1))
    supernodes = np.flatnonzero(is_super)
    supernode_of = np.full(n, -1, dtype=np.int64)
    supernode_of[supernodes] = np.arange(supernodes.shape[0])
    # exact for regular vertices, whose only upward arc this is
    up = np.empty(n, dtype=np.int64)
    up[lo] = hi

    # this order fixes the superarc ids written to tree.json: by lower
    # supernode vertex id, then by the merge's arc order
    starts = np.flatnonzero(is_super[lo])
    starts = starts[np.argsort(lo[starts], kind="stable")]
    superarcs = np.empty((starts.shape[0], 2), dtype=np.int64)
    arc_regulars = []
    arc_of = np.full(n, -1, dtype=np.int64)
    for arc_id, row in enumerate(starts):
        regs = []
        cur = hi[row]
        while not is_super[cur]:
            regs.append(cur)
            cur = up[cur]
        superarcs[arc_id] = supernode_of[lo[row]], supernode_of[cur]
        regs_arr = np.asarray(regs, dtype=np.int64)
        arc_regulars.append(regs_arr)
        arc_of[regs_arr] = arc_id

    k = supernodes.shape[0]
    up_arcs = [[] for _ in range(k)]
    down_arcs = [[] for _ in range(k)]
    for a, (lo, hi) in enumerate(superarcs):
        up_arcs[lo].append(a)
        down_arcs[hi].append(a)
    # root at the global maximum supernode; each arc's child is the end
    # first reached through it; arcs join arc_order as they are reached
    root = int(np.argmax(rank[supernodes]))
    arc_child = np.full(superarcs.shape[0], -1, dtype=np.int64)
    arc_order = []
    seen = np.zeros(k, dtype=bool)
    stack = [root]
    seen[root] = True
    while stack:
        s = stack.pop()
        for a in sorted(up_arcs[s] + down_arcs[s], reverse=True):
            t = superarcs[a, 1] if superarcs[a, 0] == s else superarcs[a, 0]
            if not seen[t]:
                seen[t] = True
                arc_child[a] = t
                arc_order.append(a)
                stack.append(t)
    if not seen.all():
        raise InconsistentTreesError("contour tree is not connected")
    # canonical supernode-to-superarc assignment: the upward arc (largest
    # id when a split saddle offers several), falling back to the largest
    # downward arc at maxima
    for sn in range(k):
        arc_of[supernodes[sn]] = max(up_arcs[sn] or down_arcs[sn])
    return ContourTree(supernodes=supernodes, supernode_of=supernode_of,
                       superarcs=superarcs, arc_regulars=arc_regulars,
                       arc_of=arc_of, up_arcs=up_arcs, down_arcs=down_arcs,
                       root=root, arc_child=arc_child,
                       arc_order=np.array(arc_order, dtype=np.int64),
                       values=values)


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
