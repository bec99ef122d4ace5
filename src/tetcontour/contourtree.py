"""Contour tree construction: join/split sweeps, merge, augmentation.

The join tree is built by a descending sweep with union-find over the
already-seen (higher) neighbors; the split tree is its dual under the
reversed order. The two are merged by iterated leaf pruning into the fully
augmented contour tree, which is then contracted into supernodes and
superarcs with every regular vertex mapped to its superarc.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .mesh import TopologyGraph, VertexOrder


@dataclass(frozen=True)
class MergeTree:
    """Augmented merge tree as per-vertex parent pointers.

    For the join tree parents point toward lower values (root is the
    global minimum); for the split tree toward higher values (root is the
    global maximum). root has parent -1.
    """

    parent: np.ndarray
    root: int


def _sweep(graph: TopologyGraph, order: VertexOrder,
           descending: bool) -> MergeTree:
    n = graph.vertex_count
    parent = np.full(n, -1, dtype=np.int64)
    uf = np.full(n, -1, dtype=np.int64)       # union-find parent, -1 unseen
    frontier = np.empty(n, dtype=np.int64)    # per root: latest swept vertex

    offsets = graph.neighbor_offsets
    nbrs = graph.neighbor_indices
    sweep = order.sort_index[::-1] if descending else order.sort_index

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    for v in sweep:
        uf[v] = v
        frontier[v] = v
        for u in nbrs[offsets[v]:offsets[v + 1]]:
            if uf[u] < 0:
                continue  # not yet swept
            ru = find(u)
            rw = find(v)
            if ru != rw:
                parent[frontier[ru]] = v
                uf[ru] = rw
                frontier[rw] = v
    root = int(sweep[-1])
    return MergeTree(parent, root)


def build_join_tree(graph: TopologyGraph, order: VertexOrder) -> MergeTree:
    """Descending sweep; leaves are the local maxima, root the global min."""
    return _sweep(graph, order, descending=True)


def build_split_tree(graph: TopologyGraph, order: VertexOrder) -> MergeTree:
    """Ascending sweep; leaves are the local minima, root the global max."""
    return _sweep(graph, order, descending=False)


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
    values:        (n,) the scalar field the tree was built from.
    rank:          (n,) the global vertex order ranks.
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
    values: np.ndarray
    rank: np.ndarray

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


def merge_trees(join: MergeTree, split: MergeTree, order: VertexOrder,
                values: np.ndarray) -> ContourTree:
    """Iterated leaf pruning of the two merge trees into the contour tree."""
    n = join.parent.shape[0]
    values = np.asarray(values, dtype=np.float64)
    if split.parent.shape[0] != n:
        raise InconsistentTreesError("vertex count mismatch")
    if n == 1:
        raise InconsistentTreesError("need at least 2 vertices")

    jp = join.parent.copy()
    sp = split.parent.copy()
    j_children = [set() for _ in range(n)]
    s_children = [set() for _ in range(n)]
    for v in range(n):
        if jp[v] >= 0:
            j_children[jp[v]].add(v)
        if sp[v] >= 0:
            s_children[sp[v]].add(v)

    arcs = np.empty((n - 1, 2), dtype=np.int64)
    n_arcs = 0
    removed = np.zeros(n, dtype=bool)

    def is_leaf(v):
        return ((not j_children[v] and len(s_children[v]) <= 1)
                or (not s_children[v] and len(j_children[v]) <= 1))

    queue = deque(v for v in range(n) if is_leaf(v))
    remaining = n
    while queue and remaining > 1:
        v = queue.popleft()
        if removed[v] or not is_leaf(v):
            continue
        if not j_children[v] and jp[v] >= 0:
            w = jp[v]
            leaf_parent, leaf_children = jp, j_children
            other_parent, other_children = sp, s_children
        elif not s_children[v] and sp[v] >= 0:
            w = sp[v]
            leaf_parent, leaf_children = sp, s_children
            other_parent, other_children = jp, j_children
        else:
            # root of one tree with no remaining arc in the other: done
            continue
        arcs[n_arcs, 0] = v
        arcs[n_arcs, 1] = w
        n_arcs += 1
        removed[v] = True
        remaining -= 1
        # leaf deletion from the tree that supplied the arc
        leaf_children[w].discard(v)
        # bypass deletion from the other tree
        p = other_parent[v]
        c = next(iter(other_children[v])) if other_children[v] else -1
        if c >= 0:
            other_parent[c] = p
            if p >= 0:
                other_children[p].discard(v)
                other_children[p].add(c)
        elif p >= 0:
            other_children[p].discard(v)
        for cand in (w, p, c):
            if cand >= 0 and not removed[cand] and is_leaf(cand):
                queue.append(cand)
    if n_arcs != n - 1:
        raise InconsistentTreesError(
            f"merge produced {n_arcs} arcs for {n} vertices")
    return _contract(arcs, order, values)


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
    # first reached through it
    root = int(np.argmax(rank[supernodes]))
    arc_child = np.full(superarcs.shape[0], -1, dtype=np.int64)
    seen = np.zeros(k, dtype=bool)
    stack = [root]
    seen[root] = True
    while stack:
        s = stack.pop()
        for a in up_arcs[s] + down_arcs[s]:
            t = superarcs[a, 1] if superarcs[a, 0] == s else superarcs[a, 0]
            if not seen[t]:
                seen[t] = True
                arc_child[a] = t
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
                       root=root, arc_child=arc_child, values=values,
                       rank=rank)


def build_contour_tree(graph: TopologyGraph, order: VertexOrder,
                       values: np.ndarray) -> ContourTree:
    """Convenience: join + split + merge."""
    return merge_trees(build_join_tree(graph, order),
                       build_split_tree(graph, order), order, values)


NOT_FOUND = -1


def _arc_contains(tree: ContourTree, sn_vals, arc: int, h: float) -> bool:
    lo, hi = tree.superarcs[arc]
    if sn_vals[lo] <= h < sn_vals[hi]:
        return True
    return hi == tree.root and h == sn_vals[tree.root]


def straddling_arcs(tree: ContourTree, seed_vertex: int, h: float) -> set:
    """All superarcs containing isovalue h reachable from the seed by a
    value-monotone walk (upward when h is at or above the seed's value).

    A regular seed starts from its own superarc. A supernode seed starts
    from every arc leaving it in the walk's direction (all up-arcs of a
    split saddle, not only its canonical one), or from its canonical arc
    at an extremum with no arc that way.
    """
    sn_vals = tree.values[tree.supernodes]
    up_arcs, down_arcs = tree.up_arcs, tree.down_arcs
    going_up = h >= tree.values[seed_vertex]
    sn = tree.supernode_of[seed_vertex]
    starts = (up_arcs[sn] if going_up else down_arcs[sn]) if sn >= 0 else []
    if not starts:
        starts = [int(tree.arc_of[seed_vertex])]
    # a start arc either contains h or lies wholly before it on the walk
    hits = {a for a in starts if _arc_contains(tree, sn_vals, a, h)}
    stack = [a for a in starts if a not in hits]
    visited = set(starts)
    while stack:
        arc = stack.pop()
        lo, hi = tree.superarcs[arc]
        nxt = up_arcs[hi] if going_up else down_arcs[lo]
        for b in nxt:
            if b in visited:
                continue
            visited.add(b)
            if _arc_contains(tree, sn_vals, b, h):
                hits.add(b)
            else:
                blo, bhi = tree.superarcs[b]
                past = (h >= sn_vals[bhi]) if going_up else (h < sn_vals[blo])
                if past:
                    stack.append(b)
    return hits


def superarc_at_value(tree: ContourTree, seed_vertex: int, h: float) -> int:
    """Superarc whose contour at isovalue h the seed's arc flows into.

    Walks monotonically from the seed toward h, branching where a
    saddle offers several continuations; the result is the unique superarc
    straddling h reachable that way, or NOT_FOUND when there is none or
    the straddling superarc is ambiguous. Queries exactly at a supernode
    value resolve upward (h is treated as h+), except at the global
    maximum where the top arc still contains its endpoint value.
    """
    hits = straddling_arcs(tree, seed_vertex, h)
    if len(hits) == 1:
        return hits.pop()
    return NOT_FOUND
