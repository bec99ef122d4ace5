"""Exact sweep volumes: per-vertex coefficient deltas summed over the tree.

Each tet contributes a 3-piece cubic interval volume; differencing its
pieces at the tet's own sorted vertices yields four per-vertex coefficient
deltas that telescope to the constant total volume. Summing the deltas of
every vertex on the low-value side of a point on a superarc gives the
exact volume enclosed by the contour through that point — a piecewise
cubic in the isovalue whose only breakpoints on a superarc are the arc's
own regular vertices. The tree-wide accumulation is a single leaf-to-root
pass over the superarc tree rooted at the global maximum.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .contourtree import ContourTree
from .geometry import batch_spline_coefficients, horner
from .mesh import TetMesh, VertexOrder


_CHUNK = 65536


def compute_deltas(mesh: TetMesh, order: VertexOrder,
                   threads: int = 1) -> np.ndarray:
    """Per-vertex cubic coefficient deltas, (n, 4) standard-form rows.

    Summed over any vertex subset that is downward-closed along the tree
    these give the subset's exact swept volume polynomial; summed over all
    vertices they telescope to (0, 0, 0, total mesh volume). The spline
    kernel always runs over fixed blocks of _CHUNK tets, each writing its
    per-corner differences straight into one contribution array; threads
    only sets how many blocks run at once. Accumulation uses Neumaier
    compensation in a fixed order, so results are bit-identical for any
    thread count and reproducible run to run.
    """
    tets = mesh.tets
    sort_cols = np.argsort(order.rank[tets], axis=1, kind="stable")
    sorted_tets = np.take_along_axis(tets, sort_cols, axis=1)
    m = tets.shape[0]
    contrib = np.empty((m, 4, 4))

    def work(lo):
        block = sorted_tets[lo:lo + _CHUNK]
        p1, p2, p3, total = batch_spline_coefficients(
            mesh.positions[block], mesh.values[block])
        out = contrib[lo:lo + _CHUNK]
        out[:, 0] = p1
        out[:, 1] = p2 - p1
        out[:, 2] = p3 - p2
        out[:, 3] = -p3
        out[:, 3, 3] += total

    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(work, range(0, m, _CHUNK)))

    targets = sorted_tets.ravel()                 # (4m,) vertex per row
    rows = contrib.reshape(-1, 4)
    order_ix = np.argsort(targets, kind="stable")
    targets = targets[order_ix]
    rows = rows[order_ix]

    n = mesh.vertex_count
    deltas = np.zeros((n, 4))
    comp = np.zeros((n, 4))
    # lockstep Neumaier: within each vertex's contiguous run, add the k-th
    # row for every vertex at once; k never exceeds the max vertex degree
    starts = np.searchsorted(targets, np.arange(n))
    ends = np.searchsorted(targets, np.arange(n), side="right")
    counts = ends - starts
    for k in range(int(counts.max()) if n else 0):
        active = np.flatnonzero(counts > k)
        x = rows[starts[active] + k]
        s = deltas[active]
        t = s + x
        big = np.abs(s) >= np.abs(x)
        lost = np.where(big, (s - t) + x, (x - t) + s)
        comp[active] += lost
        deltas[active] = t
    return deltas + comp


@dataclass(frozen=True)
class SuperarcVolume:
    """Piecewise cubic swept volume along one superarc.

    breakpoints: (k,) values of the arc's regular vertices, ascending;
    segments: (k + 1, 4) standard-form cubic rows, segment j valid for
    isovalues between breakpoints j-1 and j (first segment from the lower
    supernode value, last up to the upper supernode value). The volume is
    the measure of the region hanging below a cut of the arc at h.
    """

    superarc: int
    h_lo: float
    h_hi: float
    breakpoints: np.ndarray
    segments: np.ndarray

    def __call__(self, h):
        h = np.asarray(h, dtype=np.float64)
        return horner(self.segments[
            np.searchsorted(self.breakpoints, h, side="right")], h)

    @property
    def weight_bottom(self) -> float:
        return float(horner(self.segments[0], self.h_lo))

    @property
    def weight_top(self) -> float:
        return float(horner(self.segments[-1], self.h_hi))


def subtree_sums(tree: ContourTree, per_vertex: np.ndarray):
    """Leaf-to-root sums of a per-vertex quantity over the superarc tree.

    With the tree rooted at the global maximum, sub[s] sums per_vertex over
    the full subtree hanging off supernode s (including the regular
    vertices of the arcs inside it but not of s's parent arc); reg_sums[a]
    is the sum over arc a's regular vertices. Returns (sub, reg_sums).
    """
    k = tree.supernode_count
    own = per_vertex[tree.supernodes]
    reg_sums = np.zeros((tree.superarc_count,) + per_vertex.shape[1:])
    for a, regs in enumerate(tree.arc_regulars):
        if len(regs):
            reg_sums[a] = per_vertex[regs].sum(axis=0)

    # children lists under the rooting at the global maximum
    children = [[] for _ in range(k)]
    for a in range(tree.superarc_count):
        child = tree.arc_child[a]
        lo, hi = tree.superarcs[a]
        parent = lo if child == hi else hi
        children[parent].append((child, a))

    sub = np.zeros((k,) + per_vertex.shape[1:])
    # iterative post-order from the root
    stack = [(tree.root, False)]
    while stack:
        s, done = stack.pop()
        if done:
            acc = own[s].copy()
            for c, a in children[s]:
                acc += sub[c] + reg_sums[a]
            sub[s] = acc
        else:
            stack.append((s, True))
            for c, _ in children[s]:
                stack.append((c, False))
    return sub, reg_sums


def sweep_volumes(mesh: TetMesh, tree: ContourTree,
                  deltas: np.ndarray | None = None,
                  order: VertexOrder | None = None) -> list:
    """SuperarcVolume for every superarc, via one leaf-to-root pass.

    An arc whose lower end is the child reads its base polynomial straight
    from the subtree sum of that child; an arc entered from above uses
    total-minus-complement.
    """
    if deltas is None:
        from .mesh import build_vertex_order
        if order is None:
            order = build_vertex_order(mesh)
        deltas = compute_deltas(mesh, order)
    total_poly = deltas.sum(axis=0)
    sub, reg_sums = subtree_sums(tree, deltas)

    values = tree.values
    out = []
    for a in range(tree.superarc_count):
        lo, hi = tree.superarcs[a]
        regs = tree.arc_regulars[a]
        if tree.arc_child[a] == lo:
            base = sub[lo].copy()
        else:
            base = total_poly - sub[hi] - reg_sums[a]
        segs = np.empty((len(regs) + 1, 4))
        segs[0] = base
        if len(regs):
            segs[1:] = base + np.cumsum(deltas[regs], axis=0)
        out.append(SuperarcVolume(
            superarc=a,
            h_lo=float(values[tree.supernodes[lo]]),
            h_hi=float(values[tree.supernodes[hi]]),
            breakpoints=values[regs].astype(np.float64),
            segments=segs))
    return out


def count_regular_nodes(tree: ContourTree) -> np.ndarray:
    """Vertices per superarc: regular vertices plus the canonically
    assigned supernodes; sums to the mesh vertex count."""
    counts = np.array([len(r) for r in tree.arc_regulars], dtype=np.int64)
    sn_arcs = tree.arc_of[tree.supernodes]
    np.add.at(counts, sn_arcs, 1)
    return counts


@dataclass(frozen=True)
class ArcWeights:
    """Directional weights per superarc for branch decomposition.

    down_weight[a]: measure of everything at or below the top of arc a
    when the arc is cut just under its upper supernode; up_weight[a]: the
    complement just above its lower supernode. total is the whole-mesh
    measure in the same unit (volume or vertex count).
    """

    down_weight: np.ndarray
    up_weight: np.ndarray
    total: float
    kind: str


def volume_weights(volumes: list, total_volume: float) -> ArcWeights:
    down = np.array([v.weight_top for v in volumes])
    up = total_volume - np.array([v.weight_bottom for v in volumes])
    return ArcWeights(down, up, float(total_volume), "volume")


def count_weights(tree: ContourTree) -> ArcWeights:
    """Vertex-count analogue of the swept volume: the same subtree pass
    over a count of one per vertex."""
    n = tree.values.shape[0]
    sub, reg_counts = subtree_sums(tree, np.ones(n))
    down = np.empty(tree.superarc_count)
    up = np.empty(tree.superarc_count)
    for a in range(tree.superarc_count):
        lo, hi = tree.superarcs[a]
        if tree.arc_child[a] == lo:
            low_side = sub[lo] + reg_counts[a]
        else:
            low_side = n - sub[hi]
        # cut just under the top: the arc's regulars all count low;
        # cut just above the bottom: they all count high
        down[a] = low_side
        up[a] = n - (low_side - reg_counts[a])
    return ArcWeights(down, up, float(n), "count")
