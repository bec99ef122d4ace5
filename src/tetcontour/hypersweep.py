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


_CHUNK = 8192


def compute_deltas(mesh: TetMesh, order: VertexOrder,
                   threads: int = 1) -> np.ndarray:
    """Per-vertex cubic coefficient deltas, (n, 4) standard-form rows.

    Summed over any vertex subset that is downward-closed along the tree
    these give the subset's exact swept volume polynomial; summed over all
    vertices they telescope to (0, 0, 0, total mesh volume). The spline
    kernel runs over blocks of _CHUNK tets, threads of them at once, each
    writing its per-corner differences straight into their summation rows.
    Neither block size nor threads play a part in the bits: each tet's rows
    depend only on that tet, and each vertex adds its rows with Neumaier
    compensation in fixed (tet, corner) order.
    """
    tets = mesh.tets
    sort_cols = np.argsort(order.rank[tets], axis=1, kind="stable")
    sorted_tets = np.take_along_axis(tets, sort_cols, axis=1)
    m = tets.shape[0]
    n = mesh.vertex_count
    targets = sorted_tets.ravel()                 # (4m,) vertex per row
    counts = np.bincount(targets, minlength=n)
    # vertices longest run first, so those with a k-th row are a prefix
    by_len = np.argsort(-counts, kind="stable")
    slot = np.empty(n, dtype=np.int64)
    slot[by_len] = np.arange(n)
    # dest[t, c]: tet t's corner-c row in its vertex's (tet, corner) run
    dest = np.empty((m, 4), dtype=np.int64)
    dest.reshape(-1)[np.argsort(slot[targets], kind="stable")] = \
        np.arange(4 * m)
    rows = np.empty((4 * m, 4))

    def work(lo):
        block = sorted_tets[lo:lo + _CHUNK]
        p1, p2, p3, total = batch_spline_coefficients(
            mesh.positions[block], mesh.values[block])
        last = -p3
        last[:, 3] += total
        rows[dest[lo:lo + _CHUNK].T] = (p1, p2 - p1, p3 - p2, last)

    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(work, range(0, m, _CHUNK)))

    lens = counts[by_len]
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    active = n - np.cumsum(np.bincount(lens))[:-1]    # runs longer than k

    deltas = np.zeros((n, 4))
    comp = np.zeros((n, 4))
    # lockstep Neumaier: within each vertex's contiguous run, add the k-th
    # row for every vertex at once; k never exceeds the max vertex degree
    for k, m in enumerate(active.tolist()):
        x = rows[starts[:m] + k]
        s = deltas[:m]
        t = s + x
        big = np.abs(s) >= np.abs(x)
        comp[:m] += np.where(big, (s - t) + x, (x - t) + s)
        deltas[:m] = t
    out = np.empty((n, 4))
    out[by_len] = deltas + comp
    return out


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


def below_arc_sums(tree: ContourTree, per_vertex: np.ndarray):
    """Leaf-to-root sums of a per-vertex quantity over the superarc tree.

    With the tree rooted at the global maximum, below[a] sums per_vertex
    over everything below a cut of arc a just above its lower supernode
    (none of the arc's own regular vertices); reg_sums[a] is the sum over
    arc a's regular vertices. An arc whose lower end is the child reads
    the subtree sum of that child; an arc entered from above uses
    total-minus-complement. Returns (below, reg_sums).
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

    total = per_vertex.sum(axis=0)
    below = np.empty_like(reg_sums)
    for a, (lo, hi) in enumerate(tree.superarcs):
        if tree.arc_child[a] == lo:
            below[a] = sub[lo]
        else:
            below[a] = total - sub[hi] - reg_sums[a]
    return below, reg_sums


def sweep_volumes(tree: ContourTree, deltas: np.ndarray) -> list:
    """SuperarcVolume for every superarc, via one leaf-to-root pass."""
    below, _ = below_arc_sums(tree, deltas)
    values = tree.values
    out = []
    for a in range(tree.superarc_count):
        lo, hi = tree.superarcs[a]
        regs = tree.arc_regulars[a]
        segs = np.empty((len(regs) + 1, 4))
        segs[0] = below[a]
        if len(regs):
            segs[1:] = below[a] + np.cumsum(deltas[regs], axis=0)
        out.append(SuperarcVolume(
            superarc=a,
            h_lo=float(values[tree.supernodes[lo]]),
            h_hi=float(values[tree.supernodes[hi]]),
            breakpoints=values[regs].astype(np.float64),
            segments=segs))
    return out


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


def volume_weights(volumes: list, total_volume: float) -> ArcWeights:
    down = np.array([v.weight_top for v in volumes])
    up = total_volume - np.array([v.weight_bottom for v in volumes])
    return ArcWeights(down, up, float(total_volume))


def count_weights(tree: ContourTree) -> ArcWeights:
    """Vertex-count analogue of the swept volume: the same subtree pass
    over a count of one per vertex."""
    n = tree.values.shape[0]
    below, reg_counts = below_arc_sums(tree, np.ones(n))
    # cut just under the top: the arc's regulars all count low;
    # cut just above the bottom: they all count high
    return ArcWeights(below + reg_counts, n - below, float(n))
