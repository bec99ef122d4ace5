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
from .geometry import PiecewiseCubic, batch_spline_coefficients, horner
from .mesh import TetMesh, VertexOrder


_CHUNK = 8192


def compute_deltas(mesh: TetMesh, order: VertexOrder,
                   threads: int = 1) -> np.ndarray:
    """Per-vertex cubic coefficient deltas, (n, 4) standard-form rows.

    Summed over any vertex subset that is downward-closed along the tree
    these give the subset's exact swept volume polynomial; summed over all
    vertices they telescope to (0, 0, 0, total mesh volume).

    The tets are taken in blocks of _CHUNK, threads blocks at once. Each
    block sorts its own corners by rank, runs the spline kernel and groups
    its per-corner difference rows into rounds: round k holds the k-th row
    of every vertex in the block, in tet order, so no vertex appears twice
    in a round. The calling thread adds the rounds into per-vertex Neumaier
    (sum, compensation) pairs, block after block in ascending order.

    Float addition is not associative, so the bits follow the order in
    which each vertex adds its rows. Blocks are added in ascending order,
    and a vertex's rows within a block in tet order, so every vertex adds
    its rows in ascending (tet, corner) order; each tet's rows depend only
    on that tet. Neither the block size nor the thread count plays a part
    in the bits.

    Raises FloatingPointError where values tied to within a few ulp make
    a piece so narrow that its coefficients overflow.
    """
    n = mesh.vertex_count
    deltas = np.zeros((n, 4))
    comp = np.zeros((n, 4))

    def rounds(lo):
        block = order.sort_tets(mesh.tets[lo:lo + _CHUNK])
        # numpy's error state is per thread; overflow is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            p1, p2, p3, total = batch_spline_coefficients(
                mesh.positions[block], mesh.values[block])
            rows = np.stack((p1, p2 - p1, p3 - p2, -p3), axis=1)
        rows[:, 3, 3] += total
        # rows grouped by vertex, each vertex's run in tet order; k is a
        # row's place in its vertex's run
        by_vertex = np.argsort(block.ravel(), kind="stable")
        targets = block.ravel()[by_vertex]
        k = np.arange(targets.size) - np.searchsorted(targets, targets)
        by_round = np.argsort(k, kind="stable")
        cuts = np.cumsum(np.bincount(k))[:-1]
        return zip(np.split(targets[by_round], cuts),
                   np.split(rows.reshape(-1, 4)[by_vertex[by_round]], cuts))

    with ThreadPoolExecutor(max_workers=threads) as ex, \
            np.errstate(over="ignore", invalid="ignore"):
        for block_rounds in ex.map(rounds, range(0, mesh.tet_count, _CHUNK)):
            for v, x in block_rounds:
                s = deltas[v]
                t = s + x
                big = np.abs(s) >= np.abs(x)
                comp[v] += np.where(big, (s - t) + x, (x - t) + s)
                deltas[v] = t
        deltas += comp
    bad = np.count_nonzero(~np.isfinite(deltas).all(axis=1))
    if bad:
        raise FloatingPointError(
            f"non-finite volume deltas at {bad} vertices; the field likely "
            "has values tied to within a few ulp")
    return deltas


@dataclass(frozen=True)
class SuperarcVolume(PiecewiseCubic):
    """Piecewise cubic swept volume along one superarc.

    breakpoints: (k,) values of the arc's regular vertices, ascending;
    segments: (k + 1, 4), the first from the lower supernode value h_lo,
    the last up to the upper supernode value h_hi. The volume is the
    measure of the region hanging below a cut of the arc at h.
    """

    superarc: int
    h_lo: float
    h_hi: float

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
    arc a's regular vertices. One pass over tree.arc_order backwards: an
    arc whose lower end is the child reads the child's subtree sum, an arc
    entered from above uses total-minus-complement, and the child's sum
    and the arc's regulars then go into the parent's, children in
    ascending arc id. Returns (below, reg_sums).
    """
    reg_sums = np.zeros((tree.superarc_count,) + per_vertex.shape[1:])
    for a, regs in enumerate(tree.arc_regulars):
        if len(regs):
            reg_sums[a] = per_vertex[regs].sum(axis=0)

    sub = per_vertex[tree.supernodes]
    total = per_vertex.sum(axis=0)
    below = np.empty_like(reg_sums)
    for a in tree.arc_order[::-1].tolist():
        lo, hi = tree.superarcs[a]
        if tree.arc_child[a] == lo:
            below[a] = sub[lo]
            sub[hi] += sub[lo] + reg_sums[a]
        else:
            below[a] = total - sub[hi] - reg_sums[a]
            sub[lo] += sub[hi] + reg_sums[a]
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
