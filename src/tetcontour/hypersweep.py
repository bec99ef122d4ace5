"""Exact sweep volumes: per-vertex coefficient deltas summed over the tree.

Each tet contributes a 3-piece cubic interval volume; differencing its
pieces at the tet's own rank-sorted corners yields four per-vertex
coefficient deltas that telescope to the constant tet volume T. Summing the
deltas of every vertex on the low-value side of a point on a superarc gives
the volume enclosed by the contour through that point: a piecewise cubic
in the isovalue whose only breakpoints on a superarc are the arc's own
regular vertices.

The deltas cancel only in exact arithmetic. In floating point a tet wholly
below a cut leaves a residue of up to its rounding bound b_t
(geometry.rounding_bound), which is huge for a narrow piece far from
h = 0: Gaussian tails, near-ties and symmetric grids. So compute_deltas
splits the tets:

- W, the telescoped set: the tets of smallest b_t whose bounds sum to at
  most EXACT_BUDGET times the mesh volume. Their deltas are summed as
  above.
- I, the exact set: every other tet, flat ones included. An I tet enters
  the deltas only as its volume on the constant of its top-ranked corner.
  The corners of a tet below a cut are always its lowest-ranked ones, so
  a cut with that corner below has the whole tet below.
- The I tets a cut crosses (some corners below, not all) are added in
  local form (geometry.local_volume), on the piece that their count of
  corners below names. sweep_volumes finds the crossed tets of every arc
  end by climbing a tree of nested cut sets; SuperarcVolume finds those
  of a cut inside an arc on demand.

The vertices below any cut of a superarc are one run of a depth-first
tour of the tree, or everything but one run. One cut-sum, _Tour.below,
takes per-vertex rows as differences of one compensated prefix sum along
the tour: it gives every arc's segments and arc-end weights from the
deltas, and count_weights from a unit row per vertex. A swept volume's
rounding does not grow with the number of vertices summed, and the split
is the certificate: compute_deltas bounds the error of every swept volume
and refuses a mesh whose bound exceeds REFUSE_ABOVE times its volume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contourtree import ContourTree
from .geometry import (PiecewiseCubic, batch_spline_coefficients, horner,
                       local_volume, rounding_bound)
from .mesh import _CHUNK, TetMesh, VertexOrder


EXACT_BUDGET = 1e-10
REFUSE_ABOVE = 1e-9
_U = 2.0 ** -53                 # unit roundoff of float64


@dataclass(frozen=True)
class SweepDeltas:
    """The per-vertex deltas and the exact set, as sweep_volumes reads them.

    rows:         (n, 4) standard-form deltas of the telescoped tets, plus
                  each exact-set tet's volume on the constant of its
                  top-ranked corner.
    exact:        (e, 4) int32 the exact-set tets, corners in ascending
                  rank (int64 on a mesh of 2^31 vertices or more).
    exact_volume: (e,) their volumes.
    error:        certified bound on the absolute error of every swept
                  volume that sweep_volumes computes from them.
    """

    rows: np.ndarray
    exact: np.ndarray
    exact_volume: np.ndarray
    error: float


def compute_deltas(mesh: TetMesh, order: VertexOrder) -> SweepDeltas:
    """Per-vertex cubic coefficient deltas and the exact set.

    Summed over any vertex subset that is downward-closed along the tree,
    rows give the subset's swept volume polynomial, less the exact-set
    tets the subset's boundary crosses; summed over all vertices they
    telescope to (0, 0, 0, total mesh volume).

    Three passes over blocks of _CHUNK tets, on the calling thread, and
    each tet's corners are sorted by rank once. The first pass writes every
    tet's rank-sorted corners into one (m, 4) buffer of vertex ids and takes
    its rounding bound from its volume, kept from load, and its values at
    those corners, which are its values in ascending order; the split keeps
    the tets of smallest bound. The second runs the spline kernel on blocks
    of the telescoped tets, their corners read from the buffer, groups
    their rows into rounds (_rounds), and adds round after round into the
    per-vertex Neumaier (sum, compensation) pairs, block after block in
    ascending order; each step's error is TwoSum's. The third moves the
    exact-set tets' rows to the front of the buffer, in tet order, and
    the buffer, shrunk in place to that front, is SweepDeltas.exact;
    their volumes then go in by one bincount in tet order.

    Float addition is not associative, so the bits follow the order in
    which each vertex adds its rows: ascending (tet, corner), and each
    tet's rows depend only on that tet. The block size plays no part in
    the bits.

    Raises FloatingPointError when the certified error exceeds
    REFUSE_ABOVE times the mesh volume.
    """
    n = mesh.vertex_count
    big = float(np.max(np.abs(mesh.values)))
    volume = mesh.tet_volume
    # vertex ids fit in int32 on any mesh of fewer than 2^31 vertices
    corners = np.empty((mesh.tet_count, 4), dtype=np.int32
                       if n <= np.iinfo(np.int32).max else np.int64)
    bound = np.empty(mesh.tet_count)
    for lo in range(0, mesh.tet_count, _CHUNK):
        corners[lo:lo + _CHUNK] = order.sort_tets(mesh.tets[lo:lo + _CHUNK])
        # a (4, b) gather, so rounding_bound reads contiguous columns
        values = mesh.values[corners[lo:lo + _CHUNK].T]
        bound[lo:lo + _CHUNK] = rounding_bound(volume[lo:lo + _CHUNK],
                                               values.T, big)
    kept = _cheapest(bound, EXACT_BUDGET * mesh.volume)
    kept_bound = float(np.sum(bound[kept]))
    del bound
    deltas = np.zeros((n, 4))
    comp = np.zeros((n, 4))
    for lo in range(0, kept.size, _CHUNK):
        tets = kept[lo:lo + _CHUNK]
        v, sizes, x = _rounds(volume[tets], mesh.values,
                              np.take(corners, tets, axis=0))
        sums = np.take(deltas, v, axis=0)
        comps = np.take(comp, v, axis=0)
        done = 0
        for m in sizes:
            s = sums[:m]
            x_k = x[done:done + m]
            done += m
            # TwoSum (Knuth, TAOCP vol. 2, 4.2.2): the exact error of
            # s + x_k, the same float as the branch on the larger of the two
            t = s + x_k
            z = t - s
            err = t - z
            np.subtract(s, err, out=err)
            np.subtract(x_k, z, out=z)
            err += z
            comps[:m] += err
            s[...] = t
        _rows(deltas)[v] = _rows(sums)
        _rows(comp)[v] = _rows(comps)
    deltas += comp
    rest = np.ones(mesh.tet_count, dtype=bool)
    rest[kept] = False
    rest = np.flatnonzero(rest)
    # the exact-set rows move to the front of the buffer; rest[i] >= i, so
    # no block reads a row that an earlier block has overwritten. No view
    # of the buffer outlives its statement, so it shrinks in place.
    for lo in range(0, rest.size, _CHUNK):
        tets = rest[lo:lo + _CHUNK]
        corners[lo:lo + tets.size] = np.take(corners, tets, axis=0)
    corners.resize((rest.size, 4), refcheck=False)
    exact = corners
    exact_volume = volume[rest]
    deltas[:, 3] += np.bincount(exact[:, 3], weights=exact_volume,
                                minlength=n)
    error = (kept_bound
             + _summation_bound(deltas, big) + 16 * _U * mesh.volume)
    if not error <= REFUSE_ABOVE * mesh.volume:
        raise FloatingPointError(
            f"certified volume error {error / mesh.volume:.3g}*T exceeds "
            f"{REFUSE_ABOVE:g}*T")
    return SweepDeltas(deltas, exact, exact_volume, error)


def _rounds(volume, values, corners):
    """(v, sizes, x): the per-corner difference rows of a block of
    telescoped tets, from their volumes and their corners in ascending
    rank, grouped into rounds.

    Round k holds the k-th row of every vertex in the block, in tet
    order, so no vertex appears twice in a round. v lists the block's
    vertices longest run first, so round k's vertices, those with more
    than k rows, are the prefix v[:sizes[k]], and x holds the rows round
    after round in that order. Each (tet, corner) row is written once,
    straight into its slot of x.
    """
    p1, p2, p3 = batch_spline_coefficients(volume, values[corners])
    # rows grouped by vertex, each vertex's run in tet order (the keys are
    # distinct, so any sort gives this order)
    flat = corners.ravel().astype(np.int64)
    by_vertex = np.argsort(flat * flat.size + np.arange(flat.size))
    targets = flat[by_vertex]
    start = np.flatnonzero(np.diff(targets, prepend=-1))
    length = np.diff(start, append=targets.size)
    longest = np.argsort(-length)
    place = np.empty_like(longest)
    place[longest] = np.arange(longest.size)
    # a row's round k is its place in its vertex's run; it goes to its
    # vertex's place within round k
    k = np.arange(targets.size) - np.repeat(start, length)
    sizes = np.bincount(k)
    dest = np.empty_like(by_vertex)
    dest[by_vertex] = (np.cumsum(sizes) - sizes)[k] + np.repeat(place,
                                                                 length)
    dest = dest.reshape(-1, 4)
    x = np.empty((flat.size, 4))
    into = _rows(x)
    into[dest[:, 0]] = _rows(p1)
    into[dest[:, 1]] = _rows(np.subtract(p2, p1, out=p1))
    into[dest[:, 2]] = _rows(np.subtract(p3, p2, out=p2))
    np.negative(p3, out=p3)
    p3[:, 3] += volume
    into[dest[:, 3]] = _rows(p3)
    return targets[start[longest]], sizes.tolist(), x


def _rows(a):
    """The rows of a C-ordered (m, 4) float64 array as m single items, so
    that a scatter copies each row whole rather than element by element."""
    return a.view(np.dtype((np.void, 32)))[:, 0]


def _cheapest(bound, budget):
    """Ascending ids of the tets of smallest bound, lower id first among
    equal bounds, whose bounds sum to at most budget."""
    ascending = np.sort(bound)
    count = np.searchsorted(np.cumsum(ascending), budget, side="right")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    last = ascending[count - 1]
    below = bound < last
    ties = np.flatnonzero(bound == last)[:count - np.count_nonzero(below)]
    below[ties] = True
    return np.flatnonzero(below)


def _summation_bound(deltas, big):
    """Bound on the rounding of a swept volume summed from deltas, at any
    |h| <= big: g(16 + 4 n^2 u) sum_i A_i big^(3-i), A_i the sum of
    |delta_i| over all n vertices and g(k) = k u / (1 - k u).

    Per vertex, the Neumaier sum and the exact-set volume round once
    each. A region's row is a difference of two entries of a compensated
    prefix sum, corrected by the difference of their compensations, and
    taken from the total for a complement: up to 8 roundings of terms no
    larger than A. Horner adds g(6) (Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1 and Lemma 3.3). The compensations are exact
    errors summed with g(n) of u times the prefix sums, 4 n^2 u^2 A at
    most, and the crossed exact-set part is added with one rounding. The
    local forms of the crossed exact-set tets, accurate to 16 u of their
    volumes, add the 16 u T that compute_deltas puts beside this bound.
    """
    k = (16 + 4 * deltas.shape[0] ** 2 * _U) * _U
    return k / (1 - k) * float(horner(np.abs(deltas).sum(axis=0), big))


@dataclass(frozen=True)
class _Tour:
    """A depth-first tour of the vertices over the superarc tree rooted at
    the global maximum: the root, then per arc leaving it, the arc's
    regular vertices from the root side on, its far end and everything
    past it.

    A cut of arc a with `below` of its regular vertices below has the
    arc's far side in one run of the tour: cut() names it. The runs of the
    arc-end cuts nest, as cut-tree nodes 2a (all of a's regular vertices
    and beyond, the run start[a]:stop[a]) and 2a + 1 (only beyond them),
    below node 2k, the whole tour. node gives each vertex's innermost
    node: 2a for a regular vertex of a, 2a + 1 for the far end of a.
    """

    key: np.ndarray        # (n,) each vertex's place in the tour
    start: np.ndarray      # (k,) per arc
    stop: np.ndarray
    regulars: np.ndarray   # (k,) regular vertex count per arc
    child_lo: np.ndarray   # (k,) whether arc_child is the lower end
    node: np.ndarray       # (n,)
    parent: np.ndarray     # (2k + 1,)
    depth: np.ndarray

    @staticmethod
    def build(tree: ContourTree) -> "_Tour":
        k = tree.superarc_count
        lo, hi = tree.superarcs.T
        child_lo = tree.arc_child == lo
        arc_in = np.full(tree.supernode_count, -1, dtype=np.int64)
        arc_in[tree.arc_child] = np.arange(k)
        up = arc_in[np.where(child_lo, hi, lo)].tolist()
        regulars = np.fromiter(map(len, tree.arc_regulars), np.int64, k)
        arc_order = tree.arc_order.tolist()
        size = (regulars + 1).tolist() + [0]   # the last slot for the root
        for a in arc_order[::-1]:
            size[up[a]] += size[a]
        start = [0] * k
        depth = [0] * (2 * k + 1)
        free = [1] * k + [1]           # next free place past each far end
        for a, r in zip(arc_order, regulars[tree.arc_order].tolist()):
            start[a] = free[up[a]]
            free[up[a]] += size[a]
            free[a] = start[a] + r + 1
            depth[2 * a] = depth[2 * up[a] + 1 if up[a] >= 0 else 2 * k] + 1
            depth[2 * a + 1] = depth[2 * a] + 1
        start = np.array(start, dtype=np.int64)
        key = np.zeros(tree.values.shape[0], dtype=np.int64)
        node = np.full_like(key, 2 * k)
        # arc a's regular vertices take the places from start[a] on, from
        # the root side: in descending order where its child is its lower end
        regs = np.concatenate(tree.arc_regulars)
        arc = np.repeat(np.arange(k), regulars)
        j = np.arange(regs.size) - (np.cumsum(regulars) - regulars)[arc]
        key[regs] = start[arc] + np.where(child_lo[arc],
                                          regulars[arc] - 1 - j, j)
        node[regs] = 2 * arc
        far = tree.supernodes[tree.arc_child]
        key[far] = start + regulars
        node[far] = 2 * np.arange(k) + 1
        up = np.array(up, dtype=np.int64)
        parent = np.full(2 * k + 1, -1, dtype=np.int64)
        parent[0:2 * k:2] = np.where(up >= 0, 2 * up + 1, 2 * k)
        parent[1::2] = np.arange(0, 2 * k, 2)
        return _Tour(key, start, start + np.array(size[:k], dtype=np.int64),
                     regulars, child_lo, node, parent, np.array(depth))

    def cut(self, arc, below):
        """(lo, hi, inside): the vertices below a cut of arc with `below` of
        its regular vertices below are the run lo:hi of the tour if inside,
        else all but that run. Works on arrays of arcs and counts."""
        stop = self.stop[arc]
        inside = self.child_lo[arc]
        lo = self.start[arc] + np.where(
            inside, self.regulars[arc] - below, below)
        return lo, stop, inside

    def below(self, rows, arc, count):
        """Sums of the per-vertex rows below cuts of arcs with counts of their
        regular vertices below: one compensated prefix sum along the tour
        differenced at cut(), taken from the total where not inside."""
        s, c = _compensated_prefix(rows[np.argsort(self.key)])
        lo, hi, inside = self.cut(arc, count)
        total = s[-1] + c[-1]
        # (s[hi] - s[lo]) + (c[hi] - c[lo]), each prefix sum freed once
        # differenced
        run = c[hi]
        run -= c[lo]
        del c
        ends = s[hi]
        ends -= s[lo]
        del s
        run += ends
        outside = ~inside.reshape(inside.shape + (1,) * (rows.ndim - 1))
        return np.subtract(total, run, out=run, where=outside)


def _split(nodes):
    """Whether each row of cut-tree nodes holds more than one node."""
    n0, n1, n2, n3 = nodes.T
    return (n1 != n0) | (n2 != n0) | (n3 != n0)


class _ExactPart:
    """The crossed exact-set tets of cuts of the superarc tree."""

    def __init__(self, tree: ContourTree, tour: _Tour, deltas: SweepDeltas):
        self.tree = tree
        self.tour = tour
        self.corners = deltas.exact
        self.volume = deltas.exact_volume
        self._candidates = {}

    def arc_ends(self):
        """(top, bottom): per superarc, the crossed exact-set volume at a
        cut just under its upper supernode and just above its lower one.

        Each tet's corners climb the cut tree, deepest first, until they
        meet; every node passed on the way holds some corners but not all,
        so the tet crosses that node's cut. Node 2a is the region below
        arc a's top cut where a's far end is its lower end, and the
        complement of the region below its bottom cut where it is the
        upper end; node 2a + 1 likewise with top and bottom swapped.
        """
        tree, tour = self.tree, self.tour
        k = tree.superarc_count
        corners = self.corners
        # the tets whose corners lie in more than one node, picked a block
        # at a time: most exact-set tets lie in one
        tets = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            lo + np.flatnonzero(_split(tour.node[corners[lo:lo + _CHUNK]]))
            for lo in range(0, corners.shape[0], _CHUNK)])
        nodes = tour.node[corners[tets]]
        found = [(tets[:0], tets[:0], tets[:0])]
        while tets.size:
            depth = tour.depth[nodes]
            d0, d1, d2, d3 = depth.T
            deep = depth == np.maximum(np.maximum(d0, d1),
                                       np.maximum(d2, d3))[:, None]
            # from the six column equalities: a column holds its node's
            # first occurrence when no earlier column holds the node, and
            # count[:, c] columns hold the node of column c
            n0, n1, n2, n3 = nodes.T
            e01, e02, e03 = n0 == n1, n0 == n2, n0 == n3
            e12, e13, e23 = n1 == n2, n1 == n3, n2 == n3
            first = np.stack((np.ones_like(e01), ~e01, ~(e02 | e12),
                              ~(e03 | e13 | e23)), axis=1)
            count = np.stack((1 + e01 + e02 + e03, 1 + e01 + e12 + e13,
                              1 + e02 + e12 + e23, 1 + e03 + e13 + e23),
                             axis=1)
            t, c = np.nonzero(deep & first)
            found.append((tets[t], nodes[t, c], count[t, c]))
            nodes = np.where(deep, tour.parent[nodes], nodes)
            split = _split(nodes)
            tets, nodes = tets[split], nodes[split]
        tets, node, inside = (np.concatenate(x) for x in zip(*found))
        arcs = node // 2
        child_lo = tour.child_lo[arcs]
        end = ((node % 2 == 1) != child_lo).astype(np.int64)  # 1 at the top
        h = tree.values[tree.supernodes[tree.superarcs[arcs, end]]]
        piece = np.where(child_lo, inside, 4 - inside)
        v = np.empty(tets.size)
        for lo in range(0, tets.size, _CHUNK):
            t = tets[lo:lo + _CHUNK]
            v[lo:lo + _CHUNK] = local_volume(
                self.volume[t], tree.values[corners[t]], h[lo:lo + _CHUNK],
                piece[lo:lo + _CHUNK])
        # with no tets, bincount ignores the weights and counts in int64
        return tuple(np.bincount(arcs[end == e], weights=v[end == e],
                                 minlength=k).astype(np.float64)
                     for e in (1, 0))

    def candidates(self, arc: int) -> np.ndarray:
        """Ascending ids of the tets a cut of arc can cross, memoised per
        arc: a corner in the arc's run start:stop and a corner outside
        its part past the regular vertices. A cut's run lies between
        the two, so every tet it crosses is one of these."""
        if arc not in self._candidates:
            tour = self.tour
            key = tour.key[self.corners]
            start, stop = tour.start[arc], tour.stop[arc]
            past = start + tour.regulars[arc]
            self._candidates[arc] = np.flatnonzero(
                ((key >= start) & (key < stop)).any(axis=1)
                & ((key < past) | (key >= stop)).any(axis=1))
        return self._candidates[arc]

    def __call__(self, arc: int, h: float) -> float:
        """The crossed exact-set volume of arc's cut at h, the arc's
        regular vertices at or below h counted below."""
        tree = self.tree
        regs = tree.arc_regulars[arc]
        lo, hi, inside = self.tour.cut(
            arc, np.searchsorted(tree.values[regs], h, side="right"))
        tets = self.candidates(arc)
        key = self.tour.key[self.corners[tets]]
        count = ((key >= lo) & (key < hi)).sum(axis=1)
        if not inside:
            count = 4 - count
        crossed = (count > 0) & (count < 4)
        return float(np.sum(local_volume(
            self.volume[tets[crossed]],
            tree.values[self.corners[tets[crossed]]], h, count[crossed])))


@dataclass(frozen=True)
class SuperarcVolume(PiecewiseCubic):
    """Swept volume along one superarc.

    breakpoints: (k,) values of the arc's regular vertices, ascending;
    segments: (k + 1, 4), the telescoped part from the lower supernode
    value h_lo up to the upper supernode value h_hi. Calling it adds the
    exact-set tets that the cut crosses. weight_bottom and weight_top are
    the volumes below a cut just above the lower supernode and just under
    the upper one: the arc's regular vertices all above, then all below.
    error is the certified bound on the error of each of these volumes.
    """

    superarc: int
    h_lo: float
    h_hi: float
    weight_bottom: float
    weight_top: float
    error: float
    exact: _ExactPart

    def __call__(self, h):
        h = np.asarray(h, dtype=np.float64)
        out = np.asarray(super().__call__(h)) + np.reshape(
            [self.exact(self.superarc, x) for x in h.ravel().tolist()],
            h.shape)
        return out if out.ndim else float(out)


def _compensated_prefix(x):
    """(s, c): s the running sums of x's rows from 0, c the running sums of
    the exact rounding error of each step of s, so that s[j] + c[j] is the
    sum of x[:j] up to rounding of second order."""
    s = np.zeros((x.shape[0] + 1,) + x.shape[1:])
    np.cumsum(x, axis=0, out=s[1:])
    back = s[1:] - s[:-1]
    c = np.zeros_like(s)
    # each step's error (s[:-1] - (s[1:] - back)) + (x - back), built in
    # c[1:] and back so that four arrays of x's size are live at once
    error = c[1:]
    np.subtract(s[1:], back, out=error)
    np.subtract(s[:-1], error, out=error)
    np.subtract(x, back, out=back)
    back += error
    np.cumsum(back, axis=0, out=error)
    return s, c


def sweep_volumes(tree: ContourTree, deltas: SweepDeltas) -> list:
    """SuperarcVolume for every superarc; arc a's segments are rows first[a]
    to first[a] + regulars[a] of one table from _Tour.below, one per count
    of its regular vertices below, and its ends add crossed exact-set tets."""
    tour = _Tour.build(tree)
    exact = _ExactPart(tree, tour, deltas)
    top, bottom = exact.arc_ends()
    regulars = tour.regulars
    first = np.cumsum(regulars + 1) - (regulars + 1)
    arcs = np.repeat(np.arange(tree.superarc_count), regulars + 1)
    table = tour.below(deltas.rows, arcs, np.arange(arcs.size) - first[arcs])
    h_lo, h_hi = tree.values[tree.supernodes[tree.superarcs]].T
    weight_bottom = horner(table[first], h_lo) + bottom
    weight_top = horner(table[first + regulars], h_hi) + top
    # each arc has one segment more than breakpoints: a's start at first[a] - a
    breakpoints = tree.values[np.concatenate(tree.arc_regulars)]
    return [SuperarcVolume(
        superarc=a, h_lo=lo, h_hi=hi,
        breakpoints=breakpoints[f - a:f - a + r], segments=table[f:f + r + 1],
        weight_bottom=wb, weight_top=wt, error=deltas.error, exact=exact)
        for a, (lo, hi, f, r, wb, wt) in enumerate(zip(
            h_lo.tolist(), h_hi.tolist(), first.tolist(), regulars.tolist(),
            weight_bottom.tolist(), weight_top.tolist()))]


@dataclass(frozen=True)
class ArcWeights:
    """Directional weights per superarc for branch decomposition.

    down_weight[a]: measure of everything at or below the top of arc a
    when the arc is cut just under its upper supernode; up_weight[a]: the
    complement just above its lower supernode. total is the whole-mesh
    measure in the same unit (volume or vertex count). Two weights closer
    than tie may be equal in exact arithmetic, and decompose takes them
    as tied.
    """

    down_weight: np.ndarray
    up_weight: np.ndarray
    total: float
    tie: float = 0.0


def volume_weights(volumes: list, total_volume: float) -> ArcWeights:
    """Arc weights from the swept volumes at the arc ends; weights within
    twice the certified error of each other are tied."""
    down = np.array([v.weight_top for v in volumes])
    up = total_volume - np.array([v.weight_bottom for v in volumes])
    return ArcWeights(down, up, float(total_volume),
                      2.0 * max(v.error for v in volumes))


def count_weights(tree: ContourTree) -> ArcWeights:
    """Vertex-count analogue of the swept volume: the sums of a unit row
    per vertex below each arc's two end cuts."""
    n = tree.values.shape[0]
    tour = _Tour.build(tree)
    arcs = np.arange(tree.superarc_count)
    # cut just under the top: the arc's regulars all count low;
    # cut just above the bottom: they all count high
    return ArcWeights(tour.below(np.ones(n), arcs, tour.regulars),
                      n - tour.below(np.ones(n), arcs, 0), float(n))
