"""Marching tetrahedra with superarc labeling and filtered extraction.

A vertex counts as below the level when value <= h. When h is the value
of no vertex on the contour, as for every isovalue `ct run` extracts at,
the surface never passes through a mesh vertex and every triangle corner
lies strictly inside a mesh edge. Corner positions are interpolated once
per global edge with the lower-index endpoint first, so tets sharing a
face produce bitwise-identical corner coordinates and welding is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contourtree import ContourTree, straddling_arcs
from .mesh import TetMesh, _cross

# below-mask patterns (bit i set when sorted-corner i is below). one
# triangle when a single corner is cut off, two when the cut is a quad;
# rows list the cut tet edges (corner pairs) in an order that makes the
# triangle fan consistent.
_ONE_TRI = {
    0b0001: ((0, 1), (0, 2), (0, 3)),
    0b0010: ((1, 0), (1, 3), (1, 2)),
    0b0100: ((2, 0), (2, 1), (2, 3)),
    0b1000: ((3, 0), (3, 2), (3, 1)),
    0b1110: ((0, 1), (0, 3), (0, 2)),
    0b1101: ((1, 0), (1, 2), (1, 3)),
    0b1011: ((2, 0), (2, 3), (2, 1)),
    0b0111: ((3, 0), (3, 1), (3, 2)),
}
_QUAD = {
    0b0011: ((0, 2), (1, 2), (1, 3), (0, 3)),
    0b1100: ((2, 0), (3, 0), (3, 1), (2, 1)),
    0b0101: ((0, 1), (2, 1), (2, 3), (0, 3)),
    0b1010: ((1, 0), (3, 0), (3, 2), (1, 2)),
    0b0110: ((1, 0), (1, 3), (2, 3), (2, 0)),
    0b1001: ((0, 1), (3, 1), (3, 2), (0, 2)),
}

# the lowest set bit of a 4-bit code: the first below corner of a cut tet
_LOWEST_BIT = np.array([(c & -c).bit_length() - 1 for c in range(16)])


@dataclass
class TriangleSoup:
    """Triangles of one level set.

    positions: (p, 3) welded corner coordinates, one per mesh edge h
    crosses, so two triangles sharing a position index share that edge;
    triangles: (t, 3) indices into positions, wound so the normal points
    toward increasing field values; crossing: (t, 2) the (below, above)
    vertices of a source-tet edge h crosses, which orient and label the
    triangle; superarc: contour tree superarc, -1 until labeled.
    """

    positions: np.ndarray
    triangles: np.ndarray
    crossing: np.ndarray
    superarc: np.ndarray

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]


def march_tets(mesh: TetMesh, h: float) -> TriangleSoup:
    """Level-set triangles at isovalue h."""
    values, tets = mesh.values, mesh.tets
    code = np.zeros(mesh.tet_count, dtype=np.uint8)
    for i in range(4):
        code |= (values[tets[:, i]] <= h).view(np.uint8) << i
    # only the tets the level cuts, in ascending order within each pattern
    cut = np.flatnonzero((code > 0) & (code < 15))
    cut_code = code[cut]

    tri_edges = []      # (t, 3, 2) local corner pairs
    tri_tets = []
    for pattern, corners in _ONE_TRI.items():
        rows = cut[cut_code == pattern]
        if rows.size:
            tri_edges.append(np.broadcast_to(
                np.asarray(corners, dtype=np.int64), (rows.size, 3, 2)))
            tri_tets.append(rows)
    for pattern, quad in _QUAD.items():
        rows = cut[cut_code == pattern]
        if rows.size:
            q = np.asarray(quad, dtype=np.int64)
            fan = np.stack([q[[0, 1, 2]], q[[0, 2, 3]]])   # (2, 3, 2)
            tri_edges.append(np.broadcast_to(
                fan[0], (rows.size, 3, 2)))
            tri_tets.append(rows)
            tri_edges.append(np.broadcast_to(
                fan[1], (rows.size, 3, 2)))
            tri_tets.append(rows)
    if not tri_tets:
        empty = np.empty
        return TriangleSoup(empty((0, 3)), empty((0, 3), dtype=np.int64),
                            empty((0, 2), dtype=np.int64),
                            empty(0, dtype=np.int64))

    local = np.concatenate(tri_edges)              # (t, 3, 2)
    rows = np.concatenate(tri_tets)
    tet_rows = mesh.tets[rows]                     # (t, 4)
    # global edge per corner, canonical endpoint order
    g = np.take_along_axis(
        tet_rows[:, None, :].repeat(3, axis=1),
        local, axis=2)                             # (t, 3, 2) global ids

    # weld on the edge codes min * n + max, which sort as the (min, max)
    # pairs do; interpolate each unique edge once, lower index first
    codes = g.min(axis=2) * mesh.vertex_count + g.max(axis=2)
    uniq, inverse = np.unique(codes, return_inverse=True)
    vi, vj = np.divmod(uniq, mesh.vertex_count)
    fi, fj = mesh.values[vi], mesh.values[vj]
    t = (h - fi) / (fj - fi)
    points = mesh.positions[vi] + t[:, None] * (mesh.positions[vj]
                                                - mesh.positions[vi])
    triangles = inverse.reshape(-1, 3)     # numpy 1.24 returns it flat

    # orient each triangle so its normal has positive dot with the tet's
    # field gradient (the edge from the below corner toward the above one)
    p = points[triangles]
    normal = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    # the crossing edge: the tet's first below corner, its first above one
    tri_code = code[rows]
    crossing = np.take_along_axis(tet_rows, np.stack(
        [_LOWEST_BIT[tri_code], _LOWEST_BIT[15 ^ tri_code]], axis=1), axis=1)
    ref = mesh.positions[crossing[:, 1]] - mesh.positions[crossing[:, 0]]
    flip = np.einsum("ij,ij->i", normal, ref) < 0
    triangles[flip] = triangles[flip][:, ::-1]

    return TriangleSoup(points, triangles, crossing,
                        np.full(rows.size, -1, dtype=np.int64))


def label_superarcs(mesh: TetMesh, tree: ContourTree, soup: TriangleSoup,
                    h: float) -> None:
    """Assign each triangle the superarc of the contour it lies on.

    For a triangle's crossing edge (v below, u above) the level set
    component sits on the unique superarc straddling h on the tree path
    between v and u; the path is value-monotone for a mesh edge, so the arc
    is the intersection of the monotone walks up from v and down from u.
    Labels go into soup.superarc; a triangle whose walks share no arc or
    several keeps its -1.

    Each crossing end gets a walk key: a regular end whose own arc holds h
    finds that arc alone and needs no walk; any other regular end walks
    exactly as its arc's upper supernode (end at or below h) or lower one
    (end above h), as straddling_arcs explains; a supernode end is its own
    key. So the labels are those of one walk per end, computed once per
    distinct (below key, above key) pair, with at most one straddling_arcs
    call per supernode, all sharing one memo. mesh is unread; it stays in
    the signature until seed-and-flood extraction takes labeling off the
    hot path.
    """
    k = tree.supernode_count
    ends = soup.crossing
    arc = tree.arc_of[ends]
    arc_ends = tree.superarcs[arc]                      # (t, 2, 2) lo, hi
    end_vals = tree.values[tree.supernodes[arc_ends]]
    holds = (end_vals[..., 0] <= h) & (h < end_vals[..., 1])
    walks_as = np.where(tree.values[ends] <= h, arc_ends[..., 1],
                        arc_ends[..., 0])
    own_sn = tree.supernode_of[ends]
    keys = np.where(own_sn >= 0, own_sn, np.where(holds, k + arc, walks_as))
    # one code per (below key, above key) pair, keys < 2k
    pairs, inverse = np.unique(keys[:, 0] * (2 * k) + keys[:, 1],
                               return_inverse=True)
    below, above = np.divmod(pairs, 2 * k)
    memo = {}
    walks = {key: frozenset((key - k,)) if key >= k else
             straddling_arcs(tree, int(tree.supernodes[key]), h, memo)
             for key in np.union1d(below, above).tolist()}
    labels = np.full(pairs.shape[0], -1, dtype=np.int64)
    for i, (b, a) in enumerate(zip(below.tolist(), above.tolist())):
        both = walks[b] & walks[a]
        if len(both) == 1:
            (labels[i],) = both
    found = labels[inverse.reshape(-1)]
    np.copyto(soup.superarc, found, where=found >= 0)


def extract_superarc_contour(mesh: TetMesh, tree: ContourTree,
                             superarc: int, h: float) -> TriangleSoup:
    """Only the level-set component lying on one superarc."""
    soup = march_tets(mesh, h)
    label_superarcs(mesh, tree, soup, h)
    keep = soup.superarc == superarc
    old_tris = soup.triangles[keep]
    used, remap = np.unique(old_tris, return_inverse=True)
    return TriangleSoup(soup.positions[used],
                        remap.reshape(-1, 3),
                        soup.crossing[keep],
                        soup.superarc[keep])


def euler_characteristic(soup: TriangleSoup) -> int:
    """V - E + F of the triangulated surface, edges counted once."""
    tris = soup.triangles
    if tris.shape[0] == 0:
        return 0
    v = np.unique(tris).size
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                            tris[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    e = np.unique(edges, axis=0).shape[0]
    return v - e + tris.shape[0]


def write_obj(path, soup: TriangleSoup, group: str | None = None,
              material: str | None = None, mtllib: str | None = None) -> None:
    """Wavefront OBJ with deterministic plain-text formatting."""
    with open(path, "w") as fh:
        if mtllib:
            fh.write(f"mtllib {mtllib}\n")
        if group:
            fh.write(f"g {group}\n")
        if material:
            fh.write(f"usemtl {material}\n")
        # one format call per section: the same text as one call per line
        fh.write(("v %.17g %.17g %.17g\n" * soup.positions.shape[0])
                 % tuple(soup.positions.ravel().tolist()))
        fh.write(("f %d %d %d\n" * soup.triangles.shape[0])
                 % tuple((soup.triangles + 1).ravel().tolist()))


def read_obj(path):
    """Positions and triangles back from an OBJ written by write_obj."""
    positions = []
    triangles = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                positions.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                triangles.append([int(x) - 1 for x in parts[1:4]])
    return (np.asarray(positions, dtype=np.float64).reshape(-1, 3),
            np.asarray(triangles, dtype=np.int64).reshape(-1, 3))


def write_mtl(path, names_and_colors) -> None:
    """Flat-color material table, one entry per (name, rgb triple)."""
    with open(path, "w") as fh:
        for name, (r, g, b) in names_and_colors:
            fh.write(f"newmtl {name}\n")
            fh.write(f"Kd {r:.4f} {g:.4f} {b:.4f}\n")
