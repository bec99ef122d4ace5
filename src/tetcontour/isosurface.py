"""Marching tetrahedra with superarc labeling and filtered extraction.

A vertex counts as below the level when value <= h, so the surface never
passes exactly through mesh vertices and every triangle corner lies
strictly inside a mesh edge. Corner positions are interpolated once per
global edge with the lower-index endpoint first, so tets sharing a face
produce bitwise-identical corner coordinates and welding is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contourtree import ContourTree, straddling_arcs
from .mesh import TetMesh

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


@dataclass
class TriangleSoup:
    """Triangles of one level set.

    positions: (p, 3) welded corner coordinates; triangles: (t, 3) indices
    into positions, wound so the normal points toward increasing field
    values; tet_ids: source tet per triangle; corner_keys: (t, 3, 2)
    global mesh edge (min vertex, max vertex) each corner interpolates;
    superarc: per-triangle contour tree superarc, -1 until labeled.
    """

    positions: np.ndarray
    triangles: np.ndarray
    tet_ids: np.ndarray
    corner_keys: np.ndarray
    superarc: np.ndarray

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]


def march_tets(mesh: TetMesh, h: float) -> TriangleSoup:
    """Level-set triangles at isovalue h."""
    below = mesh.values[mesh.tets] <= h
    code = (below * (1 << np.arange(4))).sum(axis=1)

    tri_edges = []      # (t, 3, 2) local corner pairs
    tri_tets = []
    for pattern, corners in _ONE_TRI.items():
        rows = np.flatnonzero(code == pattern)
        if rows.size:
            tri_edges.append(np.broadcast_to(
                np.asarray(corners, dtype=np.int64), (rows.size, 3, 2)))
            tri_tets.append(rows)
    for pattern, quad in _QUAD.items():
        rows = np.flatnonzero(code == pattern)
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
                            empty(0, dtype=np.int64),
                            empty((0, 3, 2), dtype=np.int64),
                            empty(0, dtype=np.int64))

    local = np.concatenate(tri_edges)              # (t, 3, 2)
    rows = np.concatenate(tri_tets)
    tet_rows = mesh.tets[rows]                     # (t, 4)
    # global edge per corner, canonical endpoint order
    g = np.take_along_axis(
        tet_rows[:, None, :].repeat(3, axis=1),
        local, axis=2)                             # (t, 3, 2) global ids
    keys = np.sort(g, axis=2)

    # weld on the canonical keys, interpolate each unique edge once
    flat = keys.reshape(-1, 2)
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    vi, vj = uniq[:, 0], uniq[:, 1]
    fi, fj = mesh.values[vi], mesh.values[vj]
    t = (h - fi) / (fj - fi)
    points = mesh.positions[vi] + t[:, None] * (mesh.positions[vj]
                                                - mesh.positions[vi])
    triangles = inverse.reshape(-1, 3)

    # orient each triangle so its normal has positive dot with the tet's
    # field gradient (the edge from the below corner toward the above one)
    p = points[triangles]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    # reference direction: from any below vertex toward any above vertex
    bel = mesh.values[tet_rows] <= h
    low = tet_rows[np.arange(rows.size), np.argmax(bel, axis=1)]
    high = tet_rows[np.arange(rows.size), np.argmax(~bel, axis=1)]
    ref = mesh.positions[high] - mesh.positions[low]
    flip = np.einsum("ij,ij->i", normal, ref) < 0
    triangles[flip] = triangles[flip][:, ::-1]

    return TriangleSoup(points, triangles, rows, keys,
                        np.full(rows.size, -1, dtype=np.int64))


def label_superarcs(mesh: TetMesh, tree: ContourTree, soup: TriangleSoup,
                    h: float) -> None:
    """Assign each triangle the superarc of the contour it lies on.

    For a crossing edge (v below, u above) the level set component sits on
    the unique superarc straddling h on the tree path between v and u; the
    path is value-monotone for a mesh edge, so the arc is the intersection
    of the monotone walks up from v and down from u. Labels are written
    into soup.superarc; tets sharing a contour share the label.
    """
    if soup.triangle_count == 0:
        return
    cache_up = {}
    cache_down = {}
    tet_rows = mesh.tets[soup.tet_ids]
    bel = mesh.values[tet_rows] <= h
    low = tet_rows[np.arange(soup.triangle_count), np.argmax(bel, axis=1)]
    high = tet_rows[np.arange(soup.triangle_count), np.argmax(~bel, axis=1)]
    for i in range(soup.triangle_count):
        v, u = int(low[i]), int(high[i])
        sv = cache_up.get(v)
        if sv is None:
            sv = straddling_arcs(tree, v, h)
            cache_up[v] = sv
        su = cache_down.get(u)
        if su is None:
            su = straddling_arcs(tree, u, h)
            cache_down[u] = su
        both = sv & su
        if len(both) == 1:
            soup.superarc[i] = both.pop()


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
                        soup.tet_ids[keep],
                        soup.corner_keys[keep],
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
        for p in soup.positions:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for a, b, c in soup.triangles + 1:
            fh.write(f"f {a} {b} {c}\n")


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
