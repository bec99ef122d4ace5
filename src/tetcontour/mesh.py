"""Tetrahedral mesh ingestion, grid tetrahedralization, and topology graph.

Provides the core mesh container (vertex positions, scalar values, tets),
loading of TetGen .node/.ele pairs, Kuhn/Freudenthal subdivision of regular
grids for comparison runs, the per-vertex neighbor structure derived from
tet edges, and the global sorted vertex order used by all sweep algorithms.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MeshError(Exception):
    """Base class for mesh ingestion failures."""


class ParseError(MeshError):
    """Malformed file content; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class StructuralError(MeshError):
    """Indices out of range, duplicate vertices in a tet, degenerate tets."""


class DataError(MeshError):
    """Non-finite scalar values or size mismatches."""


@dataclass(frozen=True)
class TetMesh:
    """Tetrahedral mesh with one scalar value per vertex.

    positions: (n, 3) float64 world coordinates.
    values:    (n,)  float64 scalar field, finite.
    tets:      (m, 4) int64 vertex indices, 0-based, pairwise distinct,
               each tet with strictly positive geometric volume.
    """

    positions: np.ndarray
    values: np.ndarray
    tets: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.positions.shape[0]

    @property
    def tet_count(self) -> int:
        return self.tets.shape[0]

    @staticmethod
    def create(positions, values, tets) -> "TetMesh":
        """Validate arrays and build a TetMesh; raises on invariant violations."""
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        tets = np.ascontiguousarray(tets, dtype=np.int64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise DataError("positions must have shape (n, 3)")
        n = positions.shape[0]
        if values.shape != (n,):
            raise DataError(
                f"expected {n} scalar values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.flatnonzero(~np.isfinite(values))
            raise DataError(f"non-finite scalar values at vertices {bad[:10].tolist()}")
        if not np.all(np.isfinite(positions)):
            raise DataError("non-finite vertex coordinates")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise DataError("tets must have shape (m, 4)")
        if tets.size:
            if tets.min() < 0 or tets.max() >= n:
                raise StructuralError(
                    f"tet vertex index out of range [0, {n})")
            sorted_rows = np.sort(tets, axis=1)
            if np.any(sorted_rows[:, :-1] == sorted_rows[:, 1:]):
                dup = np.flatnonzero(
                    np.any(sorted_rows[:, :-1] == sorted_rows[:, 1:], axis=1))
                raise StructuralError(
                    f"repeated vertex within tets {dup[:10].tolist()}")
            vols = tet_volumes(positions, tets)
            degenerate = np.flatnonzero(vols <= 0.0)
            if degenerate.size:
                raise StructuralError(
                    "degenerate (zero-volume) tets: "
                    f"{degenerate[:20].tolist()}")
        return TetMesh(positions, values, tets)

    def total_volume(self) -> float:
        return float(np.sum(tet_volumes(self.positions, self.tets)))


def tet_volumes(positions, tets) -> np.ndarray:
    """Unsigned volume |scalar triple product| / 6 for every tet."""
    p = positions[tets]
    e = p[:, 1:] - p[:, :1]
    det = np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2]))
    return np.abs(det) / 6.0


@dataclass(frozen=True)
class TopologyGraph:
    """Per-vertex sorted neighbor lists in prefix layout.

    neighbor_offsets: (n + 1,) int64; neighbors of v live in
    neighbor_indices[neighbor_offsets[v]:neighbor_offsets[v + 1]].
    """

    neighbor_offsets: np.ndarray
    neighbor_indices: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.neighbor_offsets.shape[0] - 1

    def neighbors(self, v: int) -> np.ndarray:
        return self.neighbor_indices[
            self.neighbor_offsets[v]:self.neighbor_offsets[v + 1]]


@dataclass(frozen=True)
class VertexOrder:
    """Total order over vertices, ascending by (value, vertex index).

    sort_index[i] is the vertex with the i-th smallest value;
    rank is the inverse permutation: rank[sort_index[i]] == i.
    """

    sort_index: np.ndarray
    rank: np.ndarray


def build_topology_graph(mesh: TetMesh) -> TopologyGraph:
    """Edge structure of the mesh: bulk emit / sort / dedup / prefix.

    Emits 12 directed half-edges per tet (both directions of the 6 tet
    edges), deduplicates, and lays out sorted neighbor lists. Deterministic
    and identical regardless of how the bulk passes are scheduled.
    """
    tets = mesh.tets
    n = mesh.vertex_count
    # both directions of the 6 tet edges, encoded as src * n + dst so the
    # dedup is a 1-D sort (np.unique's hash path is far slower)
    src = [0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]
    dst = [1, 0, 2, 0, 3, 0, 2, 1, 3, 1, 3, 2]
    keys = tets[:, src] * n
    keys += tets[:, dst]
    keys = keys.ravel()
    keys.sort()
    first = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    src_u, dst_u = np.divmod(keys, n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_u, minlength=n), out=offsets[1:])
    return TopologyGraph(offsets, dst_u)


def build_vertex_order(mesh_or_values) -> VertexOrder:
    """Stable total order by (value, vertex index)."""
    values = (mesh_or_values.values
              if isinstance(mesh_or_values, TetMesh) else
              np.asarray(mesh_or_values, dtype=np.float64))
    sort_index = np.argsort(values, kind="stable")
    rank = np.empty_like(sort_index)
    rank[sort_index] = np.arange(sort_index.shape[0])
    return VertexOrder(sort_index, rank)


def grid_to_tets(dims, values, spacing=(1.0, 1.0, 1.0)) -> TetMesh:
    """Tetrahedralize a regular grid with the 6-tet Kuhn subdivision.

    Every grid cube is split into the 6 tetrahedra sharing the main
    diagonal from its (0,0,0) to its (1,1,1) corner, so faces shared by
    neighboring cubes triangulate consistently. values is a flat array in
    x-fastest layout; vertex positions are index * spacing.
    """
    nx, ny, nz = (int(d) for d in dims)
    if nx < 2 or ny < 2 or nz < 2:
        raise DataError(f"grid dims must all be >= 2, got {(nx, ny, nz)}")
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if values.shape[0] != nx * ny * nz:
        raise DataError(
            f"expected {nx * ny * nz} grid values, got {values.shape[0]}")
    spacing = np.asarray(spacing, dtype=np.float64)

    zz, yy, xx = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                             indexing="ij")
    positions = np.empty((nx * ny * nz, 3), dtype=np.float64)
    positions[:, 0] = xx.ravel() * spacing[0]
    positions[:, 1] = yy.ravel() * spacing[1]
    positions[:, 2] = zz.ravel() * spacing[2]

    def vid(ix, iy, iz):
        return ix + nx * (iy + ny * iz)

    cz, cy, cx = np.meshgrid(np.arange(nz - 1), np.arange(ny - 1),
                             np.arange(nx - 1), indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()
    cz = cz.ravel()
    base = vid(cx, cy, cz)
    far = vid(cx + 1, cy + 1, cz + 1)

    # the 6 Kuhn tets follow the 6 monotone lattice paths 000 -> 111
    axis_perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                  (2, 0, 1), (2, 1, 0))
    step = (np.int64(1), np.int64(nx), np.int64(nx * ny))
    tets = np.empty((base.shape[0] * 6, 4), dtype=np.int64)
    for k, (a0, a1, _a2) in enumerate(axis_perms):
        v1 = base + step[a0]
        v2 = v1 + step[a1]
        tets[k::6, 0] = base
        tets[k::6, 1] = v1
        tets[k::6, 2] = v2
        tets[k::6, 3] = far
    # canonical orientation: positive scalar triple product
    p = positions[tets]
    e = p[:, 1:] - p[:, :1]
    det = np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2]))
    flip = det < 0.0
    tets[flip, 2], tets[flip, 3] = (tets[flip, 3].copy(),
                                    tets[flip, 2].copy())
    return TetMesh.create(positions, values, tets)


def _data_lines(path):
    """Yield (line_no, tokens) for non-comment, non-blank lines."""
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield line_no, text.split()


def _parse_node_file(node_path):
    rows = _data_lines(node_path)
    try:
        line_no, header = next(rows)
    except StopIteration:
        raise ParseError(node_path, 0, "empty .node file")
    if len(header) < 4:
        raise ParseError(node_path, line_no,
                         f"expected 4 header fields, got {len(header)}")
    try:
        n_points, dim, n_attrs, n_markers = (int(t) for t in header[:4])
    except ValueError:
        raise ParseError(node_path, line_no, "non-integer .node header")
    if dim != 3:
        raise ParseError(node_path, line_no, f"expected dimension 3, got {dim}")

    indices = np.empty(n_points, dtype=np.int64)
    positions = np.empty((n_points, 3), dtype=np.float64)
    attrs = np.empty((n_points, n_attrs), dtype=np.float64)
    want = 1 + 3 + n_attrs  # marker column, if declared, is ignored
    for i in range(n_points):
        try:
            line_no, tokens = next(rows)
        except StopIteration:
            raise ParseError(node_path, line_no,
                             f"expected {n_points} points, file ended at {i}")
        if len(tokens) < want:
            raise ParseError(node_path, line_no,
                             f"expected at least {want} fields, got {len(tokens)}")
        try:
            indices[i] = int(tokens[0])
            positions[i] = [float(t) for t in tokens[1:4]]
            attrs[i] = [float(t) for t in tokens[4:4 + n_attrs]]
        except ValueError:
            raise ParseError(node_path, line_no, "malformed point line")
    return indices, positions, attrs


def _parse_ele_file(ele_path):
    rows = _data_lines(ele_path)
    try:
        line_no, header = next(rows)
    except StopIteration:
        raise ParseError(ele_path, 0, "empty .ele file")
    if len(header) < 2:
        raise ParseError(ele_path, line_no,
                         f"expected at least 2 header fields, got {len(header)}")
    try:
        n_tets = int(header[0])
        nodes_per_tet = int(header[1])
    except ValueError:
        raise ParseError(ele_path, line_no, "non-integer .ele header")
    if nodes_per_tet != 4:
        raise ParseError(ele_path, line_no,
                         f"expected 4 nodes per tet, got {nodes_per_tet}")
    tets = np.empty((n_tets, 4), dtype=np.int64)
    for i in range(n_tets):
        try:
            line_no, tokens = next(rows)
        except StopIteration:
            raise ParseError(ele_path, line_no,
                             f"expected {n_tets} tets, file ended at {i}")
        if len(tokens) < 5:
            raise ParseError(ele_path, line_no,
                             f"expected at least 5 fields, got {len(tokens)}")
        try:
            tets[i] = [int(t) for t in tokens[1:5]]
        except ValueError:
            raise ParseError(ele_path, line_no, "malformed tet line")
    return tets


def load_scalar_file(path, expected_count) -> np.ndarray:
    """One decimal value per line; count must equal the vertex count."""
    values = []
    for line_no, tokens in _data_lines(path):
        if len(tokens) != 1:
            raise ParseError(path, line_no,
                             f"expected one value per line, got {len(tokens)}")
        try:
            values.append(float(tokens[0]))
        except ValueError:
            raise ParseError(path, line_no, f"not a number: {tokens[0]!r}")
    if len(values) != expected_count:
        raise DataError(
            f"{path}: expected {expected_count} values, got {len(values)}")
    return np.asarray(values, dtype=np.float64)


def load_tetgen(node_path, ele_path, field_path=None,
                field_attr=None) -> TetMesh:
    """Load a TetGen .node/.ele pair plus a scalar field.

    The field comes either from attribute column `field_attr` of the .node
    file or from a separate one-value-per-line file `field_path`. File
    index base (0 or 1) is detected from the first point index and
    normalized to 0-based.
    """
    node_path = Path(node_path)
    ele_path = Path(ele_path)
    indices, positions, attrs = _parse_node_file(node_path)
    tets = _parse_ele_file(ele_path)

    base = int(indices[0]) if indices.size else 0
    if base not in (0, 1):
        raise StructuralError(
            f"{node_path}: first point index {base} is neither 0 nor 1")
    if not np.array_equal(indices, np.arange(base, base + indices.size)):
        raise StructuralError(f"{node_path}: point indices are not consecutive")
    tets = tets - base

    if field_attr is not None:
        if field_path is not None:
            raise DataError("give either field_attr or field_path, not both")
        if not 0 <= field_attr < attrs.shape[1]:
            raise DataError(
                f"field attribute {field_attr} out of range; "
                f".node declares {attrs.shape[1]} attributes")
        values = attrs[:, field_attr]
    elif field_path is not None:
        values = load_scalar_file(field_path, positions.shape[0])
    else:
        raise DataError("a field source is required (field_attr or field_path)")
    return TetMesh.create(positions, values, tets)


def load_raw_grid(raw_path, dims, spacing=(1.0, 1.0, 1.0)) -> TetMesh:
    """Little-endian float64 grid in x-fastest layout, then Kuhn split."""
    nx, ny, nz = (int(d) for d in dims)
    values = np.fromfile(raw_path, dtype="<f8")
    if values.shape[0] != nx * ny * nz:
        raise DataError(
            f"{raw_path}: expected {nx * ny * nz} float64 values, "
            f"got {values.shape[0]}")
    return grid_to_tets((nx, ny, nz), values, spacing)
