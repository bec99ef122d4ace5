"""Tetrahedral mesh ingestion, grid tetrahedralization, and topology graph.

Provides the core mesh container (vertex positions, scalar values, tets),
loading of TetGen .node/.ele pairs, Kuhn/Freudenthal subdivision of regular
grids for comparison runs, the per-vertex neighbor structure derived from
tet edges, and the global sorted vertex order used by all sweep algorithms.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, islice

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
    volume:    sum of the tet volumes, taken once by create.
    """

    positions: np.ndarray
    values: np.ndarray
    tets: np.ndarray
    volume: float

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
        if tets.size and (tets.min() < 0 or tets.max() >= n):
            raise StructuralError(f"tet vertex index out of range [0, {n})")
        sorted_rows = np.sort(tets, axis=1)
        dup = np.flatnonzero(
            np.any(sorted_rows[:, :-1] == sorted_rows[:, 1:], axis=1))
        if dup.size:
            raise StructuralError(
                f"repeated vertex within tets {dup[:10].tolist()}")
        vols = tet_volumes(positions, tets)
        degenerate = np.flatnonzero(vols <= 0.0)
        if degenerate.size:
            raise StructuralError(
                f"degenerate (zero-volume) tets: {degenerate[:20].tolist()}")
        return TetMesh(positions, values, tets, float(np.sum(vols)))

    def total_volume(self) -> float:
        return self.volume


def _triple_products(positions, tets) -> np.ndarray:
    """Signed scalar triple product of every tet's edges from corner 0."""
    p = positions[tets]
    e = p[:, 1:] - p[:, :1]
    return np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2]))


def tet_volumes(positions, tets) -> np.ndarray:
    """Unsigned volume |scalar triple product| / 6 for every tet."""
    return np.abs(_triple_products(positions, tets)) / 6.0


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
    flip = _triple_products(positions, tets) < 0.0
    tets[flip, 2:] = tets[flip][:, [3, 2]]
    return TetMesh.create(positions, values, tets)


def _data_lines(path):
    """Yield (line_no, tokens) for non-comment, non-blank lines."""
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield line_no, text.split()


def _header(path, what, fields, second):
    """Line number and first `fields` counts of a TetGen header line; the
    second count is fixed (the dimension, or the nodes per tet)."""
    no = next(_data_lines(path), (0,))[0]
    counts = _body(path, f"{what} header", 0, 1, fields, np.int64)[0]
    if counts.min() < 0:
        raise ParseError(path, no, f"negative count in {what} header")
    if counts[1] != second:
        raise ParseError(path, no, f"count 2 is {counts[1]}, not {second}")
    return no, counts.tolist()


def _body(path, what, after, rows, width, dtype, exact=False):
    """The first `rows` data lines after line `after` (all if rows=None)
    as a (rows, width) table of `dtype`, read in one loadtxt pass. Columns
    past `width` are ignored, or refused if `exact`.

    Otherwise the lines are rescanned and the first offending one is
    reported; a TetGen line (not `exact`) starts with an integer.
    """
    if rows == 0:
        return np.empty((0, width), dtype)
    lines = ((no, t) for no, t in _data_lines(path) if no > after)
    first = list(islice(lines, 1))
    with warnings.catch_warnings():
        # loadtxt warns of blank lines under max_rows and of empty tables;
        # numpy < 2 reads "4.0" as an int under the warning made an error
        warnings.simplefilter("ignore", UserWarning)
        warnings.filterwarnings("error", ".*integer via a float",
                                DeprecationWarning)
        cause = f"no table of {width} columns"
        try:
            # a width from a corrupt header count fails on the first row
            # below, before loadtxt sets up that many columns
            if exact or first and width <= len(first[0][1]):
                table = np.loadtxt(path, dtype=dtype, comments="#",
                                   skiprows=after, max_rows=rows,
                                   usecols=None if exact else range(width),
                                   ndmin=2)
                if table.shape[1] == width and rows in (None, len(table)):
                    return table
        except (ValueError, DeprecationWarning) as exc:
            cause = str(exc)
        line_no, count = after, 0
        lines = chain(first, lines)
        for count, (line_no, tokens) in enumerate(islice(lines, rows), 1):
            if len(tokens) < width or (exact and len(tokens) > width):
                raise ParseError(path, line_no, f"{len(tokens)} fields, "
                                 f"expected {width}")
            try:       # the line alone, by loadtxt's own rules
                row = dtype if exact else [("first", np.int64),
                                           ("rest", dtype, (width - 1,))]
                np.loadtxt([" ".join(tokens[:width])], dtype=row)
            except (ValueError, DeprecationWarning):
                raise ParseError(path, line_no,
                                 f"malformed {what} line") from None
    if rows is not None and count < rows:
        raise ParseError(path, line_no, f"file ended after {count} of "
                         f"{rows} {what} lines")
    raise ParseError(path, line_no, cause)


def load_scalar_file(path, expected_count) -> np.ndarray:
    """One decimal value per line; count must equal the vertex count."""
    values = _body(path, "value", 0, None, 1, np.float64, exact=True)[:, 0]
    if values.shape[0] != expected_count:
        raise DataError(
            f"{path}: expected {expected_count} values, got {values.shape[0]}")
    return values


def load_tetgen(node_path, ele_path, field_path=None,
                field_attr=None) -> TetMesh:
    """Load a TetGen .node/.ele pair plus a scalar field.

    The field comes either from attribute column `field_attr` of the .node
    file or from a separate one-value-per-line file `field_path`. File
    index base (0 or 1) is detected from the first point index and
    normalized to 0-based.
    """
    line, (n_points, _, n_attrs, _) = _header(node_path, ".node", 4, 3)
    points = _body(node_path, "point", line, n_points, 4 + n_attrs,
                   np.float64)
    indices = _body(node_path, "point", line, n_points, 1, np.int64)[:, 0]
    base = int(indices[0]) if n_points else 0
    if base not in (0, 1) or not np.array_equal(
            indices, np.arange(base, base + n_points)):
        raise StructuralError(f"{node_path}: point indices do not run "
                              "0, 1, 2, ... or 1, 2, 3, ...")
    line, (n_tets, _) = _header(ele_path, ".ele", 2, 4)
    tets = _body(ele_path, "tet", line, n_tets, 5, np.int64)[:, 1:]

    if field_attr is not None:
        if field_path is not None:
            raise DataError("give either field_attr or field_path, not both")
        if not 0 <= field_attr < n_attrs:
            raise DataError(
                f"field attribute {field_attr} out of range; "
                f".node declares {n_attrs} attributes")
        values = points[:, 4 + field_attr]
    elif field_path is not None:
        values = load_scalar_file(field_path, n_points)
    else:
        raise DataError("a field source is required (field_attr or field_path)")
    return TetMesh.create(points[:, 1:4], values, tets - base)


def load_raw_grid(raw_path, dims, spacing=(1.0, 1.0, 1.0)) -> TetMesh:
    """Little-endian float64 grid in x-fastest layout, then Kuhn split."""
    nx, ny, nz = (int(d) for d in dims)
    values = np.fromfile(raw_path, dtype="<f8")
    if values.shape[0] != nx * ny * nz:
        raise DataError(
            f"{raw_path}: expected {nx * ny * nz} float64 values, "
            f"got {values.shape[0]}")
    return grid_to_tets((nx, ny, nz), values, spacing)
