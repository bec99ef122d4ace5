"""Tetrahedral mesh ingestion, grid tetrahedralization, and topology graph.

Provides the core mesh container (vertex positions, scalar values, tets),
loading of TetGen .node/.ele pairs, Kuhn/Freudenthal subdivision of regular
grids for comparison runs, the per-vertex neighbor structure derived from
tet edges (the full edge graph, which the tests' reference sweep reads; the
run's sweeps use contourtree's monotone links), the global vertex order of
all sweep algorithms, and the one row-wise cross and triple product.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np


# tets per block of every whole-mesh pass over the tets: the load checks,
# the volumes, the link codes and compute_deltas
_CHUNK = 8192


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
    tet_volume: (m,) float64 each tet's volume, taken once by create.
    volume:    sum of tet_volume.
    """

    positions: np.ndarray
    values: np.ndarray
    tets: np.ndarray
    tet_volume: np.ndarray
    volume: float

    @property
    def vertex_count(self) -> int:
        return self.positions.shape[0]

    @property
    def tet_count(self) -> int:
        return self.tets.shape[0]

    @staticmethod
    def create(positions, values, tets) -> "TetMesh":
        """Validate arrays and build a TetMesh; raises on invariant violations.

        The whole-mesh checks run in blocks of _CHUNK tets: a repeated
        corner is found by the six compares of a tet's corner pairs,
        column against column, without sorting, and the first ten tets
        with one are reported. Every tet's volume is taken once
        (tet_volumes) and kept."""
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
        dup = []
        for lo in range(0, tets.shape[0], _CHUNK):
            c0, c1, c2, c3 = tets[lo:lo + _CHUNK].T
            dup += (lo + np.flatnonzero(
                (c0 == c1) | (c0 == c2) | (c0 == c3) | (c1 == c2)
                | (c1 == c3) | (c2 == c3))).tolist()
            if len(dup) >= 10:
                break
        if dup:
            raise StructuralError(f"repeated vertex within tets {dup[:10]}")
        vols = tet_volumes(positions, tets)
        degenerate = np.flatnonzero(vols <= 0.0)
        if degenerate.size:
            raise StructuralError(
                f"degenerate (zero-volume) tets: {degenerate[:20].tolist()}")
        return TetMesh(positions, values, tets, vols, float(np.sum(vols)))


def _sort4(rows) -> np.ndarray:
    """The rows of an (m, 4) integer array in ascending order, by the
    five compare-exchanges (0,1), (2,3), (0,2), (1,3), (1,2) of a 4-wide
    sorting network (Knuth, TAOCP vol. 3, 5.3.4), each one np.minimum and
    np.maximum over two whole columns."""
    a, b, c, d = np.asarray(rows).T
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = np.minimum(c, d), np.maximum(c, d)
    a, c = np.minimum(a, c), np.maximum(a, c)
    b, d = np.minimum(b, d), np.maximum(b, d)
    b, c = np.minimum(b, c), np.maximum(b, c)
    return np.stack((a, b, c, d), axis=1)


def _cross(a, b):
    """Row-wise a x b, with the products and differences of numpy.cross."""
    (a0, a1, a2), (b0, b1, b2) = a.T, b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=1)


def _triple(a, b, c):
    """Row-wise scalar triple product a . (b x c)."""
    return np.einsum("ij,ij->i", a, _cross(b, c))


def _triple_products(positions, tets, corners=None) -> np.ndarray:
    """Signed scalar triple product of every tet's edges from corner 0.

    Corner k of every tet is gathered by np.take into corners[k], a
    contiguous (m, 3) table; corners is a (4, m, 3) float64 scratch array,
    new when None. So the edges, the cross product and the einsum all read
    contiguous operands.

    An index outside [-n, n) raises IndexError, as fancy indexing would.
    The gathers then take mode="wrap": given `out`, np.take's checking
    mode gathers into a copy first."""
    n = positions.shape[0]
    if tets.size and (tets.min() < -n or tets.max() >= n):
        raise IndexError(f"tet corner index out of range for {n} points")
    if corners is None:
        corners = np.empty((4, tets.shape[0], 3))
    for k in range(4):
        np.take(positions, tets[:, k], axis=0, out=corners[k], mode="wrap")
    p0, p1, p2, p3 = corners
    p1 -= p0
    p2 -= p0
    p3 -= p0
    return _triple(p1, p2, p3)


def tet_volumes(positions, tets) -> np.ndarray:
    """Unsigned volume |scalar triple product| / 6 for every tet, taken
    in blocks of _CHUNK tets; each row depends on its own tet only. Each
    block's corners are gathered by four row takes into one scratch array
    that every block reuses."""
    out = np.empty(tets.shape[0])
    corners = np.empty((4, min(tets.shape[0], _CHUNK), 3))
    for lo in range(0, tets.shape[0], _CHUNK):
        block = out[lo:lo + _CHUNK]
        np.abs(_triple_products(positions, tets[lo:lo + _CHUNK],
                                corners[:, :block.size]), out=block)
        block /= 6.0
    return out


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

    def sort_tets(self, tets) -> np.ndarray:
        """The corners of a (4,) tet or (m, 4) tets in ascending rank."""
        ranks = self.rank[tets]
        return self.sort_index[_sort4(ranks.reshape(-1, 4)).reshape(
            ranks.shape)]


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


def build_vertex_order(mesh: TetMesh) -> VertexOrder:
    """Stable total order by (value, vertex index)."""
    sort_index = np.argsort(mesh.values, kind="stable")
    rank = np.empty_like(sort_index)
    rank[sort_index] = np.arange(sort_index.shape[0])
    return VertexOrder(sort_index, rank)


def grid_to_tets(dims, values, spacing=(1.0, 1.0, 1.0)) -> TetMesh:
    """Tetrahedralize a regular grid with the 6-tet Kuhn subdivision.

    Every grid cube is split into the 6 tetrahedra sharing the main
    diagonal from its (0,0,0) to its (1,1,1) corner, so faces shared by
    neighboring cubes triangulate consistently. values is a flat array in
    x-fastest layout; vertex positions are index * spacing.

    The tets are cube-major, path k of the 6 monotone lattice paths at row
    6 c + k, built in one broadcast of the cubes' base vertex ids against a
    (6, 4) table of corner offsets, the orientation swap folded into it.
    """
    nx, ny, nz = (int(d) for d in dims)
    if nx < 2 or ny < 2 or nz < 2:
        raise DataError(f"grid dims must all be >= 2, got {(nx, ny, nz)}")
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if values.shape[0] != nx * ny * nz:
        raise DataError(
            f"expected {nx * ny * nz} grid values, got {values.shape[0]}")
    spacing = np.asarray(spacing, dtype=np.float64)

    positions = np.empty((nz, ny, nx, 3), dtype=np.float64)
    positions[..., 0] = np.arange(nx) * spacing[0]
    positions[..., 1] = (np.arange(ny) * spacing[1])[:, None]
    positions[..., 2] = (np.arange(nz) * spacing[2])[:, None, None]

    # each cube's (0,0,0) corner, cube-major in x-fastest order
    base = (np.arange(nz - 1)[:, None, None] * (nx * ny)
            + np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    # the 6 Kuhn tets follow the 6 monotone lattice paths 000 -> 111; row k
    # of the table holds path k's corners as offsets from the cube's base.
    # Canonical orientation: positive scalar triple product. The edges from
    # corner 0 are partial sums of the steps spacing[a_i] * e_a_i, so their
    # triple product is prod(spacing) times the sign of (a0, a1, a2); where
    # that is negative, corners 2 and 3 swap
    axis_perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                  (2, 0, 1), (2, 1, 0))
    step = (1, nx, nx * ny)
    negative = bool(np.prod(spacing) < 0.0)
    table = np.zeros((6, 4), dtype=np.int64)
    for k, (a0, a1, _a2) in enumerate(axis_perms):
        odd = (a1 - a0) % 3 == 2          # the even ones are cyclic shifts
        swap = int(odd != negative)
        table[k, 1] = step[a0]
        table[k, 2 + swap] = step[a0] + step[a1]
        table[k, 3 - swap] = sum(step)
    tets = (base[:, None, None] + table).reshape(-1, 4)
    return TetMesh.create(positions.reshape(-1, 3), values, tets)


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
    head = _body(path, f"{what} header", 0, 1, fields, np.int64)
    counts = [int(head["first"][0]), *head["rest"][0].tolist()]
    if min(counts) < 0:
        raise ParseError(path, no, f"negative count in {what} header")
    if counts[1] != second:
        raise ParseError(path, no, f"count 2 is {counts[1]}, not {second}")
    return no, counts


def _body(path, what, after, rows, width, dtype, exact=False):
    """The first `rows` data lines after line `after` (all if rows=None),
    read in one loadtxt pass.

    A TetGen table (not `exact`) is read by the row rule of a TetGen line,
    an int64 first column and `dtype` for the rest: it comes back as a
    (rows,) structured array, the first column as field "first" and the
    next width - 1 as field "rest", and columns past `width` are ignored.
    An `exact` table is a (rows, width) array of `dtype`, and a line of
    more columns is refused.

    Otherwise the lines are rescanned and the first offending one is
    reported, each line read alone by the same rule.
    """
    row = dtype if exact else [("first", np.int64),
                               ("rest", dtype, (width - 1,))]
    if rows == 0:
        return np.empty((0, width) if exact else 0, row)
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
                table = np.loadtxt(path, dtype=row, comments="#",
                                   skiprows=after, max_rows=rows,
                                   usecols=None if exact else range(width),
                                   ndmin=2 if exact else 1)
                if ((not exact or table.shape[1] == width)
                        and rows in (None, len(table))):
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
    table = _body(node_path, "point", line, n_points, 4 + n_attrs,
                  np.float64)
    indices, points = table["first"], table["rest"]
    base = int(indices[0]) if n_points else 0
    if base not in (0, 1) or not np.array_equal(
            indices, np.arange(base, base + n_points)):
        raise StructuralError(f"{node_path}: point indices do not run "
                              "0, 1, 2, ... or 1, 2, 3, ...")
    line, (n_tets, _) = _header(ele_path, ".ele", 2, 4)
    tets = _body(ele_path, "tet", line, n_tets, 5, np.int64)["rest"]

    if field_attr is not None:
        if field_path is not None:
            raise DataError("give either field_attr or field_path, not both")
        if not 0 <= field_attr < n_attrs:
            raise DataError(
                f"field attribute {field_attr} out of range; "
                f".node declares {n_attrs} attributes")
        values = points[:, 3 + field_attr]
    elif field_path is not None:
        values = load_scalar_file(field_path, n_points)
    else:
        raise DataError("a field source is required (field_attr or field_path)")
    return TetMesh.create(points[:, :3], values, tets - base)


def load_raw_grid(raw_path, dims, spacing=(1.0, 1.0, 1.0)) -> TetMesh:
    """Little-endian float64 grid in x-fastest layout, then Kuhn split."""
    nx, ny, nz = (int(d) for d in dims)
    # checked in bytes: np.fromfile drops a trailing partial value
    size = os.path.getsize(raw_path)
    if size != 8 * nx * ny * nz:
        raise DataError(
            f"{raw_path}: expected {8 * nx * ny * nz} bytes "
            f"({nx * ny * nz} float64 values), got {size}")
    values = np.fromfile(raw_path, dtype="<f8")
    return grid_to_tets((nx, ny, nz), values, spacing)
