"""Output checks for one `ct run` output directory, run outside timing.

Every check returns a (name, ok, detail) triple; a failing check is
counted by the caller, never raised. The checks read only the output
files and the benchmark's own copy of the input arrays.

  a.master_weight     branches.json's master weight equals the mesh volume
                      computed here, within 1e-9 relative.
  b.branch_<k>        branch_<k>.obj is non-empty, one connected piece, and
                      the whole level-set component it lies on: marching
                      every tet at its isovalue and joining corners (mesh
                      edges) with union-find gives the components.
  c.contours_<k>      at branch k's isovalue, the superarcs of tree.json
                      that straddle it are as many as
                      oracle.reference_contour_count finds.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def digest(out_dir: Path):
    """(sha256 over every output file's name and bytes, total bytes)."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(Path(out_dir).iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def mesh_volume(positions, tets) -> float:
    e = positions[tets[:, 1:]] - positions[tets[:, :1]]
    det = np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2]))
    return math.fsum(np.abs(det) / 6.0)


def level_set_components(positions, values, tets, h):
    """Components of the level set {f = h}, "below" meaning f <= h.

    Returns (points, label, label_tris): the interpolated corner point of
    every crossing mesh edge, the component of each edge, and the triangle
    count of each component.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    below = values[tets] <= h
    n_below = below.sum(axis=1)
    cut = (n_below > 0) & (n_below < 4)
    tet_rows, below = tets[cut], below[cut]
    m = tet_rows.shape[0]
    keys = np.stack([np.sort(tet_rows[:, [i, j]], axis=1)
                     for i, j in _TET_EDGES], axis=1)          # (m, 6, 2)
    crossing = np.stack([below[:, i] != below[:, j]
                         for i, j in _TET_EDGES], axis=1)      # (m, 6)
    uniq, inverse = np.unique(keys[crossing], axis=0, return_inverse=True)
    inverse = inverse.ravel()
    edge_id = np.full((m, 6), -1, dtype=np.int64)
    edge_id[crossing] = inverse
    # every crossing edge of a tet lies on that tet's one polygon: link
    # each to the tet's first crossing edge
    first = edge_id[np.arange(m), np.argmax(crossing, axis=1)]
    src = np.repeat(first, 6)[crossing.ravel()]
    dst = edge_id[crossing]
    k = uniq.shape[0]
    graph = coo_matrix((np.ones(src.size), (src, dst)), shape=(k, k))
    _, label = connected_components(graph, directed=False)
    tris = np.where(crossing.sum(axis=1) == 4, 2, 1)
    label_tris = np.bincount(label[first], weights=tris,
                             minlength=label.max() + 1 if k else 0)
    vi, vj = uniq[:, 0], uniq[:, 1]
    t = (h - values[vi]) / (values[vj] - values[vi])
    points = positions[vi] + t[:, None] * (positions[vj] - positions[vi])
    return points, label, label_tris.astype(np.int64)


def read_obj(path):
    positions, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "v":
                positions.append([float(x) for x in parts[1:4]])
            elif parts and parts[0] == "f":
                faces.append([int(x) - 1 for x in parts[1:4]])
    return (np.asarray(positions, dtype=np.float64).reshape(-1, 3),
            np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def _piece_count(faces, n_vertices) -> int:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    used = np.unique(faces)
    src = np.concatenate([faces[:, 0], faces[:, 1]])
    dst = np.concatenate([faces[:, 1], faces[:, 2]])
    graph = coo_matrix((np.ones(src.size), (src, dst)),
                       shape=(n_vertices, n_vertices))
    _, label = connected_components(graph, directed=False)
    return np.unique(label[used]).size


def check_branch_obj(path, components, scale):
    """Whether an OBJ is exactly one whole component of the level set."""
    from scipy.spatial import cKDTree

    if not path.is_file():
        return False, "missing"
    try:
        positions, faces = read_obj(path)
    except (OSError, ValueError) as exc:
        return False, f"unreadable: {exc}"
    if faces.shape[0] == 0:
        return False, "no triangles"
    if faces.min() < 0 or faces.max() >= positions.shape[0]:
        return False, "face index out of range"
    pieces = _piece_count(faces, positions.shape[0])
    points, label, label_tris = components
    if points.shape[0] == 0:
        return False, "the level set is empty"
    dist, nearest = cKDTree(points).query(positions)
    if dist.max() > 1e-9 * scale:
        return False, (f"{int((dist > 1e-9 * scale).sum())} vertices lie on "
                       "no crossing edge")
    comps = np.unique(label[nearest])
    want = int(comps[0])
    want_corners = int((label == want).sum())
    detail = (f"{faces.shape[0]} of {int(label_tris[want])} triangles, "
              f"{np.unique(nearest).size} of {want_corners} corners of its "
              f"component, {pieces} piece(s)")
    ok = (pieces == 1 and comps.size == 1
          and faces.shape[0] == label_tris[want]
          and np.unique(nearest).size == positions.shape[0] == want_corners)
    return bool(ok), detail


def straddle_count(tree_doc, h) -> int:
    value = {s["id"]: s["value"] for s in tree_doc["supernodes"]}
    top = max(value, key=lambda s: (value[s], s))
    return sum(1 for a in tree_doc["superarcs"]
               if value[a["lo"]] <= h < value[a["hi"]]
               or (a["hi"] == top and h == value[top]))


def check_outputs(out_dir, arrays, top):
    """All content checks of one output directory, as (name, ok, detail)."""
    from tetcontour.mesh import TetMesh
    from tetcontour.oracle import reference_contour_count

    out_dir = Path(out_dir)
    positions, values, tets = arrays
    results = []
    try:
        branches = json.loads((out_dir / "branches.json").read_text())
        tree_doc = json.loads((out_dir / "tree.json").read_text())
        ranked = branches["branches"]
        master = float(ranked[0]["weight"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("outputs", False, f"unreadable branches/tree: {exc}")]

    volume = mesh_volume(positions, tets)
    err = abs(master - volume) / volume
    results.append(("a.master_weight", err <= 1e-9,
                    f"weight {master!r} vs volume {volume!r}, "
                    f"relative error {err:.2e}"))

    scale = float(np.ptp(positions, axis=0).max())
    mesh = TetMesh.create(positions, values, tets)
    extracted = [b for b in ranked[:top] if b.get("extraction")]
    if len(extracted) < min(top, len(ranked)):
        results.append(("b.extractions", False,
                        f"{len(extracted)} extractions recorded"))
    for b in extracted:
        k = b["rank"]
        h = float(b["extraction"]["isovalue"])
        comps = level_set_components(positions, values, tets, h)
        ok, detail = check_branch_obj(out_dir / f"branch_{k}.obj", comps,
                                      scale)
        results.append((f"b.branch_{k}", ok,
                        f"superarc {b['extraction']['superarc']} "
                        f"h={h:.5f}: {detail}"))
        strad = straddle_count(tree_doc, h)
        ref = reference_contour_count(mesh, h)
        results.append((f"c.contours_{k}", strad == ref,
                        f"h={h:.5f}: {strad} straddling superarcs, "
                        f"{ref} contours"))
    return results
