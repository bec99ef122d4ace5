"""Brute-force geometric references used by the tests.

Everything here deliberately uses explicit polytope construction rather
than the analytic coefficient algebra of the main path, so the two sides
have independent failure modes. The inner loops run on plain floats to
keep the reference fast enough for thousand-tet sweeps.

The comparison functions at the end take the analytic results as
arguments and return raw errors or counts; each caller applies its own
error measure and bound.
"""
from __future__ import annotations

import math

import numpy as np

from .mesh import TetMesh

_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MIN_DET = 1e-3


def random_tet(rng):
    """Random tet in [-1, 1]^3, not near-flat, with distinct values."""
    while True:
        pos = rng.uniform(-1.0, 1.0, size=(4, 3))
        if abs(np.linalg.det(pos[1:] - pos[0])) < _MIN_DET:
            continue
        vals = rng.uniform(-1.0, 1.0, size=4)
        if np.unique(vals).size == 4:
            return pos, vals


def _clip_polygon(points, vals, h):
    """Sutherland-Hodgman clip of a polygon against {f <= h}."""
    out_pts = []
    out_vals = []
    k = len(points)
    for i in range(k):
        p_cur, v_cur = points[i], vals[i]
        p_prv, v_prv = points[i - 1], vals[i - 1]
        cur_in = v_cur <= h
        prv_in = v_prv <= h
        if cur_in != prv_in:
            t = (h - v_prv) / (v_cur - v_prv)
            out_pts.append((p_prv[0] + t * (p_cur[0] - p_prv[0]),
                            p_prv[1] + t * (p_cur[1] - p_prv[1]),
                            p_prv[2] + t * (p_cur[2] - p_prv[2])))
            out_vals.append(h)
        if cur_in:
            out_pts.append(p_cur)
            out_vals.append(v_cur)
    return out_pts, out_vals


def _dedupe(points, tol=1e-12):
    uniq = []
    for p in points:
        if not any(abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol
                   and abs(p[2] - q[2]) <= tol for q in uniq):
            uniq.append(p)
    return uniq


def _order_cap(points):
    """Deduplicate cap points and order them around their centroid."""
    uniq = _dedupe(points)
    if len(uniq) < 3:
        return None
    k = len(uniq)
    cx = sum(p[0] for p in uniq) / k
    cy = sum(p[1] for p in uniq) / k
    cz = sum(p[2] for p in uniq) / k
    rel = [(p[0] - cx, p[1] - cy, p[2] - cz) for p in uniq]
    normal = None
    r0 = rel[0]
    for i in range(1, k):
        nx = r0[1] * rel[i][2] - r0[2] * rel[i][1]
        ny = r0[2] * rel[i][0] - r0[0] * rel[i][2]
        nz = r0[0] * rel[i][1] - r0[1] * rel[i][0]
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm > 1e-18:
            normal = (nx / norm, ny / norm, nz / norm)
            break
    if normal is None:
        return None
    n0 = math.sqrt(r0[0] ** 2 + r0[1] ** 2 + r0[2] ** 2)
    ax = (r0[0] / n0, r0[1] / n0, r0[2] / n0)
    ay = (normal[1] * ax[2] - normal[2] * ax[1],
          normal[2] * ax[0] - normal[0] * ax[2],
          normal[0] * ax[1] - normal[1] * ax[0])
    def angle(r):
        return math.atan2(r[0] * ay[0] + r[1] * ay[1] + r[2] * ay[2],
                          r[0] * ax[0] + r[1] * ax[1] + r[2] * ax[2])
    order = sorted(range(k), key=lambda i: angle(rel[i]))
    return [uniq[i] for i in order]


def clip_polytope(positions, values, h):
    """Faces of the convex region {f <= h} within one tet.

    Returns a list of polygons (each a (k, 3) array): the four tet faces
    clipped against the half-space, plus the level-h cap polygon. Empty
    list when the region is empty or has no volume.
    """
    faces = _clip_faces([tuple(map(float, p)) for p in positions],
                        [float(v) for v in values], float(h))
    return [np.asarray(f, dtype=np.float64) for f in faces]


def _clip_faces(pts, vals, h):
    faces = []
    cap_points = []
    for face in _TET_FACES:
        fp = [pts[i] for i in face]
        fv = [vals[i] for i in face]
        clipped, cvals = _clip_polygon(fp, fv, h)
        if len(clipped) >= 3:
            faces.append(clipped)
        for p, v in zip(clipped, cvals):
            if v == h:
                cap_points.append(p)
    if not faces:
        return []
    if cap_points:
        cap = _order_cap(cap_points)
        if cap is not None:
            faces.append(cap)
    return faces


def _fan_volume(faces):
    """Volume of a convex polytope by fanning every face from the centroid."""
    count = 0
    cx = cy = cz = 0.0
    for poly in faces:
        for p in poly:
            cx += p[0]
            cy += p[1]
            cz += p[2]
            count += 1
    cx /= count
    cy /= count
    cz /= count
    vol = 0.0
    for poly in faces:
        a = (poly[0][0] - cx, poly[0][1] - cy, poly[0][2] - cz)
        for i in range(1, len(poly) - 1):
            b = (poly[i][0] - cx, poly[i][1] - cy, poly[i][2] - cz)
            c = (poly[i + 1][0] - cx, poly[i + 1][1] - cy,
                 poly[i + 1][2] - cz)
            det = (a[0] * (b[1] * c[2] - b[2] * c[1])
                   - a[1] * (b[0] * c[2] - b[2] * c[0])
                   + a[2] * (b[0] * c[1] - b[1] * c[0]))
            vol += abs(det) / 6.0
    return vol


def clip_volume(positions, values, h) -> float:
    """Volume of {f <= h} inside one tet by explicit polytope construction."""
    pts = [(float(p[0]), float(p[1]), float(p[2])) for p in positions]
    vals = [float(v) for v in values]
    h = float(h)
    if h >= max(vals):
        e1 = (pts[1][0] - pts[0][0], pts[1][1] - pts[0][1],
              pts[1][2] - pts[0][2])
        e2 = (pts[2][0] - pts[0][0], pts[2][1] - pts[0][1],
              pts[2][2] - pts[0][2])
        e3 = (pts[3][0] - pts[0][0], pts[3][1] - pts[0][1],
              pts[3][2] - pts[0][2])
        det = (e1[0] * (e2[1] * e3[2] - e2[2] * e3[1])
               - e1[1] * (e2[0] * e3[2] - e2[2] * e3[0])
               + e1[2] * (e2[0] * e3[1] - e2[1] * e3[0]))
        return abs(det) / 6.0
    if h <= min(vals):
        return 0.0
    faces = _clip_faces(pts, vals, h)
    if not faces:
        return 0.0
    return _fan_volume(faces)


def clip_area(positions, values, h) -> float:
    """Area of the cross-section polygon {f == h} inside one tet."""
    pts = [(float(p[0]), float(p[1]), float(p[2])) for p in positions]
    vals = [float(v) for v in values]
    h = float(h)
    cap = []
    for i in range(4):
        if vals[i] == h:
            cap.append(pts[i])
    for i, j in _TET_EDGES:
        vi, vj = vals[i], vals[j]
        if min(vi, vj) < h < max(vi, vj):
            t = (h - vi) / (vj - vi)
            cap.append((pts[i][0] + t * (pts[j][0] - pts[i][0]),
                        pts[i][1] + t * (pts[j][1] - pts[i][1]),
                        pts[i][2] + t * (pts[j][2] - pts[i][2])))
    if len(cap) < 3:
        return 0.0
    poly = _order_cap(cap)
    if poly is None:
        return 0.0
    k = len(poly)
    cx = sum(p[0] for p in poly) / k
    cy = sum(p[1] for p in poly) / k
    cz = sum(p[2] for p in poly) / k
    sx = sy = sz = 0.0
    for i in range(k):
        a = (poly[i][0] - cx, poly[i][1] - cy, poly[i][2] - cz)
        b = (poly[(i + 1) % k][0] - cx, poly[(i + 1) % k][1] - cy,
             poly[(i + 1) % k][2] - cz)
        sx += a[1] * b[2] - a[2] * b[1]
        sy += a[2] * b[0] - a[0] * b[2]
        sz += a[0] * b[1] - a[1] * b[0]
    return 0.5 * math.sqrt(sx * sx + sy * sy + sz * sz)


def _adjacency(tree, clips: dict):
    """Each supernode's (neighbour, arc) pairs in arc order, built on the
    first call and kept in the clips cache next to the clipped volumes."""
    if "adjacency" not in clips:
        adj = [[] for _ in range(tree.supernode_count)]
        for a, (lo, hi) in enumerate(tree.superarcs.tolist()):
            adj[lo].append((hi, a))
            adj[hi].append((lo, a))
        clips["adjacency"] = adj
    return clips["adjacency"]


def _low_side_vertices(mesh: TetMesh, tree, superarc: int,
                       adj) -> np.ndarray:
    """Boolean mask: vertices on the low-value side of a cut through the arc.

    Cutting one superarc splits the tree in two; the low side is the
    component containing the arc's lower supernode, with the arc's own
    regular vertices classified by value against the query later. adj is
    the supernode adjacency of _adjacency.
    """
    lo_sn = tree.superarcs[superarc, 0]
    # BFS over supernodes through every arc except the cut one
    seen_sn = np.zeros(tree.supernode_count, dtype=bool)
    seen_arc = np.zeros(tree.superarc_count, dtype=bool)
    stack = [lo_sn]
    seen_sn[lo_sn] = True
    while stack:
        s = stack.pop()
        for t, a in adj[s]:
            if a == superarc:
                continue
            seen_arc[a] = True
            if not seen_sn[t]:
                seen_sn[t] = True
                stack.append(t)
    mask = np.zeros(mesh.vertex_count, dtype=bool)
    on_seen = np.repeat(seen_arc, np.diff(tree.regular_start))
    mask[tree.regulars[on_seen]] = True
    mask[tree.supernodes[seen_sn]] = True
    return mask


def region_volume(mesh: TetMesh, tree, superarc: int, h: float,
                  clips=None) -> float:
    """Volume of the region hanging on the low side of (superarc, h).

    The region is the preimage of the tree component below a cut of the
    superarc at isovalue h: side branches count in full, and only the tets
    straddling the level-h contour get clipped. clips, a dict, is the
    cache of rank_region_volume; calls on one (mesh, tree) may share it.
    Meant for small meshes.
    """
    adj = _adjacency(tree, {} if clips is None else clips)
    vols = mesh.tet_volume
    mask = _low_side_vertices(mesh, tree, superarc, adj)
    first, last = tree.regular_start[superarc:superarc + 2]
    regs = tree.regulars[first:last]
    mask[regs] = mesh.values[regs] <= h
    in_tet = mask[mesh.tets]
    touched = np.flatnonzero(np.any(in_tet, axis=1))
    total = 0.0
    for t in touched:
        inside = in_tet[t]
        if inside.all():
            total += vols[t]
            continue
        tet = mesh.tets[t]
        tet_vals = mesh.values[tet]
        part = clip_volume(mesh.positions[tet], tet_vals, h)
        if np.all(tet_vals[inside] <= h):
            total += part
        else:
            # the in-region vertices sit above h: the region holds the
            # upper part of this tet
            total += vols[t] - part
    return total


def rank_region_volume(mesh: TetMesh, tree, superarc: int, top: bool,
                       clips=None) -> float:
    """Volume below a cut of superarc just under its upper supernode (top)
    or just above its lower one, as the swept weights count it.

    The arc's own regular vertices are classified by rank, not by value:
    all below at the top cut and all above at the bottom cut. A tet with
    some but not all corners below is clipped at the cut's value; a flat
    tet (all four values tied) counts wholly on the side of its top-ranked
    corner, the one of largest vertex index. clips, a dict that calls on
    one (mesh, tree) may share, caches clipped volumes by (tet, value)
    and the supernode adjacency. Meant for small meshes.
    """
    clips = {} if clips is None else clips
    adj = _adjacency(tree, clips)
    vols = mesh.tet_volume
    mask = _low_side_vertices(mesh, tree, superarc, adj)
    first, last = tree.regular_start[superarc:superarc + 2]
    mask[tree.regulars[first:last]] = top
    h = float(tree.values[tree.supernodes[tree.superarcs[superarc,
                                                         int(top)]]])
    in_tet = mask[mesh.tets]
    count = in_tet.sum(axis=1)
    partial = np.flatnonzero((count > 0) & (count < 4))
    tets = mesh.tets[partial]
    tet_vals = mesh.values[tets]
    flat = tet_vals.min(axis=1) == tet_vals.max(axis=1)
    parts = (vols[count == 4].tolist()
             + vols[partial[flat & mask[tets.max(axis=1)]]].tolist())
    # in-region corners at or below h: the region holds the lower part
    lower = np.all(np.where(in_tet[partial], tet_vals, -np.inf) <= h, axis=1)
    for t, low in zip(partial[~flat].tolist(), lower[~flat].tolist()):
        if (t, h) not in clips:
            tet = mesh.tets[t]
            clips[t, h] = clip_volume(mesh.positions[tet], mesh.values[tet],
                                      h)
        parts.append(clips[t, h] if low else vols[t] - clips[t, h])
    return math.fsum(parts)


def rank_arc_end_volumes(mesh: TetMesh, tree):
    """(top, bottom): rank_region_volume at both ends of every superarc."""
    clips = {}
    return tuple(np.array([rank_region_volume(mesh, tree, a, top, clips)
                           for a in range(tree.superarc_count)])
                 for top in (True, False))


def reference_contour_count(mesh: TetMesh, h: float) -> int:
    """Connected components of the level set at h, via marching tets.

    Triangles are glued along shared sides and counted with union-find. A
    side is a pair of welded point ids from soup.triangles; a welded
    point id names exactly one mesh edge, which tets sharing a face cut at
    bitwise the same point.
    """
    from .isosurface import march_tets

    tris = march_tets(mesh, h).triangles.tolist()
    parent = list(range(len(tris)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edge_owner = {}
    for t, corners in enumerate(tris):
        for i in range(3):
            a, b = corners[i], corners[i - 1]
            edge = (a, b) if a <= b else (b, a)
            if edge in edge_owner:
                ra, rb = find(edge_owner[edge]), find(t)
                if ra != rb:
                    parent[ra] = rb
            else:
                edge_owner[edge] = t
    return len({find(t) for t in range(len(tris))})


def clip_volume_errors(positions, values, hs, volumes) -> np.ndarray:
    """|volumes[i] - clip_volume at hs[i]| for one tet's spline values."""
    pts = np.asarray(positions, dtype=np.float64).tolist()
    vals = np.asarray(values, dtype=np.float64).tolist()
    return np.array([abs(v - clip_volume(pts, vals, h))
                     for h, v in zip(hs, volumes)])


def region_volume_errors(mesh: TetMesh, tree, volumes, fracs, arcs=None):
    """(errors, refs), each (arcs, fracs): |volumes(arc, h) - region_volume|
    and region_volume at h = h_lo + frac * (h_hi - h_lo) on arcs, or all."""
    arcs = range(tree.superarc_count) if arcs is None else arcs
    errors = np.empty((len(arcs), len(fracs)))
    refs = np.empty_like(errors)
    clips = {}
    for i, arc in enumerate(arcs):
        h_lo, h_hi = tree.arc_value_range(arc)
        for j, frac in enumerate(fracs):
            h = h_lo + frac * (h_hi - h_lo)
            refs[i, j] = region_volume(mesh, tree, arc, h, clips)
            errors[i, j] = abs(volumes(arc, h) - refs[i, j])
    return errors, refs


def contour_count_mismatches(mesh: TetMesh, tree, hs) -> int:
    """Thresholds at which the number of superarcs straddling h differs
    from reference_contour_count."""
    sn_vals = tree.values[tree.supernodes]
    lo = sn_vals[tree.superarcs[:, 0]]
    hi = sn_vals[tree.superarcs[:, 1]]
    return sum(int(np.sum((lo <= h) & (h < hi)))
               != reference_contour_count(mesh, h) for h in hs)
