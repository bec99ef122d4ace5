"""Shared fixtures: reference meshes and fields used across test modules."""
from collections import deque

import numpy as np
import pytest

from tetcontour.contourtree import MergeTree
from tetcontour.mesh import (DataError, ParseError, TetMesh,
                             grid_to_tets)

UNIT_TET_POSITIONS = np.array([[0.0, 0.0, 0.0],
                               [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]])
UNIT_TET_VALUES = np.array([0.0, 1.0, 2.0, 3.0])


def coarea_factor(pos, vals):
    """1 / |grad f| of the linear interpolant on one tet."""
    grad = np.linalg.solve(pos[1:] - pos[0], vals[1:] - vals[0])
    return 1.0 / np.linalg.norm(grad)


def single_tet_mesh(pos, vals):
    return TetMesh.create(pos, vals, np.arange(4)[None, :])


def random_grid_mesh(rng, dims=(8, 8, 8)):
    vals = rng.normal(size=dims[0] * dims[1] * dims[2])
    return grid_to_tets(dims, vals)


def gaussian_grid_mesh(n, centers, amps, width=8.0):
    """Smooth multi-bump field on an n^3 grid over [0, 1]^3."""
    x = np.linspace(0.0, 1.0, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    f = np.zeros_like(X)
    for (cx, cy, cz), a in zip(centers, amps):
        f += a * np.exp(-width * ((X - cx) ** 2 + (Y - cy) ** 2
                                  + (Z - cz) ** 2))
    vals = np.transpose(f, (2, 1, 0)).ravel()   # x-fastest flat layout
    return grid_to_tets((n, n, n), vals, spacing=(1.0 / (n - 1),) * 3)


def helix_strip(n_tets, scale, origin):
    """Tet strip along a helix; consecutive 4-tuples are nondegenerate."""
    k = n_tets + 3
    i = np.arange(k)
    th = 1.7 * i
    pts = np.stack([np.cos(th), np.sin(th), 0.35 * i], axis=1) * scale
    pts += origin
    tets = np.stack([i[:-3], i[1:-2], i[2:-1], i[3:]], axis=1)
    return pts, tets


def two_peak_mesh():
    """Two monotone tet strips sharing their minimum vertex.

    Strip A: 10 large tets rising to the high peak; strip B: 100 tiny
    tets rising to a low peak. Strip A dominates by volume, strip B by
    vertex count, so the two weighting methods rank the peaks oppositely.
    """
    pa, ta = helix_strip(10, 3.0, np.zeros(3))
    pb, tb_local = helix_strip(100, 0.05, np.zeros(3))
    pb = pb - pb[0] + pa[0]
    na = len(pa)
    pos = np.concatenate([pa, pb[1:]])
    tb = tb_local + na - 1
    tb[tb_local == 0] = 0                     # share the first vertex
    tets = np.concatenate([ta, tb])
    vals = np.empty(len(pos))
    vals[:na] = np.arange(na, dtype=float)
    vals[na:] = 0.5 + 0.01 * np.arange(len(pos) - na)
    return TetMesh.create(pos, vals, tets)


def reference_merge_tree(graph, order, descending):
    """The join (descending) or split sweep over the full neighbour lists,
    testing each neighbour for whether it is swept yet: the reference the
    link-filtered sweep of build_join_tree and build_split_tree is
    checked against."""
    n = graph.vertex_count
    parent = np.full(n, -1, dtype=np.int64)
    uf = np.full(n, -1, dtype=np.int64)       # union-find parent, -1 unseen
    frontier = np.empty(n, dtype=np.int64)    # per root: latest swept vertex

    offsets = graph.neighbor_offsets
    nbrs = graph.neighbor_indices
    sweep = order.sort_index[::-1] if descending else order.sort_index

    def find(x):
        root = x
        while uf[root] != root:
            root = uf[root]
        while uf[x] != root:
            uf[x], x = root, uf[x]
        return root

    for v in sweep:
        uf[v] = v
        frontier[v] = v
        for u in nbrs[offsets[v]:offsets[v + 1]]:
            if uf[u] < 0:
                continue  # not yet swept
            ru = find(u)
            rw = find(v)
            if ru != rw:
                parent[frontier[ru]] = v
                uf[ru] = rw
                frontier[rw] = v
    root = int(sweep[-1])
    return MergeTree(parent, root)


def reference_merge_arcs(join, split):
    """The leaf pruning of merge_trees over per-vertex child sets: the
    reference its count-and-sum pruning is checked against. Returns the
    (n - 1, 2) augmented arc rows in pruning order."""
    n = join.parent.shape[0]
    jp = join.parent.copy()
    sp = split.parent.copy()
    j_children = [set() for _ in range(n)]
    s_children = [set() for _ in range(n)]
    for v in range(n):
        if jp[v] >= 0:
            j_children[jp[v]].add(v)
        if sp[v] >= 0:
            s_children[sp[v]].add(v)

    arcs = np.empty((n - 1, 2), dtype=np.int64)
    n_arcs = 0
    removed = np.zeros(n, dtype=bool)

    def is_leaf(v):
        return ((not j_children[v] and len(s_children[v]) <= 1)
                or (not s_children[v] and len(j_children[v]) <= 1))

    queue = deque(v for v in range(n) if is_leaf(v))
    remaining = n
    while queue and remaining > 1:
        v = queue.popleft()
        if removed[v] or not is_leaf(v):
            continue
        if not j_children[v] and jp[v] >= 0:
            w = jp[v]
            leaf_children = j_children
            other_parent, other_children = sp, s_children
        elif not s_children[v] and sp[v] >= 0:
            w = sp[v]
            leaf_children = s_children
            other_parent, other_children = jp, j_children
        else:
            continue
        arcs[n_arcs, 0] = v
        arcs[n_arcs, 1] = w
        n_arcs += 1
        removed[v] = True
        remaining -= 1
        leaf_children[w].discard(v)
        p = other_parent[v]
        c = next(iter(other_children[v])) if other_children[v] else -1
        if c >= 0:
            other_parent[c] = p
            if p >= 0:
                other_children[p].discard(v)
                other_children[p].add(c)
        elif p >= 0:
            other_children[p].discard(v)
        for cand in (w, p, c):
            if cand >= 0 and not removed[cand] and is_leaf(cand):
                queue.append(cand)
    assert n_arcs == n - 1
    return arcs


def _ratio(num, den, ok):
    """num / den where ok, else 0, never dividing by a masked-out den."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def _corner_cubic(volume, h0, width):
    """volume * ((h - h0) / width)^3 as standard-form rows; rows of zero
    width are all zero."""
    ok = width > 0.0
    k = _ratio(volume, width ** 3, ok)
    rows = np.stack([k, -3.0 * h0 * k, 3.0 * h0 * h0 * k, -h0 ** 3 * k],
                    axis=1)
    rows[~ok] = 0.0
    return rows


def reference_spline_coefficients(positions, values):
    """The spline kernel over np.cross and a stacked, rolled (m, 4, 3)
    quad: the reference the component-wise batch_spline_coefficients is
    checked against bit for bit.

    positions: (m, 4, 3) with each tet's vertices already in ascending
    rank order; values: (m, 4) matching. Returns (p1, p2, p3, total) where
    the p_i are (m, 4) standard-form rows and total is (m,) tet volumes.
    Pieces of zero numeric width come back as all-zero rows; per-tet
    telescoping (deltas summing to the constant total) is unaffected.
    """
    positions = np.asarray(positions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    m = positions.shape[0]
    pa, pb, pc, pd = (positions[:, i] for i in range(4))
    ha, hb, hc, hd = (values[:, i] for i in range(4))

    edges = positions[:, 1:] - positions[:, :1]
    det = np.einsum("ij,ij->i", edges[:, 0],
                    np.cross(edges[:, 1], edges[:, 2]))
    total = np.abs(det) / 6.0

    def cut(p0, p1, v0, v1, h):
        span = v1 - v0
        t = _ratio(h - v0, span, span != 0.0)
        return p0 + t[:, None] * (p1 - p0)

    # lower contour triangle BEF at h_B, upper triangle CGH at h_C
    e = cut(pa, pd, ha, hd, hb)
    f = cut(pa, pc, ha, hc, hb)
    g = cut(pa, pd, ha, hd, hc)
    hh = cut(pb, pd, hb, hd, hc)

    vol_abef = np.abs(np.einsum("ij,ij->i", pb - pa,
                                np.cross(e - pa, f - pa))) / 6.0
    vol_dcgh = np.abs(np.einsum("ij,ij->i", pc - pd,
                                np.cross(g - pd, hh - pd))) / 6.0

    # gradient of the linear interpolant; degenerate (constant) tets get 0
    nondeg = hd > ha
    grad = np.zeros((m, 3))
    if np.any(nondeg):
        rhs = (values[:, 1:] - values[:, :1])[nondeg, :, None]
        grad[nondeg] = np.linalg.solve(edges[nondeg], rhs)[:, :, 0]
    gmag = np.linalg.norm(grad, axis=1)

    # growing corner ABEF, and total minus the shrinking corner DCGH
    p1 = _corner_cubic(vol_abef, ha, hb - ha)
    p3 = _corner_cubic(vol_dcgh, hd, hd - hc)
    high_ok = hd > hc
    p3[high_ok, 3] += total[high_ok]

    # middle piece: the quad's corners move linearly along the cut edges
    # (AD: E->G, AC: F->C, BC: B->C, BD: B->H) as X_i(h) = U_i h + W_i;
    # the shoelace area 0.5 * n . sum_i X_i x X_{i+1} about the gradient
    # direction n expands exactly to a quadratic alpha h^2 + beta h + gamma
    w2 = hc - hb
    mid_ok = w2 > 0.0
    starts = np.stack([e, f, pb, pb], axis=1)        # (m, 4, 3)
    ends = np.stack([g, pc, pc, hh], axis=1)
    u = (ends - starts) * _ratio(1.0, w2, mid_ok)[:, None, None]
    w = starts - u * hb[:, None, None]
    u_next = np.roll(u, -1, axis=1)
    w_next = np.roll(w, -1, axis=1)
    s2 = np.sum(np.cross(u, u_next), axis=1)
    s1 = np.sum(np.cross(u, w_next) + np.cross(w, u_next), axis=1)
    s0 = np.sum(np.cross(w, w_next), axis=1)
    normal = grad / np.where(gmag > 0.0, gmag, 1.0)[:, None]
    alpha = 0.5 * np.einsum("ij,ij->i", normal, s2)
    beta = 0.5 * np.einsum("ij,ij->i", normal, s1)
    gamma = 0.5 * np.einsum("ij,ij->i", normal, s0)
    hmid = 0.5 * (hb + hc)
    neg = (alpha * hmid + beta) * hmid + gamma < 0.0
    alpha, beta, gamma = (np.where(neg, -x, x) for x in (alpha, beta, gamma))
    kappa = _ratio(1.0, gmag, gmag > 0.0)
    p2 = np.empty((m, 4))
    p2[:, 0] = alpha * kappa / 3.0
    p2[:, 1] = beta * kappa / 2.0
    p2[:, 2] = gamma * kappa
    p2[:, 3] = vol_abef - ((p2[:, 0] * hb + p2[:, 1]) * hb + p2[:, 2]) * hb
    p2[~mid_ok] = 0.0
    return p1, p2, p3, total


def _data_lines(path):
    """Yield (line_no, tokens) for non-comment, non-blank lines."""
    with open(path, "r") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield line_no, text.split()


def reference_parse_node_file(node_path):
    """The per-line .node parser that the one-pass loadtxt reader of
    load_tetgen replaced: the reference its arrays are checked against.
    Returns (indices, positions, attrs) as read."""
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


def reference_parse_ele_file(ele_path):
    """The per-line .ele parser replaced with load_tetgen's reader;
    returns the tets as written, before the index base is taken off."""
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


def reference_load_scalar_file(path, expected_count) -> np.ndarray:
    """The per-line field-file parser replaced with load_scalar_file's
    reader. One decimal value per line; count must equal the vertex
    count."""
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



@pytest.fixture
def unit_tet():
    return single_tet_mesh(UNIT_TET_POSITIONS, UNIT_TET_VALUES)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
