"""Shared fixtures: reference meshes and fields used across test modules."""
import dataclasses
from collections import deque

import numpy as np
import pytest

import tetcontour.contourtree
import tetcontour.hypersweep
import tetcontour.mesh
from tetcontour.contourtree import (ContourTree, InconsistentTreesError,
                                    MonotoneLinks)
from tetcontour.decomposition import Branch, _heaviest
from tetcontour.geometry import horner, local_volume
from tetcontour.isosurface import _ONE_TRI, _QUAD
from tetcontour.mesh import (DataError, ParseError, StructuralError,
                             TetMesh, _cross, grid_to_tets)

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


def arc_regulars(tree):
    """Each superarc's regular vertices, one slice of tree.regulars per
    arc."""
    return np.split(tree.regulars, tree.regular_start[1:-1])


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
    """The join (descending) or split sweep over the full neighbour lists
    of the edge graph, testing each neighbour for whether it is swept yet:
    the reference the monotone-link sweeps of build_join_tree and
    build_split_tree are checked against."""
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
    return parent


def reference_link_sweep(links, order, descending):
    """build_join_tree (descending) or build_split_tree as one union-find
    sweep over the ranks, in a Python loop: each rank joins the components
    of its links already swept, and the root of each component is its
    latest swept rank, whose parent the joining rank becomes."""
    sort_index = order.sort_index
    n = sort_index.shape[0]
    # the link of rank v: its linked ranks the sweep visits before v, in
    # CSR form; the pairs come grouped by lo, and are regrouped by hi
    if descending:
        src, nbrs = links.lo, links.hi
    else:
        by_hi = np.argsort(links.hi, kind="stable")
        src, nbrs = links.hi[by_hi], links.lo[by_hi]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    offsets = offsets.tolist()
    nbrs = nbrs.tolist()

    # union-find with path halving over ranks; every link rank is already
    # swept, and v, joining each component it touches, stays the root of
    # its own, so a component's root is always its latest swept rank
    parent = [-1] * n
    uf = list(range(n))
    for v in (range(n - 1, -1, -1) if descending else range(n)):
        for u in nbrs[offsets[v]:offsets[v + 1]]:
            while uf[u] != u:
                uf[u] = u = uf[uf[u]]
            if u != v:
                parent[u] = v
                uf[u] = v
    parent = np.array(parent, dtype=np.int64)
    # each connected component leaves exactly one rank without a parent
    components = int(np.count_nonzero(parent < 0))
    if components != 1:
        raise StructuralError(
            f"mesh is not connected: {components} components, "
            f"{links.unused} vertices in no tet")
    # from ranks back to vertex ids
    tree = np.empty(n, dtype=np.int64)
    tree[sort_index] = np.where(parent >= 0, sort_index[parent], -1)
    return tree


def reference_merge_arcs(join, split):
    """The leaf pruning of merge_trees over per-vertex child sets: the
    reference its count-and-sum pruning is checked against. Returns the
    (n - 1, 2) augmented arc rows in pruning order, which no ContourTree
    field depends on."""
    n = join.shape[0]
    jp = join.copy()
    sp = split.copy()
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


def reference_contract(arcs, order, values):
    """The augmented tree's rows, in any order, contracted into a
    ContourTree by one walk up each superarc's chain of regular vertices:
    the reference merge_trees is checked against field by field. Superarc
    ids go by the pair (lower, upper) of supernode vertex ids."""
    n = arcs.shape[0] + 1
    rank = order.rank
    flip = rank[arcs[:, 0]] > rank[arcs[:, 1]]
    lo = np.where(flip, arcs[:, 1], arcs[:, 0])
    hi = np.where(flip, arcs[:, 0], arcs[:, 1])
    is_super = ((np.bincount(lo, minlength=n) != 1)
                | (np.bincount(hi, minlength=n) != 1))
    supernodes = np.flatnonzero(is_super)
    supernode_of = np.full(n, -1, dtype=np.int64)
    supernode_of[supernodes] = np.arange(supernodes.shape[0])
    # exact for regular vertices, whose only upward arc this is
    up = np.empty(n, dtype=np.int64)
    up[lo] = hi

    chains = []
    for row in np.flatnonzero(is_super[lo]):
        regs = []
        cur = hi[row]
        while not is_super[cur]:
            regs.append(cur)
            cur = up[cur]
        chains.append((int(supernode_of[lo[row]]), int(supernode_of[cur]),
                       regs))
    # this order fixes the superarc ids written to tree.json
    chains.sort(key=lambda c: c[:2])
    superarcs = np.array([c[:2] for c in chains], dtype=np.int64)
    regulars = []
    regular_start = [0]
    arc_of = np.full(n, -1, dtype=np.int64)
    for arc_id, (_, _, regs) in enumerate(chains):
        regulars += regs
        regular_start.append(len(regulars))
        arc_of[np.asarray(regs, dtype=np.int64)] = arc_id

    k = supernodes.shape[0]
    up_arcs = [[] for _ in range(k)]
    down_arcs = [[] for _ in range(k)]
    for a, (lo, hi) in enumerate(superarcs):
        up_arcs[lo].append(a)
        down_arcs[hi].append(a)
    # rooted at the global maximum supernode, children in descending arc id
    root = int(np.argmax(rank[supernodes]))
    _, parent_arc, preorder, tin, tout, depth = reference_root_tree(
        superarcs[:, 0], superarcs[:, 1], root,
        np.arange(superarcs.shape[0])[::-1])
    # canonical supernode-to-superarc assignment: the upward arc (largest
    # id when a split saddle offers several), falling back to the largest
    # downward arc at maxima
    for sn in range(k):
        arc_of[supernodes[sn]] = max(up_arcs[sn] or down_arcs[sn])
    # the per-supernode lists as offsets, down ids grouped by upper end
    up_start, down_start = (
        np.cumsum([0] + [len(arcs) for arcs in lists], dtype=np.int64)
        for lists in (up_arcs, down_arcs))
    return ContourTree(
        supernodes=supernodes, supernode_of=supernode_of,
        superarcs=superarcs, regulars=np.array(regulars, dtype=np.int64),
        regular_start=np.array(regular_start, dtype=np.int64),
        arc_of=arc_of, up_start=up_start,
        down_arcs=np.array(sum(down_arcs, []), dtype=np.int64),
        down_start=down_start, parent_arc=parent_arc,
        preorder=preorder, tin=tin, tout=tout, depth=depth, values=values)


def reference_root_tree(lo, hi, root, order):
    """contourtree.root_tree by a stack walk from the root, which finds
    each node's parent and the edge to it, then an explicit depth-first
    preorder that visits each node's children in the order of their
    edges in `order` and counts subtree sizes and depths on the way."""
    k = len(lo) + 1
    incident = [[] for _ in range(k)]
    for i in order.tolist():
        incident[lo[i]].append(i)
        incident[hi[i]].append(i)
    far = (np.asarray(lo) + np.asarray(hi)).tolist()
    parent = np.full(k, root, dtype=np.int64)
    edge = np.full(k, -1, dtype=np.int64)
    seen = [False] * k
    seen[root] = True
    stack = [root]
    while stack:
        s = stack.pop()
        for i in incident[s]:
            t = far[i] - s
            if not seen[t]:
                seen[t] = True
                parent[t], edge[t] = s, i
                stack.append(t)
    if not all(seen):
        raise InconsistentTreesError("tree is not connected")
    preorder, depth = [], np.zeros(k, dtype=np.int64)
    tin = np.zeros(k, dtype=np.int64)
    tout = np.zeros(k, dtype=np.int64)
    # (node, whether its subtree is done)
    stack = [(root, False)]
    while stack:
        s, done = stack.pop()
        if done:
            tout[s] = len(preorder)
            continue
        tin[s] = len(preorder)
        preorder.append(s)
        stack.append((s, True))
        children = [far[i] - s for i in incident[s] if i != edge[s]]
        for t in reversed(children):
            depth[t] = depth[s] + 1
            stack.append((t, False))
    return (parent, edge, np.array(preorder, dtype=np.int64), tin, tout,
            depth)


def reference_write_obj(path, soup, group=None, material=None,
                        mtllib=None):
    """write_obj as one formatted write per line: the reference its
    one-call-per-section formatting is checked against byte for byte."""
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


def _standard_form(s, e0, e1, e2, e3):
    return [e3, e2 - 3.0 * e3 * s, e1 - (2.0 * e2 - 3.0 * e3 * s) * s,
            e0 - (e1 - (e2 - e3 * s) * s) * s]


def reference_spline_coefficients(volume, values):
    """The spline kernel one tet at a time on Python floats: the reference
    the array code of batch_spline_coefficients is checked against bit for
    bit. Returns (p1, p2, p3), each (m, 4)."""
    rows = []
    for t, (a, b, c, d) in zip(volume.tolist(), values.tolist()):
        g1, w, g3 = b - a, c - b, d - c
        ca, db, da = c - a, d - b, d - a
        k1 = t / (g1 * ca * da) if g1 > 0.0 else 0.0
        k3 = t / (g3 * db * da) if g3 > 0.0 else 0.0
        vb = t * g1 * g1 / (ca * da) if ca > 0.0 else 0.0
        curve = t / (ca * da) if w > 0.0 else 0.0
        third = -(t * (ca + db) / (w * ca * db * da)) if w > 0.0 else -0.0
        rows.append(_standard_form(a, 0.0, 0.0, 0.0, k1)
                    + _standard_form(b, vb, 3.0 * g1 * curve, 3.0 * curve,
                                     third)
                    + _standard_form(d, t, 0.0, 0.0, k3))
    rows = np.array(rows).reshape(-1, 3, 4)
    return rows[:, 0], rows[:, 1], rows[:, 2]


def reference_rounding_bound(volume, values, big):
    """rounding_bound and the piece terms it reads as they were with two
    np.where passes per ratio and a new array for every product and sum:
    the reference the in-place array code is checked against bit for
    bit."""
    def ratio(num, den, ok):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(ok, num / np.where(ok, den, 1.0), 0.0)

    a, b, c, d = values.T
    g1, w, g3 = b - a, c - b, d - c
    ca, db, da = c - a, d - b, d - a
    k1 = ratio(volume, g1 * ca * da, g1 > 0.0)
    k3 = ratio(volume, g3 * db * da, g3 > 0.0)
    mid = np.empty((values.shape[0], 4))
    mid[:, 0] = ratio(volume * g1 * g1, ca * da, ca > 0.0)
    curve = ratio(volume, ca * da, w > 0.0)
    mid[:, 1] = 3.0 * g1 * curve
    mid[:, 2] = 3.0 * curve
    mid[:, 3] = -ratio(volume * (ca + db), w * ca * db * da, w > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sa, sb, sd = big + np.abs(a), big + np.abs(b), big + np.abs(d)
        norm = (k1 * sa ** 3 + volume + k3 * sd ** 3
                + mid[:, 0] + sb * (mid[:, 1] + sb * (
                    mid[:, 2] + sb * np.abs(mid[:, 3]))))
        bound = 10.0 * np.finfo(np.float64).eps * norm
    return np.where(np.isfinite(bound) & (d > a), bound, np.inf)


def reference_triple_products(positions, tets):
    """Triple products over an (m, 4, 3) gather and np.cross: the reference
    mesh._triple_products is checked against bit for bit."""
    p = positions[tets]
    e = p[:, 1:] - p[:, :1]
    return np.einsum("ij,ij->i", e[:, 0], np.cross(e[:, 1], e[:, 2]))


def reference_tet_volumes(positions, tets):
    """Every tet's volume from one whole-array triple product."""
    return np.abs(reference_triple_products(positions, tets)) / 6.0


def reference_grid_tets(dims, spacing):
    """The Kuhn tets of grid_to_tets by the per-path strided column fill
    that its table of corner offsets replaced: the reference its tets are
    checked against byte for byte."""
    nx, ny, nz = dims

    def vid(ix, iy, iz):
        return ix + nx * (iy + ny * iz)

    cz, cy, cx = np.meshgrid(np.arange(nz - 1), np.arange(ny - 1),
                             np.arange(nx - 1), indexing="ij")
    cx = cx.ravel()
    cy = cy.ravel()
    cz = cz.ravel()
    base = vid(cx, cy, cz)
    far = vid(cx + 1, cy + 1, cz + 1)
    axis_perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0),
                  (2, 0, 1), (2, 1, 0))
    step = (np.int64(1), np.int64(nx), np.int64(nx * ny))
    negative = bool(np.prod(np.asarray(spacing, dtype=np.float64)) < 0.0)
    tets = np.empty((base.shape[0] * 6, 4), dtype=np.int64)
    for k, (a0, a1, _a2) in enumerate(axis_perms):
        v1 = base + step[a0]
        v2 = v1 + step[a1]
        odd = (a1 - a0) % 3 == 2
        swap = int(odd != negative)
        tets[k::6, 0] = base
        tets[k::6, 1] = v1
        tets[k::6, 2 + swap] = v2
        tets[k::6, 3 - swap] = far
    return tets


def reference_monotone_links(mesh, order):
    """build_monotone_links as one whole-mesh pass: every code at once, and
    the kept pairs from full-size key and skip-bit arrays."""
    n = mesh.vertex_count
    r = np.sort(order.rank[mesh.tets], axis=1)
    codes = r[:, [0, 1, 2, 0, 0, 1]] * n
    codes += r[:, [1, 2, 3, 2, 3, 3]]
    codes *= 2
    codes[:, 3:] += 1
    codes = codes.ravel()
    codes.sort()
    keys = codes >> 1
    last = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last &= (codes & 1) == 0
    lo, hi = np.divmod(keys[last], n)
    unused = np.bincount(mesh.tets.ravel(), minlength=n) == 0
    return MonotoneLinks(lo, hi, int(np.count_nonzero(unused)))


def bit_check_meshes(rng):
    """A noisy 12^3 grid, a 2,000-point Delaunay mesh with a smooth field
    and a 0/1 10^3 grid: the inputs the bit-for-bit references run on."""
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(size=(2000, 3))
    smooth = np.exp(-8.0 * np.sum((points - 0.4) ** 2, axis=1))
    return [random_grid_mesh(rng, dims=(12, 12, 12)),
            TetMesh.create(points, smooth, spatial.Delaunay(points).simplices),
            grid_to_tets((10, 10, 10),
                         rng.integers(0, 2, size=1000).astype(float))]


def reference_below_arc_sums(tree, per_vertex):
    """The sums below each arc's end cuts over per-supernode children
    lists, a two-phase post-order stack and a separate below loop: the
    reference the tour's cut-sums are checked against."""
    k = tree.supernode_count
    own = per_vertex[tree.supernodes]
    reg_sums = np.zeros((tree.superarc_count,) + per_vertex.shape[1:])
    for a, regs in enumerate(arc_regulars(tree)):
        if len(regs):
            reg_sums[a] = per_vertex[regs].sum(axis=0)
    # each supernode is listed as a child at most once, so with the root
    # never one the walk below meets no cycle and ends
    root = tree.preorder[0]
    assert tree.parent_arc[root] == -1
    children = [[] for _ in range(k)]
    child = np.zeros(tree.superarc_count, dtype=np.int64)
    for s in range(k):
        a = tree.parent_arc[s]
        if a >= 0:
            child[a] = s
            lo, hi = tree.superarcs[a]
            children[lo if s == hi else hi].append((s, a))
    sub = np.zeros((k,) + per_vertex.shape[1:])
    stack = [(root, False)]
    while stack:
        s, done = stack.pop()
        if done:
            acc = own[s].copy()
            for c, a in children[s]:
                acc += sub[c] + reg_sums[a]
            sub[s] = acc
        else:
            stack.append((s, True))
            for c, _ in children[s]:
                stack.append((c, False))
    total = per_vertex.sum(axis=0)
    below = np.empty_like(reg_sums)
    for a, (lo, hi) in enumerate(tree.superarcs):
        if child[a] == lo:
            below[a] = sub[lo]
        else:
            below[a] = total - sub[hi] - reg_sums[a]
    return below, reg_sums


def reference_tour(tree):
    """_Tour.build's key, start, stop and cut-tree depths by the loops it
    once ran over a parent-first arc order: subtree sizes summed from the
    leaves up, then places and depths handed out from the root down. The
    rooting is reference_root_tree's, children in descending arc id."""
    k = tree.superarc_count
    lo, hi = tree.superarcs.T
    parent, arc_in, preorder, _, _, _ = reference_root_tree(
        lo, hi, tree.preorder[0], np.arange(k)[::-1])
    arc_order = arc_in[preorder[1:]].tolist()
    child = np.empty(k, dtype=np.int64)
    child[arc_order] = preorder[1:]
    up = arc_in[parent[child]].tolist()      # -1 below the root
    regulars = np.diff(tree.regular_start).tolist()
    size = [r + 1 for r in regulars] + [0]   # the last slot for the root
    for a in arc_order[::-1]:
        size[up[a]] += size[a]
    start = [0] * k
    depth = [0] * (2 * k + 1)
    free = [1] * (k + 1)                     # next free place past each end
    for a in arc_order:
        start[a] = free[up[a]]
        free[up[a]] += size[a]
        free[a] = start[a] + regulars[a] + 1
        depth[2 * a] = depth[2 * up[a] + 1 if up[a] >= 0 else 2 * k] + 1
        depth[2 * a + 1] = depth[2 * a] + 1
    key = np.zeros(tree.values.shape[0], dtype=np.int64)
    for a, regs in enumerate(arc_regulars(tree)):
        key[regs[::-1] if child[a] == lo[a] else regs] = \
            start[a] + np.arange(len(regs))
        key[tree.supernodes[child[a]]] = start[a] + regulars[a]
    start = np.array(start, dtype=np.int64)
    return (key, start, start + np.array(size[:k], dtype=np.int64),
            np.array(depth, dtype=np.int64))


def reference_sweep_volumes(tree, deltas):
    """sweep_volumes as one pass per arc: each arc's breakpoints and
    segments from its own cut of the compensated prefix sum, its weights
    from two scalar horner calls, on a tour whose places and cut-tree
    nodes are set arc by arc, the arcs' rows then joined into the table.
    The reference its one table is checked against bit for bit."""
    hs = tetcontour.hypersweep
    tour = hs._Tour.build(tree)
    key, node = tour.key.copy(), tour.node.copy()
    for a, regs in enumerate(arc_regulars(tree)):
        key[regs[::-1] if tour.child_lo[a] else regs] = \
            tour.start[a] + np.arange(len(regs))
        node[regs] = 2 * a
    tour = dataclasses.replace(tour, key=key, node=node)
    exact = hs._ExactPart(tree, tour, deltas)
    top, bottom = exact.arc_ends()
    s, c = hs._compensated_prefix(deltas.rows[np.argsort(tour.key)])
    total = s[-1] + c[-1]
    breakpoints, segments, weight_bottom, weight_top = [], [], [], []
    for a, regs in enumerate(arc_regulars(tree)):
        lo, hi, inside = tour.cut(a, np.arange(tour.regulars[a] + 1))
        segs = (s[hi] - s[lo]) + (c[hi] - c[lo])
        if not inside:
            segs = total - segs
        h_lo, h_hi = tree.arc_value_range(a)
        breakpoints.append(tree.values[regs].astype(np.float64))
        segments.append(segs)
        weight_bottom.append(float(horner(segs[0], h_lo) + bottom[a]))
        weight_top.append(float(horner(segs[-1], h_hi) + top[a]))
    return hs.SweptVolumes(
        tree.regular_start, np.concatenate(breakpoints),
        np.concatenate(segments), np.array(weight_bottom),
        np.array(weight_top), deltas.error, exact)


def reference_arc_ends(exact):
    """_ExactPart.arc_ends by climbing with (t, 4, 4) corner-pair
    equalities: the deepest corners' first occurrences from a lower
    triangle of the pairs, their counts from row sums. The reference its
    column-wise climb is checked against bit for bit."""
    tree, tour = exact.tree, exact.tour
    corners = exact.corners
    nodes = tour.node[corners]
    tets = np.flatnonzero((nodes != nodes[:, :1]).any(axis=1))
    nodes = nodes[tets]
    found = [(tets[:0], tets[:0], tets[:0])]
    while tets.size:
        depth = tour.depth[nodes]
        deep = depth == depth.max(axis=1, keepdims=True)
        same = nodes[:, :, None] == nodes[:, None, :]
        first = ~np.tril(same, -1).any(axis=2)
        t, c = np.nonzero(deep & first)
        found.append((tets[t], nodes[t, c], same[t, c].sum(axis=1)))
        nodes = np.where(deep, tour.parent[nodes], nodes)
        split = (nodes != nodes[:, :1]).any(axis=1)
        tets, nodes = tets[split], nodes[split]
    tets, node, inside = (np.concatenate(x) for x in zip(*found))
    arcs = node // 2
    child_lo = tour.child_lo[arcs]
    end = ((node % 2 == 1) != child_lo).astype(np.int64)
    h = tree.values[tree.supernodes[tree.superarcs[arcs, end]]]
    v = local_volume(exact.volume[tets], tree.values[corners[tets]], h,
                     np.where(child_lo, inside, 4 - inside))
    return tuple(np.bincount(arcs[end == e], weights=v[end == e],
                             minlength=tree.superarc_count).astype(np.float64)
                 for e in (1, 0))


def reference_march_tets(mesh, h):
    """march_tets welded with np.unique(axis=0) on (min, max) vertex pairs:
    the reference its 1-D edge-code weld is checked against bit for bit.
    Returns (positions, triangles)."""
    below = mesh.values[mesh.tets] <= h
    code = (below * (1 << np.arange(4))).sum(axis=1)
    tri_edges = []
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
            for fan in (q[[0, 1, 2]], q[[0, 2, 3]]):
                tri_edges.append(np.broadcast_to(fan, (rows.size, 3, 2)))
                tri_tets.append(rows)
    if not tri_tets:
        return np.empty((0, 3)), np.empty((0, 3), dtype=np.int64)
    local = np.concatenate(tri_edges)
    rows = np.concatenate(tri_tets)
    tet_rows = mesh.tets[rows]
    g = np.take_along_axis(tet_rows[:, None, :].repeat(3, axis=1),
                           local, axis=2)
    keys = np.sort(g, axis=2)
    uniq, inverse = np.unique(keys.reshape(-1, 2), axis=0,
                              return_inverse=True)
    vi, vj = uniq[:, 0], uniq[:, 1]
    fi, fj = mesh.values[vi], mesh.values[vj]
    t = (h - fi) / (fj - fi)
    points = mesh.positions[vi] + t[:, None] * (mesh.positions[vj]
                                                - mesh.positions[vi])
    triangles = inverse.reshape(-1, 3)
    p = points[triangles]
    normal = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    bel = mesh.values[tet_rows] <= h
    crossing = np.take_along_axis(tet_rows, np.stack(
        [np.argmax(bel, axis=1), np.argmax(~bel, axis=1)], axis=1), axis=1)
    ref = mesh.positions[crossing[:, 1]] - mesh.positions[crossing[:, 0]]
    flip = np.einsum("ij,ij->i", normal, ref) < 0
    triangles[flip] = triangles[flip][:, ::-1]
    return points, triangles


def reference_walker(tree, h):
    """straddling_arcs without walk keys or memo, as a function of the
    seed vertex: one value-monotone walk from the seed's own start arcs,
    arc by arc. It is the reference the memoised supernode walks are
    checked against, and returns the superarcs holding h it reaches."""
    sn_vals = tree.values[tree.supernodes].tolist()
    arcs = tree.superarcs.tolist()
    supernode_of = tree.supernode_of.tolist()
    arc_of = tree.arc_of.tolist()
    values = tree.values.tolist()

    lo_val = [sn_vals[lo] for lo, _ in arcs]
    hi_val = [sn_vals[hi] for _, hi in arcs]
    # per supernode, the arcs leaving it upward and those arriving from
    # below, read from the offsets
    up_arcs = [x.tolist() for x in np.split(np.arange(len(arcs)),
                                            tree.up_start[1:-1])]
    down_arcs = [x.tolist() for x in np.split(tree.down_arcs,
                                              tree.down_start[1:-1])]
    done = {}

    def walk(seed_vertex):
        going_up = h >= values[seed_vertex]
        sn = supernode_of[seed_vertex]
        arcs_out = up_arcs if going_up else down_arcs
        starts = arcs_out[sn] if sn >= 0 else []
        if not starts:
            starts = [arc_of[seed_vertex]]
        # the rest reads only the start arcs and the direction
        key = going_up, tuple(starts)
        if key not in done:
            done[key] = walk_from(starts, going_up, arcs_out)
        return set(done[key])

    def walk_from(starts, going_up, arcs_out):
        # a start arc either holds h or lies wholly before it on the walk
        hits = {a for a in starts if lo_val[a] <= h < hi_val[a]}
        stack = [a for a in starts if a not in hits]
        visited = set(starts)
        while stack:
            lo, hi = arcs[stack.pop()]
            for b in arcs_out[hi if going_up else lo]:
                if b not in visited:
                    visited.add(b)
                    if lo_val[b] <= h < hi_val[b]:
                        hits.add(b)
                    elif h >= hi_val[b] if going_up else h < lo_val[b]:
                        stack.append(b)
        return hits

    return walk


def reference_labels(tree, soup, h):
    """Superarc labels from one walk per distinct triangle end: the
    reference the per-supernode walks of label_superarcs are checked
    against. A triangle's label is the single arc both walks of its
    crossing edge reach, else -1."""
    walk = reference_walker(tree, h)
    labels = np.full(soup.triangle_count, -1, dtype=np.int64)
    walks = {}
    for i, (v, u) in enumerate(soup.crossing.tolist()):
        for w in (v, u):
            if w not in walks:
                walks[w] = walk(w)
        both = walks[v] & walks[u]
        if len(both) == 1:
            labels[i] = both.pop()
    return labels


def branch_list(branches):
    """Each branch by rank: its superarcs, attachment supernode and
    parent, which is what two decompositions must share to agree."""
    return [(b.rank, b.superarcs, b.attachment_supernode, b.parent)
            for b in branches]


def reference_rank_order(branches, tie):
    """Indices of decompose's branches in the order the ranking loop gives:
    the master (rank 0) first, the rest by descending weight, then each
    run of weights within tie of the next re-sorted by descending last
    arc, one sorted call per run."""
    def last_arc(i):
        return -max(branches[i].superarcs)

    master = next(i for i, b in enumerate(branches) if b.rank == 0)
    rest = sorted((i for i in range(len(branches)) if i != master),
                  key=lambda i: (-branches[i].weight, last_arc(i)))
    order, run = [master], []
    for i in rest:
        if run and branches[run[-1]].weight - branches[i].weight > tie:
            order += sorted(run, key=last_arc)
            run = []
        run.append(i)
    return order + sorted(run, key=last_arc)


def reference_decompose(tree, weights):
    """decomposition.decompose in two passes: every branch first gets a
    provisional attachment and weight, then the master is picked from the
    branches that lost the pairing at neither end (or, failing any, from
    all branches) and every other such branch re-attached at its top."""
    k = tree.supernode_count
    if tree.superarc_count == 0:
        raise ValueError("cannot decompose a tree with no superarcs")
    tie = weights.tie
    lows, highs = tree.superarcs.T.tolist()
    down, up = weights.down_weight.tolist(), weights.up_weight.tolist()
    best_up = _heaviest(tree.superarcs[:, 0], weights.up_weight, k, tie)
    best_down = _heaviest(tree.superarcs[:, 1], weights.down_weight, k, tie)

    # an arc starts a branch unless its bottom supernode pairs it with a
    # downward choice; the branch climbs while its top supernode pairs the
    # last arc with an upward choice
    branches = []
    for a, lo in enumerate(lows):
        if best_up[lo] == a and best_down[lo] >= 0:
            continue
        arcs = [a]
        hi = highs[a]
        while best_down[hi] == arcs[-1] and best_up[hi] >= 0:
            arcs.append(best_up[hi])
            hi = highs[arcs[-1]]
        branches.append(Branch(superarcs=arcs, lower_supernode=lo,
                               upper_supernode=hi, weight=0.0))

    # provisional attachment and pruned-side weight for every branch: the
    # branch attaches at the end where its terminal arc lost the pairing
    # (at the top when it lost at both ends)
    for b in branches:
        bottom_arc, top_arc = b.superarcs[0], b.superarcs[-1]
        low_rejected = best_up[b.lower_supernode] != bottom_arc
        high_rejected = best_down[b.upper_supernode] != top_arc
        if not low_rejected and not high_rejected:
            # survived the pairing end to end: master candidate, weigh by
            # the larger of its two one-sided measures
            b.attachment_supernode = -1
            b.weight = float(max(down[top_arc], up[bottom_arc]))
        elif high_rejected:
            b.attachment_supernode = b.upper_supernode
            b.weight = float(down[top_arc])
        else:
            b.attachment_supernode = b.lower_supernode
            b.weight = float(up[bottom_arc])

    pool = ([i for i, b in enumerate(branches) if b.attachment_supernode < 0]
            or range(len(branches)))
    heaviest = max(branches[i].weight for i in pool)
    master = max((i for i in pool if branches[i].weight >= heaviest - tie),
                 key=lambda i: max(branches[i].superarcs))
    branches[master].weight = weights.total
    branches[master].attachment_supernode = -1
    # a non-master survivor still hangs somewhere: off its top saddle
    for i, b in enumerate(branches):
        if i != master and b.attachment_supernode < 0:
            b.attachment_supernode = b.upper_supernode
            b.weight = float(down[b.superarcs[-1]])

    # by descending weight, then descending last arc; a run of weights
    # each within tie of the next ranks by descending last arc alone
    rest = np.array([i for i in range(len(branches)) if i != master],
                    dtype=np.int64)
    weight = np.array([branches[i].weight for i in rest])
    last = np.array([max(branches[i].superarcs) for i in rest],
                    dtype=np.int64)
    rest, weight, last = (x[np.lexsort((-last, -weight))]
                          for x in (rest, weight, last))
    run = np.cumsum(-np.diff(weight, prepend=weight[:1]) > tie)
    order = [master] + rest[np.lexsort((-last, run))].tolist()
    ranked = [branches[i] for i in order]
    for rank, b in enumerate(ranked):
        b.rank = rank

    # parent: the branch owning the arc chosen at the attachment saddle
    owner = {a: b.rank for b in ranked for a in b.superarcs}
    for b in ranked:
        s = b.attachment_supernode
        if s >= 0:
            pair = (best_up[s], best_down[s])
            first, other = pair if s == b.upper_supernode else pair[::-1]
            b.parent = owner[first if first >= 0 else other]
    return ranked


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
def small_blocks(monkeypatch):
    """Blocks of 1,000 tets in every whole-mesh pass over the tets."""
    for module in (tetcontour.mesh, tetcontour.contourtree,
                   tetcontour.hypersweep):
        monkeypatch.setattr(module, "_CHUNK", 1000)
    return 1000


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
