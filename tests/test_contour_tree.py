import dataclasses
import heapq
import tracemalloc

import numpy as np
import pytest

from tetcontour import contourtree
from tetcontour.contourtree import (InconsistentTreesError, MonotoneLinks,
                                    build_contour_tree, build_join_tree,
                                    build_monotone_links, build_split_tree,
                                    merge_trees, root_tree, straddling_arcs)
from tetcontour.mesh import (StructuralError, TetMesh, VertexOrder,
                             build_topology_graph, build_vertex_order,
                             grid_to_tets)
from tetcontour.oracle import reference_contour_count

from conftest import (UNIT_TET_POSITIONS, arc_regulars, gaussian_grid_mesh,
                      random_grid_mesh, reference_contract,
                      reference_link_sweep, reference_merge_arcs,
                      reference_merge_tree, reference_monotone_links,
                      reference_root_tree, two_peak_mesh)


def _tree(mesh):
    order = build_vertex_order(mesh)
    return build_contour_tree(mesh, order), order


def _local_extrema(mesh, graph, order):
    """(n_minima, n_maxima) by neighbor scan with rank tie-breaks."""
    n_min = n_max = 0
    for v in range(mesh.vertex_count):
        ranks = order.rank[graph.neighbors(v)]
        if np.all(ranks > order.rank[v]):
            n_min += 1
        elif np.all(ranks < order.rank[v]):
            n_max += 1
    return n_min, n_max


def _tree_degrees(tree):
    up = np.zeros(tree.supernode_count, dtype=int)
    down = np.zeros(tree.supernode_count, dtype=int)
    for lo, hi in tree.superarcs:
        up[lo] += 1
        down[hi] += 1
    return up, down


def test_monotone_field_single_superarc():
    mesh = grid_to_tets((2, 2, 2), np.arange(8, dtype=float))
    tree, _ = _tree(mesh)
    assert tree.supernode_count == 2
    assert tree.superarc_count == 1
    assert tree.regular_start.tolist() == [0, 6]


def test_join_split_tree_roots():
    mesh = random_grid_mesh(np.random.default_rng(1), dims=(4, 4, 4))
    order = build_vertex_order(mesh)
    links = build_monotone_links(mesh, order)
    join = build_join_tree(links, order)
    split = build_split_tree(links, order)
    assert join[order.sort_index[0]] == -1           # global minimum
    assert split[order.sort_index[-1]] == -1         # global maximum
    # each tree has exactly one parentless vertex
    assert np.sum(join < 0) == 1
    assert np.sum(split < 0) == 1
    # join parents point downward, split parents upward
    for v in range(mesh.vertex_count):
        if join[v] >= 0:
            assert order.rank[join[v]] < order.rank[v]
        if split[v] >= 0:
            assert order.rank[split[v]] > order.rank[v]


def test_links_with_lo_not_below_hi_are_refused():
    # peak pruning's rounds stop pruning on such links; the check before
    # them keeps a defect in the links from hanging the sweep
    mesh = random_grid_mesh(np.random.default_rng(1), dims=(4, 4, 4))
    order = build_vertex_order(mesh)
    links = build_monotone_links(mesh, order)
    swapped = MonotoneLinks(links.hi, links.lo, 0)
    for build in (build_join_tree, build_split_tree):
        with pytest.raises(ValueError, match="have lo >= hi"):
            build(swapped, order)


def test_tree_structure_invariants(rng):
    for _ in range(6):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        tree, order = _tree(mesh)
        n = mesh.vertex_count
        k = tree.supernode_count
        assert tree.superarc_count == k - 1
        # the offsets: arc a's regular vertices are one slice, the up ids
        # of supernode s one range and its down ids one run, ascending
        start = tree.regular_start
        assert start.shape == (k,) and start[0] == 0
        assert np.all(np.diff(start) >= 0) and start[-1] == n - k
        assert tree.up_start.shape == tree.down_start.shape == (k + 1,)
        for s in range(k):
            up = np.arange(tree.up_start[s], tree.up_start[s + 1])
            assert np.array_equal(up,
                                  np.flatnonzero(tree.superarcs[:, 0] == s))
            down = tree.down_arcs[tree.down_start[s]:tree.down_start[s + 1]]
            assert np.array_equal(down,
                                  np.flatnonzero(tree.superarcs[:, 1] == s))
        # partition: every vertex in exactly one arc
        counts = np.zeros(n, dtype=int)
        for a, regs in enumerate(arc_regulars(tree)):
            counts[regs] += 1
            assert np.all(tree.arc_of[regs] == a)
            lo, hi = tree.superarcs[a]
            rlo = order.rank[tree.supernodes[lo]]
            rhi = order.rank[tree.supernodes[hi]]
            assert rlo < rhi
            if len(regs):
                rr = order.rank[regs]
                assert np.all(np.diff(rr) > 0)       # ascending along arc
                assert rlo < rr[0] and rr[-1] < rhi
        counts[tree.supernodes] += 1
        assert np.all(counts == 1)
        assert tree.supernodes[tree.preorder[0]] == order.sort_index[-1]


def test_leaf_count_matches_local_extrema(rng):
    for _ in range(6):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        tree, order = _tree(mesh)
        up, down = _tree_degrees(tree)
        leaves = int(np.sum(up + down == 1))
        n_min, n_max = _local_extrema(mesh, build_topology_graph(mesh),
                                      order)
        assert leaves == n_min + n_max


def test_negated_field_flips_orientations(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    tree, _ = _tree(mesh)
    neg = grid_to_tets((5, 5, 5), -mesh.values)
    neg_tree, _ = _tree(neg)
    assert neg_tree.supernode_count == tree.supernode_count
    # the same vertex pairs are joined, with lo/hi swapped
    def arc_set(t, flip):
        pairs = set()
        for lo, hi in t.superarcs:
            a, b = t.supernodes[lo], t.supernodes[hi]
            pairs.add((b, a) if flip else (a, b))
        return pairs
    assert arc_set(tree, False) == arc_set(neg_tree, True)
    assert set(tree.supernodes) == set(neg_tree.supernodes)


def test_canonical_supernode_assignment(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    tree, _ = _tree(mesh)
    up_arcs = [[] for _ in range(tree.supernode_count)]
    down_arcs = [[] for _ in range(tree.supernode_count)]
    for a, (lo, hi) in enumerate(tree.superarcs):
        up_arcs[lo].append(a)
        down_arcs[hi].append(a)
    assert [x.tolist() for x in np.split(np.arange(tree.superarc_count),
                                         tree.up_start[1:-1])] == up_arcs
    assert [x.tolist() for x in np.split(tree.down_arcs,
                                         tree.down_start[1:-1])] == down_arcs
    for sn in range(tree.supernode_count):
        arc = tree.arc_of[tree.supernodes[sn]]
        if up_arcs[sn]:
            assert arc == max(up_arcs[sn])           # upward when possible
        else:
            assert arc == max(down_arcs[sn])         # maxima fall back


def test_two_peak_tree_shape():
    mesh = two_peak_mesh()
    tree, _ = _tree(mesh)
    assert tree.supernode_count == 3
    assert tree.superarc_count == 2
    up, down = _tree_degrees(tree)
    # the shared minimum is a split supernode with two upward arcs
    splits = np.flatnonzero((up == 2) & (down == 0))
    assert len(splits) == 1
    assert tree.supernode_value(int(splits[0])) == 0.0


def test_straddling_arcs_containment(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    tree, _ = _tree(mesh)
    sn_vals = tree.values[tree.supernodes]
    hits = 0
    for _ in range(200):
        v = int(rng.integers(mesh.vertex_count))
        h = float(rng.normal())
        for arc in straddling_arcs(tree, v, h):
            hits += 1
            lo, hi = tree.superarcs[arc]
            assert sn_vals[lo] <= h < sn_vals[hi]
    assert hits > 0
    # out-of-range values can never land on an arc
    assert straddling_arcs(tree, 0, mesh.values.max() + 1.0) == set()
    assert straddling_arcs(tree, 0, mesh.values.min() - 1.0) == set()


def test_no_arc_straddles_the_global_maximum(rng):
    # a vertex at h counts as below, so the level set at the maximum is
    # empty and no walk from any vertex finds an arc
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    tree, _ = _tree(mesh)
    h = float(mesh.values.max())
    assert reference_contour_count(mesh, h) == 0
    for v in range(mesh.vertex_count):
        assert straddling_arcs(tree, v, h) == set()


def test_preorder_is_root_first(rng):
    tied = grid_to_tets((6, 6, 6), rng.integers(0, 3, size=216) * 1.0)
    for mesh in (random_grid_mesh(rng, dims=(7, 7, 7)), tied,
                 two_peak_mesh()):
        tree, _ = _tree(mesh)
        k = tree.supernode_count
        root = tree.preorder[0]
        assert tree.tout[root] == k
        assert np.array_equal(tree.tin[tree.preorder], np.arange(k))
        # the arc toward the root from each supernode: none at the root,
        # and every superarc is one supernode's
        assert tree.parent_arc.shape == (k,)
        assert tree.parent_arc[root] == -1
        assert np.array_equal(np.sort(tree.parent_arc), np.arange(-1, k - 1))
        children = [[] for _ in range(k)]
        for child, a in enumerate(tree.parent_arc.tolist()):
            if child == root:
                continue
            lo, hi = tree.superarcs[a].tolist()
            assert child in (lo, hi)
            parent = hi if child == lo else lo
            children[parent].append((int(tree.tin[child]), a, child))
            # a child's subtree is a run inside its parent's, a level down
            assert tree.tin[parent] < tree.tin[child]
            assert tree.tout[child] <= tree.tout[parent]
            assert tree.depth[child] == tree.depth[parent] + 1
        for s in range(k):
            # in preorder, children follow in descending arc id, each
            # subtree's run right after the one before
            runs = sorted(children[s])
            assert [a for _, a, _ in runs] == sorted(
                (a for _, a, _ in runs), reverse=True)
            ends = [tree.tin[s] + 1] + [tree.tout[c] for _, _, c in runs]
            assert [t for t, _, _ in runs] == ends[:-1]
            assert ends[-1] == tree.tout[s]


def _prufer_tree(rng, k):
    """The edges of a random labelled tree on k nodes, decoded from a
    random Pruefer sequence, each edge's ends in random order."""
    seq = rng.integers(0, k, size=k - 2).tolist()
    degree = np.ones(k, dtype=np.int64)
    np.add.at(degree, seq, 1)
    leaves = np.flatnonzero(degree == 1).tolist()     # sorted: a heap
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((leaves[0], leaves[1]))
    edges = np.array(edges, dtype=np.int64)
    flip = rng.random(k - 1) < 0.5
    edges[flip] = edges[flip, ::-1]
    return edges[:, 0].copy(), edges[:, 1].copy()


def _root_tree_inputs():
    """(lo, hi) trees: k = 2, a star, a path of 5,000 nodes and random
    Pruefer trees of 1,000 nodes."""
    yield np.array([0]), np.array([1])
    yield np.zeros(49, dtype=np.int64), np.arange(1, 50)
    yield np.arange(4999), np.arange(1, 5000)
    for seed in range(5):
        yield _prufer_tree(np.random.default_rng(seed), 1000)


_ROOTED = ("parent", "edge", "preorder", "tin", "tout", "depth")


def test_root_tree_matches_reference():
    rng = np.random.default_rng(0)
    for lo, hi in _root_tree_inputs():
        k = lo.size + 1
        degree = np.bincount(np.concatenate((lo, hi)), minlength=k)
        # a leaf, and an interior node where there is one
        roots = {int(np.flatnonzero(degree == 1)[-1]),
                 int(np.argmax(degree))}
        for root in sorted(roots):
            for order in (np.arange(k - 1)[::-1], rng.permutation(k - 1)):
                got = root_tree(lo, hi, root, order)
                want = reference_root_tree(lo, hi, root, order)
                for name, g, w in zip(_ROOTED, got, want):
                    assert _same(g, w), (k, root, name)
                # each subtree one run of the preorder
                parent, _, preorder, tin, tout, _ = got
                assert np.array_equal(tin[preorder], np.arange(k))
                child = preorder[1:]
                assert np.all(tin[parent[child]] < tin[child])
                assert np.all(tout[child] <= tout[parent[child]])


def test_straddling_arcs_own_interval(rng):
    """A regular vertex queried at its own value finds only its arc."""
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    tree, _ = _tree(mesh)
    for a, regs in enumerate(arc_regulars(tree)):
        if not len(regs):
            continue
        v = int(regs[len(regs) // 2])
        assert tree.arc_of[v] == a
        assert straddling_arcs(tree, v, float(mesh.values[v])) == {a}


def _sweeps(mesh):
    order = build_vertex_order(mesh)
    links = build_monotone_links(mesh, order)
    return build_join_tree(links, order), build_split_tree(links, order), order


def test_merge_rejects_mismatched_trees():
    mesh = random_grid_mesh(np.random.default_rng(2), dims=(4, 4, 4))
    join, _, order = _sweeps(mesh)
    _, split_small, _ = _sweeps(
        random_grid_mesh(np.random.default_rng(3), dims=(3, 3, 3)))
    with pytest.raises(InconsistentTreesError, match="vertex count"):
        merge_trees(join, split_small, order, mesh.values)
    # the join tree of one N(0, 1) field and the split tree of another on
    # the same grid: both are trees, but the split tree's parents do not
    # all rank above their children in the first field's order
    for seed in range(40):
        rng = np.random.default_rng(seed)
        first = random_grid_mesh(rng, dims=(5, 5, 5))
        second = random_grid_mesh(rng, dims=(5, 5, 5))
        join, split, order = _sweeps(first)
        merge_trees(join, split, order, first.values)
        _, other_split, _ = _sweeps(second)
        with pytest.raises(InconsistentTreesError, match="split tree"):
            merge_trees(join, other_split, order, first.values)
    # vertices 1 and 2 are each other's join parent
    order = VertexOrder(sort_index=np.arange(8), rank=np.arange(8))
    split = np.array([1, 2, 3, 4, 5, 6, 7, -1])
    join = np.array([-1, 2, 1, 2, 3, 4, 5, 6])
    with pytest.raises(InconsistentTreesError, match="join tree"):
        merge_trees(join, split, order, np.arange(8.0))
    join[1:3] = 0, 1
    merge_trees(join, split, order, np.arange(8.0))
    # two roots, and a vertex that is its own parent
    with pytest.raises(InconsistentTreesError, match="2 roots"):
        merge_trees(join, np.where(split == 5, -1, split), order,
                    np.arange(8.0))
    with pytest.raises(InconsistentTreesError, match="split tree"):
        merge_trees(join, split[::-1].copy(), order, np.arange(8.0))
    # both trees pass those checks, but no field has a global minimum
    # with two up-arcs and a global maximum with two down-arcs
    order = VertexOrder(sort_index=np.arange(3), rank=np.arange(3))
    with pytest.raises(InconsistentTreesError, match="degrees"):
        merge_trees(np.array([-1, 0, 0]), np.array([2, 2, -1]), order,
                    np.arange(3.0))


def test_gaussian_two_bumps_has_two_maxima():
    mesh = gaussian_grid_mesh(
        9, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], [1.0, 0.8], width=40.0)
    tree, _ = _tree(mesh)
    up, down = _tree_degrees(tree)
    maxima = np.flatnonzero((up == 0) & (down == 1))
    assert len(maxima) == 2


def test_single_tet_links_are_its_consecutive_rank_pairs():
    mesh = TetMesh.create(UNIT_TET_POSITIONS, [2.0, 0.0, 3.0, 1.0],
                          [[0, 1, 2, 3]])
    links = build_monotone_links(mesh, build_vertex_order(mesh))
    assert links.lo.tolist() == [0, 1, 2]
    assert links.hi.tolist() == [1, 2, 3]
    assert links.unused == 0


def test_pair_skipped_by_a_neighbour_tet_is_dropped():
    # two tets on the face {0, 2, 3}, with values equal to the ranks;
    # ranks 0 and 2 are consecutive in tet (0, 2, 3, 4) but skip rank 1
    # in tet (0, 1, 2, 3), so that pair is dropped
    positions = np.array([[0.0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0],
                          [0, 0, -1]])
    mesh = TetMesh.create(positions, [0.0, 1.0, 2.0, 3.0, 4.0],
                          [[0, 1, 2, 3], [0, 2, 3, 4]])
    links = build_monotone_links(mesh, build_vertex_order(mesh))
    pairs = list(zip(links.lo.tolist(), links.hi.tolist()))
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert links.lo.dtype == links.hi.dtype == np.int64


def test_links_in_blocks_match_whole_mesh_reference(small_blocks):
    spatial = pytest.importorskip("scipy.spatial")
    points = np.random.default_rng(2).uniform(size=(2000, 3))
    meshes = [gaussian_grid_mesh(12, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                                 [1.0, 1.0], width=20.0),
              TetMesh.create(points, np.random.default_rng(3).normal(
                  size=2000), spatial.Delaunay(points).simplices)]
    meshes += [grid_to_tets((8, 8, 8), np.random.default_rng(seed).integers(
        0, 4, size=512).astype(float)) for seed in range(5)]
    for mesh in meshes:
        assert mesh.tet_count > 2 * small_blocks
        assert mesh.tet_count % small_blocks
        order = build_vertex_order(mesh)
        got = build_monotone_links(mesh, order)
        want = reference_monotone_links(mesh, order)
        assert np.array_equal(got.lo, want.lo)
        assert np.array_equal(got.hi, want.hi)
        assert got.unused == want.unused


def test_links_peak_memory():
    # whole-mesh (m, 6) codes with full-size key and skip-bit temporaries
    # peaked near 67 MB here, and 22.9 MB while the 17 MB of codes stayed
    # alive beside the kept keys and their divmod; freed first, about 20.8
    mesh = grid_to_tets((40, 40, 40),
                        np.random.default_rng(1).normal(size=40 ** 3))
    order = build_vertex_order(mesh)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        build_monotone_links(mesh, order)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 21.5e6


def _oracle_meshes():
    rng = np.random.default_rng(5)
    for n in range(4, 9):
        yield random_grid_mesh(rng, dims=(n, n, n))
    for _ in range(3):
        yield grid_to_tets((6, 6, 6), rng.integers(0, 3, size=216))
    yield grid_to_tets((5, 5, 5), np.zeros(125))
    yield two_peak_mesh()
    yield random_grid_mesh(rng, dims=(16, 16, 16))
    yield grid_to_tets((12, 12, 12), rng.integers(0, 2, size=1728) * 1.0)
    spatial = pytest.importorskip("scipy.spatial")
    for k in (30, 60, 120, 240):
        points = rng.uniform(size=(k, 3))
        yield TetMesh.create(points, rng.normal(size=k),
                             spatial.Delaunay(points).simplices)
    points = rng.uniform(size=(600, 3))
    yield TetMesh.create(points, rng.integers(0, 5, size=600) * 1.0,
                         spatial.Delaunay(points).simplices)
    # many supernodes with several up-arcs, where superarc ids tie on the
    # lower supernode and the upper one decides
    yield random_grid_mesh(np.random.default_rng(6), dims=(10, 10, 10))
    for seed in (0, 1):
        tied = np.random.default_rng(seed)
        for top in (4, 50):
            yield grid_to_tets((8, 8, 8),
                               tied.integers(0, top, size=512) * 1.0)
    yield grid_to_tets((8, 8, 8), (np.arange(512) * 7919) % 1009 * 1.0)


def test_merge_trees_match_reference_sweep():
    for mesh in _oracle_meshes():
        graph = build_topology_graph(mesh)
        order = build_vertex_order(mesh)
        links = build_monotone_links(mesh, order)
        for build, descending in ((build_join_tree, True),
                                  (build_split_tree, False)):
            tree = build(links, order)
            ref = reference_merge_tree(graph, order, descending)
            assert tree.dtype == ref.dtype
            assert np.array_equal(tree, ref)


def _link_sweep_meshes():
    spatial = pytest.importorskip("scipy.spatial")
    for seed in (1, 7):
        # the benchmark's smooth fields: three bumps on a grid, two on a
        # Delaunay mesh of the unit cube
        rng = np.random.default_rng(seed)
        centres = np.array([[0.3, 0.4, 0.5], [0.7, 0.5, 0.4],
                            [0.5, 0.7, 0.7]])
        centres += rng.uniform(-0.05, 0.05, size=centres.shape)
        yield gaussian_grid_mesh(32, centres, [1.0, 0.8, 0.6], width=10.0)
        points = rng.uniform(size=(24_000, 3))
        bumps = sum(np.exp(-20 * np.sum((points - (cx, 0.5, 0.5)) ** 2,
                                        axis=1)) for cx in (0.3, 0.7))
        yield TetMesh.create(points, bumps,
                             spatial.Delaunay(points).simplices)
    for n in (16, 32):
        yield random_grid_mesh(np.random.default_rng(1), dims=(n, n, n))
    for top in (3, 5, 50):
        for seed in range(6):
            yield grid_to_tets((8, 8, 8), np.random.default_rng(
                seed).integers(0, top, size=512) * 1.0)
    # long ascent chains up each strip
    yield two_peak_mesh()
    yield grid_to_tets((6, 6, 6), np.zeros(216))


def test_trees_match_reference_link_sweep():
    for mesh in _link_sweep_meshes():
        order = build_vertex_order(mesh)
        links = build_monotone_links(mesh, order)
        # the pairs come sorted by (lo, hi), as MonotoneLinks documents
        codes = links.lo * mesh.vertex_count + links.hi
        assert np.all(links.lo < links.hi)
        assert np.all(codes[1:] > codes[:-1])
        for build, descending in ((build_join_tree, True),
                                  (build_split_tree, False)):
            tree = build(links, order)
            ref = reference_link_sweep(links, order, descending)
            assert tree.dtype == ref.dtype
            assert np.array_equal(tree, ref)


def test_sweep_peak_memory():
    # the per-vertex union-find's lists read 11.3 MB (join) and 13.2 MB
    # (split) here, the peak pruning about 7.9 MB each: the split's
    # reversed ranks and each round's temporaries are freed before the
    # next round allocates its own
    mesh = grid_to_tets((40, 40, 40),
                        np.random.default_rng(1).normal(size=40 ** 3))
    order = build_vertex_order(mesh)
    links = build_monotone_links(mesh, order)
    for build in (build_join_tree, build_split_tree):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            build(links, order)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < 10e6, build.__name__


def _same(a, b):
    """Equal values, and for arrays equal dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def test_merge_trees_match_reference_arcs():
    for mesh in _oracle_meshes():
        join, split, order = _sweeps(mesh)
        tree = merge_trees(join, split, order, mesh.values)
        ref = reference_contract(reference_merge_arcs(join, split), order,
                                 mesh.values)
        for f in dataclasses.fields(tree):
            assert _same(getattr(tree, f.name), getattr(ref, f.name)), f.name
        # superarc ids ascend strictly by (lower, upper) supernode id
        key = tree.superarcs @ [tree.supernode_count, 1]
        assert np.all(key[1:] > key[:-1])


def test_merge_trees_roots_the_tree_once(monkeypatch, rng):
    # placement and the tree's rooted fields read one rooting
    calls = []

    def counted(*args):
        calls.append(args)
        return root_tree(*args)

    monkeypatch.setattr(contourtree, "root_tree", counted)
    for mesh in (two_peak_mesh(), random_grid_mesh(rng, dims=(8, 8, 8))):
        join, split, order = _sweeps(mesh)
        calls.clear()
        merge_trees(join, split, order, mesh.values)
        assert len(calls) == 1


def _disjoint_tets():
    positions = np.concatenate([UNIT_TET_POSITIONS, UNIT_TET_POSITIONS + 5])
    return TetMesh.create(positions, np.arange(8.0),
                          [[0, 1, 2, 3], [4, 5, 6, 7]])


def _tet_and_unused_vertex():
    positions = np.concatenate([UNIT_TET_POSITIONS, [[5.0, 5.0, 5.0]]])
    return TetMesh.create(positions, np.arange(5.0), [[0, 1, 2, 3]])


def _vertices_without_tets():
    return TetMesh.create(np.eye(3)[:2], [0.0, 1.0],
                          np.zeros((0, 4), dtype=np.int64))


@pytest.mark.parametrize("make, message", [
    (_disjoint_tets, "2 components, 0 vertices in no tet"),
    (_tet_and_unused_vertex, "2 components, 1 vertices in no tet"),
    (_vertices_without_tets, "2 components, 2 vertices in no tet"),
])
def test_disconnected_mesh_is_refused(make, message):
    mesh = make()
    with pytest.raises(StructuralError, match=message):
        _tree(mesh)
