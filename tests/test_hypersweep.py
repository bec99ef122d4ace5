import tracemalloc

import numpy as np
import pytest

import tetcontour.hypersweep as hs
from tetcontour.contourtree import build_contour_tree
from tetcontour.decomposition import decompose
from tetcontour.geometry import (batch_spline_coefficients, local_volume,
                                rounding_bound)
from tetcontour.hypersweep import (ArcWeights, compute_deltas, count_weights,
                                   sweep_volumes, volume_weights)
from tetcontour.mesh import (TetMesh, VertexOrder, build_vertex_order,
                             grid_to_tets, tet_volumes)
from tetcontour.oracle import (contour_count_mismatches, rank_arc_end_volumes,
                               region_volume_errors)

from conftest import (bit_check_meshes, branch_list, gaussian_grid_mesh,
                      random_grid_mesh, reference_arc_ends,
                      reference_below_arc_sums, reference_sweep_volumes,
                      reference_tour, two_peak_mesh)


def _pipeline(mesh):
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    deltas = compute_deltas(mesh, order)
    return order, tree, deltas


def _three_bumps(n):
    """Three bumps as in the grid-smooth benchmark on an n^3 grid."""
    return gaussian_grid_mesh(n, [(0.3, 0.4, 0.5), (0.7, 0.5, 0.4),
                                  (0.5, 0.7, 0.7)], [1.0, 0.8, 0.6],
                              width=10.0)


def test_deltas_telescope_to_total(rng):
    for _ in range(5):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        order = build_vertex_order(mesh)
        deltas = compute_deltas(mesh, order)
        total = mesh.volume
        summed = deltas.rows.sum(axis=0)
        assert abs(summed[3] - total) <= 1e-9 * total
        assert np.all(np.abs(summed[:3]) <= 1e-9 * total)


def test_deltas_independent_of_block_size(rng):
    mesh = random_grid_mesh(rng, dims=(9, 9, 9))
    order = build_vertex_order(mesh)
    base = compute_deltas(mesh, order)
    # shrink the chunk size so the mesh spans many chunks
    original = hs._CHUNK
    hs._CHUNK = 512
    try:
        got = compute_deltas(mesh, order)
    finally:
        hs._CHUNK = original
    np.testing.assert_array_equal(base.rows, got.rows)
    np.testing.assert_array_equal(base.exact, got.exact)
    assert base.error == got.error

    # at the default chunk size: 13,182 tets span two chunks
    mesh = random_grid_mesh(rng, dims=(14, 14, 14))
    order = build_vertex_order(mesh)
    np.testing.assert_array_equal(compute_deltas(mesh, order).rows,
                                  _reference_deltas(mesh, order))


def test_deltas_peak_memory():
    mesh = gaussian_grid_mesh(24, [(0.3, 0.4, 0.5), (0.7, 0.5, 0.4)],
                              [1.0, 0.8])
    assert mesh.tet_count == 73_002
    order = build_vertex_order(mesh)
    tracemalloc.start()
    try:
        compute_deltas(mesh, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


def test_deltas_peak_memory_independent_of_tet_count():
    # staging every row of the mesh before summing takes over 90 MB here;
    # blocks streamed into the per-vertex sums peak near 18 MB: the sums,
    # one block in flight and the (m, 4) int32 buffer of sorted corners,
    # whose front becomes the exact set
    mesh = grid_to_tets((40, 40, 40),
                        np.random.default_rng(1).normal(size=40 ** 3))
    assert mesh.tet_count == 355_914
    order = build_vertex_order(mesh)
    tracemalloc.start()
    try:
        compute_deltas(mesh, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_sweep_volumes_peak_memory():
    # three bumps as in the grid-smooth benchmark: 131,960 of its 178,746
    # tets are in the exact set; picking the crossed ones over all of them
    # at once peaks at 8.4 MiB, a block at a time near 7 MiB
    mesh = _three_bumps(32)
    order, tree, deltas = _pipeline(mesh)
    assert len(deltas.exact) == 131_960
    tracemalloc.start()
    try:
        sweep_volumes(tree, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2 ** 20


def test_below_peak_memory():
    # every arc's segments on the 32^3 three-bump grid (32,768 vertices, a
    # MiB per (n + 1, 4) array): new arrays for each term of the prefix
    # sum's error and each difference of the cut peak near 6 MiB, written
    # in place about 4.5 MiB
    mesh = _three_bumps(32)
    order, tree, deltas = _pipeline(mesh)
    tour = hs._Tour.build(tree)
    first = np.cumsum(tour.regulars + 1) - (tour.regulars + 1)
    arcs = np.repeat(np.arange(tree.superarc_count), tour.regulars + 1)
    count = np.arange(arcs.size) - first[arcs]
    tracemalloc.start()
    try:
        tour.below(deltas.rows, arcs, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2 ** 20


def test_exact_set_corners_are_int32_ranks():
    mesh = _three_bumps(14)
    order, tree, deltas = _pipeline(mesh)
    assert deltas.exact.dtype == np.int32 and len(deltas.exact) > 0
    sorted_tets = order.sort_tets(mesh.tets)
    rows = {tuple(r) for r in sorted_tets.tolist()}
    assert all(tuple(r) in rows for r in deltas.exact.tolist())


def test_each_tet_is_sorted_once(monkeypatch):
    # the bounds pass keeps the sorted corners, and both the telescoped
    # blocks and the exact set read them back
    mesh = _three_bumps(14)
    order = build_vertex_order(mesh)
    sort_tets = VertexOrder.sort_tets
    rows = []

    def counted(self, tets):
        rows.append(np.asarray(tets).reshape(-1, 4).shape[0])
        return sort_tets(self, tets)

    monkeypatch.setattr(VertexOrder, "sort_tets", counted)
    deltas = compute_deltas(mesh, order)
    assert 0 < len(deltas.exact) < mesh.tet_count
    assert sum(rows) == mesh.tet_count


def _reference_deltas(mesh, order):
    """compute_deltas as one kernel call over every telescoped tet and a
    scalar Neumaier sum per vertex that adds the vertex's rows in tet
    order, then each exact-set volume at its tet's top corner, in tet
    order. The split is a stable sort of every tet's bound."""
    cols = np.argsort(order.rank[mesh.tets], axis=1, kind="stable")
    sorted_tets = np.take_along_axis(mesh.tets, cols, axis=1)
    values = mesh.values[sorted_tets]
    volumes = tet_volumes(mesh.positions, mesh.tets)
    bound = rounding_bound(volumes, values, np.max(np.abs(mesh.values)))
    cheap = np.argsort(bound, kind="stable")
    within = np.cumsum(bound[cheap]) <= hs.EXACT_BUDGET * mesh.volume
    telescoped = np.zeros(mesh.tet_count, dtype=bool)
    telescoped[cheap[within]] = True
    volume = volumes[telescoped]
    p1, p2, p3 = batch_spline_coefficients(volume, values[telescoped])
    rows = np.stack([p1, p2 - p1, p3 - p2, -p3], axis=1)
    rows[:, 3, 3] += volume
    sums = [[0.0] * 4 for _ in range(mesh.vertex_count)]
    comps = [[0.0] * 4 for _ in range(mesh.vertex_count)]
    for v, row in zip(sorted_tets[telescoped].ravel().tolist(),
                      rows.reshape(-1, 4).tolist()):
        for j, x in enumerate(row):
            s = sums[v][j]
            t = s + x
            comps[v][j] += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
            sums[v][j] = t
    out = np.array(sums) + np.array(comps)
    mass = [0.0] * mesh.vertex_count
    for v, t in zip(sorted_tets[~telescoped, 3].tolist(),
                    volumes[~telescoped].tolist()):
        mass[v] += t
    out[:, 3] += mass
    return out


def test_deltas_match_scalar_neumaier_reference(rng, monkeypatch):
    spatial = pytest.importorskip("scipy.spatial")
    meshes = [random_grid_mesh(rng, dims=(6, 6, 6)), two_peak_mesh()]
    points = rng.uniform(size=(2000, 3))
    meshes.append(TetMesh.create(points, rng.normal(size=2000),
                                 spatial.Delaunay(points).simplices))
    # a Delaunay vertex's tets are spread over many blocks, so the order in
    # which blocks are added reaches each vertex's sum
    monkeypatch.setattr(hs, "_CHUNK", 1024)
    assert meshes[-1].tet_count >= 8 * hs._CHUNK
    # mirror-symmetric bumps: values tied to within an ulp make pieces so
    # narrow that their tets go to the exact set, on top of the tails
    meshes.append(gaussian_grid_mesh(16, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                                     [1.0, 1.0], width=20.0))
    exact = 0
    for mesh in meshes:
        order = build_vertex_order(mesh)
        ref = _reference_deltas(mesh, order)
        got = compute_deltas(mesh, order)
        assert np.array_equal(got.rows, ref)
        assert np.array_equal(np.signbit(got.rows), np.signbit(ref))
        exact += len(got.exact)
    assert exact > 0


def test_superarc_volumes_match_region_oracle(rng):
    worst = 0.0
    for _ in range(3):
        mesh = random_grid_mesh(rng, dims=(5, 5, 5))
        order, tree, deltas = _pipeline(mesh)
        errors, refs = region_volume_errors(
            mesh, tree, sweep_volumes(tree, deltas), (0.2, 0.5, 0.8))
        worst = max(worst, np.max(errors / np.maximum(refs, 1e-12)))
    assert worst <= 1e-8
    # each grid has a region of 1.5e-11 to 6.5e-9 of the mesh volume whose
    # error, roundoff from cancelling far larger deltas, is above 1e-8 of
    # the region; the bound is 1e-8 of the region or the certified volume
    # error, whichever is larger
    for seed in (5, 8, 23, 28):
        mesh = grid_to_tets(
            (5, 5, 5), np.random.default_rng(seed).normal(size=125))
        order, tree, deltas = _pipeline(mesh)
        errors, refs = region_volume_errors(
            mesh, tree, sweep_volumes(tree, deltas), (0.25, 0.75))
        assert refs.min() < 1e-8 * mesh.volume
        assert np.max(errors / np.maximum(refs, deltas.error / 1e-8)) <= 1e-8


def test_tied_integer_fields_match_both_oracles():
    # every vertex shares its value with many others, so only the index
    # tie-break orders them: the case where contraction could reorder
    # supernodes; the volume bound is acceptance criterion 6's
    rng = np.random.default_rng(29)
    for _ in range(4):
        mesh = grid_to_tets((6, 6, 6),
                            rng.integers(0, 3, size=216).astype(float))
        order, tree, deltas = _pipeline(mesh)
        assert contour_count_mismatches(mesh, tree, (0.5, 1.5)) == 0
        # on a flat arc (both ends at one value) the region below the cut
        # grows along the arc at a single isovalue, which no function of
        # h can follow, so only arcs spanning a value range are compared
        ranges = map(tree.arc_value_range, range(tree.superarc_count))
        arcs = [a for a, (lo, hi) in enumerate(ranges) if lo < hi]
        assert len(arcs) >= 5
        floor = 64.0 * np.finfo(float).eps * mesh.volume
        errors, refs = region_volume_errors(
            mesh, tree, sweep_volumes(tree, deltas), np.linspace(0.1, 0.9, 8),
            arcs)
        worst = np.max(np.maximum(errors - floor, 0.0)
                       / np.maximum(refs, 1e-12))
        assert worst <= 1e-8


def test_volume_function_continuous_at_breakpoints(rng):
    # through the volume function: at a breakpoint the telescoped part
    # steps by the exact-set volumes of the tets whose top corner it is,
    # and the crossed exact-set part steps back; the bumps put tets in it
    meshes = [random_grid_mesh(rng, dims=(6, 6, 6)),
              gaussian_grid_mesh(9, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                                 [1.0, 0.6], width=40.0)]
    for mesh in meshes:
        order, tree, deltas = _pipeline(mesh)
        total = mesh.volume
        volumes = sweep_volumes(tree, deltas)
        for a in range(tree.superarc_count):
            first, last = volumes.start[a:a + 2]
            for bp in volumes.breakpoints[first:last]:
                left = volumes(a, np.nextafter(bp, -np.inf))
                assert abs(volumes(a, bp) - left) <= 1e-10 * total
    assert len(deltas.exact) > 0


def test_volume_function_monotone_in_h(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    for a in range(tree.superarc_count):
        hs = np.linspace(*tree.arc_value_range(a), 64)
        v = volumes(a, hs)
        assert np.all(np.diff(v) >= -1e-9 * mesh.volume)


def test_weight_endpoints_bracket_the_interval(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    total = mesh.volume
    volumes = sweep_volumes(tree, deltas)
    for a in range(tree.superarc_count):
        bottom, top = volumes.weight_bottom[a], volumes.weight_top[a]
        assert -1e-9 * total <= bottom <= top
        assert top <= total * (1 + 1e-9)


def test_root_arc_sweeps_everything(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    root_arc = int(tree.arc_of[tree.supernodes[tree.root]])
    assert volumes.weight_top[root_arc] == pytest.approx(
        mesh.volume, rel=1e-9)


def test_count_weights_mirror_volume_weights_structure(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    vw = volume_weights(volumes, mesh.volume)
    cw = count_weights(tree)
    n = mesh.vertex_count
    assert cw.total == n
    assert np.all(cw.down_weight >= 1)
    assert np.all(cw.up_weight >= 1)
    assert np.all(cw.down_weight <= n)
    root_arc = int(tree.arc_of[tree.supernodes[tree.root]])
    # the arc below the global maximum counts everything except the max
    assert cw.down_weight[root_arc] == n - 1
    assert vw.down_weight[root_arc] <= vw.total * (1 + 1e-12)


def test_two_peak_saddle_volumes_split_the_total():
    mesh = two_peak_mesh()
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    total = mesh.volume
    # each peak arc at its own bottom (the shared saddle) sweeps the
    # complement of its own region; the two regions partition the mesh
    regions = [total - w for w in volumes.weight_bottom.tolist()]
    assert sum(regions) == pytest.approx(total, rel=1e-9)
    errors, refs = region_volume_errors(mesh, tree, volumes, (0.3, 0.7))
    assert np.max(errors / np.maximum(refs, 1e-12)) <= 1e-8


def test_region_sums_match_subtree_sums(rng):
    # the tour runs of every arc's end cuts sum the same vertices as the
    # subtree sums: counts exactly, deltas up to the certified error
    for mesh in bit_check_meshes(rng):
        order, tree, deltas = _pipeline(mesh)
        below, reg_sums = reference_below_arc_sums(
            tree, np.ones(mesh.vertex_count))
        counts = count_weights(tree)
        assert np.array_equal(counts.down_weight, below + reg_sums)
        assert np.array_equal(counts.up_weight, mesh.vertex_count - below)
        below, reg_sums = reference_below_arc_sums(tree, deltas.rows)
        volumes = sweep_volumes(tree, deltas)
        for a in range(tree.superarc_count):
            h_lo, h_hi = tree.arc_value_range(a)
            first, last = volumes.start[a:a + 2] + a
            for row, want, h in ((volumes.segments[first], below[a], h_lo),
                                 (volumes.segments[last],
                                  below[a] + reg_sums[a], h_hi)):
                assert abs(np.polyval(row, h) - np.polyval(want, h)) \
                    <= deltas.error


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def test_tour_matches_reference(rng):
    # the tour's places and cut-tree depths, read from the tree's
    # preorder, against the loops over an arc order that once built them
    meshes = bit_check_meshes(rng) + [random_grid_mesh(
        np.random.default_rng(1), dims=(16, 16, 16))]
    for mesh in meshes:
        tree = build_contour_tree(mesh, build_vertex_order(mesh))
        tour = hs._Tour.build(tree)
        got = (tour.key, tour.start, tour.stop, tour.depth)
        for name, g, w in zip(("key", "start", "stop", "depth"), got,
                              reference_tour(tree)):
            assert (g.dtype == w.dtype and g.shape == w.shape
                    and g.tobytes() == w.tobytes()), name


def test_sweep_volumes_match_per_arc_reference(rng):
    # the one table of breakpoints and segments, the arc-end weights from
    # one horner over every arc and the tour's places set in whole arrays,
    # bit for bit against a pass per arc; tied integer fields give flat
    # arcs and arcs with no regular vertex, the linear field a tree of one
    # arc
    meshes = bit_check_meshes(rng) + [two_peak_mesh()]
    meshes += [grid_to_tets((n, n, n), np.random.default_rng(1).normal(
        size=n ** 3)) for n in (16, 32)]
    meshes += [grid_to_tets((8, 8, 8), np.random.default_rng(seed).integers(
        0, k, size=512).astype(float)) for k in (3, 5, 50)
        for seed in range(3)]
    meshes.append(grid_to_tets((5, 5, 5), np.arange(125.0)))
    for mesh in meshes:
        order, tree, deltas = _pipeline(mesh)
        got = sweep_volumes(tree, deltas)
        want = reference_sweep_volumes(tree, deltas)
        for field in ("start", "breakpoints", "segments", "weight_bottom",
                      "weight_top"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field))
        assert got.weight_top.shape == (tree.superarc_count,)
        assert got.error == deltas.error
    assert tree.superarc_count == 1


def test_arc_ends_are_float_without_crossed_exact_set_tets():
    # no exact-set tet: bincount of no tets ignores its float weights
    mesh = grid_to_tets((8, 8, 8), np.random.default_rng(0).integers(
        0, 50, size=512).astype(float))
    order, tree, deltas = _pipeline(mesh)
    assert len(deltas.exact) == 0
    ends = hs._ExactPart(tree, hs._Tour.build(tree), deltas).arc_ends()
    for end in ends:
        assert end.dtype == np.float64
        assert end.shape == (tree.superarc_count,)
        assert not end.any()


def test_arc_ends_match_reference(rng):
    # the climb's masks from column equalities, bit for bit against the
    # (t, 4, 4) climb; tied integer fields put corners of one tet in one
    # node two, three or four at a time, and on the narrow 11^3 bumps some
    # tets have only their two top-ranked corners in one node
    meshes = bit_check_meshes(rng) + [_three_bumps(32), grid_to_tets(
        (16, 16, 16), np.random.default_rng(1).normal(size=16 ** 3)),
        gaussian_grid_mesh(11, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                           [1.0, 0.6], width=40.0)]
    meshes += [grid_to_tets((8, 8, 8), np.random.default_rng(seed).integers(
        0, k, size=512).astype(float)) for k in (3, 5, 50)
        for seed in range(3)]
    crossed = 0
    for mesh in meshes:
        order, tree, deltas = _pipeline(mesh)
        exact = hs._ExactPart(tree, hs._Tour.build(tree), deltas)
        got, want = exact.arc_ends(), reference_arc_ends(exact)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
        crossed += np.count_nonzero(got[0]) + np.count_nonzero(got[1])
    assert crossed > 0


def _assert_arc_ends_match_oracle(mesh, bound):
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    top, bottom = rank_arc_end_volumes(mesh, tree)
    total = mesh.volume
    assert np.all(np.abs(volumes.weight_top - top) <= bound * total)
    assert np.all(np.abs(volumes.weight_bottom - bottom) <= bound * total)
    assert deltas.error <= hs.REFUSE_ABOVE * total
    weights = volume_weights(volumes, total)
    oracle = ArcWeights(top, total - bottom, total, weights.tie)
    assert branch_list(decompose(tree, weights)) == \
        branch_list(decompose(tree, oracle))
    return deltas


def test_tied_fields_arc_ends_match_rank_oracle():
    # zero-width pieces carry their value and flat tets count on the side
    # of their top-ranked corner, so a cut between tied corners reads the
    # region's volume
    for k, seed in ((4, 3), (50, 5)):
        mesh = grid_to_tets((8, 8, 8), np.random.default_rng(
            seed).integers(0, k, size=512).astype(float))
        _assert_arc_ends_match_oracle(mesh, 1e-12)


def test_smooth_fields_arc_ends_match_rank_oracle():
    # Gaussian tails give narrow pieces far from h = 0, whose telescoped
    # rows would leave residues of 1e10 T: these meshes need the exact set
    spatial = pytest.importorskip("scipy.spatial")
    points = np.random.default_rng(3).uniform(size=(5000, 3))
    tets = spatial.Delaunay(points).simplices
    centres = np.array([[0.3, 0.5, 0.5], [0.7, 0.5, 0.5]])
    field = sum(np.exp(-20 * np.sum((points - c) ** 2, axis=1))
                for c in centres)
    meshes = [
        gaussian_grid_mesh(11, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                           [1.0, 0.6], width=40.0),
        gaussian_grid_mesh(16, centres, [1.0, 1.0], width=20.0),
        TetMesh.create(points, field, tets),
    ]
    for mesh in meshes:
        deltas = _assert_arc_ends_match_oracle(mesh, 1e-9)
        assert 0 < len(deltas.exact) < mesh.tet_count


def test_volumes_inside_arcs_match_region_oracle():
    # inside an arc the crossed exact-set tets are found on demand
    mesh = gaussian_grid_mesh(9, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                              [1.0, 0.6], width=40.0)
    order, tree, deltas = _pipeline(mesh)
    assert len(deltas.exact) > 0
    errors, refs = region_volume_errors(
        mesh, tree, sweep_volumes(tree, deltas), (0.2, 0.5, 0.8))
    assert np.max(errors) <= 1e-9 * mesh.volume


def _full_scan(exact, arc, h):
    """The crossed exact-set volume of arc's cut at h, over every
    exact-set tet."""
    tree, tour = exact.tree, exact.tour
    first, last = tree.regular_start[arc:arc + 2]
    regs = tree.regulars[first:last]
    lo, hi, inside = tour.cut(
        arc, np.searchsorted(tree.values[regs], h, side="right"))
    key = tour.key[exact.corners]
    count = ((key >= lo) & (key < hi)).sum(axis=1)
    if not inside:
        count = 4 - count
    crossed = (count > 0) & (count < 4)
    return float(np.sum(local_volume(
        exact.volume[crossed], tree.values[exact.corners[crossed]], h,
        count[crossed])))


def test_crossed_exact_tets_come_from_the_arc_candidates():
    mesh = _three_bumps(14)
    order, tree, deltas = _pipeline(mesh)
    exact = sweep_volumes(tree, deltas).exact
    crossed = 0
    for a in range(tree.superarc_count):
        h_lo, h_hi = tree.arc_value_range(a)
        if h_lo == h_hi:
            continue
        for h in h_lo + (h_hi - h_lo) * np.linspace(0.0, 1.0, 16):
            got = exact(a, h)
            assert got == _full_scan(exact, a, h)
            crossed += got > 0.0
        assert len(exact.candidates(a)) < len(deltas.exact)
    assert crossed > 0


def test_uncertifiable_volumes_are_refused(monkeypatch):
    mesh = gaussian_grid_mesh(9, [(0.5, 0.5, 0.5)], [1.0])
    order = build_vertex_order(mesh)
    error = compute_deltas(mesh, order).error
    monkeypatch.setattr(hs, "REFUSE_ABOVE", 0.5 * error / mesh.volume)
    with pytest.raises(FloatingPointError, match="certified volume error"):
        compute_deltas(mesh, order)
