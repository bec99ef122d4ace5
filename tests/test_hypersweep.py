import tracemalloc

import numpy as np
import pytest

import tetcontour.hypersweep as hs
from tetcontour.contourtree import build_contour_tree
from tetcontour.geometry import batch_spline_coefficients
from tetcontour.hypersweep import (below_arc_sums, compute_deltas,
                                   count_weights, sweep_volumes,
                                   volume_weights)
from tetcontour.mesh import TetMesh, build_vertex_order, grid_to_tets
from tetcontour.oracle import contour_count_mismatches, region_volume_errors

from conftest import (bit_check_meshes, gaussian_grid_mesh, random_grid_mesh,
                      reference_below_arc_sums, two_peak_mesh)


def _pipeline(mesh):
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    deltas = compute_deltas(mesh, order)
    return order, tree, deltas


def test_deltas_telescope_to_total(rng):
    for _ in range(5):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        order = build_vertex_order(mesh)
        deltas = compute_deltas(mesh, order)
        total = mesh.volume
        summed = deltas.sum(axis=0)
        assert abs(summed[3] - total) <= 1e-9 * total
        assert np.all(np.abs(summed[:3]) <= 1e-9 * total)


def test_deltas_independent_of_thread_count(rng):
    mesh = random_grid_mesh(rng, dims=(9, 9, 9))
    order = build_vertex_order(mesh)
    base = compute_deltas(mesh, order, threads=1)
    # shrink the chunk size so the mesh spans many chunks
    original = hs._CHUNK
    hs._CHUNK = 512
    try:
        single = compute_deltas(mesh, order, threads=1)
        threaded = compute_deltas(mesh, order, threads=4)
    finally:
        hs._CHUNK = original
    np.testing.assert_array_equal(base, single)
    np.testing.assert_array_equal(base, threaded)

    # at the default chunk size: 13,182 tets span two chunks
    mesh = random_grid_mesh(rng, dims=(14, 14, 14))
    order = build_vertex_order(mesh)
    ref = _reference_deltas(mesh, order)
    for threads in (1, 2, 4):
        np.testing.assert_array_equal(
            compute_deltas(mesh, order, threads=threads), ref)


def test_deltas_peak_memory():
    mesh = gaussian_grid_mesh(24, [(0.3, 0.4, 0.5), (0.7, 0.5, 0.4)],
                              [1.0, 0.8])
    assert mesh.tet_count == 73_002
    order = build_vertex_order(mesh)
    tracemalloc.start()
    try:
        compute_deltas(mesh, order, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


def test_deltas_peak_memory_independent_of_tet_count():
    # staging every row of the mesh before summing takes over 90 MB here;
    # blocks streamed into the per-vertex sums peak near 21 MB, the sums
    # and a few blocks in flight, however many tets there are
    mesh = grid_to_tets((40, 40, 40),
                        np.random.default_rng(1).normal(size=40 ** 3))
    assert mesh.tet_count == 355_914
    order = build_vertex_order(mesh)
    tracemalloc.start()
    try:
        compute_deltas(mesh, order, threads=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _reference_deltas(mesh, order):
    """compute_deltas as one kernel call over every tet and a scalar
    Neumaier sum per vertex that adds the vertex's rows in tet order."""
    cols = np.argsort(order.rank[mesh.tets], axis=1, kind="stable")
    sorted_tets = np.take_along_axis(mesh.tets, cols, axis=1)
    p1, p2, p3, total = batch_spline_coefficients(
        mesh.positions[sorted_tets], mesh.values[sorted_tets])
    rows = np.stack([p1, p2 - p1, p3 - p2, -p3], axis=1)
    rows[:, 3, 3] += total
    sums = [[0.0] * 4 for _ in range(mesh.vertex_count)]
    comps = [[0.0] * 4 for _ in range(mesh.vertex_count)]
    for v, row in zip(sorted_tets.ravel().tolist(),
                      rows.reshape(-1, 4).tolist()):
        for j, x in enumerate(row):
            s = sums[v][j]
            t = s + x
            comps[v][j] += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
            sums[v][j] = t
    return np.array(sums) + np.array(comps)


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
    # mirror-symmetric bumps: values tied to within an ulp give some
    # vertices rows of +-2.6e13 from tets in two blocks, and only there do
    # the sums' bits change when the blocks are added in another order
    meshes.append(gaussian_grid_mesh(16, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                                     [1.0, 1.0], width=20.0))
    for mesh in meshes:
        order = build_vertex_order(mesh)
        ref = _reference_deltas(mesh, order)
        for threads in (1, 2, 4):
            got = compute_deltas(mesh, order, threads=threads)
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))


def test_superarc_volumes_match_region_oracle(rng):
    worst = 0.0
    for _ in range(3):
        mesh = random_grid_mesh(rng, dims=(5, 5, 5))
        order, tree, deltas = _pipeline(mesh)
        errors, refs = region_volume_errors(
            mesh, tree, sweep_volumes(tree, deltas), (0.2, 0.5, 0.8))
        worst = max(worst, np.max(errors / np.maximum(refs, 1e-12)))
    assert worst <= 1e-8


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
        volumes = [sv for sv in sweep_volumes(tree, deltas)
                   if sv.h_lo < sv.h_hi]
        assert len(volumes) >= 5
        floor = 64.0 * np.finfo(float).eps * mesh.volume
        errors, refs = region_volume_errors(mesh, tree, volumes,
                                            np.linspace(0.1, 0.9, 8))
        worst = np.max(np.maximum(errors - floor, 0.0)
                       / np.maximum(refs, 1e-12))
        assert worst <= 1e-8


def test_volume_function_continuous_at_breakpoints(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    order, tree, deltas = _pipeline(mesh)
    total = mesh.volume
    for sv in sweep_volumes(tree, deltas):
        for j, bp in enumerate(sv.breakpoints):
            left = np.polyval(sv.segments[j], bp)
            right = np.polyval(sv.segments[j + 1], bp)
            assert abs(right - left) <= 1e-10 * total


def test_volume_function_monotone_in_h(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    for sv in sweep_volumes(tree, deltas):
        hs = np.linspace(sv.h_lo, sv.h_hi, 64)
        v = sv(hs)
        assert np.all(np.diff(v) >= -1e-9 * mesh.volume)


def test_weight_endpoints_bracket_the_interval(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    total = mesh.volume
    for sv in sweep_volumes(tree, deltas):
        assert -1e-9 * total <= sv.weight_bottom <= sv.weight_top
        assert sv.weight_top <= total * (1 + 1e-9)


def test_root_arc_sweeps_everything(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    root_arc = int(tree.arc_of[tree.supernodes[tree.root]])
    assert volumes[root_arc].weight_top == pytest.approx(
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
    regions = [total - sv.weight_bottom for sv in volumes]
    assert sum(regions) == pytest.approx(total, rel=1e-9)
    errors, refs = region_volume_errors(mesh, tree, volumes, (0.3, 0.7))
    assert np.max(errors / np.maximum(refs, 1e-12)) <= 1e-8


def test_below_arc_sums_match_reference_bits(rng):
    # each parent adds its children in ascending arc id, as the reference's
    # post-order does, so every sum keeps its bits
    for mesh in bit_check_meshes(rng):
        order, tree, deltas = _pipeline(mesh)
        for per_vertex in (deltas, np.ones(mesh.vertex_count)):
            got = below_arc_sums(tree, per_vertex)
            want = reference_below_arc_sums(tree, per_vertex)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))
