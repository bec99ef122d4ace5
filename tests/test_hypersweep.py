import numpy as np
import pytest

from tetcontour.contourtree import build_contour_tree
from tetcontour.hypersweep import (compute_deltas, count_regular_nodes,
                                   count_weights, sweep_volumes,
                                   volume_weights)
from tetcontour.mesh import (build_topology_graph, build_vertex_order,
                             grid_to_tets)
from tetcontour.oracle import contour_count_mismatches, region_volume_errors

from conftest import random_grid_mesh, two_peak_mesh


def _pipeline(mesh):
    order = build_vertex_order(mesh)
    tree = build_contour_tree(build_topology_graph(mesh), order, mesh.values)
    deltas = compute_deltas(mesh, order)
    return order, tree, deltas


def test_deltas_telescope_to_total(rng):
    for _ in range(5):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        order = build_vertex_order(mesh)
        deltas = compute_deltas(mesh, order)
        total = mesh.total_volume()
        summed = deltas.sum(axis=0)
        assert abs(summed[3] - total) <= 1e-9 * total
        assert np.all(np.abs(summed[:3]) <= 1e-9 * total)


def test_deltas_independent_of_thread_count(rng):
    mesh = random_grid_mesh(rng, dims=(9, 9, 9))
    order = build_vertex_order(mesh)
    base = compute_deltas(mesh, order, threads=1)
    # shrink the chunk size so the mesh spans many chunks
    import tetcontour.hypersweep as hs
    original = hs._CHUNK
    hs._CHUNK = 512
    try:
        single = compute_deltas(mesh, order, threads=1)
        threaded = compute_deltas(mesh, order, threads=4)
    finally:
        hs._CHUNK = original
    np.testing.assert_array_equal(base, single)
    np.testing.assert_array_equal(base, threaded)


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
        floor = 64.0 * np.finfo(float).eps * mesh.total_volume()
        errors, refs = region_volume_errors(mesh, tree, volumes,
                                            np.linspace(0.1, 0.9, 8))
        worst = np.max(np.maximum(errors - floor, 0.0)
                       / np.maximum(refs, 1e-12))
        assert worst <= 1e-8


def test_volume_function_continuous_at_breakpoints(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    order, tree, deltas = _pipeline(mesh)
    total = mesh.total_volume()
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
        assert np.all(np.diff(v) >= -1e-9 * mesh.total_volume())


def test_weight_endpoints_bracket_the_interval(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    total = mesh.total_volume()
    for sv in sweep_volumes(tree, deltas):
        assert -1e-9 * total <= sv.weight_bottom <= sv.weight_top
        assert sv.weight_top <= total * (1 + 1e-9)


def test_root_arc_sweeps_everything(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    root_arc = int(tree.arc_of[tree.supernodes[tree.root]])
    assert volumes[root_arc].weight_top == pytest.approx(
        mesh.total_volume(), rel=1e-9)


def test_count_nodes_partition(rng):
    for _ in range(4):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        order, tree, _ = _pipeline(mesh)
        counts = count_regular_nodes(tree)
        assert counts.sum() == mesh.vertex_count
        # arcs own their regulars plus canonically assigned supernodes;
        # an arc whose lower supernode belongs to a sibling can own zero
        assert np.all(counts >= 0)
        assert np.all(counts >= [len(r) for r in tree.arc_regulars])


def test_count_weights_mirror_volume_weights_structure(rng):
    mesh = random_grid_mesh(rng, dims=(5, 5, 5))
    order, tree, deltas = _pipeline(mesh)
    volumes = sweep_volumes(tree, deltas)
    vw = volume_weights(volumes, mesh.total_volume())
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
    total = mesh.total_volume()
    # each peak arc at its own bottom (the shared saddle) sweeps the
    # complement of its own region; the two regions partition the mesh
    regions = [total - sv.weight_bottom for sv in volumes]
    assert sum(regions) == pytest.approx(total, rel=1e-9)
    errors, refs = region_volume_errors(mesh, tree, volumes, (0.3, 0.7))
    assert np.max(errors / np.maximum(refs, 1e-12)) <= 1e-8
