import numpy as np
import pytest

from tetcontour.contourtree import build_contour_tree
from tetcontour.decomposition import _heaviest, decompose
from tetcontour.hypersweep import (compute_deltas, count_weights,
                                   sweep_volumes, volume_weights)
from tetcontour.mesh import build_vertex_order, grid_to_tets

from conftest import (gaussian_grid_mesh, random_grid_mesh,
                      reference_rank_order, two_peak_mesh)


def _both_weightings(mesh):
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    volumes = sweep_volumes(tree, compute_deltas(mesh, order))
    return tree, (volume_weights(volumes, mesh.volume),
                  count_weights(tree))


def test_branch_invariants(rng):
    for _ in range(5):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        tree, weightings = _both_weightings(mesh)
        sn_rank = build_vertex_order(mesh).rank[tree.supernodes]
        for weights in weightings:
            branches = decompose(tree, weights)
            seen = np.zeros(tree.superarc_count, dtype=int)
            for b in branches:
                for a in b.superarcs:
                    seen[a] += 1
                # arcs chain into a value-monotone path
                chain = [tuple(tree.superarcs[a]) for a in b.superarcs]
                for (_, h1), (l2, _) in zip(chain, chain[1:]):
                    assert h1 == l2
                assert sn_rank[b.lower_supernode] < sn_rank[b.upper_supernode]
            assert np.all(seen == 1)           # partition of the superarcs
            assert [b.rank for b in branches] == list(range(len(branches)))


def test_master_branch_properties(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    tree, weightings = _both_weightings(mesh)
    for weights in weightings:
        branches = decompose(tree, weights)
        master = branches[0]
        assert master.rank == 0
        assert master.weight == weights.total
        assert master.attachment_supernode == -1
        assert master.parent == -1


def test_nonmaster_weights_descend_and_attach(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    tree, weightings = _both_weightings(mesh)
    for weights in weightings:
        branches = decompose(tree, weights)
        ws = [b.weight for b in branches[1:]]
        assert all(a >= b for a, b in zip(ws, ws[1:]))
        for b in branches[1:]:
            assert b.attachment_supernode in (b.lower_supernode,
                                              b.upper_supernode)
            assert 0 <= b.parent < len(branches)
            assert b.parent != b.rank
            assert b.weight <= weights.total * (1 + 1e-12)


def test_two_peak_ranking_depends_on_measure():
    """Few large tets on one peak, many tiny tets on the other: volume
    weighting and node-count weighting rank the peaks oppositely."""
    mesh = two_peak_mesh()
    tree, (vol_weights, cnt_weights) = _both_weightings(mesh)

    def peak_kind(tree, branch):
        vertex = tree.supernodes[branch.upper_supernode]
        return "large" if vertex < 13 else "small"   # strip A is 0..12

    by_volume = decompose(tree, vol_weights)
    assert peak_kind(tree, by_volume[0]) == "large"
    assert peak_kind(tree, by_volume[1]) == "small"

    by_count = decompose(tree, cnt_weights)
    assert peak_kind(tree, by_count[0]) == "small"
    assert peak_kind(tree, by_count[1]) == "large"


def test_two_gaussian_field_heavier_bump_wins():
    mesh = gaussian_grid_mesh(
        11, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], [1.0, 0.6], width=40.0)
    tree, (vol_weights, _) = _both_weightings(mesh)
    branches = decompose(tree, vol_weights)
    # the taller, wider bump's maximum belongs to the master branch
    top_value = max(tree.supernode_value(b.upper_supernode)
                    for b in branches)
    assert tree.supernode_value(branches[0].upper_supernode) == top_value


def test_deterministic_across_runs(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    tree, (weights, _) = _both_weightings(mesh)
    first = decompose(tree, weights)
    second = decompose(tree, weights)
    assert [(b.rank, b.weight, b.superarcs) for b in first] == \
           [(b.rank, b.weight, b.superarcs) for b in second]


def _brute_heaviest(ends, weights, k, tie):
    best = []
    for s in range(k):
        arcs = [a for a in range(len(ends)) if ends[a] == s]
        if not arcs:
            best.append(-1)
            continue
        heaviest = max(weights[a] for a in arcs)
        best.append(max(a for a in arcs if weights[a] >= heaviest - tie))
    return best


def test_heaviest_matches_brute_force():
    rng = np.random.default_rng(4)
    tie = 1e-9
    for _ in range(50):
        k = int(rng.integers(1, 12))
        n = int(rng.integers(1, 40))
        # supernodes above the largest end have no arc
        ends = rng.integers(0, max(1, k - 2), size=n)
        # exact ties from few distinct weights, then near ties just inside
        # and just outside tie
        weights = rng.integers(0, 4, size=n).astype(float)
        nudge = rng.integers(0, 5, size=n)
        weights -= np.select([nudge == 1, nudge == 2, nudge == 3],
                             [0.5 * tie, tie, 2.0 * tie], 0.0)
        for t in (0.0, tie):
            assert _heaviest(ends, weights, k, t) == \
                _brute_heaviest(ends, weights, k, t)
    # every arc at one supernode, the lighter within tie and of larger id
    assert _heaviest(np.array([1, 1]), np.array([1.0, 1.0 - 1e-12]), 3,
                     1e-9) == [-1, 1, -1]
    assert _heaviest(np.array([1, 1]), np.array([1.0, 1.0 - 1e-12]), 3,
                     0.0) == [-1, 0, -1]


def test_ranks_match_per_run_reference():
    # tied integer fields give long runs of equal and near-equal weights,
    # noisy grids thousands of branches
    meshes = [grid_to_tets((8, 8, 8), np.random.default_rng(seed).integers(
        0, k, size=512).astype(float)) for k in (3, 5, 50)
        for seed in range(6)]
    meshes += [grid_to_tets((n, n, n), np.random.default_rng(1).normal(
        size=n ** 3)) for n in (16, 32)]
    for mesh in meshes:
        tree, weightings = _both_weightings(mesh)
        for weights in weightings:
            branches = decompose(tree, weights)
            assert reference_rank_order(branches, weights.tie) == list(
                range(len(branches)))
