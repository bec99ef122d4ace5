import numpy as np
import pytest

from tetcontour.mesh import build_vertex_order
from tetcontour.contourtree import build_contour_tree
from tetcontour.oracle import (clip_area, clip_polytope, clip_volume,
                               random_tet, reference_contour_count,
                               region_volume)

from conftest import UNIT_TET_POSITIONS, UNIT_TET_VALUES, gaussian_grid_mesh


def test_clip_volume_trivial_bounds(unit_tet):
    pos, vals = unit_tet.positions, unit_tet.values
    assert clip_volume(pos, vals, -1.0) == 0.0
    assert clip_volume(pos, vals, 10.0) == pytest.approx(1.0 / 6.0)


def test_clip_volume_hand_value():
    # below h=1 the region is tet ABEF with E=(0,0,1/3), F=(0,1/2,0)
    got = clip_volume(UNIT_TET_POSITIONS, UNIT_TET_VALUES, 1.0)
    assert got == pytest.approx(1.0 / 36.0, rel=1e-12)


def test_clip_polytope_vertex_counts(rng):
    for _ in range(50):
        pos, vals = random_tet(rng)
        h = rng.uniform(vals.min(), vals.max())
        faces = clip_polytope(pos, vals, h)
        if not faces:
            continue
        flat = np.concatenate(faces)
        uniq = np.unique(np.round(flat, 9), axis=0)
        assert 4 <= len(uniq) <= 7


def test_clip_volume_monotone_continuous(rng):
    for _ in range(30):
        pos, vals = random_tet(rng)
        hs = np.linspace(vals.min(), vals.max(), 40)
        vols = np.array([clip_volume(pos, vals, h) for h in hs])
        assert np.all(np.diff(vols) >= -1e-12)
        total = abs(np.linalg.det(pos[1:] - pos[0])) / 6.0
        step = hs[1] - hs[0]
        # continuity: no jump larger than a Lipschitz-style bound
        assert np.all(np.diff(vols) <= total * step * 50 / (hs[-1] - hs[0]))


def test_clip_complementarity(rng):
    for _ in range(30):
        pos, vals = random_tet(rng)
        total = abs(np.linalg.det(pos[1:] - pos[0])) / 6.0
        for h in rng.uniform(vals.min(), vals.max(), size=4):
            low = clip_volume(pos, vals, h)
            high = clip_volume(pos, -vals, -h)
            assert low + high == pytest.approx(total, rel=1e-12)


def test_clip_area_triangle_case():
    # h in the low range cuts a triangle similar to BEF
    area_half = clip_area(UNIT_TET_POSITIONS, UNIT_TET_VALUES, 0.5)
    area_full = clip_area(UNIT_TET_POSITIONS, UNIT_TET_VALUES, 1.0)
    assert area_half == pytest.approx(area_full / 4.0, rel=1e-12)


def test_region_volume_whole_tree_is_total(rng):
    mesh = gaussian_grid_mesh(5, [(0.3, 0.5, 0.5)], [1.0])
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    # cutting the root arc just under the global maximum captures all
    root_arc = int(tree.arc_of[tree.supernodes[tree.preorder[0]]])
    h = tree.supernode_value(tree.preorder[0]) - 1e-9
    got = region_volume(mesh, tree, root_arc, h)
    assert got == pytest.approx(mesh.volume, rel=1e-6)


def test_reference_contour_count_two_bumps():
    mesh = gaussian_grid_mesh(
        9, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], [1.0, 0.8], width=40.0)
    vmax = mesh.values.max()
    assert reference_contour_count(mesh, 0.6 * vmax) == 2
    assert reference_contour_count(mesh, 1.1 * vmax) == 0
