import dataclasses

import numpy as np
import pytest

from tetcontour import isosurface
from tetcontour.contourtree import build_contour_tree, straddling_arcs
from tetcontour.isosurface import (euler_characteristic,
                                   extract_superarc_contour, label_superarcs,
                                   march_tets, read_obj, write_mtl, write_obj)
from tetcontour.mesh import TetMesh, build_vertex_order, grid_to_tets
from tetcontour.oracle import reference_contour_count

from conftest import (bit_check_meshes, gaussian_grid_mesh,
                      random_grid_mesh, reference_labels,
                      reference_march_tets, reference_write_obj,
                      single_tet_mesh, two_peak_mesh,
                      UNIT_TET_POSITIONS, UNIT_TET_VALUES)


def _tree(mesh):
    order = build_vertex_order(mesh)
    return build_contour_tree(mesh, order)


def test_single_tet_low_cut_is_one_triangle(unit_tet):
    soup = march_tets(unit_tet, 0.5)         # 1-vs-3 split
    assert soup.triangle_count == 1
    assert soup.positions.shape[0] == 3


def test_single_tet_mid_cut_is_quad(unit_tet):
    soup = march_tets(unit_tet, 1.5)         # 2-vs-2 split: quad fan
    assert soup.triangle_count == 2
    assert soup.positions.shape[0] == 4


def test_out_of_range_cut_is_empty(unit_tet):
    assert march_tets(unit_tet, -1.0).triangle_count == 0
    assert march_tets(unit_tet, 9.0).triangle_count == 0


def test_vertex_value_cut_resolves_upward(unit_tet):
    # value <= h counts as below, so h at a vertex value still cuts
    soup = march_tets(unit_tet, 1.0)
    assert soup.triangle_count in (1, 2)


def test_orientation_toward_higher_values(rng):
    for _ in range(30):
        while True:
            pos = rng.uniform(-1, 1, size=(4, 3))
            if abs(np.linalg.det(pos[1:] - pos[0])) > 1e-2:
                break
        vals = rng.uniform(-1, 1, size=4)
        if np.unique(vals).size < 4:
            continue
        mesh = single_tet_mesh(pos, vals)
        grad = np.linalg.solve(pos[1:] - pos[0], vals[1:] - vals[0])
        for h in rng.uniform(vals.min(), vals.max(), size=4):
            soup = march_tets(mesh, h)
            for tri in soup.triangles:
                p = soup.positions[tri]
                normal = np.cross(p[1] - p[0], p[2] - p[0])
                if np.linalg.norm(normal) > 1e-12:
                    assert np.dot(normal, grad) > 0


def test_welding_gives_manifold_edges(rng):
    mesh = random_grid_mesh(rng, dims=(6, 6, 6))
    h = float(np.median(mesh.values))
    soup = march_tets(mesh, h)
    tris = soup.triangles
    edges = np.sort(np.concatenate(
        [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    # interior mesh level sets: every edge shared by at most 2 triangles
    assert counts.max() <= 2


def test_sphere_is_closed_with_euler_two():
    mesh = gaussian_grid_mesh(17, [(0.5, 0.5, 0.5)], [1.0], width=10.0)
    h = 0.5 * float(mesh.values.max())
    soup = march_tets(mesh, h)
    assert soup.triangle_count > 0
    tris = soup.triangles
    edges = np.sort(np.concatenate(
        [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert np.all(counts == 2)               # closed surface
    assert euler_characteristic(soup) == 2


def test_labels_complete_and_count_components(rng):
    for _ in range(3):
        mesh = random_grid_mesh(rng, dims=(6, 6, 6))
        tree = _tree(mesh)
        h = float(np.quantile(mesh.values, 0.4))
        soup = march_tets(mesh, h)
        label_superarcs(mesh, tree, soup, h)
        assert np.all(soup.superarc >= 0)
        assert len(set(soup.superarc.tolist())) == \
            reference_contour_count(mesh, h)
        # every superarc midpoint, the isovalues `ct run` extracts at
        for a in range(tree.superarc_count):
            h = 0.5 * sum(tree.arc_value_range(a))
            soup = march_tets(mesh, h)
            label_superarcs(mesh, tree, soup, h)
            assert np.all(soup.superarc >= 0), (a, h)


def test_monotone_field_filter_is_identity():
    from tetcontour.mesh import grid_to_tets
    mesh = grid_to_tets((3, 3, 3), np.arange(27, dtype=float))
    tree = _tree(mesh)
    h = 13.2
    full = march_tets(mesh, h)
    only = extract_superarc_contour(mesh, tree, 0, h)
    assert only.triangle_count == full.triangle_count


def test_two_peak_filter_isolates_one_component():
    mesh = gaussian_grid_mesh(
        11, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], [1.0, 0.8], width=40.0)
    tree = _tree(mesh)
    h = 0.6 * float(mesh.values.max())       # above the saddle
    assert reference_contour_count(mesh, h) == 2
    soup = march_tets(mesh, h)
    label_superarcs(mesh, tree, soup, h)
    arcs = sorted(set(soup.superarc.tolist()))
    assert len(arcs) == 2
    for arc in arcs:
        part = extract_superarc_contour(mesh, tree, arc, h)
        assert 0 < part.triangle_count < soup.triangle_count
        # one connected component: Euler characteristic of a sphere
        assert euler_characteristic(part) == 2
    total = sum(extract_superarc_contour(mesh, tree, a, h).triangle_count
                for a in arcs)
    assert total == soup.triangle_count


def _noisy_grid(n, seed=1):
    return grid_to_tets((n, n, n), np.random.default_rng(seed).normal(
        size=n ** 3))


def _label_meshes(name):
    if name == "two-bump 16^3":
        return [gaussian_grid_mesh(16, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)],
                                   [1.0, 0.8], width=20.0)]
    if name == "noisy 12^3":
        return [_noisy_grid(12)]
    if name == "delaunay two-bump":
        spatial = pytest.importorskip("scipy.spatial")
        points = np.random.default_rng(0).uniform(size=(2000, 3))
        field = sum(np.exp(-20.0 * ((points[:, 0] - cx) ** 2
                                    + (points[:, 1] - 0.5) ** 2
                                    + (points[:, 2] - 0.5) ** 2))
                    for cx in (0.3, 0.7))
        return [TetMesh.create(points, field,
                               spatial.Delaunay(points).simplices)]
    return [grid_to_tets((8, 8, 8), np.random.default_rng(seed).integers(
        0, 4, size=512).astype(float)) for seed in range(10)]


@pytest.mark.parametrize("name", ["two-bump 16^3", "noisy 12^3",
                                  "delaunay two-bump", "integer 8^3"])
def test_labels_match_per_triangle_reference(name):
    # the mid value of every superarc that is not flat, where `ct run`
    # extracts, and every supernode value, where a vertex sits at h and
    # counts as below
    for mesh in _label_meshes(name):
        tree = _tree(mesh)
        hs = [0.5 * (lo + hi) for lo, hi in map(
            tree.arc_value_range, range(tree.superarc_count)) if lo < hi]
        hs += np.unique(tree.values[tree.supernodes]).tolist()
        # the noisy grid's 1,083 levels take the reference half a minute;
        # every third keeps both kinds
        for h in hs[::3] if name == "noisy 12^3" else hs:
            soup = march_tets(mesh, h)
            label_superarcs(mesh, tree, soup, h)
            assert np.array_equal(soup.superarc,
                                  reference_labels(tree, soup, h)), h


def test_label_walks_once_per_supernode(monkeypatch):
    mesh = _noisy_grid(12)
    tree = _tree(mesh)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return straddling_arcs(*args, **kwargs)

    monkeypatch.setattr(isosurface, "straddling_arcs", counted)
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        h = float(np.quantile(mesh.values, q))
        soup = march_tets(mesh, h)
        calls.clear()
        label_superarcs(mesh, tree, soup, h)
        assert len(calls) <= tree.supernode_count
        assert len(calls) == len(set(calls))
        # one walk per distinct triangle end would be far more
        assert len(calls) < np.unique(soup.crossing).size


def test_deep_walks_match_reference():
    # a 2,400-vertex ridge of peaks and saddles falling toward its far end:
    # the walk down from its first peak passes every join saddle in turn
    n = 2400
    grid = np.zeros((3, 3, n))                   # x fastest after ravel
    i = np.arange(n)
    grid[1, 1] = np.where(i % 2 == 0, 10.0, 5.0) - 1e-3 * i
    values = grid.ravel() + 1e-6 * np.random.default_rng(0).normal(
        size=grid.size)
    mesh = grid_to_tets((n, 3, 3), values)
    tree = _tree(mesh)
    # thousands of supernodes: deeper than Python's recursion limit
    assert tree.supernode_count > 8000
    soup = march_tets(mesh, 1.0)
    label_superarcs(mesh, tree, soup, 1.0)
    assert np.array_equal(soup.superarc, reference_labels(tree, soup, 1.0))


def test_march_tets_matches_reference_bits(rng):
    # the edge codes min * n + max sort as the (min, max) pairs do, so the
    # welded points come in the same order
    for mesh in bit_check_meshes(rng):
        vals = np.unique(mesh.values)
        for h in (0.5 * (vals[0] + vals[-1]), vals[vals.size // 2 - 1]):
            soup = march_tets(mesh, h)
            positions, triangles = reference_march_tets(mesh, h)
            assert soup.triangle_count > 0
            assert np.array_equal(soup.positions, positions)
            assert np.array_equal(np.signbit(soup.positions),
                                  np.signbit(positions))
            assert np.array_equal(soup.triangles, triangles)


def test_obj_round_trip(tmp_path, rng):
    mesh = random_grid_mesh(rng, dims=(4, 4, 4))
    soup = march_tets(mesh, float(np.median(mesh.values)))
    path = tmp_path / "out.obj"
    write_obj(path, soup, group="superarc_0", material="branch_0",
              mtllib="branches.mtl")
    pos, tris = read_obj(path)
    np.testing.assert_array_equal(pos, soup.positions)
    np.testing.assert_array_equal(tris, soup.triangles)
    text = path.read_text()
    assert text.startswith("mtllib branches.mtl\ng superarc_0\n")


def test_empty_soup_writes_valid_file(tmp_path, unit_tet):
    soup = march_tets(unit_tet, -5.0)
    path = tmp_path / "empty.obj"
    write_obj(path, soup)
    pos, tris = read_obj(path)
    assert pos.shape == (0, 3)
    assert tris.shape == (0, 3)


@pytest.mark.parametrize("labels", [
    {}, {"group": "superarc_3", "material": "branch_1",
         "mtllib": "branches.mtl"}])
def test_write_obj_matches_reference_bytes(tmp_path, rng, labels):
    coords = np.concatenate([
        rng.normal(size=30), -rng.uniform(size=12) * 1e-3,
        [5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0, 1.0, -7.0, 3.0e6],
        rng.integers(-50, 50, size=6) * 1.0])
    soup = march_tets(random_grid_mesh(rng, dims=(4, 4, 4)), 0.0)
    soups = [
        dataclasses.replace(soup, positions=coords.reshape(-1, 3),
                            triangles=rng.integers(0, 19, size=(25, 3))),
        soup,
        march_tets(random_grid_mesh(rng, dims=(3, 3, 3)), -99.0),  # empty
    ]
    for i, s in enumerate(soups):
        path, ref = tmp_path / f"{i}.obj", tmp_path / f"{i}.ref.obj"
        write_obj(path, s, **labels)
        reference_write_obj(ref, s, **labels)
        assert path.read_bytes() == ref.read_bytes()
    assert soups[-1].triangle_count == 0


def test_write_mtl(tmp_path):
    path = tmp_path / "m.mtl"
    write_mtl(path, [("branch_0", (1.0, 0.0, 0.0))])
    assert "newmtl branch_0" in path.read_text()
