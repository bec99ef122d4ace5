"""End-to-end acceptance gate: ten numbered criteria, one line each.

Every expected value is either hand-derivable or produced by the
independent brute-force oracles; tolerances are pinned in each test.
"""
import json
import time

import numpy as np
import pytest

from tetcontour.cli import main
from tetcontour.contourtree import build_contour_tree
from tetcontour.decomposition import decompose
from tetcontour.geometry import build_tet_spline
from tetcontour.hypersweep import (compute_deltas, count_weights,
                                   sweep_volumes, volume_weights)
from tetcontour.isosurface import (euler_characteristic,
                                   extract_superarc_contour, label_superarcs,
                                   march_tets)
from tetcontour.mesh import TetMesh, build_vertex_order, grid_to_tets
from tetcontour.oracle import (clip_area, clip_volume, clip_volume_errors,
                               contour_count_mismatches, random_tet,
                               reference_contour_count, region_volume_errors)

from conftest import (coarea_factor, gaussian_grid_mesh, single_tet_mesh,
                      two_peak_mesh)


def _report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[{number:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number}: {name}{tail}"


def _full_tree(mesh):
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    return order, tree


def test_criterion_01_per_tet_spline_vs_clip_oracle():
    for seed, tets in ((42, 1000), (7, 200)):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(tets):
            pos, vals = random_tet(rng)
            mesh = single_tet_mesh(pos, vals)
            spline = build_tet_spline(mesh, 0, build_vertex_order(mesh))
            hs = rng.uniform(vals.min(), vals.max(), size=64)
            errors = clip_volume_errors(pos, vals, hs, spline(hs))
            worst = max(worst, np.max(errors) / spline.segments[-1, 3])
        elapsed = time.perf_counter() - start
        _report(1, f"per-tet spline vs clip oracle, seed {seed}",
                worst <= 1e-9 and elapsed < 10.0,
                f"{tets} tets, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_unit_tet_hand_values(unit_tet):
    spline = build_tet_spline(unit_tet, 0, build_vertex_order(unit_tet))
    ok_hb = abs(spline(1.0) - 1.0 / 36.0) <= 1e-10 / 36.0
    ok_top = abs(spline(3.0) - 1.0 / 6.0) <= 1e-10 / 6.0
    ref = clip_volume(unit_tet.positions, unit_tet.values, 1.5)
    ok_mid = abs(spline(1.5) - ref) <= 1e-10 * ref
    _report(2, "unit-tet mid-range derivation",
            ok_hb and ok_top and ok_mid,
            f"V(1.0)={spline(1.0):.12f}, V(1.5)={spline(1.5):.12f}")


def test_criterion_03_continuity_and_coarea():
    rng = np.random.default_rng(7)
    worst_c0 = 0.0
    worst_fd = 0.0
    checked = 0
    for _ in range(60):
        pos, vals = random_tet(rng)
        mesh = single_tet_mesh(pos, vals)
        spline = build_tet_spline(mesh, 0, build_vertex_order(mesh))
        ha, hb, hc, hd = spline.breakpoints
        total = spline.segments[-1, 3]
        p1, p2, p3 = spline.segments[1:4]
        worst_c0 = max(worst_c0,
                       abs(np.polyval(p1, hb) - np.polyval(p2, hb)) / total,
                       abs(np.polyval(p2, hc) - np.polyval(p3, hc)) / total)
        kappa = coarea_factor(pos, vals)
        for piece, (lo, hi) in enumerate(((ha, hb), (hb, hc), (hc, hd))):
            width = hi - lo
            if width <= 1e-2 * (hd - ha):
                continue
            a, b, c, d = np.abs(spline.segments[1 + piece])
            hm = max(abs(lo), abs(hi))
            term_mag = ((a * hm + b) * hm + c) * hm + d
            for h in np.linspace(lo + 0.03 * width, hi - 0.03 * width, 16):
                h1, h2 = h + 1e-5 * width, h - 1e-5 * width
                fd = (spline(h1) - spline(h2)) / (h1 - h2)
                expected = clip_area(pos, vals, h) * kappa
                # subtract the provable float roundoff floor of the
                # finite difference before judging against 1e-6 relative
                noise = 8.0 * np.finfo(float).eps * term_mag / (h1 - h2)
                err = max(abs(fd - expected) - noise, 0.0)
                worst_fd = max(worst_fd, err / max(abs(expected), 1e-300))
                checked += 1
    _report(3, "C0 continuity and dV/dh = Area*kappa",
            worst_c0 <= 1e-10 and worst_fd <= 1e-6 and checked > 500,
            f"C0 {worst_c0:.2e}, FD {worst_fd:.2e}, {checked} samples")


def test_criterion_04_conservation_on_random_grids():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        vals = rng.normal(size=512)
        mesh = grid_to_tets((8, 8, 8), vals)
        order, tree = _full_tree(mesh)
        volumes = sweep_volumes(tree, compute_deltas(mesh, order))
        root_arc = int(tree.arc_of[tree.supernodes[tree.preorder[0]]])
        total = mesh.volume
        worst = max(worst, abs(volumes.weight_top[root_arc] - total) / total)
    _report(4, "conservation at the global maximum",
            worst <= 1e-9, f"worst rel {worst:.2e}")


def test_criterion_05_straddling_arcs_equal_contour_count():
    rng = np.random.default_rng(13)
    tested = 0
    mismatches = 0
    for _ in range(20):
        vals = rng.normal(size=512)
        mesh = grid_to_tets((8, 8, 8), vals)
        order, tree = _full_tree(mesh)
        sn_vals = tree.values[tree.supernodes]
        hs = []
        while len(hs) < 16:
            h = float(rng.uniform(vals.min(), vals.max()))
            if np.min(np.abs(sn_vals - h)) >= 1e-9:   # skip critical values
                hs.append(h)
        tested += len(hs)
        mismatches += contour_count_mismatches(mesh, tree, hs)
    _report(5, "straddling superarcs == contour components",
            mismatches == 0 and tested == 320,
            f"{tested} thresholds, {mismatches} mismatches")


def test_criterion_06_hypersweep_vs_region_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    meshes = [grid_to_tets((6, 6, 6), rng.normal(size=216)),
              grid_to_tets((6, 6, 6), rng.normal(size=216)),
              two_peak_mesh()]
    for mesh in meshes:
        assert mesh.vertex_count <= 4000
        order, tree = _full_tree(mesh)
        volumes = sweep_volumes(tree, compute_deltas(mesh, order))
        # both sides accumulate float roundoff at the total-volume scale,
        # so tiny regions get an absolute floor there instead of a pure
        # relative test
        floor = 64.0 * np.finfo(float).eps * mesh.volume
        errors, refs = region_volume_errors(mesh, tree, volumes,
                                            np.linspace(0.1, 0.9, 8))
        worst = max(worst, np.max(np.maximum(errors - floor, 0.0)
                                  / np.maximum(refs, 1e-12)))
    _report(6, "superarc volume vs region oracle",
            worst <= 1e-8, f"worst rel {worst:.2e}")


def test_criterion_07_two_peak_ranking():
    mesh = two_peak_mesh()
    order, tree = _full_tree(mesh)
    volumes = sweep_volumes(tree, compute_deltas(mesh, order))

    def peak(branch):
        return "large" if tree.supernodes[branch.upper_supernode] < 13 \
            else "small"

    by_volume = decompose(tree, volume_weights(volumes,
                                               mesh.volume))
    by_count = decompose(tree, count_weights(tree))
    ranks_v = [peak(b) for b in by_volume]
    ranks_c = [peak(b) for b in by_count]
    _report(7, "volume vs node-count peak ranking",
            ranks_v[0] == "large" and ranks_c[0] == "small"
            and ranks_c[1] == "large",
            f"volume {ranks_v}, count {ranks_c}")


def test_criterion_08_isosurface_topology_and_filtering():
    sphere = gaussian_grid_mesh(17, [(0.5, 0.5, 0.5)], [1.0], width=10.0)
    soup = march_tets(sphere, 0.5 * float(sphere.values.max()))
    tris = soup.triangles
    edges = np.sort(np.concatenate(
        [tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    _, edge_count = np.unique(edges, axis=0, return_counts=True)
    closed = bool(np.all(edge_count == 2))
    chi = euler_characteristic(soup)

    two = gaussian_grid_mesh(
        11, [(0.3, 0.5, 0.5), (0.7, 0.5, 0.5)], [1.0, 0.8], width=40.0)
    order, tree = _full_tree(two)
    h = 0.6 * float(two.values.max())
    full = march_tets(two, h)
    label_superarcs(two, tree, full, h)
    arcs = sorted(set(full.superarc.tolist()))
    isolated = (len(arcs) == 2 and reference_contour_count(two, h) == 2)
    for arc in arcs:
        part = extract_superarc_contour(two, tree, arc, h)
        isolated &= 0 < part.triangle_count < full.triangle_count
        isolated &= euler_characteristic(part) == 2   # single closed piece
    _report(8, "closed sphere surface and superarc filtering",
            closed and chi == 2 and isolated,
            f"Euler {chi}, {len(arcs)} filtered components")


def test_criterion_09_thread_determinism(tmp_path):
    n = 9
    x = np.linspace(-1.0, 1.0, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    f = (np.exp(-6 * ((X - 0.4) ** 2 + Y ** 2 + Z ** 2))
         + 0.7 * np.exp(-6 * ((X + 0.4) ** 2 + Y ** 2 + Z ** 2)))
    raw = tmp_path / "field.f64"
    np.transpose(f, (2, 1, 0)).ravel().astype("<f8").tofile(raw)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"threads{threads}"
        code = main(["run", "--dims", str(n), str(n), str(n),
                     "--raw", str(raw), "--threads", threads,
                     "--top", "2", "--out", str(out)])
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("tree.json", "weights.csv", "branches.json"))
    _report(9, "byte-identical output across --threads",
            identical)


def test_criterion_10_desk_scale_performance():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(100_000, 3))
    tets = scipy_spatial.Delaunay(points).simplices
    edges = points[tets[:, 1:]] - points[tets[:, :1]]
    det = np.einsum("ij,ij->i", edges[:, 0],
                    np.cross(edges[:, 1], edges[:, 2]))
    swap = det < 0
    tets[swap] = tets[swap][:, [0, 1, 3, 2]]
    tets = tets[np.abs(det) / 6.0 > 1e-14]     # drop slivers
    vals = (np.exp(-20 * ((points[:, 0] - 0.3) ** 2
                          + (points[:, 1] - 0.5) ** 2
                          + (points[:, 2] - 0.5) ** 2))
            + np.exp(-20 * ((points[:, 0] - 0.7) ** 2
                            + (points[:, 1] - 0.5) ** 2
                            + (points[:, 2] - 0.5) ** 2)))

    start = time.perf_counter()
    mesh = TetMesh.create(points, vals, tets)
    order = build_vertex_order(mesh)
    tree = build_contour_tree(mesh, order)
    volumes = sweep_volumes(tree, compute_deltas(mesh, order))
    weights = volume_weights(volumes, mesh.volume)
    branches = decompose(tree, weights)
    elapsed = time.perf_counter() - start

    # a swept volume: the arc below the global maximum holds the mesh
    root_arc = int(tree.arc_of[tree.supernodes[tree.preorder[0]]])
    sane = (tree.superarc_count >= 2 and len(branches) >= 2
            and abs(volumes.weight_top[root_arc] - mesh.volume)
            <= 1e-9 * mesh.volume)
    _report(10, "100K-vertex pipeline under 60 s",
            elapsed < 60.0 and sane,
            f"{mesh.vertex_count} vertices, {mesh.tet_count} tets, "
            f"{elapsed:.1f}s")
