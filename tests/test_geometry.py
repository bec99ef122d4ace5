import numpy as np
import pytest

from tetcontour.geometry import (batch_spline_coefficients, build_tet_spline,
                                 local_volume)
from tetcontour.mesh import TetMesh, build_vertex_order, tet_volumes
from tetcontour.oracle import (clip_area, clip_volume, clip_volume_errors,
                               random_tet)

from conftest import (coarea_factor, gaussian_grid_mesh,
                      reference_spline_coefficients, single_tet_mesh)


def _spline(mesh):
    return build_tet_spline(mesh, 0, build_vertex_order(mesh))


class TestUnitTetClosedForms:
    """The axis tet with values (0, 1, 2, 3) has hand-computable volumes."""

    def test_low_piece_at_half(self, unit_tet):
        assert _spline(unit_tet)(0.5) == pytest.approx(1.0 / 288.0, rel=1e-12)

    def test_low_piece_at_hb(self, unit_tet):
        # Vol(ABEF) with E=(0,0,1/3), F=(0,1/2,0)
        assert _spline(unit_tet)(1.0) == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_total_at_top(self, unit_tet):
        assert _spline(unit_tet)(3.0) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_mid_piece_matches_oracle(self, unit_tet):
        got = _spline(unit_tet)(1.5)
        ref = clip_volume(unit_tet.positions, unit_tet.values, 1.5)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_high_piece_matches_oracle(self, unit_tet):
        got = _spline(unit_tet)(2.5)
        ref = clip_volume(unit_tet.positions, unit_tet.values, 2.5)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_clamping(self, unit_tet):
        spline = _spline(unit_tet)
        assert spline(-1.0) == 0.0
        assert spline(5.0) == pytest.approx(1.0 / 6.0)


def test_sort_tet_vertices_breaks_value_ties():
    mesh = single_tet_mesh(
        np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]),
        np.array([1.0, 1.0, 0.0, 2.0]))
    order = build_vertex_order(mesh)
    # equal values by index, for one tet and for each row of an array
    assert order.sort_tets(mesh.tets[0]).tolist() == [2, 0, 1, 3]
    assert order.sort_tets(mesh.tets[[0, 0]]).tolist() == [[2, 0, 1, 3]] * 2


def test_random_tets_match_clip_oracle(rng):
    worst = 0.0
    for _ in range(300):
        pos, vals = random_tet(rng)
        mesh = single_tet_mesh(pos, vals)
        spline = _spline(mesh)
        hs = rng.uniform(vals.min(), vals.max(), size=16)
        errors = clip_volume_errors(pos, vals, hs, spline(hs))
        worst = max(worst, np.max(errors) / spline.segments[-1, 3])
    assert worst <= 1e-9


def test_spline_monotone_and_continuous(rng):
    for _ in range(40):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        hs = np.linspace(vals.min(), vals.max(), 200)
        v = spline(hs)
        assert np.all(np.diff(v) >= -1e-12 * spline.segments[-1, 3])
        # continuity at the interior breakpoints
        for h in spline.breakpoints[1:3]:
            lo = spline(h - 1e-12)
            hi = spline(h + 1e-12)
            assert abs(hi - lo) <= 1e-9 * spline.segments[-1, 3]


def test_piece_continuity_exact(rng):
    """Adjacent pieces agree at the shared breakpoint to float accuracy."""
    for _ in range(60):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        ha, hb, hc, hd = spline.breakpoints
        p1, p2, p3 = spline.segments[1:4]
        scale = spline.segments[-1, 3]
        assert abs(np.polyval(p1, ha) - 0.0) <= 1e-10 * scale
        assert abs(np.polyval(p1, hb) - np.polyval(p2, hb)) <= 1e-10 * scale
        assert abs(np.polyval(p2, hc) - np.polyval(p3, hc)) <= 1e-9 * scale
        assert abs(np.polyval(p3, hd) - scale) <= 1e-10 * scale


def test_derivative_is_area_times_coarea(rng):
    """dV/dh == Area(h) / |grad f| inside every piece (finite differences),
    with the area from the clipping oracle."""
    for _ in range(25):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        kappa = coarea_factor(pos, vals)
        ha, hb, hc, hd = spline.breakpoints
        for piece, (lo, hi) in enumerate(((ha, hb), (hb, hc), (hc, hd))):
            width = hi - lo
            if width <= 1e-3:
                continue
            # Horner on the standard form loses ~eps * (term magnitude)
            # per evaluation; dividing by the step amplifies that floor
            a, b, c, d = np.abs(spline.segments[1 + piece])
            hm = max(abs(lo), abs(hi))
            term_mag = ((a * hm + b) * hm + c) * hm + d
            for h in np.linspace(lo + 0.05 * width, hi - 0.05 * width, 16):
                h1 = h + 1e-5 * width
                h2 = h - 1e-5 * width
                fd = (spline(h1) - spline(h2)) / (h1 - h2)
                expected = clip_area(pos, vals, h) * kappa
                noise = 8.0 * np.finfo(float).eps * term_mag / (h1 - h2)
                assert abs(fd - expected) <= 1e-6 * abs(expected) + noise


def test_mid_coefficients_match_quadratic_fit(rng):
    """A Vandermonde fit through 3 exact polygon areas, times the co-area
    factor, recovers the derivative (3a, 2b, c) of the mid-range piece."""
    for _ in range(40):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        hb, hc = spline.breakpoints[1], spline.breakpoints[2]
        if hc - hb <= 1e-3:
            continue
        hs = hb + (hc - hb) * np.array([0.25, 0.5, 0.75])
        areas = [clip_area(pos, vals, h) for h in hs]
        kappa = coarea_factor(pos, vals)
        fit = np.linalg.solve(np.vander(hs, 3), areas) * kappa
        a, b, c, _ = spline.segments[2]
        derivative = [3.0 * a, 2.0 * b, c]
        scale = max(*np.abs(derivative), 1e-30)
        assert np.allclose(fit, derivative, rtol=1e-8, atol=1e-8 * scale)


def test_degenerate_equal_values_give_zero_width_pieces():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    vals = np.array([0.0, 0.0, 1.0, 1.0])      # h_A == h_B, h_C == h_D
    mesh = single_tet_mesh(pos, vals)
    spline = _spline(mesh)
    ref_mid = clip_volume(pos, vals, 0.5)
    assert spline(0.5) == pytest.approx(ref_mid, rel=1e-12)
    assert spline(1.0) == pytest.approx(spline.segments[-1, 3])
    assert spline(0.0 - 1e-15) == 0.0


def _sorted_tet_inputs(mesh):
    order = build_vertex_order(mesh)
    cols = np.argsort(order.rank[mesh.tets], axis=1, kind="stable")
    tets = np.take_along_axis(mesh.tets, cols, axis=1)
    return tet_volumes(mesh.positions, mesh.tets), mesh.values[tets]


def test_kernel_matches_reference_bits(rng):
    spatial = pytest.importorskip("scipy.spatial")
    points = rng.uniform(size=(2000, 3))
    delaunay = TetMesh.create(points, rng.normal(size=2000),
                              spatial.Delaunay(points).simplices)
    m = 20_000
    inputs = [
        _sorted_tet_inputs(gaussian_grid_mesh(12, [(0.3, 0.4, 0.5)], [1.0])),
        _sorted_tet_inputs(delaunay),
        # ties: constant tets and pieces of zero width
        (rng.uniform(size=m),
         np.sort(rng.integers(0, 3, size=(m, 4)), axis=1).astype(float)),
        (rng.uniform(size=m), np.sort(rng.normal(size=(m, 4)), axis=1)),
    ]
    for volume, values in inputs:
        got = batch_spline_coefficients(volume, values)
        want = reference_spline_coefficients(volume, values)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))


def test_zero_width_pieces_carry_their_value():
    # tied corners: p2 of zero width is the constant V(b), p3 of zero width
    # the constant T, and a prefix ending between tied corners reads the
    # volume there, as the clip oracle does
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
    for vals in ([0.0, 1.0, 1.0, 3.0], [0.0, 2.0, 3.0, 3.0],
                 [1.0, 1.0, 1.0, 2.0]):
        vals = np.array(vals)
        total = np.array([1.0 / 6.0])
        p1, p2, p3 = batch_spline_coefficients(total, vals[None])
        for row, h in ((p1, vals[1]), (p2, vals[2]), (p3, vals[3])):
            ref = clip_volume(pos, vals, h)
            assert np.polyval(row[0], h) == pytest.approx(ref, abs=1e-15)
        assert np.array_equal(p3[0, :3] == 0.0, [vals[2] == vals[3]] * 3)


def test_local_volume_matches_clip_oracle(rng):
    # the exact-set form: each piece in its own local variable, picked by
    # how many of the tet's lowest-ranked corners are below the cut
    worst = 0.0
    for _ in range(300):
        pos, vals = random_tet(rng)
        x = np.sort(vals)
        total = abs(np.linalg.det(pos[1:] - pos[0])) / 6.0
        hs = rng.uniform(x[0], x[3], size=16)
        piece = np.searchsorted(x, hs)
        got = local_volume(np.full(16, total), np.tile(x, (16, 1)), hs, piece)
        worst = max(worst, np.max(clip_volume_errors(pos, vals, hs, got))
                    / total)
    assert worst <= 1e-12
    # a flat tet is below the cut only with its top-ranked corner
    assert local_volume(np.ones(3), np.ones((3, 4)), 1.0,
                        np.array([1, 2, 3])).tolist() == [0.0, 0.0, 0.0]
