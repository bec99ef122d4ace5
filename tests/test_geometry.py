import numpy as np
import pytest

from tetcontour.geometry import build_tet_spline, sort_tet_vertices
from tetcontour.mesh import build_vertex_order
from tetcontour.oracle import clip_area, clip_volume

from conftest import coarea_factor, random_tet, single_tet_mesh


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
    sorted_tet = sort_tet_vertices(mesh.tets[0], order)
    assert list(sorted_tet) == [2, 0, 1, 3]   # equal values by index


def test_random_tets_match_clip_oracle(rng):
    worst = 0.0
    for _ in range(300):
        pos, vals = random_tet(rng)
        mesh = single_tet_mesh(pos, vals)
        spline = _spline(mesh)
        for h in rng.uniform(vals.min(), vals.max(), size=16):
            err = abs(spline(h) - clip_volume(pos, vals, h))
            worst = max(worst, err / spline.total_volume)
    assert worst <= 1e-9


def test_spline_monotone_and_continuous(rng):
    for _ in range(40):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        hs = np.linspace(vals.min(), vals.max(), 200)
        v = spline(hs)
        assert np.all(np.diff(v) >= -1e-12 * spline.total_volume)
        # continuity at the interior breakpoints
        for h in spline.breakpoints[1:3]:
            lo = spline(h - 1e-12)
            hi = spline(h + 1e-12)
            assert abs(hi - lo) <= 1e-9 * spline.total_volume


def test_piece_continuity_exact(rng):
    """Adjacent pieces agree at the shared breakpoint to float accuracy."""
    for _ in range(60):
        pos, vals = random_tet(rng)
        spline = _spline(single_tet_mesh(pos, vals))
        ha, hb, hc, hd = spline.breakpoints
        p1, p2, p3 = spline.pieces
        scale = spline.total_volume
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
            a, b, c, d = np.abs(spline.pieces[piece])
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
        a, b, c, _ = spline.pieces[1]
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
    assert spline(1.0) == pytest.approx(spline.total_volume)
    assert spline(0.0 - 1e-15) == 0.0
