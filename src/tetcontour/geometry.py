"""Per-tetrahedron interval-volume splines.

For a tet with linearly interpolated vertex values, the cumulative volume
of {f <= h} inside the tet is a three-piece cubic in h. With the vertices
relabeled A,B,C,D in ascending value order, the pieces cover [h_A,h_B]
(growing corner tetrahedron at A), [h_B,h_C] (cross-section is a quad whose
corners move linearly along the four cut edges), and [h_C,h_D] (shrinking
corner tetrahedron at D). The middle piece integrates the quadratic
cross-section area against the constant inverse gradient magnitude of the
interpolant, with the constant of integration pinned by continuity at h_B.

All polynomials are kept in unnormalized standard form a*h^3+b*h^2+c*h+d so
that coefficient vectors from different tets can be summed directly.
PiecewiseCubic evaluates a tet's V(h), and each superarc's swept volume as
hypersweep.SuperarcVolume.

batch_spline_coefficients, the one implementation of this math, works row by
row over many tets, so a tet's bits never depend on the batch it is in; its
cross and triple products are mesh's, and VertexOrder.sort_tets orders corners.
Checks come from the clipping oracles in oracle.py, not a second derivation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TetMesh, VertexOrder, _cross, _triple


def horner(rows, h):
    """Standard-form rows [a, b, c, d] evaluated at h."""
    return ((rows[..., 0] * h + rows[..., 1]) * h + rows[..., 2]) * h \
        + rows[..., 3]


@dataclass(frozen=True)
class PiecewiseCubic:
    """Piecewise cubic V(h): breakpoints (k,) ascending, segments (k + 1, 4)
    standard-form rows [a, b, c, d], segment j valid on [breakpoints[j-1],
    breakpoints[j]), the first and last open-ended. Segments of zero numeric
    width are never selected, making V right-continuous at shared values.
    """

    breakpoints: np.ndarray
    segments: np.ndarray

    def __call__(self, h):
        h = np.asarray(h, dtype=np.float64)
        out = horner(self.segments[
            np.searchsorted(self.breakpoints, h, side="right")], h)
        return out if out.ndim else float(out)


def build_tet_spline(mesh: TetMesh, tet_index: int,
                     order: VertexOrder) -> PiecewiseCubic:
    """The batch kernel on a batch of one: breakpoints (h_A, h_B, h_C, h_D),
    segments 0, the three pieces and the constant tet volume."""
    verts = order.sort_tets(mesh.tets[tet_index])
    values = mesh.values[verts]
    p1, p2, p3, total = batch_spline_coefficients(
        mesh.positions[verts][None], values[None])
    return PiecewiseCubic(values, np.concatenate(
        [np.zeros((1, 4)), p1, p2, p3, [[0.0, 0.0, 0.0, total[0]]]]))


def _ratio(num, den, ok):
    """num / den where ok, else 0, never dividing by a masked-out den."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def _corner_cubic(volume, h0, width):
    """volume * ((h - h0) / width)^3 as standard-form rows; rows of zero
    width are all zero."""
    ok = width > 0.0
    k = _ratio(volume, width ** 3, ok)
    rows = np.stack([k, -3.0 * h0 * k, 3.0 * h0 * h0 * k, -h0 ** 3 * k],
                    axis=1)
    rows[~ok] = 0.0
    return rows


def batch_spline_coefficients(positions, values):
    """Vectorized spline coefficients for many pre-sorted tets.

    positions: (m, 4, 3) with each tet's vertices already in ascending
    rank order; values: (m, 4) matching. Returns (p1, p2, p3, total) where
    the p_i are (m, 4) standard-form rows and total is (m,) tet volumes.
    Pieces of zero numeric width come back as all-zero rows; per-tet
    telescoping (deltas summing to the constant total) is unaffected.
    """
    positions = np.asarray(positions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    m = positions.shape[0]
    pa, pb, pc, pd = (positions[:, i] for i in range(4))
    ha, hb, hc, hd = (values[:, i] for i in range(4))

    edges = positions[:, 1:] - positions[:, :1]
    total = np.abs(_triple(edges[:, 0], edges[:, 1], edges[:, 2])) / 6.0

    def cut(p0, p1, v0, v1, h):
        span = v1 - v0
        t = _ratio(h - v0, span, span != 0.0)
        return p0 + t[:, None] * (p1 - p0)

    # lower contour triangle BEF at h_B, upper triangle CGH at h_C
    e = cut(pa, pd, ha, hd, hb)
    f = cut(pa, pc, ha, hc, hb)
    g = cut(pa, pd, ha, hd, hc)
    hh = cut(pb, pd, hb, hd, hc)

    vol_abef = np.abs(_triple(pb - pa, e - pa, f - pa)) / 6.0
    vol_dcgh = np.abs(_triple(pc - pd, g - pd, hh - pd)) / 6.0

    # gradient of the linear interpolant; degenerate (constant) tets get 0
    nondeg = hd > ha
    grad = np.zeros((m, 3))
    if np.any(nondeg):
        rhs = (values[:, 1:] - values[:, :1])[nondeg, :, None]
        grad[nondeg] = np.linalg.solve(edges[nondeg], rhs)[:, :, 0]
    gmag = np.linalg.norm(grad, axis=1)

    # growing corner ABEF, and total minus the shrinking corner DCGH
    p1 = _corner_cubic(vol_abef, ha, hb - ha)
    p3 = _corner_cubic(vol_dcgh, hd, hd - hc)
    high_ok = hd > hc
    p3[high_ok, 3] += total[high_ok]

    # middle piece: the quad's corners move linearly along the cut edges
    # (AD: E->G, AC: F->C, BC: B->C, BD: B->H) as X_i(h) = U_i h + W_i;
    # the shoelace area 0.5 * n . sum_i X_i x X_{i+1} about the gradient
    # direction n expands exactly to a quadratic alpha h^2 + beta h + gamma
    w2 = hc - hb
    mid_ok = w2 > 0.0
    inv_w2 = _ratio(1.0, w2, mid_ok)[:, None]
    u = [(q - p) * inv_w2 for p, q in ((e, g), (f, pc), (pb, pc), (pb, hh))]
    w = [p - ui * hb[:, None] for p, ui in zip((e, f, pb, pb), u)]
    s2 = s1 = s0 = 0.0      # from 0.0 in corner order: this fixes the bits
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        s2 = s2 + _cross(u[i], u[j])
        s1 = s1 + (_cross(u[i], w[j]) + _cross(w[i], u[j]))
        s0 = s0 + _cross(w[i], w[j])
    normal = grad / np.where(gmag > 0.0, gmag, 1.0)[:, None]
    alpha = 0.5 * np.einsum("ij,ij->i", normal, s2)
    beta = 0.5 * np.einsum("ij,ij->i", normal, s1)
    gamma = 0.5 * np.einsum("ij,ij->i", normal, s0)
    hmid = 0.5 * (hb + hc)
    neg = (alpha * hmid + beta) * hmid + gamma < 0.0
    alpha, beta, gamma = (np.where(neg, -x, x) for x in (alpha, beta, gamma))
    kappa = _ratio(1.0, gmag, gmag > 0.0)
    p2 = np.empty((m, 4))
    p2[:, 0] = alpha * kappa / 3.0
    p2[:, 1] = beta * kappa / 2.0
    p2[:, 2] = gamma * kappa
    p2[:, 3] = vol_abef - ((p2[:, 0] * hb + p2[:, 1]) * hb + p2[:, 2]) * hb
    p2[~mid_ok] = 0.0
    return p1, p2, p3, total
