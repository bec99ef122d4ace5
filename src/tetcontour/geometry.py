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

batch_spline_coefficients is the one implementation of this math, vectorized
over many tets; build_tet_spline runs it on a single tet. Independent checks
come from the clipping oracles in oracle.py, not from a second derivation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TetMesh, VertexOrder


def sort_tet_vertices(tet, order: VertexOrder) -> np.ndarray:
    """Relabel a 4-tuple of vertex indices so global ranks strictly ascend."""
    tet = np.asarray(tet, dtype=np.int64)
    return tet[np.argsort(order.rank[tet], kind="stable")]


def horner(rows, h):
    """Standard-form rows [a, b, c, d] evaluated at h."""
    return ((rows[..., 0] * h + rows[..., 1]) * h + rows[..., 2]) * h \
        + rows[..., 3]


@dataclass(frozen=True)
class TetSpline:
    """Piecewise cubic cumulative volume V(h) for one tet.

    breakpoints are (h_A, h_B, h_C, h_D); pieces[i] is the standard-form
    coefficient row valid on [breakpoints[i], breakpoints[i+1]). Outside the
    support V clamps to 0 below and total_volume above; pieces of zero
    numeric width are skipped, making V right-continuous at shared values.
    """

    breakpoints: np.ndarray     # (4,)
    pieces: np.ndarray          # (3, 4) rows [a, b, c, d]
    total_volume: float

    def __call__(self, h):
        h = np.asarray(h, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.breakpoints, h, side="right") - 1,
                      0, 2)
        out = horner(self.pieces[idx], h)
        out = np.where(h < self.breakpoints[0], 0.0, out)
        out = np.where(h >= self.breakpoints[3], self.total_volume, out)
        return out if out.ndim else float(out)


def build_tet_spline(mesh: TetMesh, tet_index: int,
                     order: VertexOrder) -> TetSpline:
    """The spline of one tet: the batch kernel applied to a batch of one."""
    verts = sort_tet_vertices(mesh.tets[tet_index], order)
    values = mesh.values[verts]
    p1, p2, p3, total = batch_spline_coefficients(
        mesh.positions[verts][None], values[None])
    return TetSpline(values, np.concatenate([p1, p2, p3]),
                     float(total[0]))


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
    det = np.einsum("ij,ij->i", edges[:, 0],
                    np.cross(edges[:, 1], edges[:, 2]))
    total = np.abs(det) / 6.0

    def cut(p0, p1, v0, v1, h):
        span = v1 - v0
        t = _ratio(h - v0, span, span != 0.0)
        return p0 + t[:, None] * (p1 - p0)

    # lower contour triangle BEF at h_B, upper triangle CGH at h_C
    e = cut(pa, pd, ha, hd, hb)
    f = cut(pa, pc, ha, hc, hb)
    g = cut(pa, pd, ha, hd, hc)
    hh = cut(pb, pd, hb, hd, hc)

    vol_abef = np.abs(np.einsum("ij,ij->i", pb - pa,
                                np.cross(e - pa, f - pa))) / 6.0
    vol_dcgh = np.abs(np.einsum("ij,ij->i", pc - pd,
                                np.cross(g - pd, hh - pd))) / 6.0

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
    starts = np.stack([e, f, pb, pb], axis=1)        # (m, 4, 3)
    ends = np.stack([g, pc, pc, hh], axis=1)
    u = (ends - starts) * _ratio(1.0, w2, mid_ok)[:, None, None]
    w = starts - u * hb[:, None, None]
    u_next = np.roll(u, -1, axis=1)
    w_next = np.roll(w, -1, axis=1)
    s2 = np.sum(np.cross(u, u_next), axis=1)
    s1 = np.sum(np.cross(u, w_next) + np.cross(w, u_next), axis=1)
    s0 = np.sum(np.cross(w, w_next), axis=1)
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
