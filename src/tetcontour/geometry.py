"""Per-tetrahedron interval-volume splines.

For a tet with linearly interpolated vertex values, the cumulative volume
V(h) of {f <= h} inside the tet is a three-piece cubic in h. With the
vertices relabeled A,B,C,D in ascending rank order, values a <= b <= c <= d
and volume T:

- on [a, b] the region is the corner tetrahedron ABEF, E and F the cuts
  of AD and AC at level h, which grows as T (h-a)^3 / ((b-a)(c-a)(d-a));
- on [c, d] it is the tet minus the corner tetrahedron DCGH, G and H the
  cuts of AD and BD, so V = T - T (d-h)^3 / ((d-a)(d-b)(d-c));
- on [b, c] the cross-section is the quad with corners on AD, AC, BC and
  BD. The paper integrates its area, a quadratic in h (the triangles BEF
  and CGH at the ends and sin phi between the quad's diagonals), against
  the constant inverse gradient magnitude, pinned by continuity at b.

The same cubic follows from the values and T alone: V(h) / T is the
integral of the quadratic B-spline with knots a, b, c, d, because a linear
map of a point drawn uniformly from a simplex has B-spline density (Curry
and Schoenberg, J. Analyse Math. 1966; de Boor, A Practical Guide to
Splines, ch. IX). The B-spline is C^1 at simple knots, so V is C^2 there,
and the middle piece is the cubic Hermite interpolant between the two
corner cubics: piece_terms writes it in Taylor form at b, as V(b), V'(b),
V''(b)/2 and the constant third derivative over 6, each a product of T
and gap ratios, so no term cancels. Acceptance criteria 1-3 check it
against the clipping oracles in oracle.py.

Ties: a zero-width piece is the constant it spans, 0 for p1, V(b) for p2
and T for p3, so a prefix of pieces that ends between tied corners still
reads V there. A flat tet (a == d) counts wholly on the side of its
top-ranked corner; hypersweep sends flat tets to its exact set.

batch_spline_coefficients writes the pieces as standard-form rows
[a, b, c, d] of a*h^3 + b*h^2 + c*h + d, so rows of different tets sum
directly; it works row by row, so a tet's bits never depend on the batch
it is in. PiecewiseCubic evaluates a tet's V(h), and each superarc's swept
volume as hypersweep.SuperarcVolume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import TetMesh, VertexOrder


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
    total = mesh.tet_volume[[tet_index]]
    p1, p2, p3 = batch_spline_coefficients(total, values[None])
    return PiecewiseCubic(values, np.concatenate(
        [np.zeros((1, 4)), p1, p2, p3, [[0.0, 0.0, 0.0, total[0]]]]))


def _ratio(num, den, ok):
    """num / den where ok, else 0, never dividing by a masked-out den."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.divide(num, den, out=np.zeros(ok.shape), where=ok)


def piece_terms(volume, values):
    """The three pieces of many tets from their volumes and sorted values.

    volume: (m,); values: (m, 4) ascending. Returns (k1, mid, k3): p1 is
    k1 (h - a)^3, p3 is T + k3 (h - d)^3, and mid (m, 4) holds the middle
    piece's Taylor terms at b, [V(b), V'(b), V''(b)/2, V'''/6]. A piece of
    zero width gets k = 0 or mid = [V(b), 0, 0, 0]; a flat tet gets zeros.
    """
    a, b, c, d = values.T
    g1, w, g3 = b - a, c - b, d - c
    ca, db, da = c - a, d - b, d - a
    k1 = _ratio(volume, g1 * ca * da, g1 > 0.0)
    k3 = _ratio(volume, g3 * db * da, g3 > 0.0)
    mid = np.empty((values.shape[0], 4))
    mid[:, 0] = _ratio(volume * g1 * g1, ca * da, ca > 0.0)
    curve = _ratio(volume, ca * da, w > 0.0)
    mid[:, 1] = 3.0 * g1 * curve
    mid[:, 2] = 3.0 * curve
    mid[:, 3] = -_ratio(volume * (ca + db), w * ca * db * da, w > 0.0)
    return k1, mid, k3


def _standard_form(s, e0, e1, e2, e3):
    """Rows [a, b, c, d] of e0 + e1 (h-s) + e2 (h-s)^2 + e3 (h-s)^3."""
    return np.stack([e3, e2 - 3.0 * e3 * s,
                     e1 - (2.0 * e2 - 3.0 * e3 * s) * s,
                     e0 - (e1 - (e2 - e3 * s) * s) * s], axis=1)


def batch_spline_coefficients(volume, values):
    """Standard-form rows (p1, p2, p3), each (m, 4), of many tets.

    volume: (m,) tet volumes; values: (m, 4) each tet's values in
    ascending rank order. p3 carries the tet volume T as its constant, so
    p1, p2 - p1, p3 - p2 and T - p3 are the per-corner difference rows.
    """
    values = np.asarray(values, dtype=np.float64)
    a, b, _, d = values.T
    k1, mid, k3 = piece_terms(volume, values)
    zero = np.zeros_like(k1)
    p1 = _standard_form(a, zero, zero, zero, k1)
    p2 = _standard_form(b, *mid.T)
    p3 = _standard_form(d, volume, zero, zero, k3)
    return p1, p2, p3


def local_volume(volume, values, h, piece):
    """V(h) of many tets in local form, on a given piece.

    piece (m,) in 1..3 names the piece h lies on, so that ties resolve by
    rank: piece k is the volume when the tet's k lowest-ranked corners are
    below the cut. A flat tet reads 0, its top corner being above the cut.
    """
    a, b, c, d = values.T
    _, mid, _ = piece_terms(volume, values)
    t = h - b
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        low = volume * ((h - a) / (b - a)) * ((h - a) / (c - a)) \
            * ((h - a) / (d - a))
        middle = mid[:, 0] + t * (mid[:, 1] + t * (mid[:, 2]
                                                   + t * mid[:, 3]))
        high = volume - volume * ((d - h) / (d - c)) * ((d - h) / (d - b)) \
            * ((d - h) / (d - a))
    out = np.where(piece == 1, np.where(b > a, low, 0.0),
                   np.where(piece == 2, middle,
                            np.where(d > c, high, volume)))
    return np.where(d > a, out, 0.0)


def rounding_bound(volume, values, big):
    """Per-tet bound b_t on what rounding a tet's rows leave in a swept
    volume evaluated at any |h| <= big, taking its volume T as exact.

    Let |p| be sum_i |c_i| big^(3-i) over a piece's standard-form row,
    bounded here from its shifted form. Where a cut crosses the tet, the
    piece it reads carries its own rounding: up to 8 roundings in each
    Taylor term and 6 in the change to standard form, g(14) |p|. Where
    the tet lies wholly below, its four difference rows cancel to T up to
    u per coefficient of each, u (2 sum |p| + T) <= 3 u sum |p|. So
    b_t = 20 u sum |p| over the three pieces, u = eps / 2. Flat tets and
    tets whose pieces overflow get infinity.
    """
    a, b, _, d = values.T
    k1, mid, k3 = piece_terms(volume, values)
    with np.errstate(over="ignore", invalid="ignore"):
        # k1 (big + |a|)^3 + T + k3 (big + |d|)^3 + mid_0
        #   + sb (mid_1 + sb (mid_2 + sb |mid_3|)), sb = big + |b|,
        # summed left to right, each term built in place
        norm = np.abs(a)
        norm += big
        norm **= 3
        norm *= k1
        norm += volume
        term = np.abs(d)
        term += big
        term **= 3
        term *= k3
        norm += term
        norm += mid[:, 0]
        sb = np.abs(b)
        sb += big
        np.abs(mid[:, 3], out=term)
        term *= sb
        term += mid[:, 2]
        term *= sb
        term += mid[:, 1]
        term *= sb
        norm += term
        norm *= 10.0 * np.finfo(np.float64).eps
    norm[~(np.isfinite(norm) & (d > a))] = np.inf
    return norm
