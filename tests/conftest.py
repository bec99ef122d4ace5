"""Shared fixtures: reference meshes and fields used across test modules."""
import numpy as np
import pytest

from tetcontour.mesh import TetMesh, grid_to_tets

UNIT_TET_POSITIONS = np.array([[0.0, 0.0, 0.0],
                               [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]])
UNIT_TET_VALUES = np.array([0.0, 1.0, 2.0, 3.0])


def random_tet(rng, min_det=1e-3):
    """Nondegenerate random tet with distinct values."""
    while True:
        pos = rng.uniform(-1.0, 1.0, size=(4, 3))
        if abs(np.linalg.det(pos[1:] - pos[0])) < min_det:
            continue
        vals = rng.uniform(-1.0, 1.0, size=4)
        if np.unique(vals).size == 4:
            return pos, vals


def coarea_factor(pos, vals):
    """1 / |grad f| of the linear interpolant on one tet."""
    grad = np.linalg.solve(pos[1:] - pos[0], vals[1:] - vals[0])
    return 1.0 / np.linalg.norm(grad)


def single_tet_mesh(pos, vals):
    return TetMesh.create(pos, vals, np.arange(4)[None, :])


def random_grid_mesh(rng, dims=(8, 8, 8)):
    vals = rng.normal(size=dims[0] * dims[1] * dims[2])
    return grid_to_tets(dims, vals)


def gaussian_grid_mesh(n, centers, amps, width=8.0):
    """Smooth multi-bump field on an n^3 grid over [0, 1]^3."""
    x = np.linspace(0.0, 1.0, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    f = np.zeros_like(X)
    for (cx, cy, cz), a in zip(centers, amps):
        f += a * np.exp(-width * ((X - cx) ** 2 + (Y - cy) ** 2
                                  + (Z - cz) ** 2))
    vals = np.transpose(f, (2, 1, 0)).ravel()   # x-fastest flat layout
    return grid_to_tets((n, n, n), vals, spacing=(1.0 / (n - 1),) * 3)


def helix_strip(n_tets, scale, origin):
    """Tet strip along a helix; consecutive 4-tuples are nondegenerate."""
    k = n_tets + 3
    i = np.arange(k)
    th = 1.7 * i
    pts = np.stack([np.cos(th), np.sin(th), 0.35 * i], axis=1) * scale
    pts += origin
    tets = np.stack([i[:-3], i[1:-2], i[2:-1], i[3:]], axis=1)
    return pts, tets


def two_peak_mesh():
    """Two monotone tet strips sharing their minimum vertex.

    Strip A: 10 large tets rising to the high peak; strip B: 100 tiny
    tets rising to a low peak. Strip A dominates by volume, strip B by
    vertex count, so the two weighting methods rank the peaks oppositely.
    """
    pa, ta = helix_strip(10, 3.0, np.zeros(3))
    pb, tb_local = helix_strip(100, 0.05, np.zeros(3))
    pb = pb - pb[0] + pa[0]
    na = len(pa)
    pos = np.concatenate([pa, pb[1:]])
    tb = tb_local + na - 1
    tb[tb_local == 0] = 0                     # share the first vertex
    tets = np.concatenate([ta, tb])
    vals = np.empty(len(pos))
    vals[:na] = np.arange(na, dtype=float)
    vals[na:] = 0.5 + 0.01 * np.arange(len(pos) - na)
    return TetMesh.create(pos, vals, tets)


@pytest.fixture
def unit_tet():
    return single_tet_mesh(UNIT_TET_POSITIONS, UNIT_TET_VALUES)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
