"""Seeded inputs for the `ct run` benchmark.

Each workload is generated in the benchmark process from a seed and
written as the files `ct run` reads; the program under test only ever
sees those files. Generation is outside every timed region.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    kind:   "delaunay" (TetGen text input) or "grid" (raw float64 input).
    size:   point count for "delaunay", grid edge length for "grid".
    field:  "bumps" (smooth Gaussian bumps) or "noise" (N(0, 1) per vertex).
    threads: the `ct run --threads` value; a grid run with threads > 1 is
            also compared byte for byte with one `--threads 1` run.
    why:    the reason the workload is in the benchmark.
    second_seed: a seed kept apart from tuning, for a claim to be checked on.
    listed: whether BENCHMARK.json names the workload; every run of a
            listed workload must pass its output checks.
    """

    name: str
    kind: str
    size: int
    field: str
    threads: int
    why: str
    second_seed: int
    listed: bool = True


# Sizes keep one repeat at 3-10 s on 2 CPUs, so that a run of a few tens
# of seconds holds several repeats. noisy-grid keeps the 16^3 grid whose
# seed-1 field shows the unlabeled-triangle defect of label_superarcs. Until
# that defect is fixed its check b fails on half of the seeds, so it is run
# by name (seed 1 reports the defect) and is not listed in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "delaunay-smooth", "delaunay", 24_000, "bumps", 1,
            "irregular Delaunay mesh read from TetGen text: set-up is the "
            "parser, run is graph, join/split/merge and unchunked deltas; "
            "extraction is bypassed",
            second_seed=7),
        Workload(
            "grid-smooth", "grid", 32, "bumps", 2,
            "regular Kuhn grid, cheap binary loader, chunked compute_deltas "
            "on 2 threads; same layers as delaunay-smooth at low vertex "
            "degree",
            second_seed=7),
        Workload(
            "noisy-grid", "grid", 16, "noise", 1,
            "N(0,1) field with ~1,200 supernodes: superarc labeling walks the "
            "tree per triangle and dominates; construction and deltas are "
            "bypassed",
            second_seed=2, listed=False),
    )
}


def two_bump_field(points):
    """The smooth two-bump field of the 100K-vertex acceptance test."""
    def bump(cx):
        return np.exp(-20 * ((points[:, 0] - cx) ** 2
                             + (points[:, 1] - 0.5) ** 2
                             + (points[:, 2] - 0.5) ** 2))
    return bump(0.3) + bump(0.7)


def delaunay_mesh(n_points, seed):
    """Positions, tets and field of a seeded Delaunay mesh of the unit cube.

    Tets are oriented to positive volume and slivers dropped, as in the
    acceptance test that builds the same mesh at 100K points.
    """
    from scipy.spatial import Delaunay

    points = np.random.default_rng(seed).uniform(size=(n_points, 3))
    tets = Delaunay(points).simplices.astype(np.int64)
    edges = points[tets[:, 1:]] - points[tets[:, :1]]
    det = np.einsum("ij,ij->i", edges[:, 0],
                    np.cross(edges[:, 1], edges[:, 2]))
    swap = det < 0
    tets[swap] = tets[swap][:, [0, 1, 3, 2]]
    tets = tets[np.abs(det) / 6.0 > 1e-14]
    return points, tets, two_bump_field(points)


def grid_field(n, field, seed):
    """x-fastest flat values of an n^3 grid over the unit cube.

    "noise" is the N(0, 1) field of default_rng(1), moved by the grid
    symmetry the seed picks (seed 1 is the identity). A noise field's run
    time swings by +-30% from one draw to the next, because the extracted
    branches' isovalues set the labeling cost; a symmetry keeps the contour
    tree, the isovalues and the triangle counts, and still hands the
    program a different input, so every seed measures the same work.
    "bumps" is three Gaussian bumps whose centres move a little with the
    seed, which leaves the cost of every layer unchanged.
    """
    rng = np.random.default_rng(seed)
    if field == "noise":
        base = np.random.default_rng(1).normal(size=n ** 3)
        return kuhn_symmetry(base, n, seed - 1)
    centres = np.array([[0.3, 0.4, 0.5], [0.7, 0.5, 0.4], [0.5, 0.7, 0.7]])
    centres += rng.uniform(-0.05, 0.05, size=centres.shape)
    x = np.linspace(0.0, 1.0, n)
    Z, Y, X = np.meshgrid(x, x, x, indexing="ij")
    f = np.zeros_like(X)
    for (cx, cy, cz), amp in zip(centres, (1.0, 0.8, 0.6)):
        f += amp * np.exp(-10.0 * ((X - cx) ** 2 + (Y - cy) ** 2
                                   + (Z - cz) ** 2))
    return f.ravel()


_AXIS_PERMS = tuple(itertools.permutations(range(3)))


def kuhn_symmetry(values, n, k):
    """Grid values moved by symmetry k mod 12 of the Kuhn-split n^3 grid.

    The Kuhn split is kept by the 6 axis permutations and by the central
    inversion, so the moved field is the same PL function on a relabeled
    mesh. k = 0 is the identity.
    """
    k %= 12
    f = values.reshape(n, n, n).transpose(_AXIS_PERMS[k % 6])
    if k >= 6:
        f = f[::-1, ::-1, ::-1]
    return np.ascontiguousarray(f).ravel()


def write_tetgen(directory: Path, points, tets, values):
    """1-based .node (field in attribute column 0) and .ele files."""
    node = directory / "mesh.node"
    ele = directory / "mesh.ele"
    idx = np.arange(1, points.shape[0] + 1)
    with open(node, "w") as fh:
        fh.write(f"{points.shape[0]} 3 1 0\n")
        fh.writelines(f"{i} {x!r} {y!r} {z!r} {f!r}\n" for i, x, y, z, f in
                      zip(idx.tolist(), *points.T.tolist(), values.tolist()))
    with open(ele, "w") as fh:
        fh.write(f"{tets.shape[0]} 4 0\n")
        fh.writelines(f"{i} {a} {b} {c} {d}\n" for i, (a, b, c, d) in
                      enumerate((tets + 1).tolist(), start=1))
    return ["--node", str(node), "--ele", str(ele), "--field-attr", "0"]


def generate(workload: Workload, seed: int, directory: Path):
    """Write the workload's input files; return (ct run args, mesh arrays).

    The arrays (positions, values, tets) are the benchmark's own copy of
    the input, used by the output checks.
    """
    from tetcontour.mesh import grid_to_tets

    directory.mkdir(parents=True, exist_ok=True)
    if workload.kind == "delaunay":
        points, tets, values = delaunay_mesh(workload.size, seed)
        args = write_tetgen(directory, points, tets, values)
        return args, (points, values, tets)
    n = workload.size
    values = grid_field(n, workload.field, seed)
    raw = directory / "field.f64"
    values.astype("<f8").tofile(raw)
    spacing = 1.0 / (n - 1) if workload.field == "bumps" else 1.0
    mesh = grid_to_tets((n, n, n), values, (spacing,) * 3)
    args = ["--dims", str(n), str(n), str(n), "--raw", str(raw),
            "--spacing", *([repr(spacing)] * 3)]
    return args, (mesh.positions, mesh.values, mesh.tets)
