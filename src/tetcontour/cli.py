"""Command line pipeline: load mesh, build tree, weigh, decompose, extract.

Subcommands: `run` writes tree.json, weights.csv, branches.json and one
OBJ per top-ranked branch; `verify` replays the brute-force oracle suites;
`bench` reports per-stage wall-clock times as CSV. Reruns with the same
inputs produce byte-identical JSON/CSV regardless of --threads.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import decomposition, hypersweep, isosurface, oracle
from .contourtree import ContourTree, build_contour_tree
from .geometry import build_tet_spline, horner
from .mesh import (MeshError, TetMesh, build_topology_graph,
                   build_vertex_order, grid_to_tets, load_raw_grid,
                   load_tetgen)


@dataclass
class PipelineConfig:
    node: str | None = None
    ele: str | None = None
    fld: str | None = None
    field_attr: int | None = None
    dims: tuple | None = None
    raw: str | None = None
    spacing: tuple = (1.0, 1.0, 1.0)
    weights: str = "volume"
    top: int = 3
    isovalues: dict = field(default_factory=dict)
    out: str = "."
    threads: int = 1

    def validate(self):
        tetgen = self.node is not None or self.ele is not None
        grid = self.dims is not None or self.raw is not None
        if tetgen == grid:
            raise ValueError(
                "exactly one input required: --node/--ele or --dims/--raw")
        if tetgen and (self.node is None or self.ele is None):
            raise ValueError("--node and --ele must be given together")
        if grid and (self.dims is None or self.raw is None):
            raise ValueError("--dims and --raw must be given together")
        if self.top < 1:
            raise ValueError("--top must be >= 1")
        if self.threads < 1:
            raise ValueError("--threads must be >= 1")


def _fmt(x: float) -> str:
    return repr(float(x))


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _load(config: PipelineConfig) -> TetMesh:
    if config.node:
        return load_tetgen(config.node, config.ele, field_path=config.fld,
                           field_attr=config.field_attr)
    return load_raw_grid(config.raw, config.dims, config.spacing)


@contextmanager
def _stage(times, name):
    """Record the block's wall time under name; tag its errors with it."""
    start = time.perf_counter()
    try:
        yield
    except MeshError:
        raise                             # the input's fault, not the stage's
    except Exception as exc:              # noqa: BLE001 - tagged re-raise
        raise StageError(name, exc) from exc
    times[name] = time.perf_counter() - start


def _pipeline(config: PipelineConfig):
    """All stages, returning artifacts plus per-stage wall times."""
    times = {}
    with _stage(times, "load"):
        mesh = _load(config)
    with _stage(times, "construction"):
        graph = build_topology_graph(mesh)
        order = build_vertex_order(mesh)
        tree = build_contour_tree(graph, order, mesh.values)
    with _stage(times, "weights"):
        total_volume = mesh.total_volume()
        deltas = hypersweep.compute_deltas(mesh, order,
                                           threads=config.threads)
        volumes = hypersweep.sweep_volumes(tree, deltas)
        if config.weights == "volume":
            weights = hypersweep.volume_weights(volumes, total_volume)
        else:
            weights = hypersweep.count_weights(tree)
    with _stage(times, "branch decomposition"):
        branches = decomposition.decompose(tree, weights)
    return mesh, tree, volumes, weights, branches, total_volume, times


def _branch_extraction(tree: ContourTree, branch, overrides):
    """(superarc, isovalue) a branch's contour is extracted at."""
    if branch.rank == 0 or branch.attachment_supernode < 0:
        lo = tree.supernode_value(branch.lower_supernode)
        hi = tree.supernode_value(branch.upper_supernode)
        h = 0.5 * (lo + hi)
        arc = branch.superarcs[0]
        for a in branch.superarcs:
            alo, ahi = tree.arc_value_range(a)
            if alo <= h <= ahi:
                arc = a
                break
    elif branch.attachment_supernode == branch.upper_supernode:
        arc = branch.superarcs[-1]
    else:
        arc = branch.superarcs[0]
    alo, ahi = tree.arc_value_range(arc)
    h = overrides.get(arc, 0.5 * (alo + ahi))
    if not (min(alo, ahi) <= h <= max(alo, ahi)):
        raise ValueError(
            f"isovalue {h} outside superarc {arc} range [{alo}, {ahi}]")
    return arc, h


def _write_tree_json(path, mesh, tree):
    doc = {
        "schema": 1,
        "vertexCount": int(mesh.vertex_count),
        "tetCount": int(mesh.tet_count),
        "supernodes": [
            {"id": int(i), "vertex": int(tree.supernodes[i]),
             "value": float(tree.values[tree.supernodes[i]])}
            for i in range(tree.supernode_count)],
        "superarcs": [
            {"id": int(a), "lo": int(tree.superarcs[a][0]),
             "hi": int(tree.superarcs[a][1]),
             "regularCount": int(len(tree.arc_regulars[a]))}
            for a in range(tree.superarc_count)],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_weights_csv(path, volumes, weights):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["superarc", "h_lo", "h_hi", "a", "b", "c", "d",
                         "weight"])
        for sv in volumes:
            row = sv.segments[-1]
            writer.writerow([sv.superarc, _fmt(sv.h_lo), _fmt(sv.h_hi),
                             _fmt(row[0]), _fmt(row[1]), _fmt(row[2]),
                             _fmt(row[3]),
                             _fmt(weights.down_weight[sv.superarc])])


def _write_branches_json(path, tree, branches, extractions):
    doc = {
        "schema": 1,
        "branches": [
            {"rank": b.rank, "weight": float(b.weight),
             "parent": int(b.parent),
             "lowerSupernode": int(b.lower_supernode),
             "upperSupernode": int(b.upper_supernode),
             "attachmentSupernode": int(b.attachment_supernode),
             "superarcs": [int(a) for a in b.superarcs],
             "extraction": ({"superarc": int(extractions[b.rank][0]),
                             "isovalue": float(extractions[b.rank][1])}
                            if b.rank in extractions else None)}
            for b in branches],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


_PALETTE = [(0.894, 0.102, 0.110), (0.216, 0.494, 0.722),
            (0.302, 0.686, 0.290), (0.596, 0.306, 0.639),
            (1.000, 0.498, 0.000), (1.000, 1.000, 0.200)]


def cmd_run(config: PipelineConfig) -> int:
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    mesh, tree, volumes, weights, branches, total_volume, times = \
        _pipeline(config)
    # every (superarc, isovalue) is settled before the first file is written
    top = decomposition.top_branches(branches, config.top)
    extractions = {b.rank: _branch_extraction(tree, b, config.isovalues)
                   for b in top}
    for arc in config.isovalues:
        if not 0 <= arc < tree.superarc_count:
            raise ValueError(f"--isovalue names superarc {arc}; the tree "
                             f"has superarcs 0..{tree.superarc_count - 1}")
        if arc not in {a for a, _ in extractions.values()}:
            raise ValueError(f"--isovalue names superarc {arc}, which no "
                             "extracted branch uses")

    with _stage(times, "output"):
        _write_tree_json(out / "tree.json", mesh, tree)
        _write_weights_csv(out / "weights.csv", volumes, weights)
        materials = []
        for b in top:
            arc, h = extractions[b.rank]
            soup = isosurface.extract_superarc_contour(mesh, tree, arc, h)
            name = f"branch_{b.rank}"
            color = _PALETTE[b.rank % len(_PALETTE)]
            materials.append((name, color))
            isosurface.write_obj(out / f"{name}.obj", soup,
                                 group=f"superarc_{arc}", material=name,
                                 mtllib="branches.mtl")
        isosurface.write_mtl(out / "branches.mtl", materials)
        _write_branches_json(out / "branches.json", tree, branches,
                             extractions)

    print(f"vertices {mesh.vertex_count} tets {mesh.tet_count} "
          f"supernodes {tree.supernode_count} "
          f"superarcs {tree.superarc_count}")
    print(f"total volume {_fmt(total_volume)}")
    for name, secs in times.items():
        print(f"time {name} {secs:.3f}s")
    return 0


def cmd_bench(config: PipelineConfig) -> int:
    config.validate()
    *_, times = _pipeline(config)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["stage", "seconds"])
    for name in ("construction", "weights", "branch decomposition"):
        writer.writerow([name, f"{times[name]:.6f}"])
    return 0


def cmd_verify(seed: int, tets: int) -> int:
    if tets < 1:
        raise ValueError("--tets must be >= 1")
    rng = np.random.default_rng(seed)
    failures = []

    def report(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{' ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    # random tets: spline vs clipped-polytope volume
    worst = 0.0
    for _ in range(tets):
        pos, vals = oracle.random_tet(rng)
        mesh = TetMesh.create(pos, vals, np.arange(4)[None, :])
        spline = build_tet_spline(mesh, 0, build_vertex_order(mesh))
        hs = rng.uniform(vals.min(), vals.max(), size=64)
        errors = oracle.clip_volume_errors(pos, vals, hs, spline(hs))
        worst = max(worst, np.max(errors) / spline.total_volume)
    report("spline-vs-clip", worst <= 1e-9, f"worst {worst:.3e}")

    # clip volume: monotone, continuous, complementary
    ok = True
    for _ in range(50):
        pos = rng.uniform(-1.0, 1.0, size=(4, 3))
        vals = rng.uniform(-1.0, 1.0, size=4)
        if np.unique(vals).size < 4 or \
                abs(np.linalg.det(pos[1:] - pos[0])) < 1e-3:
            continue
        hs = np.sort(rng.uniform(vals.min(), vals.max(), size=12))
        vols = [oracle.clip_volume(pos, vals, h) for h in hs]
        ok &= all(b >= a - 1e-12 for a, b in zip(vols, vols[1:]))
        total = abs(np.linalg.det(pos[1:] - pos[0])) / 6.0
        for h in hs[:4]:
            comp = oracle.clip_volume(pos, -vals, -h)
            low = oracle.clip_volume(pos, vals, h)
            ok &= abs(low + comp - total) <= 1e-12 + 1e-12 * total
    report("clip-monotone-complementary", ok)

    # region volumes on a small random grid
    vals = rng.normal(size=125)
    mesh = grid_to_tets((5, 5, 5), vals)
    order = build_vertex_order(mesh)
    tree = build_contour_tree(build_topology_graph(mesh), order, mesh.values)
    deltas = hypersweep.compute_deltas(mesh, order)
    fracs = (0.25, 0.75)
    errors, refs = oracle.region_volume_errors(
        mesh, tree, hypersweep.sweep_volumes(tree, deltas), fracs)
    # roundoff floor: V_arc(h) is Horner on a cubic row c whose coefficients
    # each sum the deltas of the K vertices below the cut. In any order the
    # sum errs by at most g(K-1) A_i, A_i = sum of |delta_i| (Higham,
    # Accuracy and Stability of Numerical Algorithms, 4.2), and Horner by
    # g(6) sum |c_i| |h|^i (5.1); by Lemma 3.3 together at most
    # g(K+5) sum A_i |h|^i, g(k) = k u / (1 - k u), u = eps / 2. The deltas
    # count as exact data, and a row formed as total minus complement is
    # charged only for the region's own terms.
    below, _ = hypersweep.below_arc_sums(tree, np.ones(mesh.vertex_count))
    u = np.finfo(float).eps / 2
    floor = np.empty_like(errors)
    for a, sv in enumerate(hypersweep.sweep_volumes(tree, np.abs(deltas))):
        for j, frac in enumerate(fracs):
            h = sv.h_lo + frac * (sv.h_hi - sv.h_lo)
            k = np.searchsorted(sv.breakpoints, h, side="right")
            g = (below[a] + k + 5) * u / (1 - (below[a] + k + 5) * u)
            floor[a, j] = g * horner(np.abs(sv.segments[k]), abs(h))
    # relative to the region, or to the floor where that is larger
    worst = np.max(errors / np.maximum(refs, floor / 1e-8))
    report("region-volume", worst <= 1e-8, f"worst {worst:.3e}")

    # contour counts vs straddling superarcs, off the supernode values
    sn_vals = tree.values[tree.supernodes]
    hs = [h for h in rng.uniform(mesh.values.min(), mesh.values.max(),
                                 size=8)
          if np.min(np.abs(sn_vals - h)) >= 1e-12]
    mismatches = oracle.contour_count_mismatches(mesh, tree, hs)
    report("contour-count", len(hs) > 0 and mismatches == 0,
           f"{len(hs)} thresholds, {mismatches} mismatches")

    return 1 if failures else 0


def _parse_isovalue(items):
    overrides = {}
    for item in items or []:
        arc, _, val = item.partition("=")
        try:
            overrides[int(arc)] = float(val)
        except ValueError:
            raise ValueError(
                f"expected SUPERARC=H, got {item!r}") from None
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ct",
        description="contour trees with exact sweep volumes on tet meshes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--node", help="TetGen .node vertex file")
        p.add_argument("--ele", help="TetGen .ele tetrahedron file")
        p.add_argument("--field", dest="fld",
                       help="scalar field file, one value per vertex")
        p.add_argument("--field-attr", type=int, default=None,
                       help="use this .node attribute column as the field")
        p.add_argument("--dims", nargs=3, type=int, metavar=("NX", "NY", "NZ"))
        p.add_argument("--raw", help="little-endian float64 grid values")
        p.add_argument("--spacing", nargs=3, type=float,
                       default=(1.0, 1.0, 1.0), metavar=("SX", "SY", "SZ"))
        p.add_argument("--weights", choices=("count", "volume"),
                       default="volume")
        p.add_argument("--threads", type=int, default=1)
        return p

    run = add_input_flags(sub.add_parser("run", help="full pipeline"))
    run.add_argument("--top", type=int, default=3)
    run.add_argument("--isovalue", action="append", metavar="SUPERARC=H",
                     help="override the extraction isovalue of a superarc")
    run.add_argument("--out", default=".")
    add_input_flags(sub.add_parser("bench", help="per-stage timings"))
    verify = sub.add_parser("verify", help="oracle property suites")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--tets", type=int, default=1000)
    return parser


def _config_from_args(args) -> PipelineConfig:
    run_only = ({"top": args.top, "isovalues": _parse_isovalue(args.isovalue),
                 "out": args.out} if args.command == "run" else {})
    return PipelineConfig(
        node=args.node, ele=args.ele, fld=args.fld,
        field_attr=args.field_attr,
        dims=tuple(args.dims) if args.dims else None,
        raw=args.raw, spacing=tuple(args.spacing),
        weights=args.weights, threads=args.threads, **run_only)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "bench":
            return cmd_bench(_config_from_args(args))
        return cmd_verify(args.seed, args.tets)
    except StageError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return 1
    except (MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
