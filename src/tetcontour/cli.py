"""Command line pipeline: load mesh, build tree, weigh, decompose, extract.

One subcommand, `run`: it writes tree.json, weights.csv, branches.json
and one OBJ per top-ranked branch with an arc that is not flat, and
prints the exact-set size, the certified volume error and per-stage wall
times. Reruns with the same inputs produce byte-identical files. The run
uses one thread; --threads is accepted and changes nothing. The
brute-force oracle suites live in the tests.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import decomposition, hypersweep, isosurface
from .contourtree import ContourTree, build_contour_tree
from .mesh import (MeshError, TetMesh, build_vertex_order, load_raw_grid,
                   load_tetgen)


def _check_inputs(args):
    """Refuse `run` flags that do not name exactly one input, or that
    belong to the other input."""
    tetgen = args.node is not None or args.ele is not None
    grid = args.dims is not None or args.raw is not None
    if tetgen == grid:
        raise ValueError(
            "exactly one input required: --node/--ele or --dims/--raw")
    if tetgen and (args.node is None or args.ele is None):
        raise ValueError("--node and --ele must be given together")
    if grid and (args.dims is None or args.raw is None):
        raise ValueError("--dims and --raw must be given together")
    if grid and (args.fld is not None or args.field_attr is not None):
        raise ValueError("--field and --field-attr need --node/--ele")
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")


def _fmt(x: float) -> str:
    return repr(float(x))


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")


def _load(args) -> TetMesh:
    if args.node is not None:
        return load_tetgen(args.node, args.ele, field_path=args.fld,
                           field_attr=args.field_attr)
    return load_raw_grid(args.raw, args.dims, args.spacing)


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


def _pipeline(args):
    """All stages, returning artifacts plus per-stage wall times. Of the
    deltas and swept volumes only the exact-set size and the certified
    error leave, so extraction runs without them in memory."""
    times = {}
    with _stage(times, "load"):
        mesh = _load(args)
    with _stage(times, "construction"):
        order = build_vertex_order(mesh)
        tree = build_contour_tree(mesh, order)
    with _stage(times, "weights"):
        deltas = hypersweep.compute_deltas(mesh, order)
        if args.weights == "volume":
            weights = hypersweep.volume_weights(
                hypersweep.sweep_volumes(tree, deltas), mesh.volume)
        else:
            weights = hypersweep.count_weights(tree)
    with _stage(times, "branch decomposition"):
        branches = decomposition.decompose(tree, weights)
    certificate = (len(deltas.exact), deltas.error / mesh.volume)
    return mesh, tree, weights, branches, certificate, times


def _branch_extraction(tree: ContourTree, branch, overrides):
    """(superarc, isovalue) a branch's contour is extracted at; a vertex at
    h counts as below, so only h in [h_lo, h_hi) cuts the arc. The arc is
    the attachment-end one (for the master, the one holding the branch's
    mid value), or if that is flat the nearest one along the branch that
    is not, the lower on a tie. The default isovalue is the arc's mid
    value, or, where that is the value of a vertex on the arc, the middle
    of the widest gap between consecutive values of the arc's vertices,
    so no contour corner lands on a vertex. An override outside the arc's
    range or equal to the value of one of its vertices is refused. The
    isovalue is None if all arcs are flat, or if the widest gap is one
    ulp, so that no float lies inside it."""
    ranges = [tree.arc_value_range(a) for a in branch.superarcs]
    if branch.rank == 0 or branch.attachment_supernode < 0:
        lo = tree.supernode_value(branch.lower_supernode)
        hi = tree.supernode_value(branch.upper_supernode)
        h = 0.5 * (lo + hi)
        i = next((i for i, (alo, ahi) in enumerate(ranges)
                  if alo <= h <= ahi), 0)
    elif branch.attachment_supernode == branch.upper_supernode:
        i = len(ranges) - 1
    else:
        i = 0
    cut = [j for j, (alo, ahi) in enumerate(ranges) if alo < ahi]
    if cut and i not in cut:
        i = min(cut, key=lambda j: (abs(j - i), j))
    arc = branch.superarcs[i]
    alo, ahi = ranges[i]
    # np.unique's values by a sort and a first-of-run mask: a plain
    # np.unique imports numpy.ma on numpy >= 2.3, 10 ms of every run
    on_arc = np.sort(np.concatenate(
        [tree.values[tree.arc_regulars[arc]], [alo, ahi]]))
    on_arc = on_arc[np.concatenate(([True], on_arc[1:] != on_arc[:-1]))]
    h = overrides.get(arc, 0.5 * (alo + ahi))
    if arc in overrides and not alo <= h < ahi:
        raise ValueError(
            f"isovalue {h} outside superarc {arc} range [{alo}, {ahi})")
    if arc in overrides and h in on_arc:
        raise ValueError(f"isovalue {h} is the value of a vertex on "
                         f"superarc {arc}; its contour would pass through "
                         "the vertex")
    if alo == ahi:
        return arc, None
    if h in on_arc:
        widest = np.argmax(np.diff(on_arc))
        h = 0.5 * (on_arc[widest] + on_arc[widest + 1])
    return arc, None if h in on_arc else h


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


def _write_weights_csv(path, tree, weights):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["superarc", "h_lo", "h_hi", "weight"])
        for a in range(tree.superarc_count):
            h_lo, h_hi = tree.arc_value_range(a)
            writer.writerow([a, _fmt(h_lo), _fmt(h_hi),
                             _fmt(weights.down_weight[a])])


def _write_branches_json(path, branches, extractions):
    def extraction(rank):
        arc, h = extractions.get(rank, (None, None))
        return None if h is None else {"superarc": int(arc),
                                       "isovalue": float(h)}

    doc = {
        "schema": 1,
        "branches": [
            {"rank": b.rank, "weight": float(b.weight),
             "parent": int(b.parent),
             "lowerSupernode": int(b.lower_supernode),
             "upperSupernode": int(b.upper_supernode),
             "attachmentSupernode": int(b.attachment_supernode),
             "superarcs": [int(a) for a in b.superarcs],
             "extraction": extraction(b.rank)}
            for b in branches],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


_PALETTE = [(0.894, 0.102, 0.110), (0.216, 0.494, 0.722),
            (0.302, 0.686, 0.290), (0.596, 0.306, 0.639),
            (1.000, 0.498, 0.000), (1.000, 1.000, 0.200)]


def cmd_run(args) -> int:
    overrides = _parse_isovalue(args.isovalue)
    _check_inputs(args)
    out = Path(args.out)
    mesh, tree, weights, branches, certificate, times = _pipeline(args)
    # every (superarc, isovalue) is settled before the first file is written
    top = branches[:args.top]
    extractions = {b.rank: _branch_extraction(tree, b, overrides)
                   for b in top}
    for arc in overrides:
        if not 0 <= arc < tree.superarc_count:
            raise ValueError(f"--isovalue names superarc {arc}; the tree "
                             f"has superarcs 0..{tree.superarc_count - 1}")
        if arc not in {a for a, _ in extractions.values()}:
            raise ValueError(f"--isovalue names superarc {arc}, which no "
                             "extracted branch uses")

    with _stage(times, "output"):
        out.mkdir(parents=True, exist_ok=True)
        _write_tree_json(out / "tree.json", mesh, tree)
        _write_weights_csv(out / "weights.csv", tree, weights)
        materials = []
        for b in top:
            arc, h = extractions[b.rank]
            if h is None:
                lo, hi = tree.arc_value_range(arc)
                why = ("is flat" if lo == hi else
                       "has no value between its vertex values")
                print(f"branch {b.rank}: superarc {arc} {why}; "
                      "not extracted")
                continue
            soup = isosurface.extract_superarc_contour(mesh, tree, arc, h)
            name = f"branch_{b.rank}"
            color = _PALETTE[b.rank % len(_PALETTE)]
            materials.append((name, color))
            isosurface.write_obj(out / f"{name}.obj", soup,
                                 group=f"superarc_{arc}", material=name,
                                 mtllib="branches.mtl")
        isosurface.write_mtl(out / "branches.mtl", materials)
        _write_branches_json(out / "branches.json", branches, extractions)

    print(f"vertices {mesh.vertex_count} tets {mesh.tet_count} "
          f"supernodes {tree.supernode_count} "
          f"superarcs {tree.superarc_count}")
    print(f"total volume {_fmt(mesh.volume)}")
    print(f"exact-set tets {certificate[0]} of {mesh.tet_count}")
    print(f"certified volume error {certificate[1]:.2e}*T")
    for name, secs in times.items():
        print(f"time {name} {secs:.3f}s")
    return 0


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
    run = sub.add_parser("run", help="full pipeline")
    run.add_argument("--node", help="TetGen .node vertex file")
    run.add_argument("--ele", help="TetGen .ele tetrahedron file")
    run.add_argument("--field", dest="fld",
                     help="scalar field file, one value per vertex")
    run.add_argument("--field-attr", type=int, default=None,
                     help="use this .node attribute column as the field")
    run.add_argument("--dims", nargs=3, type=int, metavar=("NX", "NY", "NZ"))
    run.add_argument("--raw", help="little-endian float64 grid values")
    run.add_argument("--spacing", nargs=3, type=float,
                     default=(1.0, 1.0, 1.0), metavar=("SX", "SY", "SZ"))
    run.add_argument("--weights", choices=("count", "volume"),
                     default="volume")
    run.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; the run uses one "
                          "thread whatever its value")
    run.add_argument("--top", type=int, default=3)
    run.add_argument("--isovalue", action="append", metavar="SUPERARC=H",
                     help="override the extraction isovalue of a superarc")
    run.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return cmd_run(args)
    except StageError as exc:
        print(f"error in {exc}", file=sys.stderr)
        return 1
    except (MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
