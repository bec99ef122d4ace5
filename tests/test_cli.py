import csv
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import tetcontour
from tetcontour import cli, hypersweep, oracle
from tetcontour.cli import main
from tetcontour.contourtree import build_contour_tree
from tetcontour.decomposition import decompose
from tetcontour.hypersweep import (ArcWeights, compute_deltas, sweep_volumes,
                                   volume_weights)
from tetcontour.mesh import build_vertex_order, grid_to_tets


@pytest.fixture
def grid_input(tmp_path):
    n = 9
    x = np.linspace(-1.0, 1.0, n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    f = (np.exp(-6 * ((X - 0.4) ** 2 + Y ** 2 + Z ** 2))
         + 0.7 * np.exp(-6 * ((X + 0.4) ** 2 + Y ** 2 + Z ** 2)))
    raw = tmp_path / "field.f64"
    np.transpose(f, (2, 1, 0)).ravel().astype("<f8").tofile(raw)
    return ["--dims", str(n), str(n), str(n), "--raw", str(raw)]


@pytest.fixture
def tetgen_input(tmp_path):
    node = tmp_path / "m.node"
    node.write_text("4 3 1 0\n"
                    "1 0 0 0 0.0\n"
                    "2 1 0 0 1.0\n"
                    "3 0 1 0 2.0\n"
                    "4 0 0 1 3.0\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    return ["--node", str(node), "--ele", str(ele), "--field-attr", "0"]


def test_config_requires_exactly_one_input(tmp_path, capsys):
    out = tmp_path / "out"
    raw = tmp_path / "g.f64"
    np.arange(8, dtype="<f8").tofile(raw)
    for flags in ([],
                  ["--node", "a", "--ele", "b",
                   "--dims", "2", "2", "2", "--raw", "c"],
                  ["--node", "a"],                  # .ele missing
                  ["--dims", "2", "2", "2", "--raw", "c", "--top", "0"],
                  ["--dims", "2", "2", "2", "--raw", "c", "--threads", "0"],
                  # TetGen field flags on a grid input
                  ["--dims", "2", "2", "2", "--raw", str(raw),
                   "--field", "nope.txt", "--field-attr", "3"]):
        assert main(["run", *flags, "--out", str(out)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not out.exists()


def test_run_grid_artifacts(tmp_path, grid_input, capsys):
    out = tmp_path / "out"
    code = main(["run", *grid_input, "--weights", "volume", "--top", "2",
                 "--out", str(out)])
    assert code == 0
    for name in ("tree.json", "weights.csv", "branches.json",
                 "branch_0.obj", "branch_1.obj", "branches.mtl"):
        assert (out / name).exists(), name
    assert len(list(out.glob("branch_*.obj"))) == 2     # --top 2

    tree = json.loads((out / "tree.json").read_text())
    assert tree["schema"] == 1
    assert tree["vertexCount"] == 9 ** 3
    assert len(tree["superarcs"]) == len(tree["supernodes"]) - 1
    reg = sum(arc["regularCount"] for arc in tree["superarcs"])
    assert reg == tree["vertexCount"] - len(tree["supernodes"])

    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "superarc,h_lo,h_hi,weight"
    assert len(lines) == 1 + len(tree["superarcs"])

    branches = json.loads((out / "branches.json").read_text())
    assert branches["schema"] == 1
    assert branches["branches"][0]["rank"] == 0
    assert branches["branches"][0]["extraction"] is not None

    summary = capsys.readouterr().out
    assert "supernodes" in summary and "total volume" in summary
    assert "\ntime output " in summary
    assert "\nexact-set tets " in summary and f" of {8 ** 3 * 6}\n" in summary
    error = float(summary.split("certified volume error ")[1].split("*T")[0])
    assert 0.0 < error <= 1e-9


def _reference_weights_csv(path, tree, weights):
    """weights.csv through csv.writer, a row per superarc: the writer the
    one % template replaced."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["superarc", "h_lo", "h_hi", "weight"])
        for a in range(tree.superarc_count):
            h_lo, h_hi = tree.arc_value_range(a)
            writer.writerow([a, cli._fmt(h_lo), cli._fmt(h_hi),
                             cli._fmt(weights.down_weight[a])])


def test_weights_csv_matches_csv_writer(tmp_path):
    # signed zero, the smallest subnormal, values near overflow and whole
    # vertex counts, at the supernodes and as weights
    mesh = grid_to_tets((4, 4, 4), np.random.default_rng(1).normal(size=64))
    tree = build_contour_tree(mesh, build_vertex_order(mesh))
    edge = [-0.0, 5e-324, 1e308, -1e308, 0.1, -5e-324, 3.0]
    values = tree.values.copy()
    values[tree.supernodes] = np.resize(edge, tree.supernode_count)
    tree = dataclasses.replace(tree, values=values)
    for weight in (edge, [1.0, 2.0, 17.0, 32768.0, 64.0]):
        down = np.resize(weight, tree.superarc_count)
        weights = ArcWeights(down, down[::-1].copy(), 64.0)
        cli._write_weights_csv(tmp_path / "got.csv", tree, weights)
        _reference_weights_csv(tmp_path / "want.csv", tree, weights)
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()


def test_run_golden_structure(tmp_path):
    # an integer field under count weights makes every byte compared here
    # independent of the platform's float roundoff; the digests pin the
    # superarc ids of tree.json and the branch pairing of branches.json
    raw = tmp_path / "field.f64"
    ((np.arange(512) * 7919) % 1009).astype("<f8").tofile(raw)
    out = tmp_path / "out"
    assert main(["run", "--dims", "8", "8", "8", "--raw", str(raw),
                 "--weights", "count", "--out", str(out)]) == 0
    tree_digest = hashlib.sha256((out / "tree.json").read_bytes())
    assert tree_digest.hexdigest() == (
        "fef17919ec81825f81e13cfe43cb215bdef918aebc12c0647877e717b7f4905d")
    doc = json.loads((out / "branches.json").read_text())
    fields = [[b["rank"], b["parent"], b["lowerSupernode"],
               b["upperSupernode"], b["attachmentSupernode"], b["superarcs"]]
              for b in doc["branches"]]
    assert len(fields) == 81
    assert fields[0] == [0, -1, 72, 83, -1, [73, 31, 95, 72, 49, 42, 7, 3,
                                             144, 86, 2, 63, 136, 59]]
    assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == (
        "c1bc2cc9bc5d5df91248ef4031ba615bb8d2065223412a966c79fa4156e7d42f")


def test_run_tetgen_input(tmp_path, tetgen_input):
    out = tmp_path / "out"
    code = main(["run", *tetgen_input, "--weights", "count", "--top", "1",
                 "--out", str(out)])
    assert code == 0
    tree = json.loads((out / "tree.json").read_text())
    assert tree["vertexCount"] == 4
    assert len(tree["superarcs"]) == 1


def test_run_deterministic_across_threads(tmp_path, grid_input):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"t{threads}"
        assert main(["run", *grid_input, "--threads", threads,
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("tree.json", "weights.csv", "branches.json",
                 "branch_0.obj"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_starts_no_thread(tmp_path, grid_input, monkeypatch):
    # --threads is accepted, and the run stays on the calling thread

    def refuse(self):
        raise RuntimeError("ct run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["run", *grid_input, "--threads", "2",
                 "--out", str(tmp_path / "out")]) == 0


def test_run_does_not_import_numpy_ma(tmp_path, grid_input):
    # on numpy >= 2.3 a plain np.unique imports numpy.ma, about 10 ms of a
    # run; a new process shows whether the run does (numpy 1.24 loads
    # numpy.ma with numpy, before the run)
    script = ("import json, sys\n"
              "from tetcontour.cli import main\n"
              "before = set(sys.modules)\n"
              "assert main(json.loads(sys.argv[1])) == 0\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    path = [str(Path(tetcontour.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    args = ["run", *grid_input, "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(args)], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    imported = json.loads(done.stdout.splitlines()[-1])
    assert "numpy.ma" not in imported


def test_isovalue_override(tmp_path, grid_input):
    out0 = tmp_path / "a"
    assert main(["run", *grid_input, "--top", "1", "--out", str(out0)]) == 0
    doc = json.loads((out0 / "branches.json").read_text())
    ext = doc["branches"][0]["extraction"]
    arc, h_default = ext["superarc"], ext["isovalue"]

    tree = json.loads((out0 / "tree.json").read_text())
    sn_value = {s["id"]: s["value"] for s in tree["supernodes"]}
    lo = sn_value[tree["superarcs"][arc]["lo"]]
    hi = sn_value[tree["superarcs"][arc]["hi"]]
    h_new = lo + 0.25 * (hi - lo)
    assert h_new != h_default

    out1 = tmp_path / "b"
    assert main(["run", *grid_input, "--top", "1", "--out", str(out1),
                 "--isovalue", f"{arc}={h_new}"]) == 0
    doc = json.loads((out1 / "branches.json").read_text())
    assert doc["branches"][0]["extraction"]["isovalue"] == pytest.approx(h_new)


def test_isovalue_override_out_of_range_fails(tmp_path, grid_input):
    out0 = tmp_path / "a"
    assert main(["run", *grid_input, "--top", "1", "--out", str(out0)]) == 0
    doc = json.loads((out0 / "branches.json").read_text())
    arc = doc["branches"][0]["extraction"]["superarc"]
    out1 = tmp_path / "b"
    code = main(["run", *grid_input, "--top", "1", "--out", str(out1),
                 "--isovalue", f"{arc}=999.0"])
    assert code != 0
    # refused before the output directory is made
    assert not out1.exists()


def test_malformed_isovalue_is_reported(tmp_path, grid_input, capsys):
    code = main(["run", *grid_input, "--isovalue", "abc",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error: expected SUPERARC=H, got 'abc'" in capsys.readouterr().err


def test_isovalue_for_missing_superarc_is_reported(tmp_path, grid_input,
                                                   capsys):
    out0 = tmp_path / "a"
    assert main(["run", *grid_input, "--top", "1", "--out", str(out0)]) == 0
    k = len(json.loads((out0 / "tree.json").read_text())["superarcs"])
    extracted = json.loads((out0 / "branches.json").read_text())[
        "branches"][0]["extraction"]["superarc"]
    capsys.readouterr()
    for arc in (k, 999, -3):
        code = main(["run", *grid_input, "--top", "1",
                     f"--isovalue={arc}=0.5", "--out", str(tmp_path / "b")])
        assert code == 1
        assert (f"error: --isovalue names superarc {arc}; the tree has "
                f"superarcs 0..{k - 1}") in capsys.readouterr().err
    # an existing arc that no extracted branch uses is refused too
    other = 0 if extracted else 1
    assert main(["run", *grid_input, "--top", "1",
                 f"--isovalue={other}=0.5", "--out", str(tmp_path / "c")]) == 1
    assert (f"error: --isovalue names superarc {other}, which no extracted "
            f"branch uses") in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_count_weights_skip_swept_volumes(tmp_path, grid_input,
                                          monkeypatch, capsys):
    # under count weights nothing reads the deltas or the swept volumes,
    # so the run prints no exact set and no certified error
    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called")
        return call

    for name in ("compute_deltas", "sweep_volumes"):
        monkeypatch.setattr(hypersweep, name, refuse(name))
    assert main(["run", *grid_input, "--weights", "count",
                 "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "exact-set tets" not in out and "certified" not in out


def test_count_weights_accept_wide_value_span(tmp_path):
    # a span of 5.6e100, whose fourth power overflows, is refused for
    # volume weights; count weights form no spline term and take it
    raw = tmp_path / "wide.f64"
    field = np.random.default_rng(1).normal(size=216) * 1e100
    field.astype("<f8").tofile(raw)
    out = tmp_path / "out"
    assert main(["run", "--dims", "6", "6", "6", "--raw", str(raw),
                 "--weights", "count", "--top", "2", "--out", str(out)]) == 0
    with open(out / "weights.csv") as fh:
        weights = [float(r["weight"]) for r in csv.DictReader(fh)]
    assert weights and all(w == int(w) and 1 <= w <= 216 for w in weights)
    assert main(["run", "--dims", "6", "6", "6", "--raw", str(raw),
                 "--out", str(tmp_path / "volume")]) == 1


def test_run_loads_through_module_hook(tmp_path, grid_input, monkeypatch):
    # the benchmark times set-up by swapping cli.load_raw_grid and
    # cli.load_tetgen for wrappers, so the run must call them through cli
    calls = []
    load = cli.load_raw_grid

    def recording(*args, **kwargs):
        calls.append(args)
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_raw_grid", recording)
    assert main(["run", *grid_input, "--top", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_ulp_tied_values_match_rank_oracle(tmp_path, capsys):
    # values on a 0.1 lattice, half of them moved up one ulp: pieces a few
    # ulp wide would give coefficients of 1e34 T; their tets go to the
    # exact set, and the weights written, the volume below each arc's top
    # cut, still match the rank-aware oracle
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(2000, 3))
    values = np.round(rng.normal(size=2000), 1)
    values[::2] = np.nextafter(values[::2], np.inf)
    tets = spatial.Delaunay(points).simplices
    node = tmp_path / "m.node"
    node.write_text("2000 3 1 0\n" + "".join(
        f"{i} {x!r} {y!r} {z!r} {v!r}\n" for i, ((x, y, z), v)
        in enumerate(zip(points.tolist(), values.tolist()))))
    ele = tmp_path / "m.ele"
    ele.write_text(f"{len(tets)} 4 0\n" + "".join(
        f"{i} {a} {b} {c} {d}\n" for i, (a, b, c, d)
        in enumerate(tets.tolist())))
    out = tmp_path / "out"
    assert main(["run", "--node", str(node), "--ele", str(ele),
                 "--field-attr", "0", "--top", "2", "--out", str(out)]) == 0
    mesh = cli.load_tetgen(node, ele, field_attr=0)
    tree = build_contour_tree(mesh, build_vertex_order(mesh))
    # every eighth arc: each top cut clips about 500 tets in the oracle
    arcs = range(0, tree.superarc_count, 8)
    clips = {}
    top = [oracle.rank_region_volume(mesh, tree, a, True, clips)
           for a in arcs]
    rows = (out / "weights.csv").read_text().splitlines()[1:]
    weights = np.array([float(rows[a].split(",")[3]) for a in arcs])
    assert np.max(np.abs(weights - top)) <= 1e-9 * mesh.volume
    assert "exact-set tets 0 " not in capsys.readouterr().out


def test_missing_file_is_reported(tmp_path, capsys):
    code = main(["run", "--dims", "4", "4", "4",
                 "--raw", str(tmp_path / "nope.f64"),
                 "--out", str(tmp_path / "out")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_disconnected_mesh_is_reported(tmp_path, capsys):
    node = tmp_path / "m.node"
    node.write_text("8 3 1 0\n"
                    "1 0 0 0 0.0\n2 1 0 0 1.0\n3 0 1 0 2.0\n4 0 0 1 3.0\n"
                    "5 5 5 5 4.0\n6 6 5 5 5.0\n7 5 6 5 6.0\n8 5 5 6 7.0\n")
    ele = tmp_path / "m.ele"
    ele.write_text("2 4 0\n1 1 2 3 4\n2 5 6 7 8\n")
    code = main(["run", "--node", str(node), "--ele", str(ele),
                 "--field-attr", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    assert ("error: mesh is not connected: 2 components, 0 vertices in no tet"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _raw_grid(path, values):
    values.astype("<f8").tofile(path)
    n = round(values.size ** (1 / 3))
    return ["--dims", str(n), str(n), str(n), "--raw", str(path)]


def _arc_range(out, arc):
    tree = json.loads((out / "tree.json").read_text())
    value = {s["id"]: s["value"] for s in tree["supernodes"]}
    return (value[tree["superarcs"][arc]["lo"]],
            value[tree["superarcs"][arc]["hi"]])


def test_isovalue_at_arc_upper_end_is_refused(tmp_path, capsys):
    # a vertex at h counts as below, so h = h_hi cuts nothing on the arc:
    # only [h_lo, h_hi) is accepted; h_lo is the lower supernode's value,
    # refused like every vertex value, and the next float above it gives
    # a non-empty contour
    flags = _raw_grid(tmp_path / "g.f64",
                      np.random.default_rng(1).normal(size=216))
    out = tmp_path / "a"
    assert main(["run", *flags, "--top", "3", "--out", str(out)]) == 0
    doc = json.loads((out / "branches.json").read_text())
    arc = doc["branches"][1]["extraction"]["superarc"]
    lo, hi = _arc_range(out, arc)
    capsys.readouterr()
    code = main(["run", *flags, "--top", "3", "--isovalue", f"{arc}={hi!r}",
                 "--out", str(tmp_path / "hi")])
    assert code == 1
    assert (f"error: isovalue {hi!r} outside superarc {arc} range "
            f"[{lo!r}, {hi!r})") in capsys.readouterr().err
    assert not (tmp_path / "hi").exists()
    assert main(["run", *flags, "--top", "3", "--isovalue", f"{arc}={lo!r}",
                 "--out", str(tmp_path / "lo")]) == 1
    assert (f"error: isovalue {lo!r} is the value of a vertex on superarc "
            f"{arc}") in capsys.readouterr().err
    above = float(np.nextafter(lo, np.inf))
    assert main(["run", *flags, "--top", "3", "--isovalue",
                 f"{arc}={above!r}", "--out", str(tmp_path / "up")]) == 0
    faces = [line for line in
             (tmp_path / "up" / "branch_1.obj").read_text().splitlines()
             if line.startswith("f ")]
    assert faces


def test_default_isovalue_avoids_vertex_values(tmp_path):
    # on this field the mid value of several extracted arcs is the value of
    # a vertex on the arc, such as 1.0 on an arc of range [0, 2]; the
    # contour is cut in the widest gap between the arc's vertex values
    # instead, so no corner lands on a vertex: every OBJ has distinct
    # positions and no triangle of zero area
    flags = _raw_grid(tmp_path / "g.f64", np.random.default_rng(
        10).integers(0, 5, size=216).astype(float))
    out = tmp_path / "out"
    assert main(["run", *flags, "--top", "10", "--out", str(out)]) == 0
    moved = 0
    for b in json.loads((out / "branches.json").read_text())["branches"]:
        if b["extraction"] is None or b["rank"] >= 10:
            continue
        lo, hi = _arc_range(out, b["extraction"]["superarc"])
        moved += b["extraction"]["isovalue"] != 0.5 * (lo + hi)
        lines = (out / f"branch_{b['rank']}.obj").read_text().splitlines()
        positions = np.array([[float(x) for x in line.split()[1:]]
                              for line in lines if line.startswith("v ")])
        faces = np.array([[int(x) - 1 for x in line.split()[1:]]
                          for line in lines if line.startswith("f ")])
        assert len(np.unique(positions, axis=0)) == len(positions) > 0
        p = positions[faces]
        assert np.all(np.linalg.norm(np.cross(p[:, 1] - p[:, 0],
                                              p[:, 2] - p[:, 0]), axis=1) > 0)
    assert moved


def test_uncertified_weights_are_refused(tmp_path, grid_input, monkeypatch,
                                        capsys):
    # a certified error above the limit refuses the run before any file
    monkeypatch.setattr(hypersweep, "REFUSE_ABOVE", 1e-30)
    out = tmp_path / "out"
    assert main(["run", *grid_input, "--out", str(out)]) == 1
    assert ("error in weights: certified volume error "
            in capsys.readouterr().err)
    assert not out.exists()


def test_fields_whose_spline_terms_overflow_are_refused(tmp_path, capsys):
    # a tet's product of four value gaps is at most span^4, which
    # overflows from a span of about 1.16e77. Below that the weights are
    # those of the unscaled field, whose volumes are equal, within the
    # certified errors; above it the run is refused before any spline
    # term is formed, with no warning
    field = np.random.default_rng(1).normal(size=216)
    weights, errors = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e76):
            flags = _raw_grid(tmp_path / "g.f64", field * scale)
            out = tmp_path / f"{scale:g}"
            assert main(["run", *flags, "--top", "2", "--out",
                         str(out)]) == 0
            with open(out / "weights.csv") as fh:
                weights.append(np.array(
                    [float(r["weight"]) for r in csv.DictReader(fh)]))
            mesh = grid_to_tets((6, 6, 6), field * scale)
            errors.append(compute_deltas(mesh,
                                         build_vertex_order(mesh)).error)
        assert np.all(np.abs(weights[1] - weights[0]) <= sum(errors))
        capsys.readouterr()
        for scale in (1e77, 1e100):
            flags = _raw_grid(tmp_path / "g.f64", field * scale)
            out = tmp_path / f"{scale:g}"
            assert main(["run", *flags, "--out", str(out)]) == 1
            assert "error in weights: value span " in capsys.readouterr().err
            assert not out.exists()


def test_arc_within_an_ulp_is_not_extracted(tmp_path, capsys):
    # the arc's vertex values are one ulp apart: the middle of the gap
    # rounds onto a vertex value, so no isovalue keeps the contour off
    # the vertices and the branch is not extracted
    top = float(np.nextafter(1.0, 2.0))
    node = tmp_path / "m.node"
    node.write_text(f"4 3 1 0\n1 0 0 0 1.0\n2 1 0 0 1.0\n"
                    f"3 0 1 0 {top!r}\n4 0 0 1 {top!r}\n")
    ele = tmp_path / "m.ele"
    ele.write_text("1 4 0\n1 1 2 3 4\n")
    out = tmp_path / "out"
    assert main(["run", "--node", str(node), "--ele", str(ele),
                 "--field-attr", "0", "--top", "1", "--out", str(out)]) == 0
    assert ("branch 0: superarc 0 has no value between its vertex values; "
            "not extracted") in capsys.readouterr().out
    doc = json.loads((out / "branches.json").read_text())
    assert doc["branches"][0]["extraction"] is None
    assert not (out / "branch_0.obj").exists()


def test_flat_branches_are_not_extracted(tmp_path, capsys):
    # tied integer fields give many branches a flat attachment-end arc
    # (h_lo == h_hi), which no isovalue cuts; such a branch is cut on its
    # nearest arc that is not flat, and skipped only when all its arcs
    # are flat. The skipped branches are those of a decomposition on the
    # rank-aware oracle's weights, with the run's tie tolerance
    flats = 0
    for k, seed in itertools.product((2, 3, 5), range(30)):
        values = np.random.default_rng(seed).integers(0, k, size=216)
        flags = _raw_grid(tmp_path / "g.f64", values.astype(float))
        out = tmp_path / f"{k}_{seed}"
        assert main(["run", *flags, "--top", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        materials = (out / "branches.mtl").read_text()
        branches = json.loads((out / "branches.json").read_text())
        for b in branches["branches"][:3]:
            name = f"branch_{b['rank']}"
            if b["extraction"] is None:
                end = (b["superarcs"][-1] if b["attachmentSupernode"]
                       == b["upperSupernode"] else b["superarcs"][0])
                assert (f"branch {b['rank']}: superarc {end} is flat; "
                        "not extracted") in printed
                assert not (out / f"{name}.obj").exists()
                assert f"newmtl {name}\n" not in materials
            else:
                text = (out / f"{name}.obj").read_text()
                assert "\nf " in text
                assert f"newmtl {name}\n" in materials
        mesh = grid_to_tets((6, 6, 6), values.astype(float))
        order = build_vertex_order(mesh)
        tree = build_contour_tree(mesh, order)
        tie = volume_weights(sweep_volumes(tree, compute_deltas(
            mesh, order)), mesh.volume).tie
        top, bottom = oracle.rank_arc_end_volumes(mesh, tree)
        expected = [b.superarcs for b in decompose(tree, ArcWeights(
            top, mesh.volume - bottom, mesh.volume, tie))[:3]
            if all(lo == hi for lo, hi in map(tree.arc_value_range,
                                                b.superarcs))]
        assert [b["superarcs"] for b in branches["branches"][:3]
                if b["extraction"] is None] == expected
        flats += len(expected)
    assert flats > 0
