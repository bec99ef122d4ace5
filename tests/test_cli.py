import hashlib
import json

import numpy as np
import pytest

from tetcontour import cli, oracle
from tetcontour.cli import PipelineConfig, main


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


def test_config_requires_exactly_one_input():
    with pytest.raises(ValueError):
        PipelineConfig().validate()
    with pytest.raises(ValueError):
        PipelineConfig(node="a", ele="b", dims=(2, 2, 2),
                       raw="c").validate()
    with pytest.raises(ValueError):
        PipelineConfig(node="a").validate()      # .ele missing
    with pytest.raises(ValueError):
        PipelineConfig(dims=(2, 2, 2), raw="c", top=0).validate()


def test_run_grid_artifacts(tmp_path, grid_input, capsys):
    out = tmp_path / "out"
    code = main(["run", *grid_input, "--weights", "volume", "--top", "2",
                 "--out", str(out)])
    assert code == 0
    for name in ("tree.json", "weights.csv", "branches.json",
                 "branch_0.obj", "branch_1.obj", "branches.mtl"):
        assert (out / name).exists(), name

    tree = json.loads((out / "tree.json").read_text())
    assert tree["schema"] == 1
    assert tree["vertexCount"] == 9 ** 3
    assert len(tree["superarcs"]) == len(tree["supernodes"]) - 1
    reg = sum(arc["regularCount"] for arc in tree["superarcs"])
    assert reg == tree["vertexCount"] - len(tree["supernodes"])

    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "superarc,h_lo,h_hi,a,b,c,d,weight"
    assert len(lines) == 1 + len(tree["superarcs"])

    branches = json.loads((out / "branches.json").read_text())
    assert branches["schema"] == 1
    assert branches["branches"][0]["rank"] == 0
    assert branches["branches"][0]["extraction"] is not None

    summary = capsys.readouterr().out
    assert "supernodes" in summary and "total volume" in summary
    assert "\ntime output " in summary


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
        "2213b7be7e2072df1a318c6ad6b6ed1181680d29eb4ccfe3e561d196e7b4687d")
    doc = json.loads((out / "branches.json").read_text())
    fields = [[b["rank"], b["parent"], b["lowerSupernode"],
               b["upperSupernode"], b["attachmentSupernode"], b["superarcs"]]
              for b in doc["branches"]]
    assert len(fields) == 81
    assert fields[0] == [0, -1, 72, 83, -1, [73, 31, 95, 72, 49, 42, 8, 3,
                                             145, 87, 2, 63, 137, 59]]
    assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == (
        "d1e632ca92e869d605a2012aa3a9dbe8ec828ad1bcf7304e66e6275d630bbefa")


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
    # refused before the first file is written
    assert list(out1.glob("*")) == []


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
    assert list((tmp_path / "c").glob("*")) == []


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


def test_bench_csv(grid_input, capsys):
    assert main(["bench", *grid_input]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "stage,seconds"
    stages = [line.split(",")[0] for line in lines[1:]]
    assert stages == ["construction", "weights", "branch decomposition"]


def test_bench_refuses_run_only_flags(grid_input, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", *grid_input, "--top", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --top 2" in capsys.readouterr().err


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "42", "--tets", "60"]) == 0
    out = capsys.readouterr().out
    assert "PASS spline-vs-clip" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("seed", [0, 7, 12])
def test_verify_region_volume_roundoff_passes(seed, capsys):
    # each seed's grid has a small region (1.7e-10 to 3.9e-6) whose volume
    # cancels deltas of absolute sum 6e2 to 2e4, so its error is roundoff
    # above 1e-8 relative but under the derived floor
    assert main(["verify", "--seed", str(seed), "--tets", "10"]) == 0
    assert "PASS region-volume" in capsys.readouterr().out


def test_verify_fails_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "clip_volume_errors",
                        lambda pos, vals, hs, volumes: np.ones(len(hs)))
    assert main(["verify", "--seed", "42", "--tets", "5"]) == 1
    assert "FAIL spline-vs-clip" in capsys.readouterr().out


def test_verify_refuses_fewer_than_one_tet(capsys):
    assert main(["verify", "--tets", "-3"]) == 1
    captured = capsys.readouterr()
    assert "error: --tets must be >= 1" in captured.err
    assert "PASS" not in captured.out


def test_verify_contour_count_fails_without_thresholds(monkeypatch, capsys):
    # on a constant field every threshold sits on a supernode value and
    # is dropped, so the suite has nothing left to compare
    grid_to_tets = cli.grid_to_tets
    monkeypatch.setattr(cli, "grid_to_tets", lambda dims, values:
                        grid_to_tets(dims, np.zeros_like(values)))
    assert main(["verify", "--seed", "42", "--tets", "5"]) == 1
    assert "FAIL contour-count 0 thresholds" in capsys.readouterr().out
