"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench
"""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {"delaunay-smooth": 2000, "grid-smooth": 8, "noisy-grid": 6}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], size=TINY[name])


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values() if w.listed]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in tracer.LAYER_METRICS]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(ROOT, tiny(name), 3, 0.0, trace,
                              log=lambda line: None)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = ([(n, u) for n, u, _ in tracer.LAYER_METRICS] if trace
                else list(run.END_TO_END))
    assert sorted((k, v["unit"]) for k, v in result["metrics"].items()) \
        == sorted(expected)
    if trace:
        assert result["metrics"]["mesh.vertices"]["value"] > 0
        assert result["metrics"]["isosurface.marched_tris"]["value"] > 0


def test_corrupted_output_is_counted(monkeypatch):
    original = run.Bench.check

    def corrupt_then_check(self, out):
        obj = out / "branch_0.obj"
        lines = obj.read_text().splitlines(keepends=True)
        obj.write_text("".join(lines[:-1]))      # drop one triangle
        return original(self, out)

    monkeypatch.setattr(run.Bench, "check", corrupt_then_check)
    result = run.run_workload(ROOT, tiny("grid-smooth"), 0, 0.0, False,
                              log=lambda line: None)
    assert result["correct"] is False
    # every repeat's copy is cut the same way: b.branch_0 fails once each
    assert result["failed"] == run.MIN_REPEATS
    assert result["attempted"] > result["failed"]


def test_check_outputs_flags_each_corruption(tmp_path):
    from tetcontour.cli import main

    bench_input = tmp_path / "in"
    args, arrays = workloads.generate(tiny("grid-smooth"), 0, bench_input)
    out = tmp_path / "out"
    assert main(["run", *args, "--top", "2", "--out", str(out)]) == 0
    assert all(ok for _, ok, _ in checks.check_outputs(out, arrays, 2))

    doc = json.loads((out / "branches.json").read_text())
    doc["branches"][0]["weight"] *= 1.001
    (out / "branches.json").write_text(json.dumps(doc))
    failed = {n for n, ok, _ in checks.check_outputs(out, arrays, 2) if not ok}
    assert failed == {"a.master_weight"}

    (out / "branch_1.obj").write_text("")
    failed = {n for n, ok, _ in checks.check_outputs(out, arrays, 2) if not ok}
    assert failed == {"a.master_weight", "b.branch_1"}


def test_spans_nest_and_cover_the_layers(tmp_path):
    args, _ = workloads.generate(tiny("grid-smooth"), 0, tmp_path / "in")
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--trace", str(spans_path),
         "--", *args, "--top", "2", "--threads", "2",
         "--out", str(tmp_path / "out")],
        env={"PYTHONPATH": f"{ROOT / 'src'}:{HERE}"}, cwd=ROOT,
        capture_output=True, text=True, check=True)
    times = json.loads(proc.stdout.splitlines()[-1])
    assert times["exit_code"] == 0 and times["run_s"] > 0
    trace = json.loads(spans_path.read_text())
    assert trace["missing"] == []
    spans = {s["id"]: s for s in trace["spans"]}

    def parent_names(name):
        return {spans[s["parent"]]["name"] for s in spans.values()
                if s["name"] == name}

    for child in ("contourtree.join", "contourtree.split",
                  "contourtree.merge"):
        assert parent_names(child) == {"contourtree.build"}
    for child in ("isosurface.march", "isosurface.label"):
        assert parent_names(child) == {"isosurface.extract"}
    assert parent_names("geometry.kernel") == {"hypersweep.deltas"}
    assert parent_names("mesh.load") == {tracer.ROOT}
    metrics = tracer.layer_metrics(trace)
    assert metrics["isosurface.extract_s"] >= metrics["isosurface.label_s"]
    assert metrics["isosurface.tree_walks"] > 0


def test_self_time_subtracts_overlapping_children():
    spans = [
        {"id": 0, "name": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 5.0},
        {"id": 3, "name": "c", "parent": 0, "start": 9.0, "end": 12.0},
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (
        ("mesh.gone", "tetcontour.mesh", "no_such_function", None),))
    monkeypatch.setattr(tracer, "CALL_COUNTS", ())
    recorder = tracer.Tracer()
    recorder.install()
    assert recorder.missing == ["mesh.gone (tetcontour.mesh.no_such_function)"]
    metrics = tracer.layer_metrics(recorder.finish())
    assert metrics["mesh.load_s"] == 0.0


def test_noise_seeds_are_grid_symmetries():
    n = 5
    base = workloads.grid_field(n, "noise", 1)
    for seed in range(1, 14):
        moved = workloads.grid_field(n, "noise", seed)
        assert sorted(moved) == sorted(base)
    assert (workloads.grid_field(n, "noise", 13) == base).all()


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "noisy-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
