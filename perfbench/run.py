"""Benchmark of the `ct run` pipeline on seeded workloads.

    python3 perfbench/run.py --workload {delaunay-smooth,grid-smooth,
        noisy-grid,all} --seed N --seconds S --trace {0,1}

Run from the repository root. The workload's input files are generated
from the seed under .perfbench_work/ and handed to `ct run`
(`tetcontour.cli.main(["run", ...])`), one repeat per fresh process, for
about S seconds of repeats (at least MIN_REPEATS). Each output
directory is checked outside the timed region (see checks.py); the checks
feed `failed_frac`, and a repeat that crashes fails all of its checks.

--trace 0 reports the end-to-end metrics, medians over repeats:
  setup_s      import of tetcontour plus the input loader call
  run_s        the rest of `ct run`, through the last output file
  peak_rss_mb  peak resident memory of the repeat's process
--trace 1 cycles through an untraced repeat, a traced repeat (spans only)
and a memory repeat (tracemalloc inside the peak spans), and reports the
per-layer metrics of tracer.LAYER_METRICS: times and counts are medians
over traced repeats, peaks medians over memory repeats.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (output checks) and metrics. The lines above
it give every metric with its unit and sample count, and every check.
Second seeds for checking a claim are in workloads.WORKLOADS. noisy-grid
is not listed in BENCHMARK.json: at seed 1 its checks report the known
unlabeled-triangle defect of label_superarcs (see workloads.py).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

MIN_REPEATS = 3
TOP = 3
REPEAT_TIMEOUT = 150        # seconds; the whole run must end within 180
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
HERE = Path(__file__).resolve().parent


class Bench:
    """Runs the repeats of one workload inside a scratch directory."""

    def __init__(self, root: Path, work: Path, workload, seed: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(HERE)]))
        self.checked = {}           # output digest -> check results
        self.digests = []
        self.output_bytes = 0
        self.crashes = []
        self._n = 0

    def prepare(self):
        self.ct_args, self.arrays = workloads.generate(
            self.workload, self.seed, self.work / "input")
        # compile and page in tetcontour and numpy once, as a user's
        # installed copy would be, before any timed import
        subprocess.run([sys.executable, "-c", "import tetcontour.cli"],
                       env=self.env, check=True, cwd=self.root)

    def repeat(self, kind="plain", threads=None):
        """One `ct run` in a fresh process; returns (times or None, trace).

        kind is "plain", "traced" (spans) or "memory" (spans and peaks).
        """
        self._n += 1
        out = self.work / f"out{self._n}"
        spans = self.work / f"spans{self._n}.json"
        args = [*self.ct_args, "--top", str(TOP), "--out", str(out),
                "--threads", str(threads or self.workload.threads)]
        trace = kind != "plain"
        flags = (["--trace", str(spans)] if trace else []) + (
            ["--memory"] if kind == "memory" else [])
        cmd = [sys.executable, str(HERE / "worker.py"), *flags, "--", *args]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=REPEAT_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc = subprocess.CompletedProcess(
                cmd, -1, "", f"killed after {REPEAT_TIMEOUT} s")
        times = None
        if proc.returncode == 0 and proc.stdout.strip():
            times = json.loads(proc.stdout.strip().splitlines()[-1])
            if times.pop("exit_code") != 0:
                times = None
        if times is None:
            self.crashes.append(proc.stderr.strip().splitlines()[-1:]
                                or [f"exit {proc.returncode}"])
            shutil.rmtree(out, ignore_errors=True)
            return None, None
        record = json.loads(spans.read_text()) if trace else None
        return times, (out, record)

    def check(self, out: Path):
        """Check one output directory once per distinct content."""
        digest, size = checks.digest(out)
        if digest not in self.checked:
            self.checked[digest] = checks.check_outputs(out, self.arrays, TOP)
        self.output_bytes = size
        shutil.rmtree(out)
        return digest


def run_workload(root, workload, seed, seconds, trace, log=print):
    """Measure one workload; returns the result object printed last."""
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    base = root / ".perfbench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        return _measure(Bench(root, work, workload, seed), seconds, trace,
                        log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()            # only when no other run is using it


def _measure(bench, seconds, trace, log):
    bench.prepare()
    runs = {"plain": [], "traced": [], "memory": []}   # (times, metrics)
    repeat_checks = []              # per repeat: the check list it counts
    missing = set()
    kinds = ("plain", "traced", "memory") if trace else ("plain",)
    spent, cycle = 0.0, 0.0
    # a cycle starts only if one more fits in the time left, so a run takes
    # about `seconds` whatever a repeat costs
    while (len(repeat_checks) < MIN_REPEATS
           or spent + cycle <= seconds):
        start = time.perf_counter()
        for kind in kinds:
            times, result = bench.repeat(kind)
            if times is None:
                repeat_checks.append(None)
                continue
            out, record = result
            digest = bench.check(out)
            bench.digests.append(digest)
            first = bench.digests[0]
            repeat_checks.append(bench.checked[digest] + [(
                "d.repeat_digest", digest == first,
                "identical to the first repeat" if digest == first
                else "differs from the first repeat")])
            metrics = None
            if record is not None:
                metrics = tracer.layer_metrics(record)
                metrics["cli.output_bytes"] = bench.output_bytes
                missing.update(record["missing"])
            runs[kind].append((times, metrics))
        cycle = time.perf_counter() - start
        spent += cycle

    per_repeat = max((len(c) for c in repeat_checks if c), default=2 + 2 * TOP)
    attempted = failed = 0
    for c in repeat_checks:
        attempted += len(c) if c else per_repeat
        failed += sum(not ok for _, ok, _ in c) if c else per_repeat
    extra = []
    if bench.workload.threads > 1 and bench.digests:
        times, result = bench.repeat(threads=1)
        same = times is not None and bench.check(result[0]) == bench.digests[0]
        extra.append(("d.threads1_digest", same,
                      "byte-identical to one --threads 1 run" if same
                      else "differs from the --threads 1 run"))
    attempted += len(extra)
    failed += sum(not ok for _, ok, _ in extra)

    name = bench.workload.name
    log(f"# {name} seed {bench.seed} (second seed for claims: "
        f"{bench.workload.second_seed}): " + ", ".join(
            f"{len(v)} {k}" for k, v in runs.items() if k in kinds)
        + f" repeats, {len(bench.crashes)} crashed")
    for crash in bench.crashes:
        log(f"# crash: {crash[0]}")
    shown = next((c for c in repeat_checks if c), [])
    for check_name, ok, detail in shown[:-1] + extra:
        log(f"check {name} {check_name} {'PASS' if ok else 'FAIL'} {detail}")
    same = sum(1 for c in repeat_checks if c and c[-1][1])
    log(f"check {name} d.repeat_digest {same} of {len(repeat_checks)} "
        "repeats identical to the first")
    failed_frac = failed / attempted if attempted else 1.0
    log(f"metric {name} failed_frac {failed_frac:.4f} ratio "
        f"({failed} of {attempted} checks failed)")

    plain = [t for t, _ in runs["plain"]]
    metrics = {}
    for key, unit in END_TO_END:
        if plain:
            metrics[key] = _summary(name, key, unit, [t[key] for t in plain],
                                    log)
    if trace:
        metrics = _layer_summary(name, runs, missing, log)
    return {"correct": failed == 0 and bool(plain), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _summary(name, key, unit, samples, log):
    med = statistics.median(samples)
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (med, med, med))
    log(f"metric {name} {key} {med:.6g} {unit} median of n={len(samples)} "
        f"(q1 {q1:.6g}, q3 {q3:.6g}; samples "
        + " ".join(f"{x:.4g}" for x in samples) + ")")
    return {"value": med, "unit": unit}


def _layer_summary(name, runs, missing, log):
    traced = [m for _, m in runs["traced"]]
    memory = [m for _, m in runs["memory"]]
    if not (runs["plain"] and traced and memory):
        return {}
    values = tracer.median_metrics(traced)
    peaks = tracer.median_metrics(memory)
    values.update({key: peaks[key] for key in tracer.PEAK_METRICS})
    run_s = {kind: _summary(name, f"{kind}.run_s", "s",
                            [t["run_s"] for t, _ in runs[kind]],
                            log)["value"] for kind in runs}
    values["trace.overhead_frac"] = run_s["traced"] / run_s["plain"] - 1.0
    for span in sorted(missing):
        log(f"# span missing: {span}")
    metrics = {}
    for key, unit, _moves in tracer.LAYER_METRICS:
        metrics[key] = {"value": values[key], "unit": unit}
        n = len(memory if key in tracer.PEAK_METRICS else traced)
        log(f"metric {name} {key} {values[key]:.6g} {unit} median of n={n}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tetcontour" / "cli.py").is_file():
        print(f"error: no tetcontour sources under {root / 'src'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    for name in names:
        results[name] = run_workload(root, workloads.WORKLOADS[name],
                                     args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
