"""One `ct run` in a fresh process, timed from before `import tetcontour`.

    python3 perfbench/worker.py [--trace SPANS.json [--memory]] -- <ct args>

Prints one JSON line: setup_s (import plus the input loader call),
run_s (the rest of `ct run`, through the last output file), peak_rss_mb
(the process's VmHWM) and the exit code of `tetcontour.cli.main`. With
--trace, layer spans are recorded and written to SPANS.json when the run
ends; --memory adds the tracemalloc peaks of tracer.PEAK_METRICS.
Expects `src` on PYTHONPATH; numpy is imported by tetcontour, inside the
timed set-up.
"""
import json
import resource
import sys
import time


def _peak_rss_mb():
    """Peak resident memory of this process image, in MiB.

    ru_maxrss also counts the parent's pages that the forked child held
    before exec, so it reads the benchmark's own size whenever that is
    larger; VmHWM is reset at exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv):
    split = argv.index("--")
    own, ct_args = argv[:split], argv[split + 1:]
    spans_path = own[own.index("--trace") + 1] if "--trace" in own else None

    start = time.perf_counter()
    from tetcontour import cli

    if spans_path:
        import tracer as tracing

        recorder = tracing.Tracer(memory="--memory" in own)
        recorder.install()
        run = recorder.wrap(tracing.ROOT, cli.main)
    else:
        recorder = None
        run = cli.main
        loaded = []

        def timed(fn):
            def call(*args, **kwargs):
                result = fn(*args, **kwargs)
                loaded.append(time.perf_counter())
                return result
            return call

        cli.load_tetgen = timed(cli.load_tetgen)
        cli.load_raw_grid = timed(cli.load_raw_grid)

    code = run(["run", *ct_args])
    end = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()

    if recorder is not None:
        trace = recorder.finish()
        loads = [s["end"] for s in trace["spans"] if s["name"] == "mesh.load"]
        loaded = loads or [end]
        with open(spans_path, "w") as fh:
            json.dump(trace, fh)
    elif not loaded:
        loaded = [end]
    print(json.dumps({"setup_s": loaded[-1] - start,
                      "run_s": end - loaded[-1],
                      "peak_rss_mb": peak_rss_mb, "exit_code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
