"""Run one genrekit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload audio-train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from a checkout of the repository: genrekit is imported from the
checkout's ``src/`` and from nowhere else.  All inputs derive from
``--seed``.  The timed phase repeats the workload's unit of work until
``--seconds`` are used up; correctness gates run afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a run whose calls into genrekit are wrapped in spans.
A record of the run (and, when traced, its spans) is written under
``.perfbench_out/``.  perfbench/README.md describes workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("audio-train", "text-train", "tag-serve")
# One BLAS thread keeps run-to-run spread low on a shared machine.  The
# numpy kernel backend is pinned so that every number belongs to one series.
BLAS_THREADS = 1
# set-up repeats at least MIN_SETUPS times; cheap ones repeat until
# SETUP_SECONDS are spent (at most MAX_SETUPS), and setup_s is the median
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 11, 6.0


def _metric_specs():
    """(name, unit) pairs of the end-to-end and per-layer metrics, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def _pin_environment():
    os.environ["GENREKIT_NO_NUMBA"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import genrekit from this checkout's src/ or stop with an error."""
    if not os.path.isfile(os.path.join(SRC, "genrekit", "__init__.py")):
        sys.exit(f"perfbench: no genrekit sources under {SRC}")
    sys.path.insert(0, SRC)
    import genrekit

    if not os.path.abspath(genrekit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: genrekit imported from {genrekit.__file__}, not {SRC}")
    return genrekit


def _record(args):
    import numpy
    import scipy
    from genrekit import kernels

    backend = kernels.backend()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernels_backend": backend,
        "series": f"{backend}-blas{BLAS_THREADS}",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------- timing

def timed_passes(workload, state, seconds, tracer=None, first_group=0, min_passes=1):
    """Repeat the workload's pass while the next one is expected to end
    within `seconds`, and at least `min_passes` times.
    Returns (passes, durations, error text or None)."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.group = first_group + len(passes)
        t0 = time.perf_counter()
        try:
            result = workload.run_pass(state, tracer)
        except Exception:
            return passes, durations, traceback.format_exc()
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        if passes:
            passes[-1].heavy = None  # only the last pass's artifacts are checked
        passes.append(result)
        if len(passes) >= min_passes and t1 - start + statistics.median(durations) > seconds:
            return passes, durations, None


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end_metrics(setup_times, passes, durations, auc, latency_passes):
    # latency percentiles come from a fixed number of passes, so that both
    # sides of a comparison estimate them from the same sample count.  The
    # tail is each pass's p99, median over passes: a burst of load from
    # other tenants of a shared machine then moves one pass, not the figure.
    sample = passes[:latency_passes]
    latencies = [v for p in sample for v in p.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(durations),
        "items_per_s": statistics.median(p.items / d for p, d in zip(passes, durations)),
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_p99_ms": statistics.median(_percentile(p.latencies_ms, 99) for p in sample),
        "auc": auc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(latencies)


def per_layer_metrics(names, pass_tracer, setup_tracer, n_passes, overhead_ratio):
    selfs = pass_tracer.self_times()
    counts = pass_tracer.counts
    setup_selfs = setup_tracer.self_times()
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name == "pipeline.synth_dataset.self_s":
            out[name] = setup_selfs.get(span, (0.0, 0))[0]  # one traced setup
        elif kind == "self_s":
            out[name] = selfs.get(span, (0.0, 0))[0] / n_passes
        elif kind == "calls":
            out[name] = selfs.get(span, (0.0, 0))[1] / n_passes
        elif kind == "gflop":
            out[name] = counts[span + ".flop"] / 1e9 / n_passes
        elif kind == "computed_mb":
            out[name] = counts[span + ".bytes"] / 1e6 / n_passes
    for name in ("nn.optim_step.params", "zoo.train.epochs", "zoo.train.samples",
                 "zoo.feature_io.bytes", "audiofeat.load.bytes", "textfeat.tokens"):
        out[name] = counts[name] / n_passes
    conv_s = out["kernels.conv2d_forward.self_s"] + out["kernels.conv2d_backward.self_s"]
    conv_gflop = out["kernels.conv2d_forward.gflop"] + out["kernels.conv2d_backward.gflop"]
    out["kernels.gflop_per_s"] = conv_gflop / conv_s if conv_s > 0 else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in names}


# ------------------------------------------------------------------ runs

def run_workload(args):
    _pin_environment()
    _import_program()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    record = _record(args)
    print("record " + json.dumps(record, sort_keys=True), flush=True)
    # Every set-up of every run writes the same files into one directory,
    # which is kept for the next run.  Deleting thousands of small files made
    # file creation up to 25 times slower for the next ~45 s on the ext4
    # file system (online discard) this was tuned on, so a run that deleted
    # its files would slow the next run's set-up.
    return _measure(args, workload, spans, os.path.join(OUT_DIR, f"work-{args.workload}"),
                    record)


def _more_setups(times, trace):
    if trace:  # a traced run sets up once, with spans on
        return not times
    return len(times) < MIN_SETUPS or (
        len(times) < MAX_SETUPS and sum(times) < SETUP_SECONDS)


def _measure(args, workload, spans, work, record):
    end_to_end, per_layer = _metric_specs()
    setup_tracer = spans.Tracer()
    pass_tracer = spans.Tracer()
    setup_times = []
    while _more_setups(setup_times, args.trace):
        if args.trace:
            setup_tracer.group = -1
            setup_tracer.install()
        t0 = time.perf_counter()
        try:
            state = workload.setup(args.seed, work)
        finally:
            setup_tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)

    if args.trace:
        # half the time untraced, half traced: their ratio is the tracing overhead
        passes, durations, error = timed_passes(workload, state, args.seconds / 2)
        if error is None:
            pass_tracer.install()
            try:
                traced, traced_durations, error = timed_passes(
                    workload, state, args.seconds / 2, pass_tracer, len(passes))
            finally:
                pass_tracer.uninstall()
            overhead = statistics.median(traced_durations) / statistics.median(durations) \
                if traced_durations else 0.0
            passes, n_traced = passes + traced, len(traced_durations)
    else:
        passes, durations, error = timed_passes(workload, state, args.seconds,
                                                min_passes=workload.LATENCY_PASSES)

    gates = []
    if error is None:
        try:
            gates = workload.check(state, passes)
        except Exception:
            error = traceback.format_exc()
    attempted = sum(p.n_ops for p in passes) + len(gates) + (error is not None)
    failed = sum(p.failed_ops for p in passes) + sum(not ok for _, ok, _ in gates) \
        + (error is not None)
    for name, ok, detail in gates:
        print(f"gate {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip(), flush=True)
    if error is not None:
        print("error: " + error, file=sys.stderr, flush=True)

    traffic = {}
    if error is not None or not passes:
        metrics, n_samples = {}, 0
    elif args.trace:
        metrics = per_layer_metrics([name for name, _ in per_layer], pass_tracer,
                                    setup_tracer, max(n_traced, 1), overhead)
        n_samples = n_traced
        for row in pass_tracer.shape_mix():
            print("conv shape (dir,B,C,H,W,F,KH,KW) calls: " + " ".join(map(str, row)))
        os.makedirs(OUT_DIR, exist_ok=True)
        base = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
        pass_tracer.write(base + ".jsonl")
        setup_tracer.write(base + "-setup.jsonl")
    else:
        metrics, n_samples = end_to_end_metrics(
            setup_times, passes, durations, workload.auc(state, passes),
            workload.LATENCY_PASSES)
        metrics = {name: metrics[name] for name, _ in end_to_end}
        traffic = workload.traffic(state, passes[:workload.LATENCY_PASSES])
        if traffic:
            print("traffic " + json.dumps(traffic, sort_keys=True), flush=True)

    units = dict(per_layer if args.trace else end_to_end)
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    print(f"passes {len(passes)}  {'traced passes' if args.trace else 'latency samples'} "
          f"{n_samples}  "
          f"error_rate {failed}/{attempted} = {failed / max(attempted, 1):.4f}  "
          f"setup runs " + " ".join(f"{t:.3f}" for t in setup_times), flush=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "traffic": traffic,
                   "gates": [[n, ok, d] for n, ok, d in gates]}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own child process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"=== {name}", flush=True)
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=900, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or child.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(merged), flush=True)
    return status or (0 if merged["correct"] else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
