"""Pipeline benchmark of lidarscene.

    python3 perfbench/run.py --workload {dataset,trajectory,score} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. One run is one process and one workload. It pins the BLAS thread
count to at most the number of usable cores, sets up the workload several
times (reporting the median), then runs whole rounds of timed operations
until the next round would end after ``--seconds``, at least one round.
Correctness checks run after each round, outside its timed interval.

With ``--trace 0`` the final line carries the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and the final line
carries the per-layer metrics, including the tracing overhead (traced
against untraced round time). Every metric is printed above it by name
with its unit, together with the workload's own timings (frame, step,
sample and eval percentiles), the information values and an environment
record. Spans of traced rounds are written as JSON lines, and a result
file per run, under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("dataset", "trajectory", "score")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Modules that import numpy are imported inside functions: the BLAS thread
# count is read when numpy loads, so it must be pinned first.

# name, unit: reported by every workload with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_blas_threads():
    """Cap every BLAS thread-count variable at the usable core count; must
    run before numpy is imported. Returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        n = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(n)
    return nproc


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(nproc):
    import platform

    import numpy
    import scipy

    from lidarscene import accel

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "numba_importable": accel.HAS_NUMBA,
        "numba_enabled": accel.NUMBA_ENABLED,
        "commit": git_commit(),
    }


def run_rounds(workload, inputs, rec, seconds, trace, run_name):
    """Whole rounds until the next one would end after ``seconds``; with
    ``trace`` they alternate untraced and traced, at least one of each.
    Returns the timed seconds of each kind of round, the op latencies of
    each, and the tracer."""
    import layers
    import tracing

    tracer = tracing.Tracer() if trace else None
    times = {False: [], True: []}
    samples = {False: {}, True: {}}
    cycles = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = trace and k % 2 == 1
        rec.samples = samples[traced]
        rec.excluded = 0.0
        if traced:
            tracer.run_id = f"{run_name}-r{k}"
            layers.install(tracer)
        start = time.perf_counter()
        try:
            check = workload.round(inputs, k, rec, tracer if traced else None)
        finally:
            elapsed = time.perf_counter() - start - rec.excluded
            if traced:
                tracer.restore()
        times[traced].append(elapsed)
        check()
        cycles.append(time.perf_counter() - start)
        k += 1
        enough = times[False] and (times[True] or not trace)
        if enough and time.perf_counter() + statistics.median(cycles) > deadline:
            return times, samples, tracer


def workload_timings(rec_samples, round_times):
    """The workload's own timings under the names used in the report."""
    from tracing import tail_percentile

    out = {"rounds": (len(round_times), "count")}
    for kind, label in (
        ("frame", "frame_s"),
        ("extract", "extract_s"),
        ("uncond_step", "uncond_step_s"),
        ("cond_step", "cond_step_s"),
        ("sample", "sample_s"),
        ("eval", "eval_s"),
    ):
        values = rec_samples.get(kind)
        if not values:
            continue
        if kind == "frame":
            out["frames_per_s"] = (len(values) / sum(values), "1/s")
        if kind in ("sample", "eval"):
            out[label] = (statistics.median(values), "s")
            continue
        out[f"{label}.n"] = (len(values), "count")
        out[f"{label}.p50"] = (statistics.median(values), "s")
        p90 = tail_percentile(values, 900)
        if p90 is not None:
            out[f"{label}.p90"] = (p90, "s")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lidarscene" / "__init__.py").is_file():
        print(f"error: no lidarscene sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()

    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (timed as part of set-up)

    import layers
    import workloads

    import_s = time.perf_counter() - import_start

    env = environment(nproc)
    print("env " + json.dumps(env), flush=True)
    workload = workloads.WORKLOADS[args.workload]()
    rec = workloads.Record()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{run_name}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
            rec.boundary(force=True)
        times, samples, tracer = run_rounds(workload, inputs, rec, args.seconds, args.trace == 1, run_name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    probe_s = statistics.median(rec.probes)
    scale = workloads.PROBE_REF_S / probe_s
    plain = {kind: [t * scale for t in values] for kind, values in samples[False].items()}
    timings = workload_timings(plain, times[False])
    timings["failed_ratio"] = (rec.failed / max(rec.attempted, 1), "ratio")
    raw = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(times[False]),
        "op_s.p50": statistics.median(samples[False][workload.op_kind]),
    }
    end_to_end = {name: value * scale for name, value in raw.items()}
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = {
        "probe_ms.p50": (probe_s * 1e3, "ms"),
        "probes": (len(rec.probes), "count"),
        "scale": (scale, "ratio"),
        **{f"raw.{name}": (value, "s") for name, value in raw.items()},
    }
    units = e2e_units = dict(END_TO_END)
    if args.trace:
        overhead = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
        values = layers.layer_metrics(tracer.spans, len(times[True]), overhead)
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        tracer.write_jsonl(OUT / f"trace-{run_name}.jsonl")
    else:
        values = end_to_end

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec.attempted} operations, {rec.failed} failed")
    sections = [("end-to-end, at reference host speed", {k: (v, e2e_units[k]) for k, v in end_to_end.items()}),
                ("host speed (timings above and below are raw times x scale)", host),
                ("workload timings (untraced rounds)", timings)]
    if args.trace:
        sections.append(("per layer, per traced round", {k: (v, units[k]) for k, v in values.items()}))
    for title, table in sections:
        print(f"  {title}:")
        for name, (value, unit) in table.items():
            print(f"    {name:<36} {value:>14.6g} {unit}")
    if rec.info:
        print("  information (not gated):")
        for name, vals in rec.info.items():
            print(f"    {name:<36} {statistics.median(vals):>14.6g} (median of {len(vals)})")
    for failure in rec.failures:
        print(f"  FAILED {failure}")

    result = {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    with open(OUT / f"result-{run_name}.json", "w") as f:
        json.dump({**result, "env": env, "end_to_end": end_to_end, "host": host, "timings": timings,
                   "info": rec.info, "failures": rec.failures}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
