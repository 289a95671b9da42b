"""Benchmark of the eqmin pipeline through its public front door.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classify-g2r4 --seed 0 --seconds 20 --trace 0

The workload runs as a closed loop for --seconds in one warm process whose
BLAS threads are capped at the number of usable CPUs.  Every iteration's
reports pass the checks in workloads.py or the iteration counts as failed.
A fixed reference job that uses no eqmin code runs before the first
iteration and after each one; an iteration's time is reported both in
seconds and in multiples of the reference job timed around it.
With --trace 0 the end-to-end metrics are printed; with --trace 1 the first
iteration runs untraced and the rest run with spans around each layer's
public functions (spans.py), and the per-layer metrics are printed.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import SPAN_NAMES, Tracer
from workloads import WORKLOADS, iteration_problems

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# A small rh3 classify that runs the mesh, kernel, solve, polish, invariant
# and class-oracle code once before timing starts.
WARMUP = dict(genus=2, resolution=3, target="rh3", l=0, data_spec="basis:0:0.1")
# The reference job runs no eqmin code: REFERENCE_REPEATS SVDs and solves
# of one fixed REFERENCE_SIZE square matrix on the capped BLAS threads,
# about 0.6 s on an idle 2-core box.  On a shared host its time rises and
# falls with the pipeline's, more closely than that of pure-Python loops
# or of matrix products, so iteration times in its units vary much less
# between runs than seconds do.  Its matrices add about 4 MB to the
# process, less than the 5% bound of peak_rss_mb.
REFERENCE_REPEATS = 12
REFERENCE_SIZE = 400

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "kappaperp_resid": "1",
    "min_gap_ratio": "ratio",
}

PER_LAYER_UNITS = {
    **{f"{name}.{key}": unit for name in SPAN_NAMES
       for key, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))},
    "bundles.holomorphic_basis.peak_mb": "MB",
    "germsolve.newton_iters": "count",
    "untraced_wall_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "span_self_share": "ratio",
}


def cap_blas_threads():
    """Set the BLAS thread cap; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def check_source(src):
    if not (src / "eqmin" / "cli.py").is_file():
        raise SystemExit(f"no eqmin sources under {src}; run from a checkout root")


def import_cli(src):
    """Import eqmin.cli from this checkout's sources, never an installed copy."""
    check_source(src)
    sys.path.insert(0, str(src))
    from eqmin import cli

    if Path(cli.__file__).resolve().parent != (src / "eqmin").resolve():
        raise SystemExit(f"eqmin imported from {cli.__file__}, not from {src}")
    return cli


def measure_setup(src):
    """Median seconds, over SETUP_REPEATS fresh interpreters, from spawn to
    `import eqmin.cli` having returned (CLOCK_MONOTONIC is system-wide, so
    the child's reading compares with the parent's)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import eqmin.cli; "
            "print(time.monotonic())")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                              capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout) - start)
    return statistics.median(times)


def environment(nproc, workload, spec, values, iterations):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    mesh = next((r["mesh"] for r in iterations[0].reports if "mesh" in r), {})
    return {
        "workload": workload.name,
        "data_spec": spec,
        "sweep_values": list(values),
        "V": mesh.get("vertices"),
        "F": mesh.get("faces"),
        "nproc": nproc,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "reference_s": statistics.median(it.reference for it in iterations),
    }


def reference_job():
    """A function returning the wall seconds of one reference job."""
    import numpy

    matrix = numpy.random.default_rng(0).standard_normal((REFERENCE_SIZE, REFERENCE_SIZE))

    def seconds():
        start = time.perf_counter()
        for _ in range(REFERENCE_REPEATS):
            numpy.linalg.svd(matrix)
            numpy.linalg.solve(matrix, matrix)
        return time.perf_counter() - start

    return seconds


def fingerprint(reports):
    return json.dumps(reports, sort_keys=True, default=str)


@dataclass
class Iteration:
    wall: float
    reports: list
    problems: list
    traced: bool
    # Mean wall seconds of the reference jobs run just before and after.
    reference: float = None

    @property
    def wall_ref(self):
        return self.wall / self.reference


def run_iteration(cli, workload, spec, values, out_dir, tracer=None):
    """One closed-loop iteration, timed around the front-door call."""
    patch = tracer.patched() if tracer else contextlib.nullcontext()
    traced = tracer is not None
    start = time.perf_counter()
    try:
        with patch:
            reports = workload.run(cli, spec, values, out_dir)
    except Exception as exc:  # an iteration that raises is counted, not fatal
        wall = time.perf_counter() - start
        traceback.print_exc()
        return Iteration(wall, [], [f"raised {exc!r}"], traced)
    wall = time.perf_counter() - start
    return Iteration(wall, reports, iteration_problems(reports, values), traced)


def closed_loop(cli, workload, spec, values, seconds, tracer=None, reference=None):
    """Iterate while another iteration of median length still ends within
    `seconds`, so a run's length stays near `seconds` however long one
    iteration takes.  The reference job runs before the first iteration and
    after each one.  With a tracer the first iteration runs untraced and at
    least one traced iteration follows; each traced iteration must reproduce
    the untraced reports exactly."""
    out_dir = str(OUT / workload.name)
    reference = reference or reference_job()
    iterations = []
    start = time.perf_counter()
    before = reference()
    while True:
        traced = tracer is not None and len(iterations) > 0
        if traced:
            tracer.iteration = len(iterations)
        it = run_iteration(cli, workload, spec, values, out_dir, tracer if traced else None)
        if traced and fingerprint(it.reports) != fingerprint(iterations[0].reports):
            it.problems.append("traced reports differ from the untraced ones")
        after = reference()
        it.reference, before = (before + after) / 2, after
        iterations.append(it)
        print(f"iteration {len(iterations) - 1}{' traced' if traced else ''}: "
              f"{it.wall:.4f} s, {it.wall_ref:.4f} ref, "
              f"{'; '.join(it.problems) or 'ok'}", flush=True)
        typical = statistics.median(i.wall + after for i in iterations)
        done = time.perf_counter() - start + typical > seconds
        if done and len(iterations) >= (1 if tracer is None else 2):
            return iterations


def _median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(iterations, setup_s):
    def kappaperp(it):
        found = [r["invariants"]["residuals"]["kappaperp_identity"] for r in it.reports
                 if "kappaperp_identity" in r.get("invariants", {}).get("residuals", {})]
        return max(found, default=None)

    def min_gap(it):
        gaps = [d["gap_ratio"] for r in it.reports for d in r.get("bundle_dims", {}).values()]
        return min(gaps, default=None)

    failed = sum(1 for it in iterations if it.problems)
    return {
        "wall_ref": sum(it.wall for it in iterations) / sum(it.reference for it in iterations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (len(iterations) - failed) / len(iterations),
        "kappaperp_resid": _median_of(kappaperp(it) for it in iterations),
        "min_gap_ratio": _median_of(min_gap(it) for it in iterations),
    }


def per_layer_metrics(iterations, tracer):
    traced = [(k, it) for k, it in enumerate(iterations) if it.traced]
    summaries = [tracer.summary(k) for k, _ in traced]
    metrics = {key: statistics.median(s[key] for s in summaries) for key in summaries[0]}
    metrics["untraced_wall_s"] = iterations[0].wall
    metrics["traced_wall_s"] = statistics.median(it.wall for _, it in traced)
    metrics["trace_overhead_s"] = metrics["traced_wall_s"] - metrics["untraced_wall_s"]
    metrics["span_self_share"] = statistics.median(
        sum(s[f"{name}.self_s"] for name in SPAN_NAMES) / it.wall
        for s, (_, it) in zip(summaries, traced))
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    check_source(SRC)
    nproc = cap_blas_threads()
    workload = WORKLOADS[args.workload]
    spec, values = workload.inputs(args.seed)
    setup_s = None if args.trace else measure_setup(SRC)
    cli = import_cli(SRC)

    warmup = cli.run(cli.RunConfig(**WARMUP, output_dir=str(OUT / "warmup")))
    if "failed_at" in warmup:
        raise SystemExit(f"warm-up run failed: {warmup['failed_at']}")

    shutil.rmtree(OUT / workload.name, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    iterations = closed_loop(cli, workload, spec, values, args.seconds, tracer)
    env = environment(nproc, workload, spec, values, iterations)
    print("environment " + json.dumps(env), flush=True)

    if args.trace:
        spans_path = OUT / workload.name / "spans.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics, units = per_layer_metrics(iterations, tracer), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(iterations, setup_s), END_TO_END_UNITS
    failed = sum(1 for it in iterations if it.problems)
    if not args.trace:
        print(f"{'failed_frac':34s} {failed / len(iterations):.6g}  "
              f"({failed} of {len(iterations)} iterations)")
        print(f"{'wall_s':34s} {statistics.median(it.wall for it in iterations):.6g}  s "
              f"(reference job {env['reference_s']:.6g} s)")
    for name, value in metrics.items():
        print(f"{name:34s} {value!s:>24}  {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
