"""Tests of the benchmark itself: seeded inputs, output checks, failure
counting, and that tracing does not change what the program returns."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import SPAN_NAMES, Tracer
from workloads import (
    BASELINE_SPEC,
    CLASSIFY_AMPLITUDES,
    SWEEP_POINTS,
    SWEEP_RANGE,
    WORKLOADS,
    Workload,
    iteration_problems,
    report_problems,
)

# A classify small enough for a unit test (V=254), through the same path
# the workloads use.
SMALL = Workload("small", "unit test", target="rh3", genus=2, resolution=3, l=0)

GOOD_REPORT = {
    "mesh": {"vertices": 1022, "faces": 2048},
    "bundle_dims": {
        "K2Linv": {"detected": 2, "expected": 2, "gap_ratio": 56.8},
        "K2L": {"detected": 4, "expected": 4, "gap_ratio": 89.9},
    },
    "solution": {"converged": True},
    "invariants": {"residuals": {"gauss_bonnet": 1e-12, "area_identity": 1e-11,
                                 "chi_integral": 1e-13, "kappaperp_identity": 0.03}},
    "moduli": {"verdict": "Stable"},
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(run.SRC)


def test_seed_zero_is_the_baseline_and_inputs_replay():
    assert WORKLOADS["classify-g2r4"].inputs(0) == (BASELINE_SPEC, ())
    for workload in WORKLOADS.values():
        for seed in range(20):
            spec, values = workload.inputs(seed)
            assert (spec, values) == workload.inputs(seed)
            parts = spec.split(":")
            assert parts[:2] == ["basis", "0"]
            if workload.sweep:
                lo, hi = SWEEP_RANGE
                assert len(values) == SWEEP_POINTS and list(values) == sorted(values)
                assert values[0] == lo and values[-1] == hi
            else:
                assert values == ()
                assert 0 <= int(parts[3]) < workload.k2l_dim
                lo, hi = CLASSIFY_AMPLITUDES
                assert lo <= float(parts[2]) <= hi and lo <= float(parts[4]) <= hi


@pytest.mark.parametrize("defect", [
    lambda r: r.update(failed_at={"stage": "bundles", "error": "X", "message": ""}),
    lambda r: r["bundle_dims"]["K2L"].update(detected=3),
    lambda r: r["solution"].update(converged=False),
    lambda r: r["invariants"]["residuals"].update(area_identity=2e-6),
    lambda r: r["invariants"]["residuals"].pop("chi_integral"),
    lambda r: r["moduli"].update(verdict="Undetermined"),
    lambda r: r.pop("bundle_dims"),
])
def test_injected_bad_report_counts_as_failed(defect, tmp_path, monkeypatch):
    assert report_problems(GOOD_REPORT) == []
    bad = copy.deepcopy(GOOD_REPORT)
    defect(bad)
    assert report_problems(bad)

    replies = iter([[GOOD_REPORT], [bad]])
    monkeypatch.setattr(Workload, "run", lambda self, cli, spec, values, out: next(replies))
    iterations = [run.run_iteration(None, SMALL, "spec", (), str(tmp_path)) for _ in range(2)]
    for it in iterations:
        it.reference = 1.0
    assert [bool(it.problems) for it in iterations] == [False, True]
    assert run.end_to_end_metrics(iterations, setup_s=1.0)["ok_frac"] == 0.5


def test_reference_job_runs_around_every_iteration(monkeypatch):
    monkeypatch.setattr(Workload, "run", lambda self, cli, spec, values, out: [GOOD_REPORT])
    times = iter([0.5, 1.5])
    iterations = run.closed_loop(None, SMALL, "spec", (), 0.0, reference=lambda: next(times))
    assert len(iterations) == 1 and iterations[0].reference == 1.0


def test_wall_ref_is_total_wall_over_total_reference():
    iterations = [run.Iteration(wall, [GOOD_REPORT], [], False, reference=ref)
                  for wall, ref in ((6.0, 0.5), (9.0, 1.0))]
    metrics = run.end_to_end_metrics(iterations, setup_s=1.0)
    assert metrics["wall_ref"] == pytest.approx(10.0)


def test_sweep_needs_one_report_per_value():
    _, values = WORKLOADS["sweep-g2r3"].inputs(1)
    assert iteration_problems([GOOD_REPORT] * len(values), values) == []
    assert iteration_problems([GOOD_REPORT] * 3, values)


def test_raising_iteration_counts_as_failed(tmp_path, monkeypatch):
    def boom(self, cli, spec, values, out):
        raise RuntimeError("injected")

    monkeypatch.setattr(Workload, "run", boom)
    it = run.run_iteration(None, SMALL, "spec", (), str(tmp_path))
    assert it.problems and it.reports == []


def test_traced_iteration_returns_the_untraced_report(cli, tmp_path):
    spec = "basis:0:0.3"
    plain = run.run_iteration(cli, SMALL, spec, (), str(tmp_path))
    original_run = cli.run
    tracer = Tracer()
    tracer.iteration = 1
    traced = run.run_iteration(cli, SMALL, spec, (), str(tmp_path), tracer)

    assert plain.problems == [] and traced.problems == []
    assert run.fingerprint(traced.reports) == run.fingerprint(plain.reports)
    assert cli.run is original_run  # the wrappers are gone again

    summary = tracer.summary(1)
    assert summary["cli.run.calls"] == 1
    assert summary["hypmesh.build_surface.calls"] == 1
    assert summary["germsolve.polish_solution.calls"] == 1
    assert summary["germsolve.newton_iters"] == plain.reports[0]["solution"]["iterations"]
    assert summary["bundles.holomorphic_basis.peak_mb"] > 0
    self_total = sum(summary[f"{name}.self_s"] for name in SPAN_NAMES)
    assert self_total == pytest.approx(summary["cli.run.s"], rel=1e-9)
    assert self_total <= traced.wall

    tracer.dump(tmp_path / "spans.json")
    rows = json.loads((tmp_path / "spans.json").read_text())
    assert len(rows) == len(tracer.spans)
    assert [r["name"] for r in rows if r["parent"] is None] == ["cli.run"]
    assert all(rows[r["parent"]]["start"] <= r["start"] <= r["end"] <= rows[r["parent"]]["end"]
               for r in rows if r["parent"] is not None)


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(run.__file__).parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "classify-g2r4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
