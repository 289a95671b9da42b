"""Pipeline front door: configs, reports, sweeps, subcommands."""

import csv
import gc
import json
import os
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eqmin import bundles, cli, factor, germsolve, higgs, hypmesh, invariants, moduli
from eqmin.bundles import DiscreteSection
from eqmin.cli import RunConfig, main, run, sweep
from eqmin.errors import EqminError, InvalidParameterError

REPORT_KEYS = ("config_echo", "mesh", "solution", "invariants", "higgs_checks", "moduli")


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        RunConfig(genus=1).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(target="rh5").validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(target="rh4", genus=2, l=2).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(solver_tol=-1.0).validate()
    with pytest.raises(InvalidParameterError):
        RunConfig(resolution=0).validate()
    RunConfig().validate()


def test_zero_run_report(tmp_path):
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="zero",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    assert "failed_at" not in rep
    for key in REPORT_KEYS:
        assert key in rep
    assert rep["solution"]["converged"]
    assert rep["solution"]["u_max"] < 1e-10
    assert rep["moduli"]["verdict"] == "Polystable"
    assert os.path.exists(tmp_path / "report.json")
    with open(tmp_path / "report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["mesh"]["genus"] == 2
    with open(tmp_path / "fields.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["vertex", "x", "y", "kappa_gamma", "kappa_perp", "u4_norm"]


@pytest.mark.parametrize("coupled", [False, True])
def test_plot_csv_is_what_the_csv_module_writes(tmp_path, coupled):
    # fields.csv is written as one string; the reference is a csv.writer
    # row per vertex, the writer it replaced
    from types import SimpleNamespace

    from eqmin import cli

    rng = np.random.default_rng(4)
    V = 40
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1.5e12, 1 / 3])
    columns = rng.standard_normal((4, V)) * 10.0 ** rng.integers(-8, 8, (4, V))
    columns[:, :len(special)] = special
    vertices = np.empty(V, dtype=complex)
    vertices.real, vertices.imag = columns[:2]
    mesh = SimpleNamespace(n_vertices=V, vertices=vertices)
    rep = SimpleNamespace(kappa_gamma=columns[2], kappa_perp=columns[3] if coupled else None,
                          u4_norm_sq=columns[3] ** 2)
    cli._write_plot_csv(tmp_path / "fields.csv", mesh, rep)
    kp = rep.kappa_perp if coupled else np.zeros(V)
    u4 = np.sqrt(np.abs(rep.u4_norm_sq))
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["vertex", "x", "y", "kappa_gamma", "kappa_perp", "u4_norm"])
        for i in range(V):
            wr.writerow([i] + [f"{c[i]:.12g}" for c in (mesh.vertices.real,
                                                      mesh.vertices.imag,
                                                      rep.kappa_gamma, kp, u4)])
    assert (tmp_path / "fields.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_failed_run_writes_partial_report(tmp_path):
    # resolution too coarse for kernel detection: fails at the bundle stage
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="basis:0:0.5",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    failed = rep["failed_at"]
    assert failed["stage"] == "bundles"
    assert "mesh" in rep
    # the record carries the error payload: the smallest singular values
    assert failed["error"] == "IndeterminateKernelError"
    # the 2h + 2 = 8 smallest, h = 3 for K^2 at g = 2
    s = failed["singular_values"]
    assert len(s) == 8 and s == sorted(s)
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh)["failed_at"]["singular_values"] == s


def test_failed_at_carries_newton_trace(tmp_path):
    # a datum that takes 3 Newton iterations from its constant start
    cfg = RunConfig(genus=2, resolution=3, target="rh3",
                    data_spec="basis:0:0.8", max_iter=1,
                    output_dir=str(tmp_path))
    rep = run(cfg, last_stage="germsolve")
    failed = rep["failed_at"]
    assert failed["stage"] == "germsolve"
    assert failed["error"] == "NonConvergenceError"
    assert [row[0] for row in failed["trace"]] == [0, 1]


@pytest.mark.parametrize("kw", [
    dict(resolution=3, target="rh3", data_spec="basis:0:0.4"),
    # proportional classes at l=0: the class flags hold a bool
    dict(resolution=3, target="rh4", l=0, data_spec="basis:0:0.3:0:0.3"),
    # failures carrying singular values and a Newton trace
    dict(resolution=2, target="rh3", data_spec="basis:0:0.5"),
    dict(resolution=3, target="rh3", data_spec="basis:0:0.8", max_iter=1),
], ids=["rh3", "rh4-l0", "failed-kernel", "failed-newton"])
def test_report_file_equals_returned_report(tmp_path, kw):
    rep = run(RunConfig(genus=2, output_dir=str(tmp_path), **kw))
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep
    if "failed_at" not in rep:
        polish = rep["solution"]["polish"]
        assert type(polish["factor_nnz"]) is int and "factorizations" not in polish
        trace = rep["solution"]["newton_trace"]
        assert [row[0] for row in trace] == list(range(rep["solution"]["iterations"] + 1))
        assert trace[-1][1] == rep["solution"]["residual"]
        # the 2h + 2 smallest singular values of each kernel search
        for entry in rep["bundle_dims"].values():
            s = entry["singular_values"]
            assert type(s) is list and len(s) == 2 * entry["expected"] + 2 and s == sorted(s)
    if kw["target"] == "rh4":
        assert rep["moduli"]["class_flags"]["proportional"] is True


def test_smallest_mesh_fails_at_bundles(tmp_path):
    # resolution 1 has V = 14 vertices; ARPACK finds the 8 smallest
    # singular values and no gap among them
    cfg = RunConfig(genus=2, resolution=1, target="rh3", data_spec="basis:0:0.1",
                    output_dir=str(tmp_path))
    failed = run(cfg)["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == "IndeterminateKernelError"
    assert len(failed["singular_values"]) == 8


def _arpack_no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))


def _singular_factor(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize("fail, error", [
    (_arpack_no_convergence, "IndeterminateKernelError"),
    (_singular_factor, "LinearSolveError"),
])
def test_eigensolver_failure_ends_in_report(tmp_path, monkeypatch, fail, error):
    # r=3 is the smallest resolution whose K^2 kernel search succeeds
    monkeypatch.setattr(spla, "eigsh", fail)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.1",
                    output_dir=str(tmp_path))
    failed = run(cfg)["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == error
    assert "eigensolve" in failed["message"]


def test_class_oracle_factor_failure_ends_in_report(tmp_path, monkeypatch):
    # the band factor fails only while the class oracle runs
    cholesky_banded, class_is_trivial = factor.cholesky_banded, bundles.class_is_trivial
    in_oracle = []

    def fail_in_oracle(*args, **kwargs):
        if in_oracle:
            raise np.linalg.LinAlgError("1-th leading minor not positive definite")
        return cholesky_banded(*args, **kwargs)

    def flagged_oracle(*args, **kwargs):
        in_oracle.append(True)
        try:
            return class_is_trivial(*args, **kwargs)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(factor, "cholesky_banded", fail_in_oracle)
    monkeypatch.setattr(bundles, "class_is_trivial", flagged_oracle)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    failed = rep["failed_at"]
    assert failed["stage"] == "higgs"
    assert failed["error"] == "LinearSolveError"
    assert "harmonic projection" in failed["message"]
    assert rep["invariants"] and "moduli" not in rep


def _fail_in_float32(cholesky_banded):
    """cholesky_banded failing on float32 bands, which only the polish
    factors."""
    def failing(ab, **kwargs):
        if ab.dtype == np.float32:
            raise np.linalg.LinAlgError("1-th leading minor not positive definite")
        return cholesky_banded(ab, **kwargs)

    return failing


def _one_cg_iteration(cg):
    """cg capped at one iteration, which misses the polish's tolerance."""
    return lambda A, b, **kwargs: cg(A, b, **{**kwargs, "maxiter": 1})


@pytest.mark.parametrize("module, name, fail, cg_iterations", [
    (factor, "cholesky_banded", _fail_in_float32, 0),
    (spla, "cg", _one_cg_iteration, 1),
], ids=["factor", "cg"])
def test_polish_failure_ends_in_report(tmp_path, monkeypatch, module, name, fail,
                                       cg_iterations):
    monkeypatch.setattr(module, name, fail(getattr(module, name)))
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    failed = rep["failed_at"]
    assert failed["stage"] == "invariants"
    assert failed["error"] == "LinearSolveError"
    assert "polish solve failed" in failed["message"]
    assert (failed["step"], failed["cg_iterations"]) == (1, cg_iterations)
    assert 1e-12 < failed["relative_residual"] <= 1.0
    assert rep["solution"]["converged"] and "invariants" not in rep
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep


def test_kernel_factor_failure_ends_in_report(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("1-th leading minor not positive definite")

    monkeypatch.setattr(factor, "cholesky_banded", fail)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    failed = rep["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == "LinearSolveError"
    assert "shift-invert eigensolve" in failed["message"]
    assert "bundle_dims" not in rep and "solution" not in rep


def test_bundle_dims_record_the_kernel_band(tmp_path, monkeypatch):
    factors = []

    def recording(pattern, values):
        factors.append(factor.factor_hpd(pattern, values))
        return factors[-1]

    monkeypatch.setattr(bundles, "factor_hpd", recording)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg, write_files=False, last_stage="germsolve")
    # the kernel band's (kd + 1) V entries, 254 vertices at r=3
    (entry,) = rep["bundle_dims"].values()
    (f,) = factors
    assert type(entry["factor_nnz"]) is int
    assert entry["factor_nnz"] == (f.bandwidth + 1) * 254


def test_bad_data_spec_rejected(tmp_path):
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="nonsense",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    assert rep["failed_at"]["error"] == "InvalidParameterError"


def test_manufactured_run_records_error(tmp_path):
    cfg = RunConfig(genus=2, resolution=2, target="rh3",
                    data_spec="manufactured:0.1", output_dir=str(tmp_path))
    rep = run(cfg, last_stage="germsolve")
    assert rep["solution"]["mms_error"] < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_manufactured_values_end_in_failed_at_records():
    # at g2r1 the Newton residual's norm overflows from u* = 88.4 on, and
    # the forcing summed over the surface from 176.64 on: no overflow
    # escapes a run, whose report stays plain JSON.  Outcomes below 88.4:
    # the clipped exponentials of the equations let no u* > 30 converge
    outcomes = {-400.0: None, -40.0: None, 40.0: ("germsolve", "NonConvergenceError"),
                88.0: ("germsolve", "NonConvergenceError")}
    outcomes.update({u: ("germsolve", "NonConvergenceError") for u in (88.44, 100.0, 170.0)})
    outcomes.update({u: ("config", "InvalidParameterError") for u in (176.64, 400.0, 1e3)})
    for u_star, outcome in outcomes.items():
        rep = run(RunConfig(genus=2, resolution=1, target="rh3",
                            data_spec=f"manufactured:{u_star}"), write_files=False)
        failed = rep.get("failed_at")
        assert (failed and (failed["stage"], failed["error"])) == outcome, (u_star, failed)
        json.dumps(rep, allow_nan=False)


def test_solution_records_the_constant_start(tmp_path):
    def solution(**kw):
        cfg = RunConfig(genus=2, resolution=3, output_dir=str(tmp_path), **kw)
        return run(cfg, last_stage="germsolve")["solution"]

    mms = solution(target="rh3", data_spec="manufactured:0.1")
    assert mms["start"] == {"u": pytest.approx(0.1, abs=1e-14)} and mms["iterations"] == 0
    # zero rh4 data at l = 0: the decoupled scalar solve, with w = 0
    zero = solution(target="rh4", l=0, data_spec="zero")
    assert zero["start"] == {"u": 0.0, "w": 0.0} and zero["iterations"] == 0
    rh3 = solution(target="rh3", data_spec="basis:0:0.4")
    assert set(rh3["start"]) == {"u"} and -0.1 < rh3["start"]["u"] < 0.0


def test_seeded_random_data_is_deterministic(tmp_path):
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="random:0.4",
                    seed=5, output_dir=str(tmp_path))
    rep1 = run(cfg, write_files=False)
    rep2 = run(cfg, write_files=False)
    assert rep1["invariants"]["area"] == rep2["invariants"]["area"]
    assert rep1["config_echo"]["rng"] == "numpy default_rng"
    assert rep1["config_echo"]["seed"] == 5


def test_sweep_axis_validated(tmp_path):
    cfg = RunConfig(output_dir=str(tmp_path))
    with pytest.raises(InvalidParameterError):
        sweep(cfg, "banana", [1, 2])


def test_empty_sweep_rejected(tmp_path):
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="basis:0:0.1",
                    output_dir=str(tmp_path))
    with pytest.raises(InvalidParameterError):
        sweep(cfg, "amplitude", [])
    assert not os.listdir(tmp_path)


def test_resolution_sweep_aggregates(tmp_path):
    cfg = RunConfig(genus=2, target="rh3", data_spec="zero",
                    output_dir=str(tmp_path))
    rows, reports = sweep(cfg, "resolution", [1, 2])
    assert len(rows) == 2
    for row in rows:
        assert row["failed_at"] is None
        assert abs(row["area"] - 4.0 * np.pi) < 1e-6
    assert os.path.exists(tmp_path / "sweep_resolution.csv")


def test_mesh_info_command(tmp_path, monkeypatch, capsys):
    # mesh-info prints the mesh stage of a run that writes no files, so an
    # output directory that cannot be made is never tried
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a regular file")
    argv = ["mesh-info", "--genus", "2", "--resolution", "1", "--output-dir", "afile/sub"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["euler_characteristic"] == -2
    assert out == run(RunConfig(resolution=1), write_files=False, last_stage="mesh")["mesh"]
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_basis_command(capsys):
    code = main(["basis", "--target", "rh3", "--resolution", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["K2"]["detected"] == 3


def test_basis_command_reports_undetected_kernel(capsys):
    # rh4, l=1 at r=3: the K^2 L^-1 gap is 8.71, below the floor of 10
    assert main(["basis", "--resolution", "3"]) == 1
    failed = json.loads(capsys.readouterr().out)["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == "IndeterminateKernelError"
    assert "8.71" in failed["message"]
    # the 2h + 2 = 6 smallest, h = 2 for K^2 L^-1 at l = 1
    s = failed["singular_values"]
    assert len(s) == 6 and s == sorted(s)
    assert abs(s[2] / s[1] - 8.71) < 0.005


@pytest.mark.parametrize("h", [1, 0])
def test_kernel_beyond_the_window_is_reported(capsys, monkeypatch, h):
    # the g2r3 K^2 kernel has dimension 3; a search sized for h = 1 reads
    # 4 singular values and reports it against the expected 1, one sized
    # for h = 0 reads 2 and finds no gap
    monkeypatch.setattr(bundles, "h1_dim", lambda g, l: h)
    code = main(["basis", "--target", "rh3", "--resolution", "3"])
    out = json.loads(capsys.readouterr().out)
    if h == 0:
        assert code == 1
        failed = out["failed_at"]
        assert (failed["stage"], failed["error"]) == ("bundles", "IndeterminateKernelError")
        assert len(failed["singular_values"]) == 2
    else:
        k2 = out["K2"]
        assert (k2["detected"], k2["expected"], len(k2["singular_values"])) == (3, 1, 4)


def test_mesh_info_command_rejects_bad_config(capsys):
    assert main(["mesh-info", "--resolution", "0"]) == 1
    failed = json.loads(capsys.readouterr().out)["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert "resolution" in failed["message"]


def test_report_records_polish(tmp_path):
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg, write_files=False, last_stage="invariants")
    polish = rep["solution"]["polish"]
    assert "factorizations" not in polish
    # the fill of the one (single-precision) factorization of the 254 x 254
    # normal matrix, which preconditions a CG solve on every step
    fill = polish["factor_nnz"]
    assert type(fill) is int and fill > 254
    assert all(0 < s["cg_iterations"] <= 10 for s in polish["steps"])
    for step in polish["steps"]:
        assert step["residual_after"] < step["residual_before"]
        assert step["step_fraction"] == 1.0
    # the record is deterministic, like the rest of the report
    assert run(cfg, write_files=False, last_stage="invariants")["solution"]["polish"] == polish


def test_default_basis_command_matches_riemann_roch(tmp_path, monkeypatch, capsys):
    # basis records every bundle of the target and draws no data, so it
    # never reads the data spec's file
    monkeypatch.chdir(tmp_path)
    assert main(["basis", "--data", "file:missing.json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["K2Linv", "K2L"]
    for key, dim in (("K2L", 4), ("K2Linv", 2)):
        assert out[key]["detected"] == dim
        assert out[key]["gap_ratio"] >= 10.0


def test_verify_command_zero_data(tmp_path, capsys):
    code = main([
        "verify", "--target", "rh3", "--resolution", "2",
        "--data", "zero", "--output-dir", str(tmp_path),
    ])
    assert code == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"genus": 2, "resolution": 2, "target": "rh3"}))
    code = main(["mesh-info", "--config", str(cfgfile), "--resolution", "1"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["resolution"] == 1


@pytest.mark.parametrize("kw", [
    dict(resolution=0),
    dict(genus=2.5),
    dict(resolution=1.5),
    dict(max_iter=2.5),
    # a negative tolerance would count every extension class as nonzero
    dict(class_tol=-1.0),
    dict(solver_tol=float("nan")),
    dict(seed=-1, target="rh3", data_spec="random:0.3"),
], ids=["resolution-0", "genus-float", "resolution-float", "max_iter-float",
        "class_tol-negative", "solver_tol-nan", "seed-negative"])
def test_invalid_config_ends_in_report(kw):
    rep = run(RunConfig(**{"data_spec": "zero", **kw}), write_files=False)
    failed = rep["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert next(iter(kw)) in failed["message"]
    assert "mesh" not in rep


_SUBCOMMAND_ARGS = {
    "mesh-info": [], "basis": [], "solve": [], "invariants": [],
    "classify": [], "verify": [], "sweep": ["--axis", "l", "--values", "0"],
}


@pytest.mark.parametrize("content, commands", [
    (None, _SUBCOMMAND_ARGS),
    ("not json", _SUBCOMMAND_ARGS),
    (json.dumps({"identity_scale": 1.0}), _SUBCOMMAND_ARGS),
    (json.dumps([1, 2]), _SUBCOMMAND_ARGS),
    (json.dumps({"output_dir": 3}), _SUBCOMMAND_ARGS),
    # mesh-info and basis write no files, so only the others make the directory
    (json.dumps({"output_dir": "afile/sub"}),
     {c: a for c, a in _SUBCOMMAND_ARGS.items() if c not in ("mesh-info", "basis")}),
], ids=["missing", "not-json", "unknown-key", "list", "output-dir-int",
        "output-dir-under-file"])
def test_bad_config_file_ends_in_report(tmp_path, monkeypatch, capsys, content, commands):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a regular file")
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    for command, extra in commands.items():
        argv = [command, "--config", str(path)]
        if "output_dir" not in (content or ""):
            argv += ["--output-dir", "out"]
        assert main(argv + extra) == 1
        failed = json.loads(capsys.readouterr().out)["failed_at"]
        assert failed["stage"] == "config"
        assert failed["error"] == "InvalidParameterError"
    # nothing is written
    assert sorted(os.listdir(tmp_path)) == ["afile"] + (["cfg.json"] if content else [])


@pytest.mark.parametrize("l, spec", [
    (0, "basis:0:0.3"),
    (0, "basis:0:0:0:0.3"),
    (-1, "basis:0:0.3"),
    (1, "basis:0:0:0:0.3"),
], ids=["l0-theta2", "l0-theta1", "l-1-theta2", "l1-theta1"])
def test_one_section_at_a_degree_without_solution(l, spec):
    # 2 pi l = int e^{2u} (||theta2||^2 - ||theta1||^2) dA_h: l > 0 needs
    # theta2 (the first section), l < 0 theta1, l = 0 both or neither
    rep = run(RunConfig(l=l, data_spec=spec), write_files=False, last_stage="germsolve")
    failed = rep["failed_at"]
    assert failed["stage"] == "germsolve"
    assert failed["error"] == "InvalidParameterError"
    assert "solution" not in rep


def test_sweep_continues_past_invalid_value():
    # l=2 is outside |l| < 2(g-1) at g=2; the sweep still reports both
    cfg = RunConfig(target="rh4", resolution=2, data_spec="zero")
    rows, reports = sweep(cfg, "l", [0, 2], write_files=False)
    assert [row["failed_at"] for row in rows] == [None, "config"]
    assert reports[0]["moduli"]["verdict"] is not None


@pytest.mark.parametrize("spec, stage", [
    ("basis:0", "config"),
    ("basis:x:0.4", "config"),
    ("random:abc", "config"),
    ("basis:9:0.4", "bundles"),
    ("file:missing.json", "bundles"),
    ("file:not_json.txt", "bundles"),
    ("basis:0:0.4:1:0.3", "config"),
    ("file:p1:p2", "config"),
    ("file:object.json", "bundles"),
    ("file:list.json", "bundles"),
    ("file:short.json", "bundles"),
    ("file:k2l.json", "bundles"),
    ("file:fractional_m.json", "bundles"),
    ("file:infinite_l.json", "bundles"),
])
def test_malformed_data_spec_ends_in_report(tmp_path, monkeypatch, mesh_r3, spec, stage):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not_json.txt").write_text("not json")
    (tmp_path / "object.json").write_text("{}")
    (tmp_path / "list.json").write_text("[1, 2]")
    # m = 2.7 once loaded as m = 2; l = Infinity cannot be an integer
    values = [["0.1", "0"]] * mesh_r3.n_vertices
    for name, m, l in (("fractional_m", 2.7, 0), ("infinite_l", 2, float("inf"))):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"m": m, "n": 0, "l": l, "mesh_hash": "", "values": values}))
    # saved without a mesh hash: too short for the mesh, or a section of
    # K^2 L at l=1 where the 3-space target reads K^2
    V = mesh_r3.n_vertices
    DiscreteSection((2, 0), np.ones(5)).save("short.json")
    DiscreteSection((2, 1), np.ones(V), degree_l=1).save("k2l.json")
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec=spec)
    failed = run(cfg, write_files=False)["failed_at"]
    assert failed["stage"] == stage
    assert failed["error"] == "InvalidParameterError"


@pytest.mark.parametrize("patched", [False, True])
def test_config_data_and_verdict_share_one_degree_window(mesh_r2, monkeypatch, patched):
    # the window |l| < 2(g-1) is moduli.is_admissible alone: patched to
    # admit every degree, none of the three refuses one
    if patched:
        monkeypatch.setattr(moduli, "is_admissible", lambda g, l: True)
    for l in range(-4, 5):
        inside = patched or l in moduli.admissible_degrees(2)
        assert moduli.is_admissible(2, l) == inside
        assert (moduli.classify(2, 4, l).verdict != "OutOfRange") == inside
        L = bundles.make_line_bundle(mesh_r2, l)
        for make in (lambda: RunConfig(genus=2, target="rh4", l=l).validate(),
                     lambda: germsolve.GermData(mesh_r2, L)):
            if inside:
                make()
            else:
                with pytest.raises(InvalidParameterError, match=f"degree {l} outside"):
                    make()


def test_rh4_file_section_in_the_wrong_slot_fails_at_bundles(tmp_path, monkeypatch, mesh_r3):
    # the spec's first slot is K^2 L^-1; a K^2 L section there is refused
    # before any data is made, though the data would file it by its bundle.
    # At l=1 the K^2 L^-1 kernel search would fail (gap 8.71 at r=3), but
    # file: data runs none
    monkeypatch.chdir(tmp_path)
    for l in (0, 1):
        DiscreteSection((2, 1), np.ones(mesh_r3.n_vertices), degree_l=l).save("k2l.json")
        cfg = RunConfig(genus=2, resolution=3, target="rh4", l=l, data_spec="file:k2l.json")
        failed = run(cfg, write_files=False)["failed_at"]
        assert (failed["stage"], failed["error"]) == ("bundles", "InvalidParameterError")
        assert "holds (m, n, l)" in failed["message"]


def _codazzi_line(spec):
    rep = run(RunConfig(genus=2, resolution=3, target="rh3", data_spec=spec),
              write_files=False)
    assert "failed_at" not in rep
    return rep["invariants"]["residuals"]["codazzi_frame"]


def test_file_section_reports_the_codazzi_line_of_its_values(tmp_path, monkeypatch, mesh_r3,
                                                             basis_K2_r3):
    # the Codazzi line is read from the section's values, whatever made it
    monkeypatch.chdir(tmp_path)
    DiscreteSection((2, 0), 0.4 * basis_K2_r3[0].values).save("sec.json", mesh=mesh_r3)
    expected = _codazzi_line("basis:0:0.4")
    assert expected > 0
    assert _codazzi_line("file:sec.json") == pytest.approx(expected, rel=1e-12)


def _door_sections(mesh, basis):
    """Sections that are not holomorphic data of K^2 at l = 0, as (target,
    l, bundle type, values): seeded complex noise of the size of 0.4
    basis[0], that section with one value NaN or infinite, or conjugated,
    and a K^2 L basis section at l = 1 read as a section of K^2 L^-1."""
    rng = np.random.default_rng(0)
    V = mesh.n_vertices
    noise = rng.standard_normal(V) + 1j * rng.standard_normal(V)
    noise *= 0.4 * np.max(np.abs(basis[0].values)) / np.max(np.abs(noise))
    L = bundles.make_line_bundle(mesh, 1)
    k2l = bundles.holomorphic_basis(bundles.dbar_operator(mesh, L, 2, 1))[0].values
    sec = 0.4 * basis[0].values
    return {
        "noise": ("rh3", 0, (2, 0), noise),
        "nan": ("rh3", 0, (2, 0), np.where(np.arange(V) == 7, np.nan, sec)),
        "inf": ("rh3", 0, (2, 0), np.where(np.arange(V) == 7, np.inf, sec)),
        "conjugate": ("rh3", 0, (2, 0), np.conj(sec)),
        "wrong-bundle": ("rh4", 1, (2, -1), 0.4 * k2l),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["noise", "nan", "inf", "conjugate", "wrong-bundle"])
def test_non_holomorphic_file_section_fails_at_bundles(tmp_path, monkeypatch, mesh_r3,
                                                       basis_K2_r3, kind):
    # the door check reads the section's relative dbar norm; a NaN norm
    # fails it too, and a NaN or infinite value gives one without a warning
    monkeypatch.chdir(tmp_path)
    target, l, bundle_type, values = _door_sections(mesh_r3, basis_K2_r3)[kind]
    DiscreteSection(bundle_type, values, degree_l=l).save("bad.json", mesh=mesh_r3)
    cfg = RunConfig(genus=2, resolution=3, target=target, l=l, data_spec="file:bad.json")
    rep = run(cfg, write_files=False)
    failed = rep["failed_at"]
    assert (failed["stage"], failed["error"]) == ("bundles", "InvalidParameterError")
    norm = failed["relative_dbar_norm"]
    assert not norm <= cli.FILE_DBAR_BOUND
    assert "'bad.json'" in failed["message"] and str(cli.FILE_DBAR_BOUND) in failed["message"]
    assert "bundle_dims" not in rep and "solution" not in rep


def test_file_run_searches_no_basis_and_applies_dbar_once(tmp_path, monkeypatch, mesh_r3,
                                                         basis_K2_r3):
    # the door check and the Codazzi line read one dbar norm of the
    # section; the class oracle's dbar is of K^-1
    monkeypatch.chdir(tmp_path)
    DiscreteSection((2, 0), 0.4 * basis_K2_r3[0].values).save("sec.json", mesh=mesh_r3)
    calls = {"basis": 0, "dbar": []}
    holomorphic_basis, dbar_operator = bundles.holomorphic_basis, bundles.dbar_operator

    def counted_basis(*args, **kwargs):
        calls["basis"] += 1
        return holomorphic_basis(*args, **kwargs)

    def counted_dbar(mesh, L, m, n):
        calls["dbar"].append((m, n))
        return dbar_operator(mesh, L, m, n)

    monkeypatch.setattr(bundles, "holomorphic_basis", counted_basis)
    monkeypatch.setattr(bundles, "dbar_operator", counted_dbar)
    rep = run(RunConfig(genus=2, resolution=3, target="rh3", data_spec="file:sec.json"),
              write_files=False)
    assert "failed_at" not in rep and "bundle_dims" not in rep
    assert calls["basis"] == 0
    assert calls["dbar"].count((2, 0)) == 1
    # the basis subcommand still records every basis of the target
    rep = run(RunConfig(genus=2, resolution=3, target="rh4", l=0), write_files=False,
              last_stage="bundles")
    assert list(rep["bundle_dims"]) == ["K2Linv", "K2L"]
    assert calls["basis"] == 2


def test_huge_resolution_fails_at_mesh_at_once():
    # the budget check must not compute 4**resolution
    start = time.perf_counter()
    failed = run(RunConfig(resolution=10**12), write_files=False)["failed_at"]
    assert time.perf_counter() - start < 1.0
    assert (failed["stage"], failed["error"]) == ("mesh", "ResourceBudgetError")


def test_sweep_command_reports_malformed_spec(tmp_path, capsys):
    code = main(["sweep", "--target", "rh3", "--resolution", "2",
                 "--data", "basis:0", "--axis", "amplitude", "--values", "0.1",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    failed = json.loads(capsys.readouterr().out)["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"


@pytest.mark.parametrize("axis, values", [("l", "a,b"), ("resolution", "3.5"),
                                          ("resolution", "2,2.0")])
def test_sweep_command_rejects_bad_values(tmp_path, capsys, axis, values):
    code = main(["sweep", "--target", "rh3", "--resolution", "2", "--data", "zero",
                 "--axis", axis, "--values", values, "--output-dir", str(tmp_path)])
    assert code == 1
    failed = json.loads(capsys.readouterr().out)["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert not list(tmp_path.iterdir())


def test_sweep_runs_repeated_values_alike(monkeypatch):
    # the command rejects repeats; the library runs them, on one mesh
    built = []
    build_surface = hypmesh.build_surface
    monkeypatch.setattr(hypmesh, "build_surface",
                        lambda *a: built.append(a) or build_surface(*a))
    cfg = RunConfig(target="rh3", resolution=2, data_spec="zero")
    rows, reports = sweep(cfg, "resolution", [2, 2.0], write_files=False)
    assert rows[0] == rows[1] and reports[0] == reports[1]
    assert built == [(2, 2)]


@pytest.mark.parametrize("target, spec, axis, values, swept", [
    ("rh4", "basis:0:0.1:1:0.1", "amplitude", [0.2, 0.5],
     ["basis:0:0.2:1:0.2", "basis:0:0.5:1:0.5"]),
    ("rh3", "random:0.1", "amplitude", [0.2, 0.5], ["random:0.2", "random:0.5"]),
    ("rh4", "basis:0:0.1:1:0.3", "basis_index", [1, 2],
     ["basis:1:0.1:1:0.3", "basis:2:0.1:1:0.3"]),
], ids=["basis-amplitude", "random-amplitude", "basis-index"])
def test_sweep_rewrites_spec_slots(target, spec, axis, values, swept):
    # r=1 fails fast at the kernel search; the echo is written first
    cfg = RunConfig(target=target, resolution=1, data_spec=spec)
    _, reports = sweep(cfg, axis, values, write_files=False)
    assert [rep["config_echo"]["data_spec"] for rep in reports] == swept


# last_stage names one stage of the table: neither a set of stage names
# nor a subcommand's name will do
@pytest.mark.parametrize("last_stage", [("invariants",), ("solve", "higgs"), "", "solve", None],
                         ids=["invariants", "solve-higgs", "empty", "string", "none"])
def test_stages_not_a_pipeline_prefix_end_in_report(tmp_path, last_stage):
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="zero",
                    output_dir=str(tmp_path))
    rep = run(cfg, last_stage=last_stage)
    failed = rep["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert "last_stage" in failed["message"]
    assert "mesh" not in rep
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep


def test_sweep_orders_newton_columns_once(monkeypatch):
    # the runs of a sweep share their surface, and with it the column
    # order of the first Newton factorization: one COLAMD in all
    splu = spla.splu
    specs = []

    def recording(A, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.1")
    _, reports = sweep(cfg, "amplitude", [0.2, 0.4, 0.6], write_files=False)
    assert not any("failed_at" in rep for rep in reports)
    assert specs.count(None) == 1 and specs[0] is None
    assert len(specs) >= len(reports)


# axis -> (base config, values, builds of the sweep: meshes, bases)
_REUSE_CASES = {
    "amplitude": (dict(resolution=3, target="rh3", data_spec="basis:0:0.1"), [0.2, 0.4], 1, 1),
    "basis_index": (dict(resolution=3, target="rh3", data_spec="basis:0:0.1"), [0, 2], 1, 1),
    # both sections are drawn: 2 bases per l
    "l": (dict(resolution=4, target="rh4", data_spec="random:0.3"), [0, 1], 1, 4),
    # the r=2 kernel search fails at bundles; r=3 succeeds
    "resolution": (dict(target="rh3", data_spec="basis:0:0.1"), [2, 3], 2, 2),
}


@pytest.mark.parametrize("axis", list(_REUSE_CASES))
def test_sweep_reuses_surface_work_and_matches_runs(tmp_path, monkeypatch, axis):
    kw, values, n_meshes, n_bases = _REUSE_CASES[axis]
    calls = {"meshes": [], "bases": 0}
    build_surface, holomorphic_basis = hypmesh.build_surface, bundles.holomorphic_basis

    def counted_build(*args, **kwargs):
        # the memo holds one surface: the previous mesh is gone by now
        gc.collect()
        assert all(ref() is None for ref in calls["meshes"])
        mesh = build_surface(*args, **kwargs)
        calls["meshes"].append(weakref.ref(mesh))
        return mesh

    def counted_basis(*args, **kwargs):
        calls["bases"] += 1
        return holomorphic_basis(*args, **kwargs)

    monkeypatch.setattr(hypmesh, "build_surface", counted_build)
    monkeypatch.setattr(bundles, "holomorphic_basis", counted_basis)
    cfg = RunConfig(genus=2, output_dir=str(tmp_path / "sweep"), **kw)
    _, swept = sweep(cfg, axis, values)
    assert (len(calls["meshes"]), calls["bases"]) == (n_meshes, n_bases)

    for val, rep in zip(values, swept):
        if axis in ("amplitude", "basis_index"):
            c = replace(cfg, data_spec=rep["config_echo"]["data_spec"])
        else:
            c = replace(cfg, **{axis: val})
        c.output_dir = str(tmp_path / "run" / str(val))
        alone = run(c)
        for r in (rep, alone):
            r["config_echo"].pop("output_dir")
        assert json.dumps(rep) == json.dumps(alone)
    # a plain run builds its own mesh
    assert len(calls["meshes"]) == n_meshes + len(values)
    # each report owns its bundle_dims
    dims = [rep["bundle_dims"] for rep in swept if "bundle_dims" in rep]
    assert len({id(d) for d in dims}) == len(dims)
    assert len({id(e["singular_values"]) for d in dims for e in d.values()}) == sum(map(len, dims))


def test_meshes_die_by_reference_counting(tmp_path, monkeypatch):
    # nothing a run keeps on the mesh (SurfaceMesh.memo) may refer back to
    # it: with the cyclic collector off, every mesh must be freed as soon
    # as its run or sweep returns
    build_surface = hypmesh.build_surface
    built = []

    def recording(*args, **kwargs):
        mesh = build_surface(*args, **kwargs)
        built.append(weakref.ref(mesh))
        return mesh

    monkeypatch.setattr(hypmesh, "build_surface", recording)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", l=0, data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    gc.collect()
    gc.disable()
    try:
        assert "failed_at" not in run(cfg)
        assert len(built) == 1 and built[0]() is None
        _, reports = sweep(cfg, "amplitude", [0.1, 0.4])
        assert not any("failed_at" in rep for rep in reports)
        assert len(built) == 2 and built[1]() is None
    finally:
        gc.enable()


def test_basis_index_beyond_int64_fails_at_bundles(tmp_path):
    huge = 10**20
    cfg = RunConfig(resolution=3, target="rh3", data_spec=f"basis:{huge}:0.1",
                    output_dir=str(tmp_path))
    failed = run(cfg, write_files=False)["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == "InvalidParameterError"
    assert "outside the 3-dimensional basis" in failed["message"]
    # in a sweep, the huge index fails only its own row
    rows, reports = sweep(replace(cfg, data_spec="basis:0:0.1"), "basis_index", [0, 1e20])
    assert [row["failed_at"] for row in rows] == [None, "bundles"]
    assert reports[1]["config_echo"]["data_spec"] == f"basis:{huge}:0.1"
    assert "outside the 3-dimensional basis" in reports[1]["failed_at"]["message"]


def test_unwritable_plot_csv_ends_in_report(tmp_path):
    cfg = RunConfig(resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path / "run"))
    (tmp_path / "run" / "fields.csv").mkdir(parents=True)
    rep = run(cfg)
    failed = rep["failed_at"]
    assert failed["stage"] == "invariants"
    assert failed["error"] == "IsADirectoryError"
    assert "fields.csv" in failed["message"]
    assert "invariants" in rep and "moduli" not in rep
    with open(tmp_path / "run" / "report.json") as fh:
        assert json.load(fh) == rep
    # in a sweep, the other value still runs to the end
    sweep_dir = tmp_path / "sweep"
    (sweep_dir / "amplitude_0.2" / "fields.csv").mkdir(parents=True)
    rows, _ = sweep(replace(cfg, output_dir=str(sweep_dir)), "amplitude", [0.2, 0.4])
    assert [row["failed_at"] for row in rows] == ["invariants", None]
    assert rows[1]["verdict"] is not None
    assert (sweep_dir / "amplitude_0.4" / "fields.csv").is_file()


def test_unwritable_report_fails_at_config(tmp_path):
    # report.json is a directory: the run returns its failed_at record and
    # raises nothing
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    rep = run(RunConfig(resolution=1, output_dir=str(tmp_path / "out")), last_stage="mesh")
    failed = rep["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert "report.json" in failed["message"] and "Is a directory" in failed["message"]
    assert "mesh" not in rep
    # in a sweep, the other value still runs and writes its report
    cfg = RunConfig(resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path / "sweep"))
    (tmp_path / "sweep" / "amplitude_0.2" / "report.json").mkdir(parents=True)
    rows, reports = sweep(cfg, "amplitude", [0.2, 0.4])
    assert [row["failed_at"] for row in rows] == ["config", None]
    with open(tmp_path / "sweep" / "amplitude_0.4" / "report.json") as fh:
        assert json.load(fh) == reports[1]
    assert (tmp_path / "sweep" / "sweep_amplitude.csv").is_file()
    # an unwritable sweep CSV fails the sweep before any value runs
    (tmp_path / "bad" / "sweep_amplitude.csv").mkdir(parents=True)
    with pytest.raises(InvalidParameterError, match="sweep_amplitude.csv"):
        sweep(replace(cfg, output_dir=str(tmp_path / "bad")), "amplitude", [0.2, 0.4])
    assert os.listdir(tmp_path / "bad") == ["sweep_amplitude.csv"]


# stage -> (module or class, function its step calls, the report key it adds)
_STAGE_CALLS = {
    "config": (RunConfig, "validate", "config_echo"),
    "mesh": (hypmesh, "build_surface", "mesh"),
    "bundles": (bundles, "holomorphic_basis", "bundle_dims"),
    "germsolve": (germsolve, "solve_gauss3", "solution"),
    "invariants": (invariants, "compute_invariants", "invariants"),
    "higgs": (higgs, "build_from_germ", "moduli"),
}


@pytest.mark.parametrize("stage", list(_STAGE_CALLS))
def test_every_stage_names_its_own_failure(tmp_path, monkeypatch, stage):
    owner, name, _ = _STAGE_CALLS[stage]

    def fail(*args, **kwargs):
        raise EqminError(f"injected into {name}")

    monkeypatch.setattr(owner, name, fail)
    cfg = RunConfig(resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg)
    assert rep["failed_at"] == {"stage": stage, "error": "EqminError",
                                "message": f"injected into {name}"}
    keys = [key for _, _, key in _STAGE_CALLS.values()]
    k = list(_STAGE_CALLS).index(stage)
    assert all(key in rep for key in keys[:k])
    assert not any(key in rep for key in keys[k + 1:])
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep
