"""Pipeline front door: configs, reports, sweeps, subcommands."""

import csv
import gc
import json
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from eqmin import bundles, factor, hypmesh
from eqmin.bundles import DiscreteSection
from eqmin.cli import RunConfig, main, run, sweep
from eqmin.errors import InvalidParameterError

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
    s = failed["singular_values"]
    assert len(s) == 25 and s == sorted(s)
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh)["failed_at"]["singular_values"] == s


def test_failed_at_carries_newton_trace(tmp_path):
    cfg = RunConfig(genus=2, resolution=2, target="rh3",
                    data_spec="manufactured:0.1", max_iter=1,
                    output_dir=str(tmp_path))
    rep = run(cfg, stages=("solve",))
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
    dict(resolution=2, target="rh3", data_spec="manufactured:0.1", max_iter=1),
], ids=["rh3", "rh4-l0", "failed-kernel", "failed-newton"])
def test_report_file_equals_returned_report(tmp_path, kw):
    rep = run(RunConfig(genus=2, output_dir=str(tmp_path), **kw))
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep
    if "failed_at" not in rep:
        assert len(rep["solution"]["polish"]["factor_nnz"]) == 1
        trace = rep["solution"]["newton_trace"]
        assert [row[0] for row in trace] == list(range(rep["solution"]["iterations"] + 1))
        assert trace[-1][1] == rep["solution"]["residual"]
        # the smallest KERNEL_MAX_DIM + 1 = 25 singular values of each kernel search
        for entry in rep["bundle_dims"].values():
            s = entry["singular_values"]
            assert type(s) is list and len(s) == 25 and s == sorted(s)
    if kw["target"] == "rh4":
        assert rep["moduli"]["class_flags"]["proportional"] is True


def test_smallest_mesh_fails_at_bundles(tmp_path):
    # resolution 1 has V = 14 vertices, fewer than the kernel search's
    # 25 singular values
    cfg = RunConfig(genus=2, resolution=1, target="rh3", data_spec="basis:0:0.1",
                    output_dir=str(tmp_path))
    failed = run(cfg)["failed_at"]
    assert failed["stage"] == "bundles"
    assert failed["error"] == "IndeterminateKernelError"
    assert len(failed["singular_values"]) == 14


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

    def recording(A, plan):
        factors.append(factor.factor_hpd(A, plan))
        return factors[-1]

    monkeypatch.setattr(bundles, "factor_hpd", recording)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    rep = run(cfg, write_files=False, stages=("solve",))
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
    rep = run(cfg, stages=("solve",))
    assert rep["solution"]["mms_error"] < 1e-10


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


def test_mesh_info_command(capsys):
    assert main(["mesh-info", "--genus", "2", "--resolution", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["euler_characteristic"] == -2


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
    s = failed["singular_values"]
    assert len(s) == 25 and s == sorted(s)
    assert abs(s[2] / s[1] - 8.71) < 0.005


def test_mesh_info_command_rejects_bad_config(capsys):
    assert main(["mesh-info", "--resolution", "0"]) == 1
    failed = json.loads(capsys.readouterr().out)["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert "resolution" in failed["message"]


def test_report_records_polish(tmp_path):
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec="basis:0:0.4",
                    output_dir=str(tmp_path))
    stages = ("solve", "invariants")
    rep = run(cfg, write_files=False, stages=stages)
    polish = rep["solution"]["polish"]
    assert polish["factorizations"] == 1
    # the fill of the one factorization of the 254 x 254 normal matrix
    (fill,) = polish["factor_nnz"]
    assert type(fill) is int and fill > 254
    assert [s["cg_iterations"] > 0 for s in polish["steps"]] == [False] + [True] * 3
    for step in polish["steps"]:
        assert step["residual_after"] < step["residual_before"]
        assert step["step_fraction"] == 1.0
    # the record is deterministic, like the rest of the report
    assert run(cfg, write_files=False, stages=stages)["solution"]["polish"] == polish


def test_default_basis_command_matches_riemann_roch(capsys):
    assert main(["basis"]) == 0
    out = json.loads(capsys.readouterr().out)
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
    rep = run(RunConfig(l=l, data_spec=spec), write_files=False, stages=("solve",))
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
])
def test_malformed_data_spec_ends_in_report(tmp_path, monkeypatch, mesh_r3, spec, stage):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "not_json.txt").write_text("not json")
    (tmp_path / "object.json").write_text("{}")
    (tmp_path / "list.json").write_text("[1, 2]")
    # saved without a mesh hash: too short for the mesh, or a section of
    # K^2 L at l=1 where the 3-space target reads K^2
    V = mesh_r3.n_vertices
    DiscreteSection((2, 0), np.ones(5)).save("short.json")
    DiscreteSection((2, 1), np.ones(V), degree_l=1).save("k2l.json")
    cfg = RunConfig(genus=2, resolution=3, target="rh3", data_spec=spec)
    failed = run(cfg, write_files=False)["failed_at"]
    assert failed["stage"] == stage
    assert failed["error"] == "InvalidParameterError"


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


@pytest.mark.parametrize("stages", [("invariants",), ("solve", "higgs"), (), "solve", None],
                         ids=["invariants", "solve-higgs", "empty", "string", "none"])
def test_stages_not_a_pipeline_prefix_end_in_report(tmp_path, stages):
    cfg = RunConfig(genus=2, resolution=2, target="rh3", data_spec="zero",
                    output_dir=str(tmp_path))
    rep = run(cfg, stages=stages)
    failed = rep["failed_at"]
    assert failed["stage"] == "config"
    assert failed["error"] == "InvalidParameterError"
    assert "stages" in failed["message"]
    assert "mesh" not in rep
    with open(tmp_path / "report.json") as fh:
        assert json.load(fh) == rep


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
