"""Batch front door: configuration, pipeline orchestration, reports, sweeps.

The pipeline is mesh -> bundles -> solve -> invariants -> higgs -> moduli.
Each run writes a JSON report (top-level keys config_echo, mesh,
bundle_dims, solution, invariants, higgs_checks, moduli) plus CSV plot
data of the pointwise curvature fields.  A failure in any stage writes a
partial report carrying a failed_at record with the stage name and the
error payload.
"""

import argparse
import csv
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import bundles, germsolve, higgs, hypmesh, invariants, moduli
from .errors import (
    EqminError,
    IndeterminateKernelError,
    InvalidParameterError,
    NonConvergenceError,
)

__all__ = ["RunConfig", "run", "sweep", "main"]


@dataclass
class RunConfig:
    """All knobs of a single pipeline run.

    data_spec grammar:
      zero                                no holomorphic data
      basis:i:amp[:j:amp2]                amp * basis[i] (and for the
                                          4-space target amp2 * basis[j]
                                          as the second section)
      random:amp                          seeded random basis coefficients
      file:path[:path2]                   saved section file(s)
      manufactured:u_star                 constant-solution forcing (3-space)
    """

    genus: int = 2
    resolution: int = 4
    target: str = "rh4"
    l: int = 1
    data_spec: str = "zero"
    solver_tol: float = 1e-10
    max_iter: int = 30
    identity_scale: float = 1.0
    class_tol: float = 1e-3
    seed: int = 0
    output_dir: str = "."

    def validate(self):
        if self.genus < 2:
            raise InvalidParameterError("genus must be at least 2")
        if self.resolution < 1:
            raise InvalidParameterError("resolution must be at least 1")
        if self.target not in ("rh3", "rh4"):
            raise InvalidParameterError("target must be rh3 or rh4")
        if self.target == "rh4" and abs(self.l) >= 2 * (self.genus - 1):
            raise InvalidParameterError(
                f"degree {self.l} outside |l| < {2 * (self.genus - 1)}"
            )
        if self.solver_tol <= 0:
            raise InvalidParameterError("solver tol must be positive")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be positive")
        kind, args = _check_data_spec(self.data_spec)
        if kind == "manufactured" and self.target != "rh3":
            raise InvalidParameterError("manufactured data is a 3-space solver check")
        one_section = _SPEC_ARGS[kind][0][0]
        if self.target == "rh3" and kind in ("basis", "file") and len(args) > one_section:
            raise InvalidParameterError(
                f"data spec {self.data_spec!r}: the 3-space target takes one section"
            )
        return self


def _mesh_info(mesh):
    return {
        "genus": mesh.genus,
        "resolution": mesh.resolution,
        "vertices": mesh.n_vertices,
        "faces": mesh.n_faces,
        "edges": mesh.n_edges,
        "euler_characteristic": mesh.euler_characteristic(),
        "total_area": mesh.total_area(),
        "target_area": float(4.0 * np.pi * (mesh.genus - 1)),
        "mesh_size": mesh.mesh_size(),
    }


def _parse_spec(spec):
    parts = str(spec).split(":")
    return parts[0], parts[1:]


# data spec kind -> (admissible argument counts, type of each argument;
# None for a path)
_SPEC_ARGS = {
    "zero": ((0,), ()),
    "basis": ((2, 4), (int, float, int, float)),
    "random": ((1,), (float,)),
    "file": ((1, 2), (None, None)),
    "manufactured": ((1,), (float,)),
}


def _check_data_spec(spec):
    """Check a data spec's kind, argument count and numeric fields (basis
    indices are range-checked once the basis exists); returns (kind, args)."""
    kind, args = _parse_spec(spec)
    if kind not in _SPEC_ARGS:
        raise InvalidParameterError(f"unrecognized data spec {spec!r}")
    counts, types = _SPEC_ARGS[kind]
    if len(args) not in counts:
        raise InvalidParameterError(
            f"data spec {spec!r}: {kind} takes "
            f"{' or '.join(map(str, counts))} arguments, got {len(args)}"
        )
    for arg, typ in zip(args, types):
        if typ is None:
            continue
        try:
            val = typ(arg)
        except ValueError:
            raise InvalidParameterError(
                f"data spec {spec!r}: {arg!r} is not {'an integer' if typ is int else 'a number'}"
            ) from None
        if not np.isfinite(val) or (typ is int and val < 0):
            raise InvalidParameterError(f"data spec {spec!r}: {arg!r} out of range")
    return kind, args


def _basis_for(mesh, L, n_weight):
    """Holomorphic basis of K^2 L^{n_weight} and its bundle_dims entry
    (detected and Riemann-Roch dimension, gap ratio)."""
    g = mesh.genus
    l = 0 if L is None else L.degree
    expected = 3 * (g - 1) + n_weight * l
    dbar = bundles.dbar_operator(mesh, L, 2, n_weight)
    basis = bundles.holomorphic_basis(dbar, expected_dim=expected)
    dims = {"detected": len(basis), "expected": expected,
            "gap_ratio": basis.gap_ratio}
    return basis, dims


def _scaled_section(basis, i, amp, weight, l):
    """amp times basis element i, as a section of K^2 L^weight."""
    if not 0 <= i < len(basis):
        raise InvalidParameterError(
            f"basis index {i} outside the {len(basis)}-dimensional basis"
        )
    sec = basis[i]
    return bundles.DiscreteSection((2, weight), amp * sec.values, degree_l=l,
                                   dbar_residual=amp * sec.dbar_residual)


def _random_section(basis, rng, amp, weight, l):
    """A combination of the basis with seeded complex Gaussian
    coefficients of total norm amp."""
    coef = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    coef *= amp / np.linalg.norm(coef)
    vals = sum(c * b.values for c, b in zip(coef, basis))
    res = sum(c * b.dbar_residual for c, b in zip(coef, basis))
    return bundles.DiscreteSection((2, weight), vals, degree_l=l, dbar_residual=res)


def _prepare_data(cfg, mesh, report):
    """Build germ data from the validated config; returns (data,
    extra_report_bits)."""
    kind, args = _parse_spec(cfg.data_spec)
    extra = {"data_spec": cfg.data_spec}
    if kind in ("basis", "random"):
        extra["amplitude"] = float(args[1] if kind == "basis" else args[0])
    if kind == "random":
        rng = np.random.default_rng(cfg.seed)
        extra.update({"rng": "numpy default_rng", "seed": cfg.seed})
    if cfg.target == "rh3":
        if kind == "zero":
            return germsolve.GermData3(mesh), extra
        if kind == "manufactured":
            u_star = float(args[0])
            t = germsolve.manufactured_forcing(mesh, u_star)
            extra["u_star"] = u_star
            return germsolve.GermData3(mesh, t_field=t), extra
        basis, dims = _basis_for(mesh, None, 0)
        report["bundle_dims"] = {"K2": dims}
        if kind == "basis":
            q = _scaled_section(basis, int(args[0]), float(args[1]), 0, 0)
        elif kind == "random":
            q = _random_section(basis, rng, float(args[0]), 0, 0)
        else:
            q = bundles.DiscreteSection.load(args[0], mesh=mesh)
        return germsolve.GermData3(mesh, q=q), extra

    L = bundles.make_line_bundle(mesh, cfg.l)
    if kind == "zero":
        return germsolve.GermData4(mesh, L, None, None), extra
    basis2, dims2 = _basis_for(mesh, L, -1)
    report["bundle_dims"] = {"K2Linv": dims2}
    basis1 = None
    if kind == "random" or (kind == "basis" and len(args) == 4):
        basis1, report["bundle_dims"]["K2L"] = _basis_for(mesh, L, 1)

    if kind == "basis":
        theta2 = _scaled_section(basis2, int(args[0]), float(args[1]), -1, cfg.l)
        theta1 = None
        if len(args) == 4:
            theta1 = _scaled_section(basis1, int(args[2]), float(args[3]), 1, cfg.l)
    elif kind == "random":
        amp = float(args[0])
        theta1 = _random_section(basis1, rng, amp, 1, cfg.l) if len(basis1) else None
        theta2 = _random_section(basis2, rng, amp, -1, cfg.l) if len(basis2) else None
    else:
        theta2 = bundles.DiscreteSection.load(args[0], mesh=mesh)
        theta1 = bundles.DiscreteSection.load(args[1], mesh=mesh) if len(args) > 1 else None
    return germsolve.GermData4(mesh, L, theta1, theta2), extra


def _class_flag(norm, class_tol):
    """Margin policy: nonzero needs 10x the tolerance, zero needs to be
    under it; the window in between is inconclusive (None)."""
    if norm >= 10.0 * class_tol:
        return True
    if norm < class_tol:
        return False
    return None


def _higgs_and_moduli(cfg, data, sol, report):
    asm = higgs.build_from_germ(data, sol)
    checks = {
        "phi_isotropy": abs(asm.phi_t_phi()),
        "structural_blocks": sorted("|".join(k) for k in asm.blocks),
    }
    lam = 2.0
    roundtrip = higgs.gauge_scale(higgs.gauge_scale(asm, lam), 1.0 / lam)
    dev = 0.0
    for key, val in asm.blocks.items():
        ref = max(float(np.max(np.abs(val))), 1e-300)
        dev = max(dev, float(np.max(np.abs(roundtrip.blocks[key] - val))) / ref)
    checks["gauge_roundtrip_rel"] = dev
    flags = {}
    mesh = data.mesh
    if asm.n == 3:
        beta = asm.blocks.get(("W", "K"))
        if beta is None:
            flags["beta"] = False
            checks["beta_harmonic_norm"] = 0.0
        else:
            d = bundles.dbar_operator(mesh, None, -1, 0)
            trivial, norm = bundles.class_is_trivial(mesh, beta, sol.u, d,
                                                     tol=cfg.class_tol)
            flags["beta"] = _class_flag(norm, cfg.class_tol)
            checks["beta_harmonic_norm"] = norm
    else:
        checks["hodge_flag"] = higgs.hodge_flag(asm)
        beta1, beta2 = asm.beta_blocks()
        norms = {}
        for name, beta, weight in (("beta1", beta1, -1), ("beta2", beta2, 1)):
            if beta is None:
                flags[name] = False
                norms[name] = 0.0
                continue
            d = bundles.dbar_operator(mesh, asm.L, -1, weight)
            trivial, norm = bundles.class_is_trivial(mesh, beta, sol.u, d,
                                                     tol=cfg.class_tol)
            flags[name] = _class_flag(norm, cfg.class_tol)
            norms[name] = norm
        checks["beta_harmonic_norms"] = norms
        if cfg.l == 0 and flags.get("beta1") and flags.get("beta2"):
            flags["proportional"] = moduli.classes_proportional(
                beta1, beta2, weights=mesh.face_area
            )
    report["higgs_checks"] = checks
    desc = moduli.classify(cfg.genus, asm.n, cfg.l if asm.n == 4 else 0,
                           class_flags=flags)
    report["moduli"] = desc.to_dict()
    return asm, desc


def _write_plot_csv(path, mesh, rep):
    u4 = np.sqrt(np.abs(rep.u4_norm_sq))
    kp = rep.kappa_perp if rep.kappa_perp is not None else np.zeros(mesh.n_vertices)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["vertex", "x", "y", "kappa_gamma", "kappa_perp", "u4_norm"])
        for i in range(mesh.n_vertices):
            wr.writerow([
                i,
                f"{mesh.vertices[i].real:.12g}",
                f"{mesh.vertices[i].imag:.12g}",
                f"{rep.kappa_gamma[i]:.12g}",
                f"{kp[i]:.12g}",
                f"{u4[i]:.12g}",
            ])


def _failure_record(stage, exc):
    """failed_at record of a stage that raised exc, with the error payload."""
    record = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, IndeterminateKernelError):
        record["singular_values"] = exc.singular_values
    if isinstance(exc, NonConvergenceError):
        record["trace"] = exc.trace
    return record


def run(cfg, write_files=True, stages=("solve", "invariants", "higgs")):
    """Execute the pipeline; returns the report dict.

    Stage failures are recorded under failed_at and the partial report is
    still written (and returned).
    """
    if write_files:
        os.makedirs(cfg.output_dir, exist_ok=True)
    report = {"config_echo": asdict(cfg)}
    stage = "config"
    try:
        cfg.validate()
        stage = "mesh"
        mesh = hypmesh.build_surface(cfg.genus, cfg.resolution)
        report["mesh"] = _mesh_info(mesh)
        stage = "bundles"
        data, extra = _prepare_data(cfg, mesh, report)
        report["config_echo"].update(extra)
        if "solve" in stages:
            stage = "germsolve"
            if cfg.target == "rh3":
                sol = germsolve.solve_gauss3(data, tol=cfg.solver_tol,
                                             max_iter=cfg.max_iter)
            else:
                sol = germsolve.solve_gauss_ricci4(data, tol=cfg.solver_tol,
                                                   max_iter=cfg.max_iter)
            report["solution"] = {
                "converged": sol.converged,
                "iterations": len(sol.newton_trace) - 1,
                "residual": sol.newton_trace[-1][1],
                "u_max": float(np.max(np.abs(sol.u))),
            }
            kind, args = _parse_spec(cfg.data_spec)
            if kind == "manufactured":
                u_star = float(args[0])
                report["solution"]["mms_error"] = float(
                    np.max(np.abs(sol.u - u_star))
                )
        if "invariants" in stages:
            stage = "invariants"
            rep = invariants.compute_invariants(data, sol)
            report["solution"]["polish"] = sol.polish
            report["invariants"] = rep.to_dict()
            report["invariants"]["superminimal"] = invariants.superminimal_test(rep)
            if write_files:
                _write_plot_csv(
                    os.path.join(cfg.output_dir, "fields.csv"), mesh, rep
                )
        if "higgs" in stages:
            stage = "higgs"
            _higgs_and_moduli(cfg, data, sol, report)
    except EqminError as exc:
        report["failed_at"] = _failure_record(stage, exc)
    if write_files:
        with open(os.path.join(cfg.output_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report


_SWEEP_AXES = ("resolution", "amplitude", "l", "basis_index")


def _axis_values(axis, values):
    """The sweep values (numbers or strings) as numbers of the axis's
    type: float for amplitude, int for the other axes."""
    typ = float if axis == "amplitude" else int
    if len(values) == 0:
        raise InvalidParameterError(f"sweep on axis {axis} has no values")
    try:
        nums = np.array(values, dtype=float)
        ok = np.all(np.isfinite(nums)) and (typ is float or np.all(nums == np.round(nums)))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InvalidParameterError(f"sweep values {values!r} on axis {axis} are not "
                                    f"{'integers' if typ is int else 'finite numbers'}")
    return [typ(x) for x in nums]


def sweep(cfg, axis, values, write_files=True):
    """One run per axis value; returns (rows, reports) and writes the
    aggregate CSV.  Individual failures are recorded per row."""
    if axis not in _SWEEP_AXES:
        raise InvalidParameterError(f"sweep axis must be one of {_SWEEP_AXES}")
    values = _axis_values(axis, values)
    rows = []
    reports = []
    for val in values:
        c = RunConfig(**asdict(cfg))
        if axis == "resolution":
            c.resolution = val
        elif axis == "l":
            c.l = val
        else:
            kind, args = _check_data_spec(c.data_spec)
            if kind not in ("basis", "random"):
                raise InvalidParameterError(
                    f"axis {axis} needs a basis or random data spec"
                )
            if axis == "amplitude":
                if kind == "basis":
                    args[1] = repr(val)
                    if len(args) >= 4:
                        args[3] = repr(val)
                else:
                    args[0] = repr(val)
            else:
                if kind != "basis":
                    raise InvalidParameterError("basis_index needs a basis spec")
                args[0] = str(val)
            c.data_spec = ":".join([kind] + args)
        if write_files:
            c.output_dir = os.path.join(cfg.output_dir, f"{axis}_{val}")
        rep = run(c, write_files=write_files)
        reports.append(rep)
        inv = rep.get("invariants", {})
        resid = inv.get("residuals", {})
        rows.append({
            "value": val,
            "area": inv.get("area"),
            "euler_integral": inv.get("euler_integral"),
            "max_identity_residual": max(resid.values()) if resid else None,
            "verdict": rep.get("moduli", {}).get("verdict"),
            "failed_at": rep.get("failed_at", {}).get("stage"),
        })
    if write_files:
        os.makedirs(cfg.output_dir, exist_ok=True)
        path = os.path.join(cfg.output_dir, f"sweep_{axis}.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
            wr.writeheader()
            wr.writerows(rows)
    return rows, reports


def _basis_dims(cfg, mesh):
    """bundle_dims entries of every bundle the configured target uses."""
    if cfg.target == "rh3":
        return {"K2": _basis_for(mesh, None, 0)[1]}
    L = bundles.make_line_bundle(mesh, cfg.l)
    return {key: _basis_for(mesh, L, w)[1]
            for key, w in (("K2L", 1), ("K2Linv", -1))}


def _add_config_args(p):
    # defaults live on RunConfig; a flag given on the command line
    # overrides the config file, which overrides the dataclass default
    p.add_argument("--genus", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--target", choices=("rh3", "rh4"))
    p.add_argument("--l", type=int)
    p.add_argument("--data", dest="data_spec")
    p.add_argument("--tol", dest="solver_tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--class-tol", dest="class_tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--config", help="JSON file supplying any of the above")


def _config_from_args(args):
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    cfg = RunConfig(**base)
    for f in ("genus", "resolution", "target", "l", "data_spec", "solver_tol",
              "max_iter", "class_tol", "seed", "output_dir"):
        v = getattr(args, f, None)
        if v is not None:
            setattr(cfg, f, v)
    return cfg


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="eqmin",
        description="equivariant minimal surfaces in hyperbolic 3- and 4-space",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("mesh-info", "basis", "solve", "invariants", "classify",
                 "verify", "sweep"):
        p = sub.add_parser(name)
        _add_config_args(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    args = ap.parse_args(argv)
    cfg = _config_from_args(args)

    if args.command in ("mesh-info", "basis"):
        stage = "config"
        try:
            cfg.validate()
            stage = "mesh"
            mesh = hypmesh.build_surface(cfg.genus, cfg.resolution)
            if args.command == "mesh-info":
                out = _mesh_info(mesh)
            else:
                stage = "bundles"
                out = _basis_dims(cfg, mesh)
        except EqminError as exc:
            print(json.dumps({"failed_at": _failure_record(stage, exc)}, indent=2))
            return 1
        print(json.dumps(out, indent=2))
        return 0
    if args.command == "sweep":
        try:
            rows, _ = sweep(cfg, args.axis, args.values.split(","))
        except InvalidParameterError as exc:
            print(json.dumps({"failed_at": _failure_record("config", exc)}, indent=2))
            return 1
        for row in rows:
            print(json.dumps(row))
        return 0

    stages = {
        "solve": ("solve",),
        "invariants": ("solve", "invariants"),
        "classify": ("solve", "invariants", "higgs"),
        "verify": ("solve", "invariants", "higgs"),
    }[args.command]
    report = run(cfg, stages=stages)
    print(json.dumps(report, indent=2))
    if "failed_at" in report:
        return 1
    if args.command == "verify":
        ok = report.get("solution", {}).get("converged", False)
        resid = report.get("invariants", {}).get("residuals", {})
        for key in ("gauss_bonnet", "area_identity", "chi_integral"):
            ok = ok and resid.get(key, 1.0) <= 1e-6 * cfg.identity_scale
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
