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
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bundles, germsolve, higgs, hypmesh, invariants, moduli
from .errors import (
    EqminError,
    IndeterminateKernelError,
    InvalidParameterError,
    NonConvergenceError,
)

__all__ = ["RunConfig", "run", "sweep", "main"]


# RunConfig field annotation -> (accepted value types, description); a
# field's metadata may add a "check": (test, description of type and range)
_FIELD_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a finite number"),
    str: (str, "a string"),
}
_POSITIVE = {"check": (lambda v: v > 0, "a positive finite number")}


def _at_least(lo):
    return {"check": (lambda v: v >= lo, f"an integer >= {lo}")}


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

    genus: int = field(default=2, metadata=_at_least(2))
    resolution: int = field(default=4, metadata=_at_least(1))
    target: str = field(default="rh4",
                        metadata={"check": (lambda v: v in _TARGET_BUNDLES, "rh3 or rh4")})
    l: int = 1
    data_spec: str = "zero"
    solver_tol: float = field(default=1e-10, metadata=_POSITIVE)
    max_iter: int = field(default=30, metadata=_at_least(1))
    class_tol: float = field(default=1e-3, metadata=_POSITIVE)
    seed: int = field(default=0, metadata=_at_least(0))
    output_dir: str = "."

    def validate(self):
        """Check every field's type and range and parse the data spec;
        returns the parsed spec (kind, args) of _parse_spec."""
        for f in fields(self):
            val = getattr(self, f.name)
            types, desc = _FIELD_TYPES[f.type]
            test, desc = f.metadata.get("check", (lambda v: True, desc))
            if (isinstance(val, bool) or not isinstance(val, types)
                    or (f.type is float and not math.isfinite(val)) or not test(val)):
                raise InvalidParameterError(f"{f.name} must be {desc}, got {val!r}")
        if self.target == "rh4" and not moduli.is_admissible(self.genus, self.l):
            raise InvalidParameterError(
                f"degree {self.l} outside |l| < {2 * (self.genus - 1)}"
            )
        kind, args = _parse_spec(self.data_spec)
        if kind == "manufactured" and self.target != "rh3":
            raise InvalidParameterError("manufactured data is a 3-space solver check")
        n_sections = len(_TARGET_BUNDLES[self.target])
        if kind in ("basis", "file") and len(args) > _SPEC_ARGS[kind][0][0] * n_sections:
            raise InvalidParameterError(f"data spec {self.data_spec!r}: the {self.target} "
                                        f"target takes {n_sections} section(s)")
        return kind, args


# The bundles of each target's holomorphic data, in data spec order: the
# bundle_dims key and the power n of L in the section's bundle K^2 L^n.
_TARGET_BUNDLES = {
    "rh3": (("K2", 0),),
    "rh4": (("K2Linv", -1), ("K2L", 1)),
}


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
        "mesh_size": mesh.max_edge_length,
    }


# data spec kind -> (admissible argument counts, type of each argument)
_SPEC_ARGS = {
    "zero": ((0,), ()),
    "basis": ((2, 4), (int, float, int, float)),
    "random": ((1,), (float,)),
    "file": ((1, 2), (str, str)),
    "manufactured": ((1,), (float,)),
}


def _parse_spec(spec):
    """Split a data spec into its kind and its arguments converted to their
    types: int basis index, float amplitude or u_star, str path.  Basis
    indices are range-checked once the basis exists."""
    kind, *parts = str(spec).split(":")
    if kind not in _SPEC_ARGS:
        raise InvalidParameterError(f"unrecognized data spec {spec!r}")
    counts, types = _SPEC_ARGS[kind]
    if len(parts) not in counts:
        raise InvalidParameterError(
            f"data spec {spec!r}: {kind} takes "
            f"{' or '.join(map(str, counts))} arguments, got {len(parts)}"
        )
    args = []
    for part, typ in zip(parts, types):
        try:
            val = typ(part)
            ok = typ is str or (np.isfinite(val) and (typ is float or val >= 0))
        except ValueError:
            ok = False
        if not ok:
            raise InvalidParameterError(
                f"data spec {spec!r}: {part!r} is not "
                f"{'a non-negative integer' if typ is int else 'a finite number'}")
        args.append(val)
    return kind, tuple(args)


def _format_spec(kind, args):
    """The data spec text of a parsed spec."""
    return ":".join([kind, *(repr(a) if isinstance(a, float) else str(a) for a in args)])


def _line_bundle(cfg, mesh):
    """The configured line bundle L; the 3-space target has none."""
    return bundles.make_line_bundle(mesh, cfg.l) if cfg.target == "rh4" else None


# A memo dict holds the surface of one run, or of one sweep's runs, under
# (genus, resolution); the surface keeps its own bases (SurfaceMesh.memo).
# A failed build is not kept, so every run that needs it fails the same way.


def _mesh(memo, genus, resolution):
    """The surface of (genus, resolution), built on its first use in memo;
    a new surface drops the old mesh and with it its bases."""
    key = (genus, resolution)
    if key not in memo:
        memo.clear()
        memo[key] = hypmesh.build_surface(genus, resolution)
    return memo[key]


def _basis_for(mesh, L, n_weight):
    """Holomorphic basis of K^2 L^{n_weight}, found on its first use on
    the mesh, and a new bundle_dims entry for it (detected and
    Riemann-Roch dimension, gap ratio, the smallest singular values, the
    stored entries of the shift-invert factor)."""
    l = None if L is None else L.degree
    expected = moduli.h1_dim(mesh.genus, n_weight * (l or 0))
    basis = mesh.memo(("basis", l, n_weight), lambda: bundles.holomorphic_basis(
        bundles.dbar_operator(mesh, L, 2, n_weight)))
    return basis, {"detected": len(basis), "expected": expected, "gap_ratio": basis.gap_ratio,
                   "singular_values": basis.singular_values.tolist(),
                   "factor_nnz": basis.factor_nnz}


def _combination(basis, coef):
    """The section sum_i coef[i] * basis[i]."""
    vals = sum(c * b.values for c, b in zip(coef, basis))
    return bundles.DiscreteSection(basis[0].bundle_type, vals, degree_l=basis[0].degree_l)


def _prepare_data(cfg, spec, mesh, report):
    """Build germ data from the validated config and its parsed data spec,
    with the bases kept on the mesh; returns (data, extra_report_bits)."""
    kind, args = spec
    slots = _TARGET_BUNDLES[cfg.target]
    L = _line_bundle(cfg, mesh)
    l = 0 if L is None else L.degree
    extra = {"data_spec": cfg.data_spec}
    sections = []
    t_field = None
    if kind == "manufactured":
        extra["u_star"] = args[0]
        t_field = germsolve.manufactured_forcing(mesh, args[0])
    elif kind != "zero":
        # the first section's basis is found and recorded for every spec
        # with sections, the others only when the spec draws from them
        bases = []
        n_bases = len(slots) if kind == "random" or len(args) == 4 else 1
        for key, n in slots[:n_bases]:
            basis, dims = _basis_for(mesh, L, n)
            report.setdefault("bundle_dims", {})[key] = dims
            bases.append(basis)
        if kind == "basis":
            extra["amplitude"] = args[1]
            for k, basis in enumerate(bases):
                i, amp = args[2 * k:2 * k + 2]
                if i >= len(basis):
                    raise InvalidParameterError(
                        f"basis index {i} outside the {len(basis)}-dimensional basis")
                sections.append(_combination(basis, amp * np.eye(len(basis))[i]))
        elif kind == "random":
            extra.update({"amplitude": args[0], "rng": "numpy default_rng", "seed": cfg.seed})
            rng = np.random.default_rng(cfg.seed)
            # seeded complex Gaussian coefficients of total norm amp; the
            # last section is drawn first, so a seed keeps its data
            for basis in reversed(bases):
                n = len(basis)
                coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                sections.append(_combination(basis, coef * (args[0] / np.linalg.norm(coef))))
        else:
            for k, path in enumerate(args):
                sec = bundles.DiscreteSection.load(path, mesh=mesh)
                found, wanted = (*sec.bundle_type, sec.degree_l), (2, slots[k][1], l)
                if found != wanted:
                    raise InvalidParameterError(f"section file {path!r} holds (m, n, l) = "
                                                f"{found}, {slots[k][0]} needs {wanted}")
                sections.append(sec)
    return germsolve.GermData(mesh, L, sections, t_field=t_field), extra


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
    flags, norms, mesh = {}, {}, data.mesh
    # each class is read in K^-1 L^k, the bundle of Hom(K, W summand)
    for cls, beta in zip(asm.classes, asm.beta_blocks()):
        norm = 0.0
        if beta is not None:
            d = bundles.dbar_operator(mesh, asm.L, -1, cls.k)
            norm = bundles.class_is_trivial(mesh, beta, sol.u, d, tol=cfg.class_tol)[1]
        norms[cls.name] = norm
        flags[cls.name] = beta is not None and _class_flag(norm, cfg.class_tol)
    if asm.n == 3:
        (checks["beta_harmonic_norm"],) = norms.values()
    else:
        checks["hodge_flag"] = higgs.hodge_flag(asm)
        checks["beta_harmonic_norms"] = norms
        if cfg.l == 0 and all(flags.values()):
            flags["proportional"] = moduli.classes_proportional(
                *asm.beta_blocks(), weights=mesh.face_area
            )
    report["higgs_checks"] = checks
    desc = moduli.classify(cfg.genus, asm.n, cfg.l, class_flags=flags)
    report["moduli"] = desc.to_dict()
    return asm, desc


def _write_plot_csv(path, mesh, rep):
    """fields.csv: one row per vertex, numbers to 12 significant digits,
    with the \\r\\n line ends of the csv module's default dialect; built as
    one string and written at once."""
    u4 = np.sqrt(np.abs(rep.u4_norm_sq))
    kp = rep.kappa_perp if rep.kappa_perp is not None else np.zeros(mesh.n_vertices)
    columns = (mesh.vertices.real, mesh.vertices.imag, rep.kappa_gamma, kp, u4)
    rows = [f"{i},{x:.12g},{y:.12g},{kg:.12g},{kq:.12g},{n4:.12g}\r\n"
            for i, (x, y, kg, kq, n4) in enumerate(zip(*(c.tolist() for c in columns)))]
    with open(path, "w", newline="") as fh:
        fh.write("vertex,x,y,kappa_gamma,kappa_perp,u4_norm\r\n" + "".join(rows))


def _failure_record(stage, exc):
    """failed_at record of a stage that raised exc, with the error payload."""
    record = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, IndeterminateKernelError):
        record["singular_values"] = exc.singular_values
    if isinstance(exc, NonConvergenceError):
        record["trace"] = exc.trace
    return record


def _make_output_dir(path):
    """Create the output directory; a path that is not a string or cannot
    be made a directory is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidParameterError(f"cannot create output_dir {path!r}: {exc}") from exc


# The stages run may run, in pipeline order; it runs a nonempty prefix.
_STAGES = ("solve", "invariants", "higgs")


def _check_stages(stages):
    try:
        chosen = set(stages)
    except TypeError:
        chosen = None
    if chosen not in [set(_STAGES[:k]) for k in range(1, len(_STAGES) + 1)]:
        raise InvalidParameterError(
            f"stages must be a nonempty prefix of {_STAGES}, got {stages!r}")


def run(cfg, write_files=True, stages=_STAGES, *, _memo=None):
    """Execute the pipeline; returns the report dict.

    Stage failures are recorded under failed_at and the partial report is
    still written (and returned), unless the output directory itself
    cannot be made.  _memo is the per-surface memo a sweep shares between
    its runs, which holds their surface; a plain call starts a new one.
    """
    memo = {} if _memo is None else _memo
    report = {"config_echo": asdict(cfg)}
    stage = "config"
    made_dir = False
    try:
        if write_files:
            _make_output_dir(cfg.output_dir)
            made_dir = True
        _check_stages(stages)
        spec = cfg.validate()
        stage = "mesh"
        mesh = _mesh(memo, cfg.genus, cfg.resolution)
        report["mesh"] = _mesh_info(mesh)
        stage = "bundles"
        data, extra = _prepare_data(cfg, spec, mesh, report)
        report["config_echo"].update(extra)
        if "solve" in stages:
            stage = "germsolve"
            solve = (germsolve.solve_gauss3 if cfg.target == "rh3"
                     else germsolve.solve_gauss_ricci4)
            sol = solve(data, tol=cfg.solver_tol, max_iter=cfg.max_iter)
            report["solution"] = {
                "converged": sol.converged,
                "iterations": len(sol.newton_trace) - 1,
                "residual": sol.newton_trace[-1][1],
                "newton_trace": [list(entry) for entry in sol.newton_trace],
                "u_max": float(np.max(np.abs(sol.u))),
            }
            if spec[0] == "manufactured":
                report["solution"]["mms_error"] = float(np.max(np.abs(sol.u - spec[1][0])))
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
    if made_dir:
        with open(os.path.join(cfg.output_dir, "report.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    return report


_SWEEP_AXES = ("resolution", "amplitude", "l", "basis_index")
# data spec argument slots that a sweep axis rewrites, per spec kind; the
# other axes are RunConfig fields
_SPEC_SLOTS = {
    "amplitude": {"basis": (1, 3), "random": (0,)},
    "basis_index": {"basis": (0,)},
}


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
    aggregate CSV.  Individual failures are recorded per row.  The runs
    share one per-surface memo, so a mesh is built once per (genus,
    resolution) and a basis once per (genus, resolution, l, n), and only
    the current surface is held."""
    if axis not in _SWEEP_AXES:
        raise InvalidParameterError(f"sweep axis must be one of {_SWEEP_AXES}")
    values = _axis_values(axis, values)
    if axis in _SPEC_SLOTS:
        kind, args = _parse_spec(cfg.data_spec)
        if kind not in _SPEC_SLOTS[axis]:
            raise InvalidParameterError(
                f"axis {axis} needs a {' or '.join(_SPEC_SLOTS[axis])} data spec"
            )
    if write_files:
        _make_output_dir(cfg.output_dir)
    rows = []
    reports = []
    memo = {}
    for val in values:
        if axis in _SPEC_SLOTS:
            slots = _SPEC_SLOTS[axis][kind]
            swept = [val if i in slots else a for i, a in enumerate(args)]
            c = replace(cfg, data_spec=_format_spec(kind, swept))
        else:
            c = replace(cfg, **{axis: val})
        if write_files:
            c.output_dir = os.path.join(cfg.output_dir, f"{axis}_{val}")
        rep = run(c, write_files=write_files, _memo=memo)
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
        path = os.path.join(cfg.output_dir, f"sweep_{axis}.csv")
        with open(path, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
            wr.writeheader()
            wr.writerows(rows)
    return rows, reports


def _basis_dims(cfg, mesh):
    """bundle_dims entries of every bundle the configured target uses, on
    the configured surface mesh."""
    L = _line_bundle(cfg, mesh)
    return {key: _basis_for(mesh, L, n)[1] for key, n in _TARGET_BUNDLES[cfg.target]}


def _add_config_args(p):
    # defaults live on RunConfig; a flag given on the command line
    # overrides the config file, which overrides the dataclass default
    p.add_argument("--genus", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--target", choices=tuple(_TARGET_BUNDLES))
    p.add_argument("--l", type=int)
    p.add_argument("--data", dest="data_spec")
    p.add_argument("--tol", dest="solver_tol", type=float)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--class-tol", dest="class_tol", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.add_argument("--config", help="JSON file supplying any of the above")


def _config_from_args(args):
    names = [f.name for f in fields(RunConfig)]
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidParameterError(
                f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(base, dict) or not set(base) <= set(names):
            raise InvalidParameterError(
                f"config file {args.config!r} is not a JSON object with keys among {names}"
            )
    base.update({n: getattr(args, n) for n in names if getattr(args, n) is not None})
    return RunConfig(**base)


def _print_failure(stage, exc):
    print(json.dumps({"failed_at": _failure_record(stage, exc)}, indent=2))
    return 1


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
    try:
        cfg = _config_from_args(args)
    except InvalidParameterError as exc:
        return _print_failure("config", exc)

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
            return _print_failure(stage, exc)
        print(json.dumps(out, indent=2))
        return 0
    if args.command == "sweep":
        try:
            # a repeated value would run again and rewrite its directory;
            # sweep itself runs repeats, which seeded callers may draw
            values = _axis_values(args.axis, args.values.split(","))
            if len(set(values)) < len(values):
                raise InvalidParameterError(f"sweep values {args.values!r} on axis "
                                            f"{args.axis} repeat a value")
            rows, _ = sweep(cfg, args.axis, values)
        except InvalidParameterError as exc:
            return _print_failure("config", exc)
        for row in rows:
            print(json.dumps(row))
        return 0

    depth = {"solve": 1, "invariants": 2, "classify": 3, "verify": 3}[args.command]
    report = run(cfg, stages=_STAGES[:depth])
    print(json.dumps(report, indent=2))
    if "failed_at" in report:
        return 1
    if args.command == "verify":
        ok = report.get("solution", {}).get("converged", False)
        resid = report.get("invariants", {}).get("residuals", {})
        for key in ("gauss_bonnet", "area_identity", "chi_integral"):
            ok = ok and resid.get(key, 1.0) <= 1e-6
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
