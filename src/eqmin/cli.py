"""Batch front door: configuration, pipeline orchestration, reports, sweeps.

The pipeline is one ordered stage table, _STAGES: config, mesh, bundles,
germsolve, invariants and higgs (which also places the Higgs bundle in the
moduli space).  Each stage's step fills its part of the report (top-level
keys config_echo, mesh, bundle_dims, solution, invariants, higgs_checks,
moduli) from the run state the earlier steps left; the invariants step
also writes CSV plot data of the pointwise curvature fields.  `run` runs a
prefix of the table up to a named last stage, and every subcommand but
sweep is such a prefix.  A failure in any stage writes a partial report
carrying a failed_at record with the stage name and the error payload.
"""

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from . import bundles, germsolve, higgs, hypmesh, invariants, moduli
from .errors import EqminError, InvalidParameterError

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
        # the forcing t = e^{2u*} (1 - e^{2u*}) is summed over the surface
        # (area 4 pi (g - 1)): |t| times twice the area must be a double
        top = (math.log(sys.float_info.max) - math.log(8.0 * math.pi * (self.genus - 1))) / 4.0
        if kind == "manufactured" and args[0] > top:
            raise InvalidParameterError(f"manufactured u_star {args[0]!r} is over {top:.10g}: "
                                        "its forcing summed over the surface overflows a double")
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


# The largest relative dbar norm of a file: section: basis sections read at
# most 0.087, in the wrong bundle or conjugated at least 0.37 (README).
FILE_DBAR_BOUND = 0.2


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
            # an int of any size is finite: only its sign is checked
            ok = typ is str or (val >= 0 if typ is int else math.isfinite(val))
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


def _basis_for(mesh, L, n_weight):
    """Holomorphic basis of K^2 L^{n_weight}, found on its first use on
    the mesh, and a new bundle_dims entry for it (detected and
    Riemann-Roch dimension, gap ratio, the smallest singular values, the
    stored entries of the shift-invert factor)."""
    l = None if L is None else L.degree
    basis = mesh.memo(("basis", l, n_weight), lambda: bundles.holomorphic_basis(
        bundles.dbar_operator(mesh, L, 2, n_weight)))
    return basis, {"detected": len(basis), "expected": basis.h, "gap_ratio": basis.gap_ratio,
                   "singular_values": basis.singular_values.tolist(),
                   "factor_nnz": basis.factor_nnz}


def _combination(basis, coef):
    """The section sum_i coef[i] * basis[i]."""
    vals = sum(c * b.values for c, b in zip(coef, basis))
    return bundles.DiscreteSection(basis[0].bundle_type, vals, degree_l=basis[0].degree_l)


# The steps of the stage table.  Each takes the run state `st`: the
# config, write_files, last_stage, the memo and the report, plus what the
# earlier steps made (spec, mesh, data, sol); `st.final` is set while the
# last stage runs.


def _configure(st):
    """Make the output directory and check that report.json can be written
    there, then check the last stage and the config and parse its data
    spec."""
    if st.write_files:
        st.report_path = _output_file(st.cfg.output_dir, "report.json")
    if st.last_stage not in _STAGE_NAMES:
        raise InvalidParameterError(
            f"last_stage must be one of {_STAGE_NAMES}, got {st.last_stage!r}")
    st.spec = st.cfg.validate()


def _build_mesh(st):
    """The surface of (genus, resolution).  The memo holds the surface of
    one run, or of one sweep's runs, under that key; the surface keeps
    its own bases (SurfaceMesh.memo), so a new surface drops the old one
    and its bases.  A failed build is not kept, so every run that needs
    it fails the same way."""
    key = (st.cfg.genus, st.cfg.resolution)
    if key not in st.memo:
        st.memo.clear()
        st.memo[key] = hypmesh.build_surface(*key)
    mesh = st.mesh = st.memo[key]
    st.report["mesh"] = {
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


def _draw_data(st):
    """Germ data of the parsed data spec, with the bases it draws from
    kept on the mesh and recorded under bundle_dims (file: data draws from
    none, and its sections' dbar norms must be <= FILE_DBAR_BOUND).  As the
    last stage it records every basis of the target and draws no data."""
    cfg, mesh, report = st.cfg, st.mesh, st.report
    (kind, args), slots = st.spec, _TARGET_BUNDLES[cfg.target]
    # the configured line bundle L; the 3-space target has none
    L = bundles.make_line_bundle(mesh, cfg.l) if cfg.target == "rh4" else None
    if st.final:
        report["bundle_dims"] = {key: _basis_for(mesh, L, n)[1] for key, n in slots}
        return
    extra = {}
    sections = []
    t_field = None
    if kind == "manufactured":
        extra["u_star"] = args[0]
        t_field = germsolve.manufactured_forcing(mesh, args[0])
    elif kind == "file":
        for path, (key, n) in zip(args, slots):
            sec = bundles.DiscreteSection.load(path, mesh=mesh)
            found, wanted = (*sec.bundle_type, sec.degree_l), (2, n, L.degree if L else 0)
            if found != wanted:
                raise InvalidParameterError(f"section file {path!r} holds (m, n, l) = "
                                            f"{found}, {key} needs {wanted}")
            sections.append(sec)
    elif kind != "zero":
        # a basis spec draws from the slots it names, a random spec from all
        bases = []
        for key, n in slots[:len(slots) if kind == "random" else len(args) // 2]:
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
        else:
            extra.update({"amplitude": args[0], "rng": "numpy default_rng", "seed": cfg.seed})
            rng = np.random.default_rng(cfg.seed)
            # seeded complex Gaussian coefficients of total norm amp; the
            # last section is drawn first, so a seed keeps its data
            for basis in reversed(bases):
                n = len(basis)
                coef = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                sections.append(_combination(basis, coef * (args[0] / np.linalg.norm(coef))))
    st.data = germsolve.GermData(mesh, L, sections, t_field=t_field)
    for path, (_, n) in zip(args, slots) if kind == "file" else ():
        norm = st.data.dbar_norms[n]
        if not norm <= FILE_DBAR_BOUND:  # NaN included
            raise InvalidParameterError(f"section file {path!r} is not holomorphic: relative "
                                        f"dbar norm {norm:.3g} > bound {FILE_DBAR_BOUND}",
                                        relative_dbar_norm=norm)
    report["config_echo"].update(extra)


def _solve(st):
    cfg = st.cfg
    solve = germsolve.solve_gauss3 if cfg.target == "rh3" else germsolve.solve_gauss_ricci4
    sol = st.sol = solve(st.data, tol=cfg.solver_tol, max_iter=cfg.max_iter)
    st.report["solution"] = {
        "converged": sol.converged,
        "iterations": len(sol.newton_trace) - 1,
        "residual": sol.newton_trace[-1][1],
        "newton_trace": [list(entry) for entry in sol.newton_trace],
        "start": sol.start,
        "u_max": float(np.max(np.abs(sol.u))),
    }
    if st.spec[0] == "manufactured":
        st.report["solution"]["mms_error"] = float(np.max(np.abs(sol.u - st.spec[1][0])))


def _invariants(st):
    rep = invariants.compute_invariants(st.data, st.sol)
    st.report["solution"]["polish"] = st.sol.polish
    st.report["invariants"] = rep.to_dict()
    st.report["invariants"]["superminimal"] = invariants.superminimal_test(rep)
    if st.write_files:
        _write_plot_csv(os.path.join(st.cfg.output_dir, "fields.csv"), st.mesh, rep)


def _class_flag(norm, class_tol):
    """Margin policy: nonzero needs 10x the tolerance, zero needs to be
    under it; the window in between is inconclusive (None)."""
    if norm >= 10.0 * class_tol:
        return True
    if norm < class_tol:
        return False
    return None


def _higgs_and_moduli(st):
    cfg, data, sol = st.cfg, st.data, st.sol
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
    st.report["higgs_checks"] = checks
    st.report["moduli"] = moduli.classify(cfg.genus, asm.n, cfg.l, class_flags=flags).to_dict()


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
    """failed_at record of a stage that raised exc, with the payload of an
    eqmin error."""
    record = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    record.update(getattr(exc, "payload", {}))
    return record


def _output_file(directory, name):
    """The path of the output file name in directory, which is made if it
    does not exist; a file there is left as it is.  A directory that is
    not a string or cannot be made, or a file that cannot be opened for
    writing, is a config error."""
    try:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, name)
        with open(path, "a"):
            pass
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"cannot write {name} in output_dir {directory!r}: {exc}") from exc
    return path


# The pipeline in order: (stage name, step, the subcommands that run the
# table up to this stage).  The step that raises names the failed_at stage.
_STAGES = (
    ("config", _configure, ()),
    ("mesh", _build_mesh, ("mesh-info",)),
    ("bundles", _draw_data, ("basis",)),
    ("germsolve", _solve, ("solve",)),
    ("invariants", _invariants, ("invariants",)),
    ("higgs", _higgs_and_moduli, ("classify", "verify")),
)
_STAGE_NAMES = tuple(name for name, _, _ in _STAGES)
_COMMAND_STAGES = {cmd: name for name, _, cmds in _STAGES for cmd in cmds}


def run(cfg, write_files=True, last_stage=_STAGE_NAMES[-1], *, _memo=None):
    """Execute the stages of the table up to last_stage; returns the
    report dict.

    Stage failures, file write errors among them, are recorded under
    failed_at and the partial report is still written (and returned),
    unless report.json itself cannot be written: then the config stage
    fails and the report is only returned.  _memo is the per-surface memo
    a sweep shares between its runs, which holds their surface; a plain
    call starts a new one.
    """
    st = SimpleNamespace(cfg=cfg, write_files=write_files, last_stage=last_stage,
                         memo={} if _memo is None else _memo,
                         report={"config_echo": asdict(cfg)}, report_path=None)
    for name, step, _ in _STAGES:
        st.final = name == last_stage
        try:
            step(st)
        except (EqminError, OSError) as exc:
            st.report["failed_at"] = _failure_record(name, exc)
            break
        if st.final:
            break
    if st.report_path:
        with open(st.report_path, "w") as fh:
            json.dump(st.report, fh, indent=2)
    return st.report


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
    aggregate CSV, whose path is checked before any value runs.
    Individual failures are recorded per row.  The runs share one
    per-surface memo, so a mesh is built once per (genus, resolution) and
    a basis once per (genus, resolution, l, n), and only the current
    surface is held."""
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
        path = _output_file(cfg.output_dir, f"sweep_{axis}.csv")
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
        with open(path, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
            wr.writeheader()
            wr.writerows(rows)
    return rows, reports


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


# The subcommands that print one key of the report and write no files.
_PRINTED_KEYS = {"mesh-info": "mesh", "basis": "bundle_dims"}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="eqmin",
        description="equivariant minimal surfaces in hyperbolic 3- and 4-space",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*_COMMAND_STAGES, "sweep"):
        p = sub.add_parser(name)
        _add_config_args(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=_SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated axis values")
    args = ap.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "sweep":
            # a repeated value would run again and rewrite its directory;
            # sweep itself runs repeats, which seeded callers may draw
            values = _axis_values(args.axis, args.values.split(","))
            if len(set(values)) < len(values):
                raise InvalidParameterError(f"sweep values {args.values!r} on axis "
                                            f"{args.axis} repeat a value")
            rows, _ = sweep(cfg, args.axis, values)
    except InvalidParameterError as exc:
        print(json.dumps({"failed_at": _failure_record(_STAGE_NAMES[0], exc)}, indent=2))
        return 1
    if args.command == "sweep":
        for row in rows:
            print(json.dumps(row))
        return 0

    key = _PRINTED_KEYS.get(args.command)
    report = run(cfg, write_files=key is None, last_stage=_COMMAND_STAGES[args.command])
    failed = "failed_at" in report
    if key is None:
        print(json.dumps(report, indent=2))
    else:
        print(json.dumps({"failed_at": report["failed_at"]} if failed else report[key], indent=2))
    if failed:
        return 1
    if args.command == "verify":
        ok = report.get("solution", {}).get("converged", False)
        resid = report.get("invariants", {}).get("residuals", {})
        for name in ("gauss_bonnet", "area_identity", "chi_integral"):
            ok = ok and resid.get(name, 1.0) <= 1e-6
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
