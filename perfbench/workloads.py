"""Workloads, their seeded inputs, and the checks every output must pass.

Each workload is a closed loop: one caller starts the next iteration only
when the previous one has returned.  An iteration is one `cli.run`
classify or one `cli.sweep`, called exactly as the `eqmin` command calls
them, with report and CSV files written.  The program receives only the
`data_spec` string, and for a sweep the amplitudes, that the seed produced.
"""

import random
from dataclasses import dataclass

# Output gates.  These three integrated identities are the ones `eqmin
# verify` gates, at its threshold.
RESIDUAL_GATE = 1e-6
GATED_RESIDUALS = ("gauss_bonnet", "area_identity", "chi_integral")

# Amplitude range of the seeded classify inputs.
CLASSIFY_AMPLITUDES = (0.2, 0.4)
# The README/ROADMAP baseline run is seed 0 of the classify workloads.
BASELINE_SPEC = "basis:0:0.4:0:0.3"
# A sweep covers SWEEP_POINTS amplitudes: both ends of SWEEP_RANGE and
# seeded values between them.
SWEEP_RANGE = (0.1, 0.8)
SWEEP_POINTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target: str
    genus: int
    resolution: int
    l: int = 1
    sweep: bool = False

    @property
    def k2l_dim(self):
        """Riemann-Roch dimension of K^2 L (rh4) or K^2 (rh3)."""
        return 3 * (self.genus - 1) + (self.l if self.target == "rh4" else 0)

    def inputs(self, seed):
        """(data_spec, sweep values) of every iteration of a run with this seed.

        The first basis index stays 0 in every workload, because that
        basis element sets the pointwise identity residual.  At g=2, r=4
        it is 0.031 for K^2 L^-1 index 0 against 0.010 for index 1; in the
        r=3 sweep it is 0.0015, 0.0008 and 0.0014 for K^2 indices 0, 1
        and 2.  Varying the index would make kappaperp_resid differ up to
        threefold between seeds.

        classify: `basis:0:a2:j:a1`.  The seed picks j within the
        Riemann-Roch dimension of K^2 L and both amplitudes in
        CLASSIFY_AMPLITUDES, rounded to 3 digits.  Seed 0 is the baseline.

        sweep: `basis:0:0.1` swept over both ends of SWEEP_RANGE and
        SWEEP_POINTS - 2 seeded amplitudes between them, sorted.  The
        largest amplitude sets the residual, so it is always included.
        """
        rng = random.Random(seed)
        if self.sweep:
            lo, hi = SWEEP_RANGE
            inner = sorted(round(rng.uniform(lo, hi), 3) for _ in range(SWEEP_POINTS - 2))
            return f"basis:0:{lo}", (lo, *inner, hi)
        if seed == 0:
            return BASELINE_SPEC, ()
        j = rng.randrange(self.k2l_dim)
        a2, a1 = (round(rng.uniform(*CLASSIFY_AMPLITUDES), 3) for _ in range(2))
        return f"basis:0:{a2}:{j}:{a1}", ()

    def run(self, cli, spec, values, output_dir):
        """One iteration through the public front door; returns its reports."""
        cfg = cli.RunConfig(genus=self.genus, resolution=self.resolution,
                            target=self.target, l=self.l, data_spec=spec,
                            output_dir=output_dir)
        if self.sweep:
            _, reports = cli.sweep(cfg, "amplitude", list(values))
            return reports
        return [cli.run(cfg)]


WORKLOADS = {w.name: w for w in (
    Workload(
        "classify-g2r4",
        "canonical rh4 classify, V=1022; dense SVDs, coupled polish and mesh build dominate",
        target="rh4", genus=2, resolution=4,
    ),
    Workload(
        "sweep-g2r3",
        "8-value rh3 amplitude sweep, V=254; mesh rebuilt per value dominates, kernel search minor",
        target="rh3", genus=2, resolution=3, l=0, sweep=True,
    ),
)}


def report_problems(report):
    """Every way one report fails the output checks; empty when it passes."""
    problems = []
    if "failed_at" in report:
        problems.append(f"failed_at {report['failed_at']}")
    if not report.get("solution", {}).get("converged"):
        problems.append("solution not converged")
    residuals = report.get("invariants", {}).get("residuals", {})
    for key in GATED_RESIDUALS:
        value = residuals.get(key)
        if value is None or not value <= RESIDUAL_GATE:
            problems.append(f"{key} {value} above {RESIDUAL_GATE}")
    if "kappaperp_identity" not in residuals:
        problems.append("kappaperp_identity missing")
    dims = report.get("bundle_dims", {})
    if not dims:
        problems.append("bundle_dims missing")
    for key, entry in dims.items():
        if entry.get("detected") != entry.get("expected"):
            problems.append(f"{key} detected {entry.get('detected')} "
                            f"expected {entry.get('expected')}")
    verdict = report.get("moduli", {}).get("verdict")
    if verdict in (None, "Undetermined"):
        problems.append(f"verdict {verdict}")
    return problems


def iteration_problems(reports, values):
    """Output checks of one iteration: every report, and one report per
    sweep value."""
    expected = len(values) or 1
    problems = [] if len(reports) == expected else [f"{len(reports)} reports, expected {expected}"]
    for report in reports:
        problems += report_problems(report)
    return problems
