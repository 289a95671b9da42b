"""Geometric invariants of solved germs and the identities they satisfy.

Two independent discretizations are used side by side.  The solver's
cotangent Laplacian makes the integrated identities (Gauss-Bonnet, the
area identity, the normal Euler number) hold near-exactly at a converged
solution, because the discrete operator has exact zero row and column
sums.  The pointwise identity checks therefore use a second, unrelated
discretization: local least-squares polynomial fits on vertex patches
(finite-difference style).  Residuals of the frame equations and of the
curvature identity measured this way shrink at the discretization order
instead of collapsing to solver tolerance.

Conventions: gamma = e^{2u} h.  The adapted-frame scale s satisfies
2 s^2 = e^{2u} lambda^2 (the single place where the factor 2 between
gamma = 2 s^2 |dz|^2 and the conformal-factor convention is reconciled).
The L-frame components of the second fundamental form are
a = f1 e^{w} / sqrt(2), b = f2 e^{-w} / sqrt(2), with A1 = a + b and
A2 = i(a - b), so that A1 conj(A2) - conj(A1) A2 = 2i (|b|^2 - |a|^2).
"""

import math

import numpy as np

from .errors import StaleSolutionError
from .germsolve import CurvatureEquations, polish_solution
from .hypmesh import integrate, laplacian
from .mobius import conformal_factor

__all__ = [
    "InvariantReport",
    "compute_invariants",
    "superminimal_test",
]

class InvariantReport:
    """Pointwise fields and integrated invariants of a solved germ."""

    def __init__(
        self,
        n,
        genus,
        l,
        kappa_gamma,
        kappa_perp,
        ii_norm_sq,
        u4_norm_sq,
        area,
        euler_integral,
        residuals,
        residual_sites,
    ):
        self.n = n
        self.genus = genus
        self.l = l
        self.kappa_gamma = kappa_gamma
        self.kappa_perp = kappa_perp
        self.ii_norm_sq = ii_norm_sq
        self.u4_norm_sq = u4_norm_sq
        self.area = area
        self.euler_integral = euler_integral
        self.residuals = residuals
        self.residual_sites = residual_sites

    def to_dict(self):
        return {
            "n": self.n,
            "genus": self.genus,
            "l": self.l,
            "area": self.area,
            "euler_integral": self.euler_integral,
            "kappa_gamma_minmax": [
                float(np.min(self.kappa_gamma)),
                float(np.max(self.kappa_gamma)),
            ],
            "u4_sup": _sup_norm(self.u4_norm_sq),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "residual_sites": self.residual_sites,
        }


def _sup_norm(norm_sq):
    """The sup over the vertices of a norm given by its pointwise square."""
    return float(np.max(np.sqrt(np.abs(norm_sq))))


def _quartic_norm_sq(ii_sq, th1_sq, th2_sq):
    """||U4||^2: 4 ||theta_1||^2 ||theta_2||^2, or ||II||^4 in 3-space."""
    return ii_sq**2 if th1_sq is None else 4.0 * th1_sq * th2_sq


def _polished(eqs, sol):
    """The polished fields (polish_solution, cached on sol), their
    gamma-norms, and their curvatures under the unweighted patch-fit
    Laplacian, which is independent of both the solver operator and the
    polish operator."""
    if sol.u_smooth is None:
        polish_solution(eqs.data, sol)
    u, w = sol.u_smooth, sol.w_smooth
    B = eqs.data.mesh.fd_laplacian_matrix(weighted=False)
    curv = eqs.curvatures(u, B @ u, None if w is None else B @ w)
    return u, eqs.norms(u, w), curv


# sup norm of a pointwise residual below which it sits at roundoff or
# Newton tolerance, so the vertex of its maximum is noise.  It assumes the
# default solver tolerance, 1e-10, at which gauss_identity reads 1e-13 to
# 6e-11; a run with --tol looser than about 1e-7 can put gauss_identity
# above it, and its site then names a vertex again
SITE_FLOOR = 1e-8


def _residual_site(mesh, r):
    """Where the pointwise residual |r| peaks: the vertex of its maximum
    (the first, on ties), that vertex's |z| and valence (the faces at its
    class), and the 99th percentile of |r| over the vertices.  Below
    SITE_FLOOR the vertex, |z| and valence are None."""
    r = np.abs(r)
    p99 = float(np.percentile(r, 99))
    if np.max(r) < SITE_FLOOR:
        return {"vertex": None, "abs_z": None, "valence": None, "p99": p99}
    v = int(np.argmax(r))
    return {
        "vertex": v,
        "abs_z": float(abs(mesh.vertices[v])),
        "valence": int(np.count_nonzero(mesh.faces == v)),
        "p99": p99,
    }


def _frame_equations(data, u, norms, kappa_perp):
    """The adapted-frame equations, evaluated with finite-difference fits
    at the polished u with its gamma-norms and patch-fit kappa_perp.

    Returns the pointwise residual fields at the vertices (the first frame
    (Gauss) equation, and for hyperbolic 4-space the Ricci equation as the
    mismatch of the two kappa_perp formulas) and the residuals: the sup
    norm of each field, and the Codazzi line as the largest relative dbar
    norm of the holomorphic data's sections (GermData.dbar_norms).
    """
    mesh = data.mesh

    # log s^2 = 2u + log(lambda^2 / 2) is a chart expression
    def log_lam(z):
        return np.log(conformal_factor(z) ** 2 / 2.0)

    lap_logs2 = mesh.fd_fit(2.0 * u, chart_term=log_lam)
    lam2 = conformal_factor(mesh.vertices) ** 2
    s2 = np.exp(2.0 * u) * lam2 / 2.0
    ddbar_logs2 = 0.25 * lap_logs2  # del delbar = (1/4) flat laplacian

    ii_sq, th1_sq, th2_sq = norms
    # -s^{-2} del delbar log s^2 + s^{-4} ||II(Z,Z)||^2 + 1, where the
    # frame-scale norm is ||II(Z,Z)||^2 = s^4 ||II||^2_gamma
    fields = {"gauss_frame": -ddbar_logs2 / s2 + ii_sq + 1.0}
    if data.L is not None:
        fields["ricci_frame"] = kappa_perp - (th2_sq - th1_sq)
    residuals = {k: float(np.max(np.abs(r))) for k, r in fields.items()}
    # in 3-space there is no normal bundle to carry a Ricci equation
    residuals.setdefault("ricci_frame", 0.0)
    residuals["codazzi_frame"] = max(data.dbar_norms.values())
    return fields, residuals


def compute_invariants(data, sol):
    """Full invariant report for a converged germ solution."""
    if not sol.converged:
        raise StaleSolutionError("solution did not converge; refusing to report")
    mesh = data.mesh
    eqs = CurvatureEquations(data)
    u, w = sol.u, sol.w
    g = mesh.genus
    S = laplacian(mesh)
    a = mesh.vertex_areas
    kappa_gamma, kappa_perp = eqs.curvatures(
        u, (S @ u) / a, None if w is None else (S @ w) / a
    )

    ii_sq, th1_sq, th2_sq = eqs.norms(u, w)
    u4_sq = _quartic_norm_sq(ii_sq, th1_sq, th2_sq)
    n = 4 if eqs.coupled else 3
    if n == 4:
        l = data.L.degree
        # exact by zero column sums of the cotangent matrix
        euler = float(np.sum(data.L.curvature_density * a - S @ w)) / (2.0 * math.pi)
    else:
        l = 0
        euler = 0.0

    area = integrate(mesh, 1.0, conformal_factor_u=u)
    target_area = 4.0 * math.pi * (g - 1)
    ii_int = integrate(mesh, ii_sq, conformal_factor_u=u)

    pointwise = {"gauss_identity": kappa_gamma + 1.0 + ii_sq}
    residuals = {}
    residuals["gauss_identity"] = float(np.max(np.abs(pointwise["gauss_identity"])))
    gb = float(np.sum(-(a + S @ u))) / (2.0 * math.pi)
    residuals["gauss_bonnet"] = abs(gb - (2 - 2 * g))
    residuals["area_identity"] = abs(area - target_area + ii_int)
    residuals["chi_integral"] = abs(euler - l)

    # pointwise curvature identity via the independent finite-difference
    # oracle: (kappa_perp)^2 = (1 + kappa_gamma)^2 - ||U4||^2, evaluated at
    # the polished representatives with the unweighted patch-fit Laplacian
    u_s, norms_s, (kg_fd, kp_fd) = _polished(eqs, sol)
    u4_s = _quartic_norm_sq(*norms_s)
    kp_sq = 0.0 if kp_fd is None else kp_fd**2
    pointwise["kappaperp_identity"] = kp_sq - (1.0 + kg_fd) ** 2 + u4_s
    residuals["kappaperp_identity"] = float(
        np.max(np.abs(pointwise["kappaperp_identity"]))
    )

    frame, frame_residuals = _frame_equations(data, u_s, norms_s, kp_fd)
    residuals.update(frame_residuals)
    pointwise.update(frame)

    if n == 4 and _u4_vanishes(u4_sq):
        sign = 1.0 if np.sum(kp_fd) >= 0 else -1.0
        residuals["supermin_identity"] = float(
            np.max(np.abs(kp_fd - sign * (-(1.0 + kg_fd))))
        )

    return InvariantReport(
        n=n,
        genus=g,
        l=l,
        kappa_gamma=kappa_gamma,
        kappa_perp=kappa_perp,
        ii_norm_sq=ii_sq,
        u4_norm_sq=u4_sq,
        area=area,
        euler_integral=euler,
        residuals=residuals,
        residual_sites={k: _residual_site(mesh, r) for k, r in pointwise.items()},
    )


# sup norm below which the quartic differential and ||II||^2 count as zero
SUPERMINIMAL_TOL = 1e-8


def _u4_vanishes(u4_norm_sq):
    """Whether sup |U4| < SUPERMINIMAL_TOL: the quartic differential is zero,
    for the supermin_identity line and the verdict alike."""
    return _sup_norm(u4_norm_sq) < SUPERMINIMAL_TOL


def superminimal_test(report):
    """Classify a report as superminimal (and which sign branch) or not.

    The quartic differential vanishes identically iff one of the theta
    components is zero; the branch is the sign in
    kappa_perp = +-||II||^2_gamma.
    """
    if not _u4_vanishes(report.u4_norm_sq):
        return "NotSuperminimal"
    if report.n == 3:
        # vanishing U4 in the 3-space case means vanishing Hopf differential
        if float(np.max(report.ii_norm_sq)) >= SUPERMINIMAL_TOL:
            return "NotSuperminimal"
        return "SuperminimalPlus"
    plus = float(np.max(np.abs(report.kappa_perp - report.ii_norm_sq)))
    minus = float(np.max(np.abs(report.kappa_perp + report.ii_norm_sq)))
    return "SuperminimalPlus" if plus <= minus else "SuperminimalMinus"
