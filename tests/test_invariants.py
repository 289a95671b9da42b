"""Invariant reports: integrated identities, pointwise residuals,
superminimal classification."""

import json
import math

import numpy as np
import pytest

from eqmin import bundles, germsolve, invariants
from eqmin.errors import StaleSolutionError
from conftest import make_section


@pytest.fixture(scope="module")
def rh3_report(mesh_r3, basis_K2_r3):
    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-11)
    return data, sol, invariants.compute_invariants(data, sol)


def test_refuses_unconverged_solution(mesh_r3):
    data = germsolve.GermData(mesh_r3)
    bad = germsolve.GermSolution(u=np.zeros(mesh_r3.n_vertices), converged=False)
    with pytest.raises(StaleSolutionError):
        invariants.compute_invariants(data, bad)


def test_gauss_identity_at_solver_tolerance(rh3_report):
    _, _, rep = rh3_report
    assert rep.residuals["gauss_identity"] < 1e-9


def test_gauss_bonnet_integrated_exactly(rh3_report):
    _, _, rep = rh3_report
    assert rep.residuals["gauss_bonnet"] < 1e-10


def test_area_identity_integrated_exactly(rh3_report):
    _, _, rep = rh3_report
    assert rep.residuals["area_identity"] < 1e-9
    assert rep.area < 4.0 * math.pi


def test_report_serializes(rh3_report):
    _, _, rep = rh3_report
    d = rep.to_dict()
    for key in ("n", "genus", "area", "euler_integral", "residuals"):
        assert key in d


def test_geodesic_case_is_superminimal(mesh_r3):
    data = germsolve.GermData(mesh_r3)
    sol = germsolve.solve_gauss3(data, tol=1e-11)
    rep = invariants.compute_invariants(data, sol)
    assert abs(rep.area - 4.0 * math.pi) < 1e-8
    assert invariants.superminimal_test(rep) == "SuperminimalPlus"


def test_hopf_differential_case_not_superminimal(rh3_report):
    _, _, rep = rh3_report
    assert invariants.superminimal_test(rep) == "NotSuperminimal"


def test_superminimal_branch_positive(mesh_r4, L1_r4, basis_K2Linv_r4):
    # a vanishing section forces kappa_perp = +-||II||^2; with theta1 = 0
    # the positive branch is selected and the Euler integral equals l
    theta2 = make_section(L1_r4, 2, -1, 0.4 * basis_K2Linv_r4[0].values)
    data = germsolve.GermData(mesh_r4, L1_r4, [theta2])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    rep = invariants.compute_invariants(data, sol)
    assert invariants.superminimal_test(rep) == "SuperminimalPlus"
    assert abs(rep.euler_integral - 1.0) < 1e-8
    assert rep.residuals["chi_integral"] < 1e-8
    assert "supermin_identity" in rep.residuals


def test_supermin_identity_and_verdict_share_one_rule(mesh_r4, L1_r4, basis_K2Linv_r4,
                                                      monkeypatch):
    # the acceptance gate's superminimal datum has U4 exactly 0; with the
    # tolerance at 0 neither the report line nor the verdict calls it
    # superminimal
    monkeypatch.setattr(invariants, "SUPERMINIMAL_TOL", 0.0)
    theta2 = make_section(L1_r4, 2, -1, 0.4 * basis_K2Linv_r4[0].values)
    data = germsolve.GermData(mesh_r4, L1_r4, [theta2])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    rep = invariants.compute_invariants(data, sol)
    assert "supermin_identity" not in rep.residuals
    assert invariants.superminimal_test(rep) == "NotSuperminimal"


def test_superminimal_branch_negative(mesh_r4):
    # the mirror case: theta2 = 0 needs negative degree, and selects
    # kappa_perp = -||II||^2
    L = bundles.make_line_bundle(mesh_r4, -1)
    dbar1 = bundles.dbar_operator(mesh_r4, L, 2, 1)
    basis1 = bundles.holomorphic_basis(dbar1)
    theta1 = make_section(L, 2, 1, 0.4 * basis1[0].values)
    data = germsolve.GermData(mesh_r4, L, [theta1])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    rep = invariants.compute_invariants(data, sol)
    assert invariants.superminimal_test(rep) == "SuperminimalMinus"
    assert abs(rep.euler_integral + 1.0) < 1e-8


def test_frame_equations_small_on_smooth_solution(rh3_report):
    _, _, rep = rh3_report
    assert rep.residuals["gauss_frame"] < 0.2
    # holomorphic input: the codazzi line sits at stencil truncation level
    assert rep.residuals["codazzi_frame"] < 0.1


def test_codazzi_frame_is_the_dbar_residual_norm(rh3_report, mesh_r3):
    # one weighted-norm formula serves the invariants and the operator
    data, _, rep = rh3_report
    dbar = bundles.dbar_operator(mesh_r3, None, 2, 0)
    assert rep.residuals["codazzi_frame"] == bundles.relative_dbar_norm(
        mesh_r3, 2, dbar(data.sections[0].values), data.sections[0].values)


@pytest.fixture(scope="module")
def rh4_report(mesh_r3, basis_K2_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData(mesh_r3, L, [theta1, theta2])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    return data, sol, invariants.compute_invariants(data, sol)


@pytest.mark.parametrize("which", ["rh3_report", "rh4_report"])
def test_residual_sites_locate_each_pointwise_sup(which, request):
    data, sol, rep = request.getfixturevalue(which)
    mesh = data.mesh
    sites = rep.to_dict()["residual_sites"]
    pointwise = {"gauss_identity", "kappaperp_identity", "gauss_frame"}
    assert set(sites) == pointwise | ({"ricci_frame"} if rep.n == 4 else set())
    assert json.loads(json.dumps(sites)) == sites
    # the same fields give the same sites
    assert invariants.compute_invariants(data, sol).residual_sites == sites
    faces_at = np.bincount(mesh.faces.ravel(), minlength=mesh.n_vertices)
    for key, site in sites.items():
        assert 0.0 <= site["p99"] <= rep.residuals[key]
        v = site["vertex"]
        if rep.residuals[key] < invariants.SITE_FLOOR:
            assert v is site["abs_z"] is site["valence"] is None
            continue
        assert type(v) is int and type(site["valence"]) is int
        assert site["abs_z"] == abs(mesh.vertices[v])
        assert site["valence"] == faces_at[v]
    # the Gauss identity's field is on the report: check its site in full;
    # at Newton tolerance it names no vertex
    r = np.abs(rep.kappa_gamma + 1.0 + rep.ii_norm_sq)
    site = sites["gauss_identity"]
    assert rep.residuals["gauss_identity"] == np.max(r) < invariants.SITE_FLOOR
    assert site["vertex"] is None
    assert site["p99"] == np.percentile(r, 99)
    assert type(sites["kappaperp_identity"]["vertex"]) is int


def test_residual_site_at_roundoff_names_no_vertex(mesh_r3, basis_K2_r3):
    # equal sections at l=0 solve with w = 0, so the Ricci equation holds
    # to roundoff, while the curvature identity keeps its truncation error
    L = bundles.make_line_bundle(mesh_r3, 0)
    values = 0.4 * basis_K2_r3[0].values
    data = germsolve.GermData(mesh_r3, L, [make_section(L, 2, 1, values),
                                           make_section(L, 2, -1, values)])
    rep = invariants.compute_invariants(data, germsolve.solve_gauss_ricci4(data, tol=1e-11))
    assert rep.residuals["ricci_frame"] < 1e-12
    sites = rep.residual_sites
    assert sites["ricci_frame"]["vertex"] is None and sites["ricci_frame"]["p99"] >= 0.0
    assert rep.residuals["kappaperp_identity"] > invariants.SITE_FLOOR
    assert type(sites["kappaperp_identity"]["vertex"]) is int


def test_residual_site_takes_the_first_maximum_of_the_modulus(mesh_r3):
    r = np.zeros(mesh_r3.n_vertices)
    r[[7, 3, 11]] = [-2.0, 1.0, 2.0]
    site = invariants._residual_site(mesh_r3, r)
    assert site["vertex"] == 7
    assert site["p99"] == np.percentile(np.abs(r), 99)
    # below SITE_FLOOR only the percentile is kept
    site = invariants._residual_site(mesh_r3, 1e-13 * r)
    assert site["vertex"] is site["abs_z"] is site["valence"] is None
    assert site["p99"] == np.percentile(np.abs(1e-13 * r), 99)
