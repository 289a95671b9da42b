"""Mesh combinatorics, quadrature, and discrete operators."""

import math

import numpy as np
import pytest

from eqmin import hypmesh
from eqmin.errors import InvalidParameterError, MeshQualityError, ResourceBudgetError
from eqmin.mobius import hyp_dist


def test_domain_angle_sum_closes():
    for g in (2, 3):
        dom = hypmesh.build_domain(g)
        # gluing all 4g corners at one point needs total angle 2 pi
        assert abs(4 * g * dom.interior_angle() - 2 * math.pi) < 1e-12


def test_euler_characteristic(mesh_r2):
    assert mesh_r2.euler_characteristic() == -2


def test_genus3_euler_characteristic():
    mesh = hypmesh.build_surface(3, 1)
    assert mesh.euler_characteristic() == -4


def test_total_area_matches_gauss_bonnet(mesh_r2, mesh_r3):
    target = 4.0 * math.pi
    assert abs(mesh_r2.total_area() - target) < 1e-9
    assert abs(mesh_r3.total_area() - target) < 1e-9


def test_invalid_genus_rejected():
    with pytest.raises(InvalidParameterError):
        hypmesh.build_surface(1, 2)


def test_resolution_over_budget_rejected_before_building(monkeypatch):
    def fail(*args):
        raise AssertionError("the mesh build started")

    monkeypatch.setattr(hypmesh, "FundamentalDomain", fail)
    with pytest.raises(ResourceBudgetError):
        hypmesh.build_surface(2, 9)


def test_min_angle_floor_enforced(monkeypatch):
    # every hyperbolic triangle has an angle below 60 degrees
    monkeypatch.setattr(hypmesh, "_MIN_ANGLE_DEG", 60.0)
    with pytest.raises(MeshQualityError):
        hypmesh.build_surface(2, 1)


@pytest.mark.parametrize("genus, resolution", [(2, 2), (3, 2), (2, 3)])
def test_stencil_neighbours_are_congruent(genus, resolution):
    # slot 3 + a of face i is the far corner of the neighbour j across the
    # edge opposite corner a, carried into face i's chart by an isometry:
    # it keeps the neighbour's distances to the shared edge's endpoints
    # and the neighbour's corner class
    mesh = hypmesh.build_surface(genus, resolution)
    F = mesh.n_faces
    half = np.argsort(mesh.face_edge.ravel(), kind="stable").reshape(-1, 2)
    twin = np.empty(3 * F, dtype=int)
    twin[half[:, 0]], twin[half[:, 1]] = half[:, 1], half[:, 0]
    i, a = np.divmod(np.arange(3 * F), 3)
    j, b = np.divmod(twin, 3)
    coord, cls = mesh.stencil_coord, mesh.stencil_class
    assert np.array_equal(cls[:, :3], mesh.faces)
    assert np.array_equal(cls[i, 3 + a], mesh.faces[j, b])
    # the two faces traverse the shared edge in opposite directions
    for ends_i, ends_j in (((a + 1) % 3, (b + 2) % 3), ((a + 2) % 3, (b + 1) % 3)):
        d_i = hyp_dist(coord[i, 3 + a], coord[i, ends_i])
        d_j = hyp_dist(coord[j, b], coord[j, ends_j])
        assert np.max(np.abs(d_i - d_j)) < 1e-12


def test_vertex_patches_hold_vertex_and_one_ring(mesh_r2):
    mesh = mesh_r2
    for v, (cls, coords) in enumerate(mesh.vertex_patch):
        assert np.all(np.diff(cls) > 0)
        assert coords[np.searchsorted(cls, v)] == mesh.vertices[v]
        ring = np.unique(mesh.faces[np.any(mesh.faces == v, axis=1)])
        assert np.all(np.isin(ring, cls))


def test_laplacian_row_sums_vanish(mesh_r3):
    S = hypmesh.laplacian(mesh_r3)
    rows = np.abs(np.asarray(S.sum(axis=1))).max()
    cols = np.abs(np.asarray(S.sum(axis=0))).max()
    assert rows < 1e-11 and cols < 1e-11
    asym = abs(S - S.T).max()
    assert asym < 1e-12


def test_integrate_constant_gives_area(mesh_r3):
    val = hypmesh.integrate(mesh_r3, 1.0)
    assert abs(val - mesh_r3.total_area()) < 1e-10


def test_restrict_field_constant(mesh_r2, mesh_r3):
    f = np.full(mesh_r3.n_vertices, 2.5)
    r = hypmesh.restrict_field(mesh_r3, mesh_r2, f)
    assert r.shape == (mesh_r2.n_vertices,)
    assert np.all(r == 2.5)


def test_fd_laplacian_annihilates_constants(mesh_r3):
    ones = np.ones(mesh_r3.n_vertices)
    for weighted in (True, False):
        B = mesh_r3.fd_laplacian_matrix(order=4, weighted=weighted)
        assert np.max(np.abs(B @ ones)) < 1e-8


def test_fd_laplacian_assembled_once_per_variant(mesh_r2, monkeypatch):
    calls = []
    assemble = hypmesh.SurfaceMesh._assemble_fd_laplacian

    def counting(self, order, weighted):
        calls.append((order, weighted))
        return assemble(self, order, weighted)

    monkeypatch.setattr(hypmesh.SurfaceMesh, "_assemble_fd_laplacian", counting)
    mesh = hypmesh.build_surface(2, 2)
    Bu = mesh.fd_laplacian_matrix(order=4, weighted=False)
    Bw = mesh.fd_laplacian_matrix(order=4, weighted=True)
    assert mesh.fd_laplacian_matrix(order=4, weighted=False) is Bu
    assert mesh.fd_laplacian_matrix(order=4, weighted=True) is Bw
    assert Bu is not Bw
    assert calls == [(4, False), (4, True)]
    # the memo lives on the mesh instance, not in a module-level cache
    assert mesh_r2.fd_laplacian_matrix(order=4, weighted=False) is not Bu
    assert abs(mesh_r2.fd_laplacian_matrix(order=4, weighted=False) - Bu).max() == 0.0


def test_fd_variants_agree_on_smooth_field(mesh_r3, basis_K2_r3):
    # squared-norm density of a holomorphic differential is a smooth
    # deck-invariant field; the two independent patch-fit discretizations
    # must agree at truncation level on it
    from eqmin.germsolve import t_density

    t = t_density(mesh_r3, basis_K2_r3[0].values)
    Bw = mesh_r3.fd_laplacian_matrix(order=4, weighted=True)
    Bu = mesh_r3.fd_laplacian_matrix(order=4, weighted=False)
    lw, lu = Bw @ t, Bu @ t
    scale = np.max(np.abs(lu))
    assert np.max(np.abs(lw - lu)) < 0.1 * scale
    # and the lumped cotangent operator agrees in the weak (integrated)
    # sense: total integrals of the Laplacian vanish
    S = hypmesh.laplacian(mesh_r3)
    assert abs(float(np.sum(S @ t))) < 1e-9
