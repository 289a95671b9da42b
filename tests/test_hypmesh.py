"""Mesh combinatorics, quadrature, and discrete operators."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from eqmin import hypmesh
from eqmin.errors import (
    InvalidParameterError,
    MeshQualityError,
    ResourceBudgetError,
)
from eqmin.mobius import (
    conformal_factor,
    hyp_dist,
    hyp_midpoint,
    triangle_angles_from_lengths,
)


def test_domain_angle_sum_closes():
    # gluing all 4g corners at one point needs the interior angle pi/(2g);
    # measure it as twice the base angle of a centre fan triangle
    for g in (2, 3):
        v0, v1 = hypmesh.FundamentalDomain(g).polygon_vertices[:2]
        radius = hyp_dist(0.0, v0)
        _, base, _ = triangle_angles_from_lengths(hyp_dist(v0, v1), radius, radius)
        assert abs(2.0 * base - math.pi / (2 * g)) < 1e-12


def _omega0_rate(z, dz):
    """omega0 = 2 Im(conj(z) dz) / (1 - |z|^2) at z along the velocity dz."""
    return 2.0 * np.imag(np.conj(z) * dz) / (1.0 - abs(z) ** 2)


def _quad_along(rate, z0, z1):
    """Adaptive quadrature of rate(z, dz) along the segment z0 -> z1."""
    d = z1 - z0
    return quad(lambda t: rate(z0 + t * d, d), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13,
                limit=200)[0]


def _disk_points(rng, n, radius):
    return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))


def test_segment_omega0_matches_quadrature():
    rng = np.random.default_rng(11)
    z0, z1 = _disk_points(rng, 200, 0.95), _disk_points(rng, 200, 0.95)
    got = hypmesh._segment_omega0(z0, z1)
    ref = np.array([_quad_along(_omega0_rate, a, b) for a, b in zip(z0, z1)])
    assert np.max(np.abs(got - ref)) <= 1e-12
    # zero-length and radial segments (through the origin, or from it)
    # carry no omega0, which is a multiple of d(arg z)
    radial = np.array([0.0, 0.3 - 0.4j, 0.9j, -0.95])
    for ends in ((z0, z0), (radial, 0.5 * radial), (-0.7 * radial, radial),
                 (np.zeros(4), radial)):
        assert np.max(np.abs(hypmesh._segment_omega0(*ends))) <= 1e-15


@pytest.mark.parametrize("genus", [2, 3])
def test_pairing_cocycle_matches_quadrature(genus):
    # G_sigma(z) integrates omega0 - sigma^* omega0 from the side's midpoint
    # to z; sigma^* omega0 reads omega0 at sigma(z) along sigma'(z) dz
    dom = hypmesh.FundamentalDomain(genus)
    rng = np.random.default_rng(genus)
    points = np.concatenate([_disk_points(rng, 6, 0.9), dom.polygon_vertices])
    for s in range(dom.n_sides):
        sigma = dom.side_map[s][1]
        base = hyp_midpoint(*dom.side_endpoints(s))

        def rate(z, dz):
            return _omega0_rate(z, dz) - _omega0_rate(sigma(z), sigma.deriv(z) * dz)

        ref = np.array([_quad_along(rate, base, z) for z in points])
        assert np.max(np.abs(hypmesh._pairing_cocycle(sigma, base, points) - ref)) <= 1e-12


@pytest.mark.parametrize("genus", [2, 3])
def test_pairing_cocycle_of_the_inverse_map(genus):
    # G_{sigma^-1}(sigma z) = -G_sigma(z), based at the partner's midpoint:
    # the stencil reads every pairing's cocycle at its own side's midpoint
    dom = hypmesh.FundamentalDomain(genus)
    z = _disk_points(np.random.default_rng(5), 50, 0.9)
    for s in range(dom.n_sides):
        partner, sigma = dom.side_map[s]
        inverse = dom.side_map[partner][1]
        got = hypmesh._pairing_cocycle(inverse, hyp_midpoint(*dom.side_endpoints(partner)),
                                       sigma(z))
        ref = -hypmesh._pairing_cocycle(sigma, hyp_midpoint(*dom.side_endpoints(s)), z)
        assert np.max(np.abs(got - ref)) <= 1e-13


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


def _copy_triangulation(genus, resolution):
    """The copy-level triangulation of build_surface and its gluing record."""
    dom = hypmesh.FundamentalDomain(genus)
    verts, faces, bnd, bnd_side = hypmesh._triangulate(dom, resolution)
    match = hypmesh._glue(dom, verts, bnd, bnd_side)[-1]
    return dom, verts, faces, bnd, bnd_side, match


def test_edges_shared_by_two_faces_enforced():
    dom, verts, faces, bnd, bnd_side, match = _copy_triangulation(2, 1)
    with pytest.raises(MeshQualityError, match="exactly 2 faces"):
        hypmesh._twins(dom, verts, faces[1:], bnd, bnd_side, match)


@pytest.mark.parametrize("genus, resolution", [(2, 2), (3, 2), (2, 3)])
def test_stencil_neighbours_are_congruent(genus, resolution):
    # slot 3 + a of face i is the far corner of the neighbour j across the
    # edge opposite corner a, carried into face i's chart by an isometry:
    # it keeps the neighbour's distances to the shared edge's endpoints
    # and the neighbour's corner class
    mesh = hypmesh.build_surface(genus, resolution)
    dom, verts, faces, bnd, bnd_side, match = _copy_triangulation(genus, resolution)
    twin, _ = hypmesh._twins(dom, verts, faces, bnd, bnd_side, match)
    i, a = np.divmod(np.arange(3 * mesh.n_faces), 3)
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
    ptr = mesh.patch_ptr
    for v in range(mesh.n_vertices):
        cls = mesh.patch_class[ptr[v]:ptr[v + 1]]
        coords = mesh.patch_coord[ptr[v]:ptr[v + 1]]
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


def test_cotangent_laplacian_assembled_once_per_mesh(mesh_r2):
    mesh = hypmesh.build_surface(2, 2)
    S = hypmesh.laplacian(mesh)
    assert hypmesh.laplacian(mesh) is S
    # kept on the mesh instance: another mesh of the surface has its own
    other = hypmesh.laplacian(mesh_r2)
    assert other is not S
    assert abs(other - S).max() == 0.0


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
        B = mesh_r3.fd_laplacian_matrix(weighted=weighted)
        assert np.max(np.abs(B @ ones)) < 1e-8


def test_fd_laplacian_assembled_once_per_variant(mesh_r2, monkeypatch):
    calls = []
    passes = []
    assemble = hypmesh.SurfaceMesh._assemble_fd_laplacian
    fit_rows = hypmesh._patch_fit_rows

    def counting(self, weighted):
        calls.append(weighted)
        return assemble(self, weighted)

    def counting_rows(*args):
        passes.append(args)
        return fit_rows(*args)

    monkeypatch.setattr(hypmesh.SurfaceMesh, "_assemble_fd_laplacian", counting)
    monkeypatch.setattr(hypmesh, "_patch_fit_rows", counting_rows)
    mesh = hypmesh.build_surface(2, 2)
    Bu = mesh.fd_laplacian_matrix(weighted=False)
    Bw = mesh.fd_laplacian_matrix(weighted=True)
    assert mesh.fd_laplacian_matrix(weighted=False) is Bu
    assert mesh.fd_laplacian_matrix(weighted=True) is Bw
    assert Bu is not Bw
    assert calls == [False, True]
    # one batched design and QR pass serves both matrices and fd_fit
    mesh.fd_fit(np.ones(mesh.n_vertices))
    assert len(passes) == 1
    # the memo lives on the mesh instance, not in a module-level cache
    assert mesh_r2.fd_laplacian_matrix(weighted=False) is not Bu
    assert abs(mesh_r2.fd_laplacian_matrix(weighted=False) - Bu).max() == 0.0


def _per_vertex_patch_fits(mesh, field, chart_term):
    """Reference for the batched patch-fit pass: one least-squares design
    per vertex, the matrix rows by pinv (weights clamped at 0.1, or unit)
    and the fit by lstsq (raw weights)."""
    V = mesh.n_vertices
    lam2 = conformal_factor(mesh.vertices) ** 2
    mats = {True: np.zeros((V, V)), False: np.zeros((V, V))}
    fit = np.zeros(V)
    ptr = mesh.patch_ptr
    for v in range(V):
        cls = mesh.patch_class[ptr[v]:ptr[v + 1]]
        coords = mesh.patch_coord[ptr[v]:ptr[v + 1]]
        zc = coords - mesh.vertices[v]
        scale = np.max(np.abs(zc))
        zc = zc / scale
        x, y = zc.real, zc.imag
        terms = [np.ones_like(x), x, y, x * x, x * y, y * y]
        if len(x) >= 12:
            terms += [x**3, x * x * y, x * y * y, y**3]
        if len(x) >= 18:
            terms += [x**4, x**3 * y, x * x * y * y, x * y**3, y**4]
        A = np.stack(terms, axis=1)
        r = np.abs(zc)
        wts = 1.0 / (1.0 + (r / max(np.median(r), 1e-30)) ** 4)
        wts[r == 0.0] = 1.0
        sw = np.sqrt(wts)
        vals = field[cls] + chart_term(coords)
        coef, *_ = np.linalg.lstsq(A * sw[:, None], vals * sw, rcond=None)
        fit[v] = 2.0 * (coef[3] + coef[5]) / scale**2
        for weighted in (True, False):
            sw = np.sqrt(np.maximum(wts, 0.1) if weighted else np.ones_like(wts))
            P = np.linalg.pinv(A * sw[:, None])
            mats[weighted][v, cls] = 2.0 * (P[3] + P[5]) * sw / (scale**2 * lam2[v])
    return mats, fit


@pytest.mark.parametrize("genus, resolution", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_batched_patch_fits_match_per_vertex_fits(genus, resolution):
    # r=1 patches have 14 points (cubic fits); the others mix size groups
    mesh = hypmesh.build_surface(genus, resolution)

    def log_lam(z):
        return np.log(conformal_factor(z) ** 2 / 2.0)

    field = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    mats, fit = _per_vertex_patch_fits(mesh, field, log_lam)
    for weighted, ref in mats.items():
        B = mesh.fd_laplacian_matrix(weighted=weighted).toarray()
        assert np.max(np.abs(B - ref)) <= 1e-12 * np.max(np.abs(ref))
    got = mesh.fd_fit(field, chart_term=log_lam)
    assert np.max(np.abs(got - fit)) <= 1e-12 * np.max(np.abs(fit))


def test_fd_variants_agree_on_smooth_field(mesh_r3, basis_K2_r3):
    # squared-norm density of a holomorphic differential is a smooth
    # deck-invariant field; the two independent patch-fit discretizations
    # must agree at truncation level on it
    from eqmin.germsolve import t_density

    t = t_density(mesh_r3, basis_K2_r3[0].values)
    Bw = mesh_r3.fd_laplacian_matrix(weighted=True)
    Bu = mesh_r3.fd_laplacian_matrix(weighted=False)
    lw, lu = Bw @ t, Bu @ t
    scale = np.max(np.abs(lu))
    assert np.max(np.abs(lw - lu)) < 0.1 * scale
    # and the lumped cotangent operator agrees in the weak (integrated)
    # sense: total integrals of the Laplacian vanish
    S = hypmesh.laplacian(mesh_r3)
    assert abs(float(np.sum(S @ t))) < 1e-9


@pytest.mark.parametrize("genus, resolution", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_equidistant_images_pick_the_smallest_rounded_key(genus, resolution, monkeypatch):
    # on the coarsest meshes two distinct images of a class can be
    # equidistant from the vertex up to roundoff; the patch keeps the one
    # with the smallest (distance, real, imaginary part) rounded to 12 digits
    calls = []
    closest = hypmesh._closest_images

    def recording(vtx, cls, z, dist):
        calls.append((vtx, cls, z, dist))
        return closest(vtx, cls, z, dist)

    monkeypatch.setattr(hypmesh, "_closest_images", recording)
    mesh = hypmesh.build_surface(genus, resolution)
    ties = 0
    for vtx, cls, z, dist in calls:
        for v, c in set(zip(vtx.tolist(), cls.tolist())):
            if v == c:
                continue
            pick = (vtx == v) & (cls == c)
            near = dist[pick] <= dist[pick].min() + 1e-12
            images = z[pick][near]
            if np.max(np.abs(images - images[0])) < 1e-9:
                continue
            ties += 1
            keys = np.round(np.stack([dist[pick][near], images.real, images.imag]), 12)
            best = images[np.lexsort(keys[::-1])[0]]
            ptr = mesh.patch_ptr
            row = mesh.patch_class[ptr[v]:ptr[v + 1]] == c
            assert abs(mesh.patch_coord[ptr[v]:ptr[v + 1]][row][0] - best) < 1e-12
    assert ties > 0


def _unique_first_chains(vtx, face, key):
    """Reference for the chain dedupe: the first row of each distinct
    (vertex, face, key) by a row-wise np.unique."""
    rows = np.stack([vtx, face, key.real, key.imag], axis=1)
    return np.sort(np.unique(rows, axis=0, return_index=True)[1])


def _lexsort_closest_images(vtx, cls, z, dist):
    """Reference for the closest-image rule: all its keys in one lexsort."""
    pair = vtx * (np.max(cls) + 1) + cls
    order = np.lexsort((dist, np.round(z.imag, 12), np.round(z.real, 12),
                        np.round(dist, 12), pair))
    first = order[np.r_[True, pair[order][1:] != pair[order][:-1]]]
    return vtx[first], cls[first], z[first]


@pytest.mark.parametrize("genus, resolution", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_patch_search_matches_its_reference_rules(genus, resolution, monkeypatch):
    # every block of a real build: the chain dedupe keeps the rows a
    # row-wise unique keeps, and the closest images are the lexsort's
    blocks = {"dedupe": [], "closest": []}
    dedupe, closest = hypmesh._first_chains, hypmesh._closest_images

    def recording_dedupe(*args):
        blocks["dedupe"].append(args)
        return dedupe(*args)

    def recording_closest(*args):
        blocks["closest"].append(args)
        return closest(*args)

    monkeypatch.setattr(hypmesh, "_first_chains", recording_dedupe)
    monkeypatch.setattr(hypmesh, "_closest_images", recording_closest)
    hypmesh.build_surface(genus, resolution)
    assert blocks["dedupe"] and blocks["closest"]
    for args in blocks["dedupe"]:
        assert np.array_equal(dedupe(*args), _unique_first_chains(*args))
    for args in blocks["closest"]:
        for got, ref in zip(closest(*args), _lexsort_closest_images(*args)):
            assert np.array_equal(got, ref)


def test_patch_search_rules_on_repeats_signed_zeros_and_ties():
    # dedupe: rows repeat out of order, and -0.0 and 0.0 are one key
    vtx = np.array([0, 0, 1, 0, 1, 0, 0, 1])
    face = np.array([3, 3, 2, 3, 2, 1, 3, 2])
    key = np.array([complex(0.5, -0.0), 0.5, complex(-0.0, 1.0), 0.5, 1j, 0.5, 0.25, 1j])
    assert np.signbit(key.imag[0]) and np.signbit(key.real[2])
    keep = hypmesh._first_chains(vtx, face, key)
    assert np.array_equal(keep, _unique_first_chains(vtx, face, key))
    assert keep.tolist() == [0, 2, 5, 6]
    # closest images: pair (0, 1) has the unrounded closest copy at a
    # larger rounded position than an image at the same rounded distance,
    # pair (1, 2) holds two copies of one image and a farther one
    vtx = np.array([0, 0, 0, 1, 1, 1])
    cls = np.array([1, 1, 1, 2, 2, 2])
    z = np.array([0.3 + 0.2j, 0.3 + 0.1j, 0.1 + 0.1j, 0.5j, 0.5j + 1e-15, 0.7j])
    dist = np.array([1.0 - 1e-14, 1.0, 1.1, 2.0, 2.0 - 1e-15, 2.5])
    got = hypmesh._closest_images(vtx, cls, z, dist)
    for a, b in zip(got, _lexsort_closest_images(vtx, cls, z, dist)):
        assert np.array_equal(a, b)
    assert got[2].tolist() == [0.3 + 0.1j, 0.5j + 1e-15]
