"""Mesh combinatorics, quadrature, and discrete operators."""

import hashlib
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
    apply,
    compose,
    conformal_factor,
    derivative,
    hyp_dist,
    invert,
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


def _deck(dom):
    """The deck table of build_surface."""
    return dom.elements(2.0 * dom.radius)


@pytest.mark.parametrize("genus", [2, 3])
def test_pairings_map_sides_onto_their_partners(genus):
    # side s onto side s' = partner[s] with endpoints swapped; s' is paired
    # back by the inverse map, and every pairing translates by the length l
    # of cosh(l/2) = 1 + cos(pi/2g), half the trace |Re a|
    dom = hypmesh.FundamentalDomain(genus)
    k, v = dom.n_sides, dom.polygon_vertices
    s = np.arange(k)
    partner = dom.partner
    assert np.array_equal(partner[partner], s)
    assert np.array_equal(partner[s % 4 < 2], s[s % 4 < 2] + 2)
    for start, end in ((s, partner + 1), (s + 1, partner)):
        assert np.max(np.abs(apply(dom.pairing, v[start % k]) - v[end % k])) <= 1e-13
    inverse = invert(dom.pairing)
    for got, want in zip(inverse, dom.pairing):
        assert np.array_equal(got, want[partner])
    a, b = dom.pairing
    assert np.max(np.abs(np.abs(a.real) - (1.0 + math.cos(math.pi / (2 * genus))))) <= 1e-14
    assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0)) <= 1e-14


@pytest.mark.parametrize("genus, bound", [(2, 3e-13), (3, 3e-12)])
def test_pairings_satisfy_the_surface_group_relation(genus, bound):
    # the pairings round the one vertex cycle, vertex j -> pairing of side
    # j -> vertex partner[j] + 1, compose to the identity.  A product of 4g
    # maps whose coefficients are correct to an ulp reaches 7e-14 at g=2
    # and 9e-13 at g=3 in the median and 2.7e-13 and 2.8e-12 at the 99th
    # percentile, which sets the bounds
    dom = hypmesh.FundamentalDomain(genus)
    j, p = 0, (1.0 + 0.0j, 0.0j)
    for _ in range(dom.n_sides):
        p = compose(dom.pairing[:, j], p)
        j = (dom.partner[j] + 1) % dom.n_sides
    assert j == 0
    a, b = np.array(p) / math.sqrt(abs(p[0]) ** 2 - abs(p[1]) ** 2)
    assert min(abs(a - 1.0), abs(a + 1.0)) + abs(b) <= bound


@pytest.mark.parametrize("genus", [2, 3])
def test_deck_table_holds_every_tile_that_meets_the_polygon(genus):
    # the identity first, distinct elements that move 0 by at most the
    # polygon's diameter 2R, among them the 4g pairings and, around each
    # polygon vertex, the 4g tiles of its star: the elements that take a
    # polygon vertex onto one, 1 + 4g + 4g (4g - 3) of them
    dom = hypmesh.FundamentalDomain(genus)
    deck, k = _deck(dom), dom.n_sides
    assert deck[:, 0].tolist() == [1.0, 0.0]
    zero = deck[1] / np.conj(deck[0])
    assert np.max(hyp_dist(0.0, zero)) <= 2.0 * dom.radius + 1e-9
    apart = hyp_dist(zero[:, None], zero[None, :]) + np.eye(len(zero)) * 10.0
    assert np.min(apart) > 2.0 * dom.inradius - 1e-9
    assert np.array_equal(hypmesh._identify(deck, 0.0, dom.pairing[1] / np.conj(dom.pairing[0])),
                          np.arange(1, k + 1))
    v = dom.polygon_vertices
    images = apply(deck[:, :, None, None], v[None, :, None])
    star = np.any(np.abs(images - v[None, None, :]) < 1e-9, axis=(1, 2))
    assert np.sum(star) == 1 + k + k * (k - 3)


@pytest.mark.parametrize("genus, n_maps", [(2, 10), (3, 16)])
def test_copies_of_one_deck_transformation_share_its_coefficients(genus, n_maps):
    # each copy's chart map from its class chart maps the root copy onto it;
    # the copies' maps are n_maps deck transformations, and the maps of
    # all copies of one of them are equal bit for bit
    dom = hypmesh.FundamentalDomain(genus)
    deck = _deck(dom)
    verts, faces, bnd, bnd_side = hypmesh._triangulate(dom, 2)
    copy_class, roots, copy_deck, *_ = hypmesh._glue(dom, deck, verts, bnd, bnd_side)
    chart = deck[:, copy_deck]
    assert np.max(np.abs(apply(chart, verts[roots][copy_class]) - verts)) < 1e-12
    probe = np.array([0.0, 0.5, 0.3j, -0.4 - 0.2j])
    act = apply(chart[:, :, None], probe)
    same = np.max(np.abs(act[:, None] - act[None, :]), axis=2) < 1e-9
    groups = {tuple(np.flatnonzero(row)) for row in same}
    assert len(groups) == n_maps
    for group in groups:
        for part in chart:
            assert np.all(part[list(group)] == part[group[0]])


@pytest.mark.parametrize("genus", [2, 3])
def test_pairing_cocycle_matches_quadrature(genus):
    # G_sigma(z) integrates omega0 - sigma^* omega0 from the side's midpoint
    # to z; sigma^* omega0 reads omega0 at sigma(z) along sigma'(z) dz
    dom = hypmesh.FundamentalDomain(genus)
    rng = np.random.default_rng(genus)
    points = np.concatenate([_disk_points(rng, 6, 0.9), dom.polygon_vertices])
    for s in range(dom.n_sides):
        sigma = dom.pairing[:, s]
        base = dom.side_midpoints[s]

        def rate(z, dz):
            return _omega0_rate(z, dz) - _omega0_rate(apply(sigma, z), derivative(sigma, z) * dz)

        ref = np.array([_quad_along(rate, base, z) for z in points])
        assert np.max(np.abs(hypmesh._pairing_cocycle(sigma, base, points) - ref)) <= 1e-12


@pytest.mark.parametrize("genus", [2, 3])
def test_pairing_cocycle_of_the_inverse_map(genus):
    # G_{sigma^-1}(sigma z) = -G_sigma(z), based at the partner's midpoint:
    # the stencil reads every pairing's cocycle at its own side's midpoint
    dom = hypmesh.FundamentalDomain(genus)
    z = _disk_points(np.random.default_rng(5), 50, 0.9)
    for s in range(dom.n_sides):
        partner, sigma = dom.partner[s], dom.pairing[:, s]
        inverse = dom.pairing[:, partner]
        got = hypmesh._pairing_cocycle(inverse, dom.side_midpoints[partner],
                                       apply(sigma, z))
        ref = -hypmesh._pairing_cocycle(sigma, dom.side_midpoints[s], z)
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
    match = hypmesh._glue(dom, _deck(dom), verts, bnd, bnd_side)[-1]
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


def _lexsort_closest_images(vtx, cls, z, dist):
    """Reference for the closest-image rule: all its keys in one lexsort."""
    pair = vtx * (np.max(cls) + 1) + cls
    order = np.lexsort((dist, np.round(z.imag, 12), np.round(z.real, 12),
                        np.round(dist, 12), pair))
    first = order[np.r_[True, pair[order][1:] != pair[order][:-1]]]
    return vtx[first], cls[first], z[first]


def _brute_force_patches(mesh, genus, resolution):
    """Reference for the patch search, one vertex at a time: every chain v
    -> face i at v -> corner u of i -> face j at u, its chart map composed
    from the corners' own maps, every stencil point of j carried into v's
    chart, and per class the image that _lexsort_closest_images picks; v
    itself at its class coordinate.  Returns the patches' classes,
    coordinates and sizes, every chain map as coefficient arrays, and the
    deck table."""
    dom = hypmesh.FundamentalDomain(genus)
    deck = _deck(dom)
    verts, faces, bnd, bnd_side = hypmesh._triangulate(dom, resolution)
    copy_class, _, copy_deck, *_ = hypmesh._glue(dom, deck, verts, bnd, bnd_side)

    def chart(copy):
        return deck[:, copy_deck[copy]]

    corners = [np.argwhere(copy_class[faces] == v) for v in range(mesh.n_vertices)]
    classes, coords, maps = [], [], []
    for v, at_v in enumerate(corners):
        cls, z = [], []
        for i, a in at_v:
            for b in {0, 1, 2} - {a}:
                to_u = compose(invert(chart(faces[i, a])), chart(faces[i, b]))
                for j, c in corners[copy_class[faces[i, b]]]:
                    m = compose(to_u, invert(chart(faces[j, c])))
                    maps.append(m)
                    cls.append(mesh.stencil_class[j])
                    z.append(apply(m, mesh.stencil_coord[j]))
        cls, z = np.concatenate(cls), np.concatenate(z)
        _, cls, z = _lexsort_closest_images(np.full(len(cls), v), cls, z,
                                            np.abs(z - mesh.vertices[v]))
        z[cls == v] = mesh.vertices[v]
        classes.append(cls)
        coords.append(z)
    return (np.concatenate(classes), np.concatenate(coords), [len(c) for c in classes],
            np.array(maps).T, deck)


@pytest.mark.parametrize("genus, resolution", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_patch_search_matches_its_reference_rules(genus, resolution, monkeypatch):
    # the built patches are the brute-force search's: the closest image of
    # each class, equidistant images ordered by their rounded keys; each
    # chain map is the deck transformation that its image of 0 names; and
    # every block's closest images are the lexsort's
    blocks = []
    closest = hypmesh._closest_images

    def recording_closest(*args):
        blocks.append(args)
        return closest(*args)

    monkeypatch.setattr(hypmesh, "_closest_images", recording_closest)
    mesh = hypmesh.build_surface(genus, resolution)
    assert blocks
    for args in blocks:
        for got, ref in zip(closest(*args), _lexsort_closest_images(*args)):
            assert np.array_equal(got, ref)
    cls, coord, sizes, (a, b), deck = _brute_force_patches(mesh, genus, resolution)
    assert np.array_equal(mesh.patch_ptr, np.cumsum([0] + sizes))
    assert np.array_equal(mesh.patch_class, cls)
    assert np.max(np.abs(mesh.patch_coord - coord)) < 1e-12
    # each chain map acts as the table element its image of 0 names, and
    # the chains name every element whose tile meets the polygon
    ids = hypmesh._identify(deck, 0.0, b / np.conj(a))
    probe = np.array([0.0, 0.5, 0.3j, -0.4 - 0.2j])
    act = apply((a[:, None], b[:, None]), probe)
    named = apply(deck[:, ids, None], probe)
    assert np.max(np.abs(act - named)) < 1e-9
    assert len(np.unique(ids)) == 1 + 4 * genus * (4 * genus - 2)


def test_patch_search_rules_on_repeats_signed_zeros_and_ties():
    # table ids: maps named by their images of 0 up to sign, scale, signed
    # zeros and roundoff; a map outside the table is an error
    deck = np.array([[1.0, 2.0, 2.0, 1.5], [0.0, 1.0j, 1.0, 0.5]])
    a = np.array([2.0, 1.0, complex(1.0, -0.0), -2.0, 3.0 + 1e-15, 2.0, 1.5 + 1e-15j])
    b = np.array([1.0j, 0.0, complex(-0.0, 0.0), -1.0j, 3e-16j, complex(1.0, 1e-16), 0.5])
    assert hypmesh._identify(deck, 0.0, b / np.conj(a)).tolist() == [1, 0, 0, 1, 0, 2, 3]
    with pytest.raises(MeshQualityError, match="not in the deck table"):
        hypmesh._identify(deck, 0.0, np.array([-0.5]))
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


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("resolution", [1, 2, 3])
def test_patches_and_fit_rows_do_not_depend_on_the_block_sizes(genus, resolution,
                                                               monkeypatch):
    # _PATCH_BLOCK and _FIT_CHUNK bound memory only: a small block and one
    # block for the whole mesh give the same arrays, bit for bit
    def build(block, chunk):
        monkeypatch.setattr(hypmesh, "_PATCH_BLOCK", block)
        monkeypatch.setattr(hypmesh, "_FIT_CHUNK", chunk)
        mesh = hypmesh.build_surface(genus, resolution)
        return [mesh.patch_class, mesh.patch_ptr, mesh.patch_coord, *mesh._fit_rows().values()]

    ref = build(hypmesh._PATCH_BLOCK, hypmesh._FIT_CHUNK)
    for block, chunk in ((5, 3), (10**6, 10**6)):
        for got, want in zip(build(block, chunk), ref):
            assert np.array_equal(got, want)


def test_patch_search_outputs_are_pinned():
    # the integer outputs of the stencil and the patch search, which a
    # refactor of the gluing or the deck transformations must keep bit
    # for bit: sha256 of their int64 bytes
    pinned = {
        (2, 1): ("1022441d8744ccdb", "88daa297a349ee3a", "e2845a7fb02bef79"),
        (3, 1): ("725fc6aa200e762e", "7ff7f786a28d3783", "33f8772a1f2a68b8"),
        (2, 2): ("befc29b048ebb355", "f128f6aa1138413f", "0de4203932c3eaf5"),
        (3, 2): ("3c6ff0d03c1b8c22", "56bab5899350b861", "cace7a7947185317"),
        (2, 3): ("9ea6da75ab56df39", "ff717c221b96bf9e", "1297ab167c44f8e5"),
        (2, 4): ("4e42c2d4380f0b80", "39f00ff69404b1dd", "2fb73caa6ffc3811"),
    }
    for (genus, resolution), digests in pinned.items():
        mesh = hypmesh.build_surface(genus, resolution)
        arrays = (mesh.patch_class, mesh.patch_ptr, mesh.stencil_class)
        got = tuple(hashlib.sha256(np.ascontiguousarray(x, dtype=np.int64).tobytes())
                    .hexdigest()[:16] for x in arrays)
        assert got == digests, (genus, resolution)
