"""Discretized closed hyperbolic surfaces of genus g >= 2.

The surface is realized as a triangulated regular 4g-gon in the Poincare
disk with the standard a b a^-1 b^-1 ... side pairings.  Boundary vertices
are glued by the pairing isometries; every vertex class stores one value,
and per-(face, corner) chart factors transport tensor components between
the class frame and the chart of the face.

Tensor conventions used throughout the package:

* background metric h = lambda(z)^2 |dz|^2 with lambda = 2/(1-|z|^2),
  curvature -1;
* a section of K^m L^n is stored as the coefficient f of dz^m in the
  polygon chart, in a global unitary gauge for L;
* pointwise squared h-norm of f dz^m is |f|^2 (2/lambda^2)^m (the tensor
  norm, in which ||dz||^2_h = 2/lambda^2).

The line bundle L of degree l carries the connection i c omega0, c its
curvature density, with omega0 = 2 Im(conj(z) dz) / (1 - |z|^2) =
i (d' - d'') log(1 - |z|^2), whose differential is the area form
lambda^2 dx dy.  Its integrals are closed forms:

* along z0 + t d, d = z1 - z0, Im(conj(z) dz) = Im(conj(z0) z1) dt is
  constant and 1 - |z|^2 quadratic in t, which gives (_segment_omega0)
      2 Im(conj(z0) z1) / (1 - Re(conj(z0) z1)) atanh(x) / x,
      x = sqrt(beta^2 + (1 - |z0|^2) |d|^2) / (1 - Re(conj(z0) z1)),
  beta = Re(conj(z0) d), atanh(x) / x = 1 at x = 0, x < 1 iff |z1| < 1;
* a disk automorphism sigma(z) = (a z + b) / j(z), j(z) = conj(b) z +
  conj(a), has 1 - |sigma z|^2 = (1 - |z|^2) / |j|^2, so sigma^* omega0 -
  omega0 = 2 d arg j and G_sigma(z) = int_base^z (omega0 - sigma^* omega0)
  = -2 arg(j(z) / j(base)) (_pairing_cocycle), the principal value being
  exact as Re(j / conj(a)) > 0 on the disk (|b| < |a|).  exp(i c G_sigma)
  are the unitary factors of automorphy that glue L across the side
  pairings; j_{sigma^-1}(sigma z) j_sigma(z) = 1 gives G_{sigma^-1}(sigma z)
  = -G_sigma(z) based at sigma(base).

The side pairings are in closed form too.  Side s has its midpoint at
the inradius d from 0, cosh d = cot(pi/4g), in the direction theta_s = 2 pi
(s + 1/2) / 4g.  Its pairing with side s' = partner[s] rotates the
midpoint onto the positive axis, translates by -2d and rotates -d onto
theta_s'; with Rot(phi) = (e^{i phi/2}, 0) and Tr(t) = (cosh(t/2),
sinh(t/2)) in the coefficients (a, b) of eqmin.mobius,

    sigma_s = Rot(theta_s' + pi) o Tr(-2d) o Rot(-theta_s),
    a = e^{i (theta_s' - theta_s + pi)/2} cosh d, b = -e^{i (theta_s' + theta_s + pi)/2} sinh d,

which takes vertex s to vertex s' + 1 and vertex s + 1 to vertex s'.  For
s = 4i + k, k = 0, 1, s' = s + 2: theta_s' - theta_s = pi/g and (theta_s +
theta_s')/2 = theta_{s+1}, so a = i e^{i pi/2g} cosh d, b = -i e^{i
theta_{s+1}} sinh d, and sigma_s' is the inverse of sigma_s.  The trace
gives every pairing's translation length l: cosh(l/2) = |Re a| =
cot(pi/4g) sin(pi/2g) = 1 + cos(pi/2g).  Only the polygon's radius and
this closed form are specific to the regular 4g-gon: omega0's integrals
and the cocycle hold for any disk automorphism.
"""

import math
import cmath

import numpy as np
import scipy.sparse as sp

from .errors import (
    InvalidParameterError,
    MeshQualityError,
    ResourceBudgetError,
    ShapeError,
)
from .mobius import (
    apply,
    compose,
    conformal_factor,
    derivative,
    hyp_dist,
    hyp_midpoint,
    invert,
    triangle_angles_from_lengths,
)

__all__ = [
    "FundamentalDomain",
    "SurfaceMesh",
    "build_surface",
    "laplacian",
    "integrate",
    "restrict_field",
]


def _segment_omega0(z0, z1):
    """Integral of omega0 along the straight segment z0 -> z1, in closed
    form, vectorized over equal-length arrays of endpoints."""
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    d = z1 - z0
    p = np.conj(z0) * z1
    den = 1.0 - p.real
    x = np.sqrt((np.conj(z0) * d).real ** 2 + (1.0 - np.abs(z0) ** 2) * np.abs(d) ** 2) / den
    # atanh(x) / x, which is 1 at x = 0 (a zero-length segment)
    ratio = np.divide(np.arctanh(x), x, out=np.ones_like(x), where=x > 0.0)
    return 2.0 * p.imag / den * ratio


def _pairing_cocycle(sigma, base, z):
    """G_sigma(z) = -2 arg(j(z) / j(base)), j the automorphy factor of
    sigma = (a, b), vectorized over sigma, base and z.  The sign makes
    exp(i c G_sigma) the transition functions of the connection A = i c
    omega0 used for all parallel transports: sigma^* A - A = -d
    log(transition)."""
    a, b = np.conj(sigma[0]), np.conj(sigma[1])
    return -2.0 * np.angle((b * np.asarray(z) + a) / (b * base + a))


class FundamentalDomain:
    """Regular hyperbolic 4g-gon with standard side pairings.

    Sides are numbered so that side j runs from polygon vertex j to j+1.
    The pairing pattern is a b a^-1 b^-1 repeated: side s = 4i+k is glued
    to side partner[s] = 4i+k+2 (k = 0, 1) with endpoints swapped, by the
    disk automorphism pairing[:, s] (coefficients (a, b), eqmin.mobius) in
    closed form (module docstring); pairing[:, partner[s]] is its inverse.
    """

    def __init__(self, genus):
        if genus < 2:
            raise InvalidParameterError(f"genus must be >= 2, got {genus}")
        self.genus = genus
        k = 4 * genus
        self.n_sides = k
        # the circumradius R of the regular 4g-gon with interior angles
        # pi/(2g) has cosh R = cot^2(pi/4g), so tanh(R/2) = sqrt(cos(pi/2g))
        r_euc = math.sqrt(math.cos(math.pi / (2 * genus)))
        self.radius = 2.0 * math.atanh(r_euc)
        self.polygon_vertices = np.array(
            [r_euc * cmath.exp(2j * math.pi * j / k) for j in range(k)]
        )
        # the pairings in closed form (module docstring): the inradius d has
        # cosh d = 1/t and sinh d = sqrt(1 - t^2)/t, t = tan(pi/4g), and side
        # j's midpoint lies in the direction theta_j
        s = np.arange(k)
        self.partner = s ^ 2
        t = math.tan(math.pi / k)
        self.inradius = math.acosh(1.0 / t)
        direction = np.exp(1j * (2.0 * math.pi * (s + 0.5) / k))
        v = self.polygon_vertices
        self.side_midpoints = np.array([hyp_midpoint(v[j], v[(j + 1) % k]) for j in range(k)])
        self.pairing = np.array([np.full(k, 1j * cmath.exp(0.5j * math.pi / genus) / t),
                                 -1j * np.roll(direction, -1) * (math.sqrt(1.0 - t * t) / t)])
        upper = s % 4 >= 2
        self.pairing[:, upper] = invert(self.pairing[:, s[upper] ^ 2])

    def elements(self, max_displacement):
        """The elements of the surface group that move 0 by at most
        max_displacement (up to roundoff), as coefficients (a, b) of shape
        (2, n), the identity first, then by word length in the pairings.

        Breadth first, each computed once as h o sigma of a kept h one
        pairing sigma shorter.  Distinct elements move 0 at least 2d apart,
        so an element is new unless its image of 0 lies within d of a kept
        one's; words are no ids, as the two ways round a polygon vertex
        name one element.  Elements that move 0 farther are not extended:
        the polygon is the Dirichlet domain of 0, so the tiles that the
        geodesic from 0 to g(0) crosses lie no farther from 0 than g(0).
        """
        kept = new = np.array([[1.0 + 0.0j], [0.0j]])
        while new.shape[1]:
            new = np.array(compose(new[:, :, None], self.pairing[:, None, :])).reshape(2, -1)
            new = new[:, hyp_dist(0.0, new[1] / np.conj(new[0])) <= max_displacement + 1e-9]
            z, n = new[1] / np.conj(new[0]), kept.shape[1]
            near = hyp_dist(z[:, None], np.append(kept[1] / np.conj(kept[0]), z)) < self.inradius
            new = new[:, ~(near[:, :n].any(axis=1) | np.tril(near[:, n:], -1).any(axis=1))]
            kept = np.concatenate([kept, new], axis=1)
        return kept


class _UnionFind:
    """Union-find over vertex copies, tracking the L-cocycle to the root.

    For copy i with root r, the accumulator G[i] satisfies f(z_i) =
    exp(i c G[i]) f(z_r) for curvature scale c.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.G = [0.0] * n
        self.defects = []

    def find(self, i):
        # a root's accumulator stays 0
        if self.parent[i] != i:
            root, G = self.find(self.parent[i])
            self.parent[i], self.G[i] = root, self.G[i] + G
        return self.parent[i], self.G[i]

    def union(self, u, w, g_uw):
        """Record f(z_w) = exp(i c g_uw) f(z_u) for glued copies u and w."""
        ru, Gu = self.find(u)
        rw, Gw = self.find(w)
        if ru == rw:
            # redundant gluing: record the cocycle defect for validation
            self.defects.append(Gu + g_uw - Gw)
            return
        # attach rw below ru
        self.parent[rw] = ru
        self.G[rw] = Gu + g_uw - Gw


class SurfaceMesh:
    """Immutable triangulated closed hyperbolic surface.

    Attributes (all numpy arrays unless noted):
      vertices        complex[V], class representative chart coordinates
      faces           int[F, 3], vertex class ids, counter-clockwise
      face_area       float[F], hyperbolic triangle areas (angle defect)
      face_cot        float[F, 3], cotangents of the angles
      face_centroid   complex[F]
      vertex_areas    float[V], lumped dual areas
      stencil_*       six-point extension stencil per face (see dbar assembly)
      copy_class, class_root_copy  vertex copies of the polygon <-> classes
      patch_class, patch_coord, patch_ptr  vertex patches for the local
                      fits, flat: vertex v's patch is [ptr[v]:ptr[v+1]]

    Operators and results that only the mesh determines are built on
    first use and kept on the mesh (see memo): the patch fits and both
    patch-fit Laplacians, the cotangent Laplacian, the dbar stencil rows,
    the negated cotangent Laplacian with the pattern every Newton step
    factors its block on (germsolve._newton_block), the one pattern of the
    per-field blocks of the polish's normal matrices with the diagonals
    their closed-form diagonal reads (germsolve._PolishNormal), the
    pattern of the dbar stencil's normal matrices with the place in it of
    each stencil pair (bundles._stencil_pattern), each Hermitian pattern
    with the band plan of its first factorization (factor.HermitianPattern),
    and the holomorphic bases of the bundles a run uses (under ("basis",
    n l), the degree of L^n).  Callers share them and must not modify them.
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)
        self._memo = {}

    def memo(self, key, build):
        """The value of build() for this key, computed on the first call
        and kept on the mesh; callers share it and must not modify it.

        A kept value must not refer to the mesh, directly or through an
        object that holds it (a DbarOperator keeps .mesh): the mesh would
        then sit in a reference cycle and outlive its last user until the
        cyclic garbage collector runs, and a sweep or a batch of runs would
        hold several meshes at once."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        # exact: _twins checks that every edge is shared by exactly 2 faces
        return 3 * self.n_faces // 2

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    def total_area(self):
        return float(np.sum(self.face_area))

    def _fit_rows(self):
        """Laplacian-of-fit rows of the three patch-fit weightings (raw,
        clamped, unit), computed once per mesh by _patch_fit_rows."""
        return self.memo("patch_fit", lambda: _patch_fit_rows(
            self.vertices, self.patch_coord, self.patch_ptr))

    def fd_fit(self, field, chart_term=None):
        """Flat Laplacian at the vertices of a weighted least-squares
        polynomial fit of a scalar vertex field on each vertex patch.

        chart_term, when given, is a callable of the chart coordinate whose
        value is added to the class values at the patch points (for fields
        like log of the conformal factor that are chart expressions rather
        than invariant scalars).  These are chart derivatives; divide by
        lambda^2 for the Laplace-Beltrami operator.
        """
        vals = np.asarray(field, dtype=float)[self.patch_class]
        if chart_term is not None:
            vals = vals + chart_term(self.patch_coord)
        return np.add.reduceat(self._fit_rows()["raw"] * vals, self.patch_ptr[:-1])

    def fd_laplacian_matrix(self, weighted=True):
        """Sparse hyperbolic-Laplacian matrix assembled from the patch fits.

        Rows are the Laplacian-of-fit functionals, so the operator is
        pointwise consistent on any patch geometry by polynomial
        exactness (unlike the lumped cotangent operator, which is only
        weakly consistent at irregular vertices).  The weighted and
        unweighted variants are genuinely different discretizations and
        serve as independent oracles for one another.

        Each variant is assembled once and kept on the mesh; callers share
        the returned matrix and must not modify it.
        """
        key = bool(weighted)
        return self.memo(("fd_laplacian", key), lambda: self._assemble_fd_laplacian(key))

    def _assemble_fd_laplacian(self, weighted):
        V = self.n_vertices
        lam2 = conformal_factor(self.vertices) ** 2
        rows = self._fit_rows()["clamped" if weighted else "unit"]
        vals = rows / np.repeat(lam2, np.diff(self.patch_ptr))
        return sp.csr_matrix((vals, self.patch_class, self.patch_ptr), shape=(V, V))


def restrict_field(fine, coarse, field):
    """Sample a vertex field from a finer mesh of the same surface onto a
    coarser one.

    Uniform refinement appends vertices, so the coarse vertex copies are a
    prefix of the fine mesh's copies; restriction is exact sampling.
    """
    if fine.genus != coarse.genus or fine.resolution < coarse.resolution:
        raise InvalidParameterError("meshes are not a refinement pair")
    field = np.asarray(field)
    idx = fine.copy_class[coarse.class_root_copy]
    return field[idx]


def _refine(vertices, faces, boundary_side):
    """One uniform refinement pass (hyperbolic edge midpoints)."""
    vertices = list(vertices)
    midpoint = {}
    new_boundary = {}

    def mid(u, v):
        key = (u, v) if u < v else (v, u)
        if key not in midpoint:
            m = hyp_midpoint(vertices[u], vertices[v])
            midpoint[key] = len(vertices)
            vertices.append(m)
            side = boundary_side.get(key)
            if side is not None:
                new_boundary[(min(u, midpoint[key]), max(u, midpoint[key]))] = side
                new_boundary[(min(v, midpoint[key]), max(v, midpoint[key]))] = side
        return midpoint[key]

    new_faces = []
    for (a, b, c) in faces:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
    return vertices, new_faces, new_boundary


# vertex budget and triangle-quality floor of build_surface
_MAX_VERTICES = 400_000
_MIN_ANGLE_DEG = 10.0
# vertices per block of the patch search; bounds the memory of its chains
_PATCH_BLOCK = 64
# patches per chunk of a patch-fit size group; bounds the memory of its
# designs and QR factors
_FIT_CHUNK = 256


def build_surface(genus, resolution):
    """Triangulate the closed genus-g surface at the given refinement level.

    The base mesh is the fan triangulation of the regular 4g-gon from its
    center; each refinement pass splits every triangle in four at
    hyperbolic edge midpoints.  Deterministic for fixed inputs.
    """
    if genus < 2:
        raise InvalidParameterError(f"genus must be >= 2, got {genus}")
    if resolution < 1:
        raise InvalidParameterError(f"resolution must be >= 1, got {resolution}")
    # every resolution from 16 up is over the budget: capping the exponent
    # there keeps a huge resolution from building a huge integer
    if 2 * genus * 4 ** min(resolution, 16) + 2 > _MAX_VERTICES:
        raise ResourceBudgetError(
            f"resolution {resolution} at genus {genus} is over the budget of "
            f"{_MAX_VERTICES} vertices"
        )
    dom = FundamentalDomain(genus)
    # the deck transformations whose tiles meet the polygon: every chart
    # map of the copies and of the patch search's chains is one of them
    deck = dom.elements(2.0 * dom.radius)
    verts, faces, bnd, bnd_side = _triangulate(dom, resolution)
    copy_class, roots, copy_deck, copy_G, match = _glue(dom, deck, verts, bnd, bnd_side)
    class_coord = verts[roots]

    # --- metric data ---------------------------------------------------
    face_cls = copy_class[faces]
    z0, z1, z2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    l0 = hyp_dist(z1, z2)
    l1 = hyp_dist(z2, z0)
    l2 = hyp_dist(z0, z1)
    if np.min([l0, l1, l2]) < 1e-13:
        raise MeshQualityError("degenerate (zero-length) edge")
    a0, a1, a2 = triangle_angles_from_lengths(l0, l1, l2)
    face_angles = np.stack([a0, a1, a2], axis=1)
    face_area = math.pi - face_angles.sum(axis=1)
    if np.min(face_area) < 1e-14:
        bad = int(np.argmin(face_area))
        raise MeshQualityError(f"face {bad} has non-positive area")
    min_angle = math.degrees(float(np.min(face_angles)))
    if min_angle < _MIN_ANGLE_DEG:
        raise MeshQualityError(
            f"triangle quality floor violated: min angle {min_angle:.2f} deg"
        )
    face_centroid = (z0 + z1 + z2) / 3.0
    vertex_areas = np.zeros(len(roots))
    np.add.at(vertex_areas, face_cls.ravel(), np.repeat(face_area / 3.0, 3))

    twin, side = _twins(dom, verts, faces, bnd, bnd_side, match)
    stencil, stencil_point = _stencil(dom, deck, verts, faces, twin, side, copy_class,
                                      copy_deck, copy_G, class_coord, face_centroid)
    return SurfaceMesh(
        genus=genus,
        resolution=resolution,
        vertices=class_coord,
        faces=face_cls,
        face_area=face_area,
        face_cot=1.0 / np.tan(face_angles),
        face_centroid=face_centroid,
        vertex_areas=vertex_areas,
        max_edge_length=float(np.max(np.concatenate([l0, l1, l2]))),
        **stencil,
        copy_class=copy_class,
        class_root_copy=roots,
        **_patches(deck, faces, copy_class, copy_deck, stencil["stencil_class"],
                   stencil["stencil_coord"], stencil_point, class_coord),
    )


def _triangulate(dom, resolution):
    """Copy-level triangulation of the polygon: vertex copies, faces of
    copies (counter-clockwise), and the boundary edges as (smaller, larger)
    copy pairs with the polygon side of each."""
    k = dom.n_sides
    verts = [0.0 + 0.0j] + list(dom.polygon_vertices)
    faces = [(0, 1 + j, 1 + (j + 1) % k) for j in range(k)]
    boundary = {}
    for j in range(k):
        u, v = 1 + j, 1 + (j + 1) % k
        boundary[(min(u, v), max(u, v))] = j
    for _ in range(resolution):
        verts, faces, boundary = _refine(verts, faces, boundary)
    return (np.array(verts), np.array(faces, dtype=int),
            np.array(list(boundary)), np.array(list(boundary.values())))


def _glue(dom, deck, verts, bnd, bnd_side):
    """Glue the boundary copies by the side pairings and number the classes.

    This is the one place that decides which copies a pairing glues:
    match[s, u] = w records that copy u on side s is glued to copy w on
    the partner side, in both directions (-1 for copies off side s).
    Returns each copy's class, the root copy of each class, per copy the
    id in the table deck of its chart map from its root (the deck
    transformation that takes the root copy onto it, _identify) and the
    L-cocycle accumulator, and match.
    """
    n = len(verts)
    uf = _UnionFind(n)
    match = np.full((dom.n_sides, n), -1)
    for s in np.flatnonzero(np.arange(dom.n_sides) < dom.partner).tolist():
        sp_, sigma = dom.partner[s], dom.pairing[:, s]
        src = np.unique(bnd[bnd_side == s])
        targets = np.unique(bnd[bnd_side == sp_])
        dist = np.abs(verts[targets][None, :] - apply(sigma, verts[src])[:, None])
        nearest = np.argmin(dist, axis=1)
        mismatch = np.max(dist[np.arange(len(src)), nearest])
        if mismatch > 1e-8:
            raise MeshQualityError(f"side gluing mismatch on side {s}: {mismatch:.2e}")
        dst = targets[nearest]
        match[s, src] = dst
        match[sp_, dst] = src
        cocycle = _pairing_cocycle(sigma, dom.side_midpoints[s], verts[src])
        for u, w, g_uw in zip(src.tolist(), dst.tolist(), cocycle.tolist()):
            uf.union(u, w, g_uw)

    # cocycle defects must be multiples of the total area 4 pi (g-1)
    period = 4.0 * math.pi * (dom.genus - 1)
    d = np.array(uf.defects)
    defect = np.max(np.abs(d - period * np.round(d / period)), initial=0.0)
    if defect > 1e-7:
        raise MeshQualityError(f"line-bundle cocycle defect {defect:.2e}")

    # copies off the boundary are their own roots, with the identity map
    root_of, copy_G = np.arange(n), np.zeros(n)
    glued = np.unique(bnd)
    for i in glued.tolist():
        root_of[i], copy_G[i] = uf.find(i)
    copy_deck = np.zeros(n, dtype=int)
    copy_deck[glued] = _identify(deck, verts[root_of[glued]], verts[glued])
    roots, copy_class = np.unique(root_of, return_inverse=True)
    return copy_class, roots, copy_deck, copy_G, match


def _identify(deck, z, image):
    """Per entry, the id of the deck transformation that maps z onto
    image: the column of the table deck whose image of z lies nearest.
    A nearest image farther than roundoff means the map is not in the
    table."""
    dist = hyp_dist(apply(deck[:, :, None], z), image)
    ids = np.argmin(dist, axis=0)
    miss = np.max(dist[ids, np.arange(len(ids))], initial=0.0)
    if miss > 1e-8:
        raise MeshQualityError(f"a chart map is not in the deck table: {miss:.2e}")
    return ids


def _twins(dom, verts, faces, bnd, bnd_side, match):
    """Each half-edge's twin (the other half-edge of its quotient edge)
    and its polygon side (-1 inside the polygon).

    Half-edge h = 3 i + a is face i's edge opposite corner a.  Edges are
    identified at the copy level: a boundary edge on the upper side of a
    pairing takes the key of its match image, so several quotient edges
    between the same vertex classes stay distinct.
    """
    n = len(verts)
    tail = faces[:, [1, 2, 0]].ravel()
    head = faces[:, [2, 0, 1]].ravel()
    key = np.minimum(tail, head) * n + np.maximum(tail, head)
    bnd_key = bnd[:, 0] * n + bnd[:, 1]
    order = np.argsort(bnd_key)
    row = order[np.minimum(np.searchsorted(bnd_key[order], key), len(order) - 1)]
    side = np.where(bnd_key[row] == key, bnd_side[row], -1)
    upper = np.flatnonzero((side >= 0) & (side > dom.partner[side]))
    image = match[side[upper], np.stack([tail[upper], head[upper]])]
    key[upper] = image.min(axis=0) * n + image.max(axis=0)

    _, edge, counts = np.unique(key, return_inverse=True, return_counts=True)
    if np.any(counts != 2):
        raise MeshQualityError("some edges are not shared by exactly 2 faces")
    first, second = np.argsort(edge, kind="stable").reshape(-1, 2).T
    twin = np.empty_like(edge)
    twin[first], twin[second] = second, first
    return twin, side


def _stencil(dom, deck, verts, faces, twin, side, copy_class, copy_deck, copy_G,
             class_coord, face_centroid):
    """Six-point dbar stencil: slots 0-2 hold face i's corners, slot 3 + a
    the far corner of the neighbour across the edge opposite corner a,
    expressed in face i's chart.  Also returns each slot's point as an
    integer: its copy c, or c + n (s + 1) for c carried across side s."""
    corners = np.concatenate([faces, faces.ravel()[twin].reshape(-1, 3)], axis=1)
    point = corners.copy()
    stencil_coord = verts[corners]
    # the derivative of each copy's chart map from its class chart
    stencil_kderiv = derivative(deck[:, copy_deck], class_coord[copy_class])[corners]
    stencil_gshift = copy_G[corners]
    # a neighbour across a side pairing sigma is carried into face i's
    # chart by the inverse of sigma, the pairing of the edge's side; the
    # cocycle of sigma at the image: f(sigma z) = exp(i c G_sigma(z)) f(z)
    i, a = np.divmod(np.flatnonzero(side != side[twin]), 3)
    s, c = side[3 * i + a], corners[i, 3 + a]
    sigma = dom.pairing[:, s]
    stencil_coord[i, 3 + a] = apply(invert(sigma), verts[c])
    stencil_kderiv[i, 3 + a] *= derivative(invert(sigma), verts[c])
    stencil_gshift[i, 3 + a] = copy_G[c] - _pairing_cocycle(
        sigma, dom.side_midpoints[s], stencil_coord[i, 3 + a])
    point[i, 3 + a] = c + len(verts) * (s + 1)
    cen6 = np.repeat(face_centroid[:, None], 6, axis=1)
    return dict(
        stencil_class=copy_class[corners],
        stencil_coord=stencil_coord,
        stencil_kderiv=stencil_kderiv,
        stencil_gshift=stencil_gshift,
        stencil_omega=_segment_omega0(stencil_coord, cen6),
    ), point


def _distinct(key):
    """The sorted distinct values of an integer array, by one sort."""
    key = np.sort(key, axis=None)
    return key[np.concatenate([[True], key[1:] != key[:-1]])]


def _ranges(start, u):
    """The ranges start[u]:start[u + 1] of the entries of u, concatenated, and their entries."""
    deg = start[u + 1] - start[u]
    rep = np.repeat(np.arange(len(u)), deg)
    return rep, start[u][rep] + np.arange(len(rep)) - np.repeat(np.cumsum(deg) - deg, deg)


def _patches(deck, faces, copy_class, copy_deck, stencil_class, stencil_coord,
             stencil_point, class_coord):
    """Vertex patches for the local polynomial fits: the classes and chart
    coordinates of every vertex's patch, flat and in vertex order, with the
    offsets of each vertex's slice.

    Face j enters vertex v's chart along each chain v -> face i at v ->
    another corner u of i -> face j at u, by the map inv(T_p) T_q inv(T_r)
    of the chain's corners p (i at v), q (i at u) and r (j at u), T a
    corner's chart map from its class chart.  Those maps are deck
    transformations of the table deck: each chain's is identified by its
    image of 0 (_identify) and applied with the table's coefficients, so
    the search dedupes by integer keys and computes each distinct (map,
    stencil point) image once.  Each class keeps its image closest to v
    (_closest_images).  Built in blocks of _PATCH_BLOCK vertices.
    """
    V, F, K = len(class_coord), len(faces), deck.shape[1]
    corner_map = copy_deck[faces].ravel()
    corner_cls = copy_class[faces].ravel()
    # the two other corners of each corner's face
    other = np.arange(3 * F)[:, None] + np.tile([[1, 2], [-1, 1], [-2, -1]], (F, 1))
    incident = np.argsort(corner_cls, kind="stable")
    start = np.searchsorted(corner_cls[incident], np.arange(V + 1))
    # the chain maps that occur: the map ids of a corner p, of another
    # corner q of its face and of any copy of q's class
    p, q = np.repeat(np.arange(3 * F), 2), other.ravel()
    pq = _distinct((corner_map[p] * K + corner_map[q]) * V + corner_cls[q])
    class_maps = _distinct(copy_class * K + copy_deck)
    at, i = _ranges(np.searchsorted(class_maps // K, np.arange(V + 1)), pq % V)
    triple = _distinct(pq[at] // V * K + class_maps[i] % K)
    chain = compose(compose(invert(deck[:, triple // K**2]), deck[:, triple // K % K]),
                    invert(deck[:, triple % K]))
    chain_id = _identify(deck, 0.0, chain[1] / np.conj(chain[0]))
    # stencil points, numbered class by class
    n_keys = int(np.max(stencil_point)) + 1
    keys = _distinct(stencil_class * n_keys + stencil_point)
    point = np.searchsorted(keys, stencil_class * n_keys + stencil_point)
    point_class = keys // n_keys
    point_coord = np.empty(len(keys), dtype=complex)
    point_coord[point] = stencil_coord
    P = len(keys)
    classes, coords, sizes = [], [], []
    for v0 in range(0, V, _PATCH_BLOCK):
        v1 = min(v0 + _PATCH_BLOCK, V)
        p = incident[start[v0]:start[v1]]
        p, q = np.repeat(p, 2), other[p].ravel()
        at, r = _ranges(start, corner_cls[q])
        p, q, r = p[at], q[at], incident[r]
        el = chain_id[np.searchsorted(
            triple, (corner_map[p] * K + corner_map[q]) * K + corner_map[r])]
        # one chain per (vertex, face, chain map), and one candidate per
        # (vertex, stencil point, chain map), sorted by vertex and class
        key = _distinct(((corner_cls[p] - v0) * F + r // 3) * K + el)
        el, key = key % K, key // K
        key = _distinct(((key // F)[:, None] * P + point[key % F]) * K + el[:, None])
        el, key = key % K, key // K
        vtx, pt = key // P + v0, key % P
        z = apply(deck[:, el], point_coord[pt])
        vtx, cls, z = _closest_images(vtx, point_class[pt], z,
                                      np.abs(z - class_coord[vtx]))
        # v itself sits at its class coordinate
        z[cls == vtx] = class_coord[vtx[cls == vtx]]
        classes.append(cls)
        coords.append(z)
        sizes.append(np.bincount(vtx - v0, minlength=v1 - v0))
    return dict(
        patch_class=np.concatenate(classes),
        patch_coord=np.concatenate(coords),
        patch_ptr=np.concatenate([[0], np.cumsum(np.concatenate(sizes))]),
    )


def _closest_images(vtx, cls, z, dist):
    """The image z closest to its vertex for each (vertex, class), of
    candidates grouped by vertex and class in increasing order.  Images
    equidistant up to roundoff are told apart by keys that do not depend
    on summation order: the distance rounded to 12 digits, then the
    image's rounded real and imaginary parts; copies of one image agree in
    all three, and the first at the smallest unrounded distance is kept."""
    pair = vtx * (np.max(cls) + 1) + cls
    head = np.flatnonzero(np.diff(pair, prepend=-1) != 0)
    several = np.flatnonzero(np.diff(head, append=len(pair)) > 1)
    run, sub = _ranges(np.append(head, len(pair)), several)
    keys = np.round(np.stack([dist[sub], z.real[sub], z.imag[sub]]), 12)
    order = np.lexsort((dist[sub], keys[2], keys[1], keys[0], run))
    pick = head
    pick[several] = sub[order][np.diff(run[order], prepend=-1) != 0]
    return vtx[pick], cls[pick], z[pick]


def _patch_fit_rows(vertices, patch_coord, patch_ptr):
    """Laplacian-of-fit rows of the flat vertex patches for the raw,
    clamped (at 0.1) and unit weights, batched by patch size in chunks of
    _FIT_CHUNK patches.

    A patch is centered on its vertex and scaled to unit radius; the fit
    is quartic on 18 or more points, cubic on 12 or more, else quadratic.
    One thin QR factorization A = Q R of each design serves all three
    weightings: with R^T z = e_xx + e_yy, the row of the fit's flat
    Laplacian 2 (c_xx + c_yy) / scale^2 is 2 W Q (Q^T W Q)^-1 z / scale^2,
    2 Q z / scale^2 for unit W; Q^T W Q is conditioned as W, not A, is.
    """
    size = np.diff(patch_ptr)
    zc = patch_coord - np.repeat(vertices, size)
    rows = {key: np.empty(len(zc)) for key in ("raw", "clamped", "unit")}
    for n in np.unique(size).tolist():
        group = patch_ptr[:-1][size == n]
        for first in range(0, len(group), _FIT_CHUNK):
            idx = group[first:first + _FIT_CHUNK, None] + np.arange(n)
            z = zc[idx]
            scale = np.max(np.abs(z), axis=1)
            z = z / scale[:, None]
            x, y = z.real, z.imag
            # downweight the outer ring for a smaller fit-error constant
            rho = np.abs(z)
            t = (rho / np.maximum(np.median(rho, axis=1), 1e-30)[:, None]) ** 2
            raw = 1.0 / (1.0 + t * t)
            raw[rho == 0.0] = 1.0
            # the design is a temporary, freed before the weighted solves
            x2, xy, y2 = x * x, x * y, y * y
            q, r = np.linalg.qr(np.stack(
                [np.ones_like(x), x, y, x2, xy, y2]
                + ([x2 * x, x2 * y, xy * y, y2 * y] if n >= 12 else [])
                + ([x2 * x2, x2 * xy, x2 * y2, xy * y2, y2 * y2] if n >= 18 else []), axis=2))
            # x^2 and y^2 are monomials 3 and 5
            e = np.zeros((r.shape[2], 1))
            e[[3, 5]] = 1.0
            z = np.linalg.solve(np.swapaxes(r, 1, 2), e)
            f = 2.0 / scale[:, None] ** 2
            rows["unit"][idx] = f * (q @ z)[:, :, 0]
            for key, w in (("raw", raw), ("clamped", np.maximum(raw, 0.1))):
                v = np.linalg.solve(np.swapaxes(q, 1, 2) @ (w[:, :, None] * q), z)
                rows[key][idx] = f * w * (q @ v)[:, :, 0]
    return rows


def laplacian(mesh):
    """Discrete Laplace-Beltrami operator (cotangent weights, hyperbolic
    angles), as a sparse symmetric V x V matrix S with S @ const = 0 and
    x' (-S) x >= 0.  The geometric operator is Delta u ~= S u / vertex_areas.

    Assembled once and kept on the mesh; callers share the returned
    matrix and must not modify it.
    """
    if np.min(mesh.face_area) < 1e-14:
        bad = int(np.argmin(mesh.face_area))
        raise MeshQualityError(f"face {bad} area below 1e-14")
    return mesh.memo("laplacian", lambda: _cotangent_laplacian(mesh))


def _cotangent_laplacian(mesh):
    V = mesh.n_vertices
    rows, cols, vals = [], [], []
    for a in range(3):
        u = mesh.faces[:, (a + 1) % 3]
        v = mesh.faces[:, (a + 2) % 3]
        w = 0.5 * mesh.face_cot[:, a]
        rows += [u, v, u, v]
        cols += [v, u, u, v]
        vals += [w, w, -w, -w]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    S = sp.csr_matrix((vals, (rows, cols)), shape=(V, V))
    return S


def integrate(mesh, field, conformal_factor_u=None):
    """Lumped-mass integral of a vertex field against the hyperbolic area
    element, or against e^{2u} v_h when a conformal factor u is supplied.
    """
    field = np.asarray(field)
    if field.ndim == 0:
        field = np.full(mesh.n_vertices, float(field))
    if field.shape[0] != mesh.n_vertices:
        raise ShapeError(
            f"field has length {field.shape[0]}, mesh has {mesh.n_vertices} vertices"
        )
    w = mesh.vertex_areas
    if conformal_factor_u is not None:
        u = np.asarray(conformal_factor_u)
        if u.ndim == 0:
            u = np.full(mesh.n_vertices, float(u))
        if u.shape[0] != mesh.n_vertices:
            raise ShapeError("conformal factor length mismatch")
        w = w * np.exp(2.0 * u)
    return float(np.sum(field * w))
