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
  = -G_sigma(z) based at sigma(base).  Only the polygon's radius is
  specific to the regular 4g-gon: both hold for any disk automorphism.
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
    Mobius,
    conformal_factor,
    hyp_dist,
    hyp_midpoint,
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
    sigma, vectorized over z.  The sign makes exp(i c G_sigma) the
    transition functions of the connection A = i c omega0 used for all
    parallel transports: sigma^* A - A = -d log(transition)."""
    j = np.conj(sigma.b) * np.asarray(z) + np.conj(sigma.a)
    return -2.0 * np.angle(j / (np.conj(sigma.b) * base + np.conj(sigma.a)))


class FundamentalDomain:
    """Regular hyperbolic 4g-gon with standard side pairings.

    Sides are numbered so that side j runs from polygon vertex j to j+1.
    The pairing pattern is a b a^-1 b^-1 repeated: side 4i+k is glued to
    side 4i+k+2 (k = 0, 1) with endpoints swapped.
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
        self.polygon_vertices = np.array(
            [r_euc * cmath.exp(2j * math.pi * j / k) for j in range(k)]
        )
        # side_map[s] = (partner side, Mobius mapping side s onto the partner)
        self.side_map = {}
        v = self.polygon_vertices
        for i in range(genus):
            for kk in (0, 1):
                s = 4 * i + kk
                sp_ = 4 * i + kk + 2
                # endpoints swap: vertex s -> vertex sp_+1, vertex s+1 -> vertex sp_
                g = Mobius.from_two_points(
                    v[s], v[(s + 1) % k], v[(sp_ + 1) % k], v[sp_]
                )
                self.side_map[s] = (sp_, g)
                self.side_map[sp_] = (s, g.inv())

    def side_endpoints(self, s):
        k = self.n_sides
        return self.polygon_vertices[s], self.polygon_vertices[(s + 1) % k]


class _UnionFind:
    """Union-find over vertex copies, tracking the chart transform to the root.

    For copy i with root r: z_i = T[i](z_r) and the L-cocycle accumulator
    G[i] satisfies f(z_i) = exp(i c G[i]) f(z_r) for curvature scale c.
    """

    def __init__(self, n):
        self.parent = list(range(n))
        self.T = [Mobius.identity() for _ in range(n)]
        self.G = [0.0] * n
        self.defects = []

    def find(self, i):
        if self.parent[i] == i:
            return i, Mobius.identity(), 0.0
        root, Tp, Gp = self.find(self.parent[i])
        T = self.T[i] * Tp
        G = self.G[i] + Gp
        self.parent[i] = root
        self.T[i] = T
        self.G[i] = G
        return root, T, G

    def union(self, u, w, sigma, g_uw):
        """Record z_w = sigma(z_u), f(z_w) = exp(i c g_uw) f(z_u)."""
        ru, Tu, Gu = self.find(u)
        rw, Tw, Gw = self.find(w)
        if ru == rw:
            # redundant gluing: record the cocycle defect for validation
            self.defects.append(Gu + g_uw - Gw)
            return
        # attach rw below ru
        self.parent[rw] = ru
        self.T[rw] = Tw.inv() * sigma * Tu
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
    the block patterns (germsolve._jacobian_pattern) of the curvature
    equations' Jacobians, the one pattern of the per-field blocks of the
    polish's normal matrices (germsolve._PolishNormal), the pattern of the
    dbar stencil's normal matrices with the place in it of each stencil
    pair (bundles._stencil_pattern), each Hermitian pattern with the band
    plan of its first factorization (factor.HermitianPattern), and the
    holomorphic bases of the bundles a run uses (under ("basis", degree
    of L or None, n)).  Callers share them and must not modify them.
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
# the two other corners of a face, by corner
_OTHER_CORNERS = np.array([[1, 2], [0, 2], [0, 1]])


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
    verts, faces, bnd, bnd_side = _triangulate(dom, resolution)
    copy_class, roots, copy_T, copy_kderiv, copy_G, match = _glue(dom, verts, bnd, bnd_side)
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
    stencil = _stencil(dom, verts, faces, twin, side, copy_class, copy_T, copy_kderiv,
                       copy_G, class_coord, face_centroid)
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
        **_patches(faces, copy_class, copy_T, face_centroid,
                   stencil["stencil_class"], stencil["stencil_coord"], class_coord),
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


def _glue(dom, verts, bnd, bnd_side):
    """Glue the boundary copies by the side pairings and number the classes.

    This is the one place that decides which copies a pairing glues:
    match[s, u] = w records that copy u on side s is glued to copy w on
    the partner side, in both directions (-1 for copies off side s).
    Returns each copy's class, the root copy of each class, and per copy
    the chart map from its root (Mobius), that map's derivative at the
    root, the L-cocycle accumulator, and match.
    """
    n = len(verts)
    uf = _UnionFind(n)
    match = np.full((dom.n_sides, n), -1)
    for s in range(dom.n_sides):
        sp_, sigma = dom.side_map[s]
        if s > sp_:
            continue
        base = hyp_midpoint(*dom.side_endpoints(s))
        src = np.unique(bnd[bnd_side == s])
        targets = np.unique(bnd[bnd_side == sp_])
        dist = np.abs(verts[targets][None, :] - sigma(verts[src])[:, None])
        nearest = np.argmin(dist, axis=1)
        mismatch = np.max(dist[np.arange(len(src)), nearest])
        if mismatch > 1e-8:
            raise MeshQualityError(f"side gluing mismatch on side {s}: {mismatch:.2e}")
        dst = targets[nearest]
        match[s, src] = dst
        match[sp_, dst] = src
        cocycle = _pairing_cocycle(sigma, base, verts[src])
        for u, w, g_uw in zip(src.tolist(), dst.tolist(), cocycle.tolist()):
            uf.union(u, w, sigma, g_uw)

    # cocycle defects must be multiples of the total area 4 pi (g-1)
    period = 4.0 * math.pi * (dom.genus - 1)
    d = np.array(uf.defects)
    defect = np.max(np.abs(d - period * np.round(d / period)), initial=0.0)
    if defect > 1e-7:
        raise MeshQualityError(f"line-bundle cocycle defect {defect:.2e}")

    root_of = np.empty(n, dtype=int)
    copy_T = [None] * n
    copy_kderiv = np.empty(n, dtype=complex)
    copy_G = np.zeros(n)
    for i in range(n):
        r, T, G = uf.find(i)
        root_of[i] = r
        copy_T[i] = T
        copy_kderiv[i] = T.deriv(verts[r])
        copy_G[i] = G
    roots, copy_class = np.unique(root_of, return_inverse=True)
    return copy_class, roots, copy_T, copy_kderiv, copy_G, match


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
    partner = np.array([dom.side_map[s][0] for s in range(dom.n_sides)])
    upper = np.flatnonzero((side >= 0) & (side > partner[side]))
    image = match[side[upper], np.stack([tail[upper], head[upper]])]
    key[upper] = image.min(axis=0) * n + image.max(axis=0)

    _, edge, counts = np.unique(key, return_inverse=True, return_counts=True)
    if np.any(counts != 2):
        raise MeshQualityError("some edges are not shared by exactly 2 faces")
    first, second = np.argsort(edge, kind="stable").reshape(-1, 2).T
    twin = np.empty_like(edge)
    twin[first], twin[second] = second, first
    return twin, side


def _stencil(dom, verts, faces, twin, side, copy_class, copy_T, copy_kderiv, copy_G,
             class_coord, face_centroid):
    """Six-point dbar stencil: slots 0-2 hold face i's corners, slot 3 + a
    the far corner of the neighbour across the edge opposite corner a,
    expressed in face i's chart."""
    corners = np.concatenate([faces, faces.ravel()[twin].reshape(-1, 3)], axis=1)
    stencil_coord = verts[corners]
    stencil_kderiv = copy_kderiv[corners]
    stencil_gshift = copy_G[corners]
    # a neighbour across a side pairing is carried into face i's chart by
    # the inverse of the pairing sig of the edge's side
    for h in np.flatnonzero(side != side[twin]).tolist():
        i, a = divmod(h, 3)
        s = int(side[h])
        sig = dom.side_map[s][1]
        sig_inv = sig.inv()
        c = corners[i, 3 + a]
        znew = sig_inv(complex(verts[c]))
        # cocycle of sig at znew: f(sig z) = exp(i c G_sig(z)) f(z)
        g_sig = _pairing_cocycle(sig, hyp_midpoint(*dom.side_endpoints(s)), znew)
        stencil_coord[i, 3 + a] = znew
        stencil_kderiv[i, 3 + a] = (sig_inv * copy_T[c]).deriv(class_coord[copy_class[c]])
        stencil_gshift[i, 3 + a] = copy_G[c] - g_sig
    cen6 = np.repeat(face_centroid[:, None], 6, axis=1)
    return dict(
        stencil_class=copy_class[corners],
        stencil_coord=stencil_coord,
        stencil_kderiv=stencil_kderiv,
        stencil_gshift=stencil_gshift,
        stencil_omega=_segment_omega0(stencil_coord, cen6),
    )


def _mobius_mul(p, q):
    """p o q for disk automorphisms given as coefficient arrays (a, b), as
    Mobius.__mul__ without the normalisation."""
    return p[0] * q[0] + p[1] * np.conj(q[1]), p[0] * q[1] + p[1] * np.conj(q[0])


def _mobius_apply(p, z):
    return (p[0] * z + p[1]) / (np.conj(p[1]) * z + np.conj(p[0]))


def _patches(faces, copy_class, copy_T, face_centroid, stencil_class, stencil_coord,
             class_coord):
    """Vertex patches for the local polynomial fits: the classes and chart
    coordinates of every vertex's patch, flat and in vertex order, with the
    offsets of each vertex's slice.

    The chart of face j enters vertex v's chart along each chain v -> face
    i incident to v -> another corner u of i -> face j incident to u.  A
    face keeps every distinct image (they differ by deck transformations
    near the side pairings): of the chains whose images of the face's
    centroid agree to 10 digits the first one built (_first_chains).  Each
    class keeps its stencil-point image closest to v (_closest_images).
    Built in blocks of _PATCH_BLOCK vertices.
    """
    V = len(class_coord)
    # each corner's chart map from its class chart, as Mobius coefficients
    corner_a = np.array([T.a for T in copy_T])[faces].ravel()
    corner_b = np.array([T.b for T in copy_T])[faces].ravel()
    corner_cls = copy_class[faces].ravel()
    incident = np.argsort(corner_cls, kind="stable")
    start = np.searchsorted(corner_cls[incident], np.arange(V + 1))
    classes, coords, sizes = [], [], []
    for v0 in range(0, V, _PATCH_BLOCK):
        v1 = min(v0 + _PATCH_BLOCK, V)
        # ring 1: corner p of face i at v; chart of i -> chart of v
        p = incident[start[v0]:start[v1]]
        m1 = (np.conj(corner_a[p]), -corner_b[p])
        # ring 2: each other corner q of face i, of class u, and each corner
        # r at u; chart of r's face -> chart of u -> chart of v
        q = ((p - p % 3)[:, None] + _OTHER_CORNERS[p % 3]).ravel()
        to_u = _mobius_mul((np.repeat(m1[0], 2), np.repeat(m1[1], 2)), (corner_a[q], corner_b[q]))
        u = corner_cls[q]
        deg = start[u + 1] - start[u]
        rep = np.repeat(np.arange(len(u)), deg)
        r = incident[start[u][rep] + np.arange(len(rep)) - np.repeat(np.cumsum(deg) - deg, deg)]
        m2 = _mobius_mul((to_u[0][rep], to_u[1][rep]), (np.conj(corner_a[r]), -corner_b[r]))
        vtx = np.concatenate([corner_cls[p], np.repeat(corner_cls[p], 2)[rep]])
        face = np.concatenate([p // 3, r // 3])
        chain = (np.concatenate([m1[0], m2[0]]), np.concatenate([m1[1], m2[1]]))
        # one chain per (vertex, face, centroid image): the first one built
        key = np.round(_mobius_apply(chain, face_centroid[face]), 10)
        keep = _first_chains(vtx, face, key)
        vtx, face = vtx[keep], face[keep]
        z = _mobius_apply((chain[0][keep, None], chain[1][keep, None]), stencil_coord[face])
        dist = np.abs(z - class_coord[vtx][:, None]).ravel()
        vtx, cls, z = _closest_images(np.repeat(vtx, 6), stencil_class[face].ravel(),
                                      z.ravel(), dist)
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


def _first_chains(vtx, face, key):
    """Indices, in increasing order, of the first chain of each distinct
    (vertex, face, key), as np.unique(rows, axis=0, return_index=True)
    finds them (-0.0 and 0.0 are one key).  A stable sort groups the
    chains by (vertex, face), and a chain repeats when an earlier chain of
    its group has its key; a group holds a few chains."""
    group = vtx * (np.max(face) + 1) + face
    order = np.argsort(group, kind="stable")
    group, key = group[order], key[order]
    repeat = np.zeros(len(order), dtype=bool)
    for s in range(1, len(order)):
        same = group[s:] == group[:-s]
        if not same.any():
            break
        repeat[s:] |= same & (key[s:] == key[:-s])
    return np.sort(order[~repeat])


def _closest_images(vtx, cls, z, dist):
    """The image z closest to its vertex for each (vertex, class), sorted
    by vertex and class.  Images equidistant up to roundoff are told apart
    by keys that do not depend on summation order: the distance rounded to
    12 digits, then the image's rounded real and imaginary parts.  Copies
    of one image reached along different chains agree in all three; the
    closest copy by the unrounded distance is kept.

    Rounding is monotone, so the closest copy has the smallest rounded
    distance; only a pair with another image at that rounded distance but
    at a different rounded position needs the three keys sorted.
    """
    pair = vtx * (np.max(cls) + 1) + cls
    order = np.argsort(pair, kind="stable")
    pair, dist = pair[order], dist[order]
    head = np.diff(pair, prepend=-1) != 0
    run = np.cumsum(head) - 1
    # the closest copy of each pair, the first one on exact ties
    closest = np.flatnonzero(dist == np.minimum.reduceat(dist, np.flatnonzero(head))[run])
    pick = closest[np.diff(run[closest], prepend=-1) != 0]
    keys = np.round(np.stack([dist, z.real[order], z.imag[order]]), 12)
    at_pick = keys[:, pick[run]]
    tied = (keys[0] == at_pick[0]) & np.any(keys[1:] != at_pick[1:], axis=0)
    tied_runs = np.unique(run[tied])
    sub = np.flatnonzero(np.isin(run, tied_runs))
    sub = sub[np.lexsort((dist[sub], keys[2, sub], keys[1, sub], keys[0, sub], pair[sub]))]
    pick[tied_runs] = sub[np.diff(pair[sub], prepend=-1) != 0]
    first = order[pick]
    return vtx[first], cls[first], z[first]


def _patch_fit_rows(vertices, patch_coord, patch_ptr):
    """Laplacian-of-fit rows of the flat vertex patches for the raw,
    clamped (at 0.1) and unit weights, batched by patch size in chunks of
    _FIT_CHUNK patches.

    A patch is centered on its vertex and scaled to unit radius; the fit
    is quartic on 18 or more points, cubic on 12 or more, else quadratic.
    With sqrt(w) A = Q R, the row of the fit's flat Laplacian
    2 (c_xx + c_yy) / scale^2 is 2 (Q z) sqrt(w) / scale^2, R^T z = e_xx + e_yy.
    Q is never formed: each group's QR is LAPACK's Householder form
    (qr mode "raw"), z comes from R^T by forward substitution, and Q z is
    the k reflectors applied to [z; 0].
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
            # the cubes and fourth powers stay libm's pow: products differ in
            # the last bit, and the ill-conditioned g=3 r=1 fits carry that to
            # 1e-12 in the rows
            x2, xy = x * x, x * y
            terms = [np.ones_like(x), x, y, x2, xy, y * y]
            if n >= 12:
                x3, x2y, y3 = x**3, x2 * y, y**3
                terms += [x3, x2y, xy * y, y3]
            if n >= 18:
                terms += [x**4, x3 * y, x2y * y, x * y3, y**4]
            # one row per monomial, so that LAPACK reads each design's columns
            # contiguously
            design = np.stack(terms, axis=1)
            # downweight the outer ring for a smaller fit-error constant
            r = np.abs(z)
            raw = 1.0 / (1.0 + (r / np.maximum(np.median(r, axis=1), 1e-30)[:, None]) ** 4)
            raw[r == 0.0] = 1.0
            for key, w in (("raw", raw), ("clamped", np.maximum(raw, 0.1)),
                           ("unit", np.ones_like(raw))):
                sw = np.sqrt(w)
                q_z = _householder_laplacian_row(design * sw[:, None, :])
                rows[key][idx] = 2.0 * q_z * sw / scale[:, None] ** 2
    return rows


def _householder_laplacian_row(design):
    """Q z for each design in the stack (groups x monomials x points, the
    transposed least-squares matrix A), where A = Q R is the thin QR
    factorization and R^T z = e_xx + e_yy (x^2 and y^2 are monomials 3
    and 5)."""
    # h[:, j, :j + 1] is row j of R^T and h[:, j, j + 1:] reflector j
    # below its implicit unit entry
    h, tau = np.linalg.qr(np.swapaxes(design, 1, 2), mode="raw")
    k = len(tau[0])
    y = np.zeros(design.shape[::2])
    # z vanishes above its first nonzero right-hand side, entry 3
    for j in range(3, k):
        rhs = float(j in (3, 5)) - np.einsum("gi,gi->g", h[:, j, :j], y[:, :j])
        y[:, j] = rhs / h[:, j, j]
    # Q [z; 0] = H_0 H_1 ... H_{k-1} [z; 0], H_j = I - tau_j v_j v_j^T
    for j in reversed(range(k)):
        v = h[:, j, j + 1:]
        d = tau[:, j] * (y[:, j] + np.einsum("gi,gi->g", v, y[:, j + 1:]))
        y[:, j] -= d
        y[:, j + 1:] -= d[:, None] * v
    return y


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
