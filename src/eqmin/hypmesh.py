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
    polygon_circumradius,
    triangle_angles_from_lengths,
)

__all__ = [
    "FundamentalDomain",
    "SurfaceMesh",
    "build_domain",
    "build_surface",
    "laplacian",
    "integrate",
    "restrict_field",
]

_GAUSS_N = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_N)
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on [0, 1]
_GL_W = 0.5 * _GL_WEIGHTS


def _omega0_values(z):
    """Coefficient field of the curvature potential (cosh(rho)-1) d(arg z)."""
    r2 = np.abs(z) ** 2
    return 2.0 * r2 / (1.0 - r2)


def _segment_omega0(z0, z1):
    """Integral of (cosh(rho)-1) d(arg z) along the straight segment z0 -> z1.

    Vectorized over equal-length arrays of endpoints.
    """
    z0 = np.asarray(z0, dtype=complex)
    z1 = np.asarray(z1, dtype=complex)
    dz = (z1 - z0)[..., None]
    z = z0[..., None] + dz * _GL_T
    # Im(zdot / z) * (cosh(rho)-1); the apparent pole at z=0 cancels
    f = _omega0_values(z) * np.imag(dz * np.conj(z)) / np.maximum(np.abs(z) ** 2, 1e-300)
    return np.sum(f * _GL_W, axis=-1)


def _segment_cocycle(sigma, base, z1):
    """Cocycle primitive G_sigma(z1) = integral of (omega0 - sigma^* omega0)
    from base to z1 along the straight path.

    The sign makes the transition functions exp(i c G_sigma) compatible
    with the connection form i c omega0 used for all parallel transports:
    sigma^* A - A = -d log(transition).
    """
    dz = z1 - base
    t = _GL_T
    z = base + dz * t
    sz = sigma(z)
    dsz = sigma.deriv(z) * dz
    f1 = _omega0_values(sz) * np.imag(dsz * np.conj(sz)) / np.maximum(np.abs(sz) ** 2, 1e-300)
    f0 = _omega0_values(z) * np.imag(dz * np.conj(z)) / np.maximum(np.abs(z) ** 2, 1e-300)
    return float(np.sum((f0 - f1) * _GL_W))


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
        r_hyp = polygon_circumradius(genus)
        self.circumradius = r_hyp
        r_euc = math.tanh(0.5 * r_hyp)
        self.polygon_vertices = np.array(
            [r_euc * cmath.exp(2j * math.pi * j / k) for j in range(k)]
        )
        # side_map[s] = (partner side, Mobius mapping side s onto the partner)
        self.side_map = {}
        self.side_pairings = []
        v = self.polygon_vertices
        for i in range(genus):
            for kk in (0, 1):
                s = 4 * i + kk
                sp_ = 4 * i + kk + 2
                # endpoints swap: vertex s -> vertex sp_+1, vertex s+1 -> vertex sp_
                g = Mobius.from_two_points(
                    v[s], v[(s + 1) % k], v[(sp_ + 1) % k], v[sp_]
                )
                self.side_pairings.append(g)
                self.side_map[s] = (sp_, g)
                self.side_map[sp_] = (s, g.inv())

    def side_endpoints(self, s):
        k = self.n_sides
        return self.polygon_vertices[s], self.polygon_vertices[(s + 1) % k]

    def interior_angle(self):
        return math.pi / (2 * self.genus)


def build_domain(genus):
    return FundamentalDomain(genus)


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
      face_chart      complex[F, 3], corner coordinates in the face chart
      face_kderiv     complex[F, 3], chart derivative of the class -> chart map
      face_gshift     float[F, 3], L-cocycle accumulator per corner
      face_area       float[F], hyperbolic triangle areas (angle defect)
      face_angles     float[F, 3]
      face_cot        float[F, 3], cotangents of the angles
      face_centroid   complex[F]
      vertex_areas    float[V], lumped dual areas
      edges           int[E, 2]
      edge_tau        float[E], unit-curvature transport angle along edge
      stencil_*       six-point extension stencil per face (see dbar assembly)
      vertex_patch    per-vertex (classes, chart coords) for local fits
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)
        self._fd_laplacians = {}

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_edges(self):
        return len(self.edges)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    def total_area(self):
        return float(np.sum(self.face_area))

    def mesh_size(self):
        """Max hyperbolic edge length."""
        return float(self.max_edge_length)

    def _patch_design(self, v, order):
        """Least-squares design of the polynomial fit on vertex v's patch:
        (classes, chart coords, basis matrix A, outer-ring weights, scale).

        The patch is centered on v and scaled to unit radius; the monomials
        up to the given order enter while the patch has enough points.
        The weights downweight the outer ring for a smaller fit-error
        constant.
        """
        cls, coords = self.vertex_patch[v]
        zc = coords - self.vertices[v]
        scale = np.max(np.abs(zc))
        zc = zc / scale
        x, y = zc.real, zc.imag
        terms = [np.ones_like(x), x, y, x * x, x * y, y * y]
        if order >= 3 and len(x) >= 12:
            terms += [x**3, x * x * y, x * y * y, y**3]
        if order >= 4 and len(x) >= 18:
            terms += [x**4, x**3 * y, x * x * y * y, x * y**3, y**4]
        r = np.abs(zc)
        wts = 1.0 / (1.0 + (r / max(np.median(r), 1e-30)) ** 4)
        wts[r == 0.0] = 1.0
        return cls, coords, np.stack(terms, axis=1), wts, scale

    def fd_fit(self, field, order=4, chart_term=None):
        """Flat Laplacian at the vertices of a weighted least-squares
        polynomial fit of a scalar vertex field on each vertex patch.

        chart_term, when given, is a callable of the chart coordinate whose
        value is added to the class values at the patch points (for fields
        like log of the conformal factor that are chart expressions rather
        than invariant scalars).  These are chart derivatives; divide by
        lambda^2 for the Laplace-Beltrami operator.
        """
        field = np.asarray(field, dtype=float)
        lap = np.zeros(self.n_vertices)
        for v in range(self.n_vertices):
            cls, coords, A, wts, scale = self._patch_design(v, order)
            vals = field[cls]
            if chart_term is not None:
                vals = vals + chart_term(coords)
            sw = np.sqrt(wts)
            coef, *_ = np.linalg.lstsq(A * sw[:, None], vals * sw, rcond=None)
            lap[v] = 2.0 * (coef[3] + coef[5]) / scale**2
        return lap

    def fd_laplacian_matrix(self, order=4, weighted=True):
        """Sparse hyperbolic-Laplacian matrix assembled from the patch fits.

        Rows are the Laplacian-of-fit functionals, so the operator is
        pointwise consistent on any patch geometry by polynomial
        exactness (unlike the lumped cotangent operator, which is only
        weakly consistent at irregular vertices).  The weighted and
        unweighted variants are genuinely different discretizations and
        serve as independent oracles for one another.

        Each (order, weighted) variant is assembled once and kept on the
        mesh; callers share the returned matrix and must not modify it.
        """
        key = (order, bool(weighted))
        if key not in self._fd_laplacians:
            self._fd_laplacians[key] = self._assemble_fd_laplacian(order, weighted)
        return self._fd_laplacians[key]

    def _assemble_fd_laplacian(self, order, weighted):
        V = self.n_vertices
        lam2 = conformal_factor(self.vertices) ** 2
        rows, cols, vals = [], [], []
        for v in range(V):
            cls, _, A, wts, scale = self._patch_design(v, order)
            wts = np.maximum(wts, 0.1) if weighted else np.ones_like(wts)
            sw = np.sqrt(wts)
            P = np.linalg.pinv(A * sw[:, None])
            row = 2.0 * (P[3] + P[5]) * sw / (scale**2 * lam2[v])
            rows.extend([v] * len(cls))
            cols.extend(cls.tolist())
            vals.extend(row.tolist())
        return sp.csr_matrix((vals, (rows, cols)), shape=(V, V))


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


def build_surface(genus, resolution, max_vertices=400_000, min_angle_deg=10.0):
    """Triangulate the closed genus-g surface at the given refinement level.

    The base mesh is the fan triangulation of the regular 4g-gon from its
    center; each refinement pass splits every triangle in four at
    hyperbolic edge midpoints.  Deterministic for fixed inputs.
    """
    if genus < 2:
        raise InvalidParameterError(f"genus must be >= 2, got {genus}")
    if resolution < 1:
        raise InvalidParameterError(f"resolution must be >= 1, got {resolution}")
    est_vertices = 4 * genus * 4**resolution // 2 + 2
    if est_vertices > max_vertices:
        raise ResourceBudgetError(
            f"resolution {resolution} needs ~{est_vertices} vertices, "
            f"budget is {max_vertices}"
        )
    dom = FundamentalDomain(genus)
    k = dom.n_sides
    verts = [0.0 + 0.0j] + list(dom.polygon_vertices)
    faces = [(0, 1 + j, 1 + (j + 1) % k) for j in range(k)]
    boundary = {}
    for j in range(k):
        u, v = 1 + j, 1 + (j + 1) % k
        boundary[(min(u, v), max(u, v))] = j
    for _ in range(resolution):
        verts, faces, boundary = _refine(verts, faces, boundary)
    verts = np.array(verts)
    faces = np.array(faces, dtype=int)

    # --- glue boundary vertices ---------------------------------------
    side_vertices = {s: set() for s in range(k)}
    for (u, v), s in boundary.items():
        side_vertices[s].add(u)
        side_vertices[s].add(v)
    uf = _UnionFind(len(verts))
    cocycle_base = {}
    for s in range(k):
        sp_, sigma = dom.side_map[s]
        if s > sp_:
            continue
        p0, p1 = dom.side_endpoints(s)
        base = hyp_midpoint(p0, p1)
        cocycle_base[s] = base
        targets = np.array(sorted(side_vertices[sp_]))
        tz = verts[targets]
        for u in sorted(side_vertices[s]):
            zu = verts[u]
            zi = sigma(zu)
            j = int(np.argmin(np.abs(tz - zi)))
            if abs(tz[j] - zi) > 1e-8:
                raise MeshQualityError(
                    f"side gluing mismatch on side {s}: {abs(tz[j]-zi):.2e}"
                )
            g_uw = _segment_cocycle(sigma, base, zu)
            uf.union(u, int(targets[j]), sigma, g_uw)

    # cocycle defects must be multiples of the total area 4 pi (g-1)
    period = 4.0 * math.pi * (genus - 1)
    defect = 0.0
    for d in uf.defects:
        d_mod = d - period * round(d / period)
        defect = max(defect, abs(d_mod))
    if defect > 1e-7:
        raise MeshQualityError(f"line-bundle cocycle defect {defect:.2e}")

    # class numbering
    n_copies = len(verts)
    root_of = np.empty(n_copies, dtype=int)
    copy_T = [None] * n_copies
    copy_G = np.zeros(n_copies)
    for i in range(n_copies):
        r, T, G = uf.find(i)
        root_of[i] = r
        copy_T[i] = T
        copy_G[i] = G
    roots = sorted(set(root_of.tolist()))
    class_of_root = {r: c for c, r in enumerate(roots)}
    cls = np.array([class_of_root[r] for r in root_of])
    class_coord = np.array([verts[r] for r in roots])

    F = len(faces)
    face_cls = cls[faces]
    face_chart = verts[faces]
    face_kderiv = np.empty((F, 3), dtype=complex)
    face_gshift = np.empty((F, 3))
    for i in range(F):
        for a in range(3):
            copy = faces[i, a]
            zroot = verts[root_of[copy]]
            face_kderiv[i, a] = copy_T[copy].deriv(zroot)
            face_gshift[i, a] = copy_G[copy]

    # --- metric data ---------------------------------------------------
    z0, z1, z2 = face_chart[:, 0], face_chart[:, 1], face_chart[:, 2]
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
    if min_angle < min_angle_deg:
        raise MeshQualityError(
            f"triangle quality floor violated: min angle {min_angle:.2f} deg"
        )
    face_cot = 1.0 / np.tan(face_angles)
    face_centroid = (z0 + z1 + z2) / 3.0

    V = len(class_coord)
    vertex_areas = np.zeros(V)
    np.add.at(vertex_areas, face_cls.ravel(), np.repeat(face_area / 3.0, 3))

    # --- edges ---------------------------------------------------------
    # edges are identified at the copy level: a boundary edge and its
    # image under the side pairing share one canonical key, so multiple
    # quotient edges between the same vertex classes stay distinct
    partner_edge = {}
    for (u, v), s in boundary.items():
        sp_, g = dom.side_map[s]
        if s < sp_:
            continue
        targets = np.array(sorted(side_vertices[sp_]))
        tz = verts[targets]
        pu = int(targets[np.argmin(np.abs(tz - g(verts[u])))])
        pv = int(targets[np.argmin(np.abs(tz - g(verts[v])))])
        partner_edge[(min(u, v), max(u, v))] = (min(pu, pv), max(pu, pv))

    def canon(cu, cv):
        key = (cu, cv) if cu < cv else (cv, cu)
        return partner_edge.get(key, key)

    edge_index = {}
    edge_faces = []
    for i in range(F):
        for a in range(3):
            cu, cv = int(faces[i, (a + 1) % 3]), int(faces[i, (a + 2) % 3])
            key = canon(cu, cv)
            if key not in edge_index:
                edge_index[key] = len(edge_faces)
                edge_faces.append([])
            edge_faces[edge_index[key]].append((i, a))
    if any(len(fl) != 2 for fl in edge_faces):
        raise MeshQualityError("some edges are not shared by exactly 2 faces")

    # per-edge data: class endpoints (directed as seen from the first
    # adjacent face) and the unit-curvature transport angle edge_tau, so
    # that exp(i c edge_tau) moves a value in the class frame at the tail
    # to the class frame at the head
    E = len(edge_faces)
    edges = np.empty((E, 2), dtype=int)
    seg_a = np.empty(E, dtype=complex)
    seg_b = np.empty(E, dtype=complex)
    tau_shift = np.zeros(E)
    for e, fl in enumerate(edge_faces):
        i, a = fl[0]
        tu, tv = (a + 1) % 3, (a + 2) % 3
        edges[e] = (face_cls[i, tu], face_cls[i, tv])
        seg_a[e] = face_chart[i, tu]
        seg_b[e] = face_chart[i, tv]
        tau_shift[e] = face_gshift[i, tu] - face_gshift[i, tv]
    edge_tau = tau_shift - _segment_omega0(seg_a, seg_b)

    # face -> edge incidence with orientation: face_edge[i, a] is the edge
    # opposite corner a, face_edge_sign[i, a] = +1 when the stored edge
    # direction agrees with the face's counter-clockwise traversal
    face_edge = np.empty((F, 3), dtype=int)
    face_edge_sign = np.empty((F, 3), dtype=int)
    for e, fl in enumerate(edge_faces):
        # both faces traverse the edge counter-clockwise, hence in opposite
        # directions; the first adjacent face defined the stored direction
        for rank, (i, a) in enumerate(fl):
            face_edge[i, a] = e
            face_edge_sign[i, a] = 1 if rank == 0 else -1

    # --- six-point dbar stencil ----------------------------------------
    stencil_class = np.empty((F, 6), dtype=int)
    stencil_coord = np.empty((F, 6), dtype=complex)
    stencil_kderiv = np.empty((F, 6), dtype=complex)
    stencil_gshift = np.empty((F, 6))
    stencil_class[:, :3] = face_cls
    stencil_coord[:, :3] = face_chart
    stencil_kderiv[:, :3] = face_kderiv
    stencil_gshift[:, :3] = face_gshift
    for i in range(F):
        for a in range(3):
            fl = edge_faces[face_edge[i, a]]
            j, b = fl[1] if fl[0] == (i, a) else fl[0]
            # express the opposite corner of face j in the chart of face i
            copy_pair_i = {int(faces[i, (a + 1) % 3]), int(faces[i, (a + 2) % 3])}
            copy_pair_j = {int(faces[j, (b + 1) % 3]), int(faces[j, (b + 2) % 3])}
            if copy_pair_i == copy_pair_j:
                stencil_class[i, 3 + a] = face_cls[j, b]
                stencil_coord[i, 3 + a] = face_chart[j, b]
                stencil_kderiv[i, 3 + a] = face_kderiv[j, b]
                stencil_gshift[i, 3 + a] = face_gshift[j, b]
            else:
                # the neighbour face sits across a side pairing; find the
                # pairing sig that carries face i's edge copies onto face j's
                zi1 = verts[faces[i, (a + 1) % 3]]
                zj = verts[[faces[j, (b + 1) % 3], faces[j, (b + 2) % 3]]]
                hit = None
                for s, (sp_, _) in dom.side_map.items():
                    if s > sp_:
                        continue
                    sigma = dom.side_map[s][1]
                    for direct, sig in ((True, sigma), (False, sigma.inv())):
                        if np.min(np.abs(zj - sig(zi1))) < 1e-8:
                            hit = (s, sigma, direct, sig)
                            break
                    if hit:
                        break
                if hit is None:
                    raise MeshQualityError("failed to resolve cross-side stencil")
                s, sigma, direct, sig = hit
                sig_inv = sig.inv()
                zo = complex(verts[faces[j, b]])
                znew = sig_inv(zo)
                # cocycle of sig at znew: f(sig z) = exp(i c G_sig(z)) f(z)
                if direct:
                    g_sig = _segment_cocycle(sigma, cocycle_base[s], znew)
                else:
                    # G of the inverse map: G_{sig}(y) = -G_sigma(sig(y))
                    g_sig = -_segment_cocycle(sigma, cocycle_base[s], zo)
                zroot = verts[root_of[faces[j, b]]]
                Tnew = sig_inv * copy_T[faces[j, b]]
                stencil_class[i, 3 + a] = face_cls[j, b]
                stencil_coord[i, 3 + a] = znew
                stencil_kderiv[i, 3 + a] = Tnew.deriv(zroot)
                stencil_gshift[i, 3 + a] = copy_G[faces[j, b]] - g_sig
    cen6 = np.repeat(face_centroid[:, None], 6, axis=1)
    stencil_omega = _segment_omega0(stencil_coord, cen6)

    # --- vertex patches for local polynomial fits ----------------------
    incident = [[] for _ in range(V)]
    for i in range(F):
        for a in range(3):
            incident[int(face_cls[i, a])].append((i, a))
    vertex_patch = []
    for vtx in range(V):
        # collect chart chains into vtx's chart over the two-ring; a face
        # reachable along several chains keeps every distinct image (they
        # differ by deck transformations near the side pairings), and each
        # class then keeps its closest position
        chains = {}

        def _add_chain(i, M):
            key = complex(np.round(M(face_centroid[i]), 10))
            lst = chains.setdefault(i, [])
            for _, k in lst:
                if k == key:
                    return False
            lst.append((M, key))
            return True

        ring1 = []
        for (i, a) in incident[vtx]:
            M = copy_T[faces[i, a]].inv()
            if _add_chain(i, M):
                ring1.append((i, a, M))
        for (i, a, Mi) in ring1:
            for b in range(3):
                if b == a:
                    continue
                u = int(face_cls[i, b])
                to_u_chart = Mi * copy_T[faces[i, b]]  # u rep chart -> vtx chart
                for (j, bj) in incident[u]:
                    _add_chain(j, to_u_chart * copy_T[faces[j, bj]].inv())
        best = {}
        zc = class_coord[vtx]
        for i, lst in chains.items():
            for M, _ in lst:
                for t in range(6):
                    c = int(stencil_class[i, t])
                    z = M(stencil_coord[i, t])
                    d = abs(z - zc)
                    if c not in best or d < best[c][1]:
                        best[c] = (z, d)
        best[vtx] = (zc, 0.0)
        cls_list = np.array(sorted(best), dtype=int)
        coord_list = np.array([best[c][0] for c in cls_list])
        vertex_patch.append((cls_list, coord_list))

    mesh = SurfaceMesh(
        genus=genus,
        resolution=resolution,
        domain=dom,
        vertices=class_coord,
        faces=face_cls,
        face_chart=face_chart,
        face_kderiv=face_kderiv,
        face_gshift=face_gshift,
        face_area=face_area,
        face_angles=face_angles,
        face_cot=face_cot,
        face_centroid=face_centroid,
        vertex_areas=vertex_areas,
        edges=edges,
        edge_tau=edge_tau,
        face_edge=face_edge,
        face_edge_sign=face_edge_sign,
        stencil_class=stencil_class,
        stencil_coord=stencil_coord,
        stencil_kderiv=stencil_kderiv,
        stencil_gshift=stencil_gshift,
        stencil_omega=stencil_omega,
        copy_class=cls,
        class_root_copy=np.array(roots, dtype=int),
        min_angle_deg=min_angle,
        max_edge_length=float(np.max(np.concatenate([l0, l1, l2]))),
        cocycle_defect=defect,
        vertex_patch=vertex_patch,
    )
    return mesh


def laplacian(mesh):
    """Discrete Laplace-Beltrami operator (cotangent weights, hyperbolic
    angles), as a sparse symmetric V x V matrix S with S @ const = 0 and
    x' (-S) x >= 0.  The geometric operator is Delta u ~= S u / vertex_areas.
    """
    if np.min(mesh.face_area) < 1e-14:
        bad = int(np.argmin(mesh.face_area))
        raise MeshQualityError(f"face {bad} area below 1e-14")
    F = mesh.n_faces
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
