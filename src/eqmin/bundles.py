"""Holomorphic line bundles K^m L^n on the discrete surface.

L is realized by a unitary connection of constant curvature density
c = l / (2(g-1)) per unit hyperbolic area, so deg L = l holds exactly by
construction.  Sections of K^m L^n are stored as vertex-class values of
the dz^m coefficient in the polygon chart (global unitary gauge for L);
the mesh carries the chart factors and cocycle shifts needed to read a
class value in any face chart.

The discrete dbar operator is a face-based least-squares Cauchy-Riemann
stencil: the six values reachable from a face (its corners and the
opposite corners of the three edge neighbours) are transported to the
face centroid and fitted with a full quadratic in (zeta, conj(zeta)); the
coefficient of conj(zeta) approximates the covariant (0,1)-derivative to
second order.
"""

import hashlib
import json

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    IndeterminateKernelError,
    InvalidParameterError,
    LinearSolveError,
    ShapeError,
)
from .factor import HermitianPattern, factor_hpd
from .mobius import conformal_factor
from .moduli import h1_dim

__all__ = [
    "LineBundleConnection",
    "DiscreteSection",
    "DbarOperator",
    "BasisResult",
    "make_line_bundle",
    "dbar_operator",
    "stencil_read",
    "holomorphic_basis",
    "class_is_trivial",
    "tensor_weight",
    "dbar_weights",
    "relative_dbar_norm",
]


def mesh_fingerprint(mesh):
    h = hashlib.sha256()
    h.update(f"{mesh.genus}:{mesh.resolution}:{mesh.n_vertices}:{mesh.n_faces}".encode())
    h.update(np.round(mesh.vertices, 12).tobytes())
    return h.hexdigest()[:16]


class LineBundleConnection:
    """Discrete U(1) bundle of degree l with constant curvature density.

    It holds its degree and its curvature density c against the
    hyperbolic area form; the curvature c times the face areas integrates
    to 2 pi l exactly, the total area being 4 pi (g - 1).  The transition
    functions that stencil_read applies are derived from c.
    """

    def __init__(self, mesh, l):
        self.degree = int(l)
        self.curvature_density = l / (2.0 * (mesh.genus - 1))


def make_line_bundle(mesh, l):
    return LineBundleConnection(mesh, l)


class DiscreteSection:
    """Vertex-class values of a section of K^m L^n."""

    def __init__(self, bundle_type, values, degree_l=0):
        self.bundle_type = tuple(bundle_type)
        self.values = np.asarray(values, dtype=complex)
        self.degree_l = int(degree_l)

    def save(self, path, mesh=None):
        m, n = self.bundle_type
        data = {
            "m": m,
            "n": n,
            "l": self.degree_l,
            "mesh_hash": mesh_fingerprint(mesh) if mesh is not None else "",
            "values": [[f"{v.real:.17g}", f"{v.imag:.17g}"] for v in self.values],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)

    @staticmethod
    def load(path, mesh=None):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidParameterError(f"cannot read section file {path!r}: {exc}") from exc
        if not isinstance(data, dict) or not {"m", "n", "l", "mesh_hash", "values"} <= set(data):
            raise InvalidParameterError(
                f"section file {path!r} is not an object with keys m, n, l, mesh_hash, values"
            )
        if mesh is not None and data["mesh_hash"]:
            if data["mesh_hash"] != mesh_fingerprint(mesh):
                raise ShapeError("section was saved for a different mesh")
        try:
            values = np.array([float(a) + 1j * float(b) for a, b in data["values"]])
            found = [data[key] for key in "mnl"]
            m, n, l = map(int, found)
            if [m, n, l] != found:
                raise ValueError(f"(m, n, l) = {tuple(found)} are not integers")
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"section file {path!r}: {exc}") from exc
        if mesh is not None and len(values) != mesh.n_vertices:
            raise InvalidParameterError(f"section file {path!r} holds {len(values)} values "
                                        f"for {mesh.n_vertices} vertices")
        return DiscreteSection((m, n), values, degree_l=l)


def tensor_weight(z, m, u=None):
    """Pointwise squared-norm weight of the frame dz^m: (2/lambda_gamma^2)^m,
    for the background metric (u = None) or the induced metric e^{2u} h."""
    lam2 = conformal_factor(z) ** 2
    if u is not None:
        lam2 = lam2 * np.exp(2.0 * np.asarray(u))
    return (2.0 / lam2) ** m


class DbarOperator:
    """Sparse covariant (0,1)-derivative from vertex fields to face fields:
    the F x V matrix, and entries, its F x 6 stencil entries (entry (f, a)
    multiplies the value of class mesh.stencil_class[f, a]; a class that
    recurs in a face's stencil has one entry per occurrence)."""

    def __init__(self, matrix, entries, mesh, bundle, m, n):
        self.matrix = matrix
        self.entries = entries
        self.mesh = mesh
        self.bundle = bundle
        self.m = int(m)
        self.n = int(n)

    def __call__(self, values):
        return self.matrix @ np.asarray(values, dtype=complex)


def dbar_weights(mesh, m, u_vertex=None):
    """Area-weighted norms for sections of K^m L^n: (w_in at vertices,
    w_out at faces), in the background metric or, given u_vertex, in the
    metric e^{2u} h.

    w_in weighs |f|^2 for f in K^m L^n; w_out weighs the |dbar f|^2 face
    values, which live in K^m L^n tensor conj(K).
    """
    if u_vertex is None:
        return (mesh.vertex_areas * tensor_weight(mesh.vertices, m),
                mesh.face_area * tensor_weight(mesh.face_centroid, m + 1))
    u = np.asarray(u_vertex, dtype=float)
    u_face = u[mesh.faces].mean(axis=1)
    return (mesh.vertex_areas * np.exp(2.0 * u) * tensor_weight(mesh.vertices, m, u=u),
            mesh.face_area * np.exp(2.0 * u_face)
            * tensor_weight(mesh.face_centroid, m + 1, u=u_face))


def relative_dbar_norm(mesh, m, dbar_values, values):
    """Background-weighted L2 norm of the dbar face values of a K^m L^n
    section, normalized by the section's own norm; NaN when that norm is
    not finite."""
    w_in, w_out = dbar_weights(mesh, m)
    den = np.sqrt(np.sum(w_in * np.abs(values) ** 2))
    if not np.isfinite(den):
        return np.nan
    num = np.sqrt(np.sum(w_out * np.abs(dbar_values) ** 2))
    return num / max(den, 1e-300)


def stencil_read(mesh, m, n, L):
    """Read factors of K^m L^n class values at the F x 6 stencil points:
    class value -> chart value at the point (frame change for K), parallel
    transported to the face centroid along the chart segment (unitary
    gauge for L).  L may be None when n = 0."""
    # the transition functions carry the opposite sign of L's curvature
    # density because the first Chern form is (i/2pi) F
    scale = 0.0 if L is None else -L.curvature_density
    return mesh.stencil_kderiv ** (-m) * np.exp(
        1j * n * scale * (mesh.stencil_gshift - mesh.stencil_omega)
    )


def _stencil_dbar_rows(mesh):
    """F x 6 functionals of each face's stencil values giving the
    coefficient of conj(zeta) in their quadratic fit about the centroid:
    the third row of the inverse of the stencil's design matrix, with the
    scaling of zeta undone.  They depend only on the mesh, which keeps
    them (SurfaceMesh.memo)."""
    zeta = mesh.stencil_coord - mesh.face_centroid[:, None]
    scale = np.max(np.abs(zeta), axis=1, keepdims=True)
    zs = zeta / scale
    A = np.stack(
        [
            np.ones_like(zs),
            zs,
            np.conj(zs),
            zs**2,
            zs * np.conj(zs),
            np.conj(zs) ** 2,
        ],
        axis=2,
    )
    return np.linalg.inv(A)[:, 2, :] / scale


def _stencil_pattern(stencil_class, V):
    """The pattern of the dbar stencil's normal matrices M^H M, which only
    the mesh determines: the HermitianPattern of the stencil incidence
    S^T S, and place, the place in it of each (face, a, b) pair of stencil
    points, F x 6 x 6 flat, which holds the entry (class of a, class of
    b)."""
    F = len(stencil_class)
    S = sp.csr_matrix((np.ones(6 * F, dtype=np.int32), stencil_class.ravel(),
                       np.arange(0, 6 * F + 1, 6)), shape=(F, V))
    P = (S.T @ S).tocsr()
    P.sort_indices()
    keys = np.repeat(np.arange(V, dtype=np.int64), np.diff(P.indptr)) * V + P.indices
    pairs = stencil_class[:, :, None].astype(np.int64) * V + stencil_class[:, None, :]
    return HermitianPattern(P.indptr, P.indices), np.searchsorted(keys, pairs.ravel())


def _stencil_normal(dbar, w, c=None):
    """The dbar stencil's normal matrix diag(c) M^H diag(w) M diag(c), for
    the dbar matrix M, face weights w and vertex scales c (1 when None):
    its pattern, kept on the mesh (_stencil_pattern), and its values, the
    sums over faces of conj(B[f, i]) B[f, j] for B = diag(sqrt(w)) M
    diag(c), taken pair by pair from the F x 6 stencil entries of dbar,
    with no sparse products."""
    mesh = dbar.mesh
    pattern, place = mesh.memo("stencil_normal", lambda: _stencil_pattern(
        mesh.stencil_class, mesh.n_vertices))
    b = np.sqrt(w)[:, None] * dbar.entries
    if c is not None:
        b = b * c[mesh.stencil_class]
    # conj(B[f, i]) B[f, j] for each pair (a, b) of stencil points, in
    # real and imaginary parts, which the sums take apart
    x, y = b.real[:, :, None], b.imag[:, :, None]
    pair_re = x * b.real[:, None, :] + y * b.imag[:, None, :]
    pair_im = x * b.imag[:, None, :] - y * b.real[:, None, :]
    nnz = len(pattern.indices)
    values = np.bincount(place, weights=pair_re.ravel(), minlength=nnz).astype(complex)
    values.imag = np.bincount(place, weights=pair_im.ravel(), minlength=nnz)
    return pattern, values


def dbar_operator(mesh, L, m, n):
    """Assemble the discrete dbar on sections of K^m L^n.

    L may be None when n = 0.  Kernel contains the constants exactly for
    (m, n) = (0, 0) since the stencil model includes the constant term.
    The stencil fits are the mesh's own (_stencil_dbar_rows, computed
    once per mesh); each (m, n) only multiplies them by its read factors.
    """
    if n != 0 and L is None:
        raise InvalidParameterError("a line bundle is required when n != 0")
    F = mesh.n_faces
    rows_coef = mesh.memo("dbar_rows", lambda: _stencil_dbar_rows(mesh))
    entries = rows_coef * stencil_read(mesh, m, n, L)
    rows = np.repeat(np.arange(F), 6)
    cols = mesh.stencil_class.ravel()
    M = sp.csr_matrix(
        (entries.ravel(), (rows, cols)), shape=(F, mesh.n_vertices), dtype=complex
    )
    return DbarOperator(M, entries, mesh, L, m, n)


class BasisResult(list):
    """List of DiscreteSection with kernel-detection diagnostics attached:
    the singular values, the gap ratio, h, the Riemann-Roch dimension the
    search window was sized from, and factor_nnz, the stored entries of
    the shift-invert factor (None when the search took the dense path)."""

    def __init__(self, sections, singular_values, gap_ratio, h, factor_nnz=None):
        super().__init__(sections)
        self.singular_values = singular_values
        self.gap_ratio = gap_ratio
        self.h = h
        self.factor_nnz = factor_nnz


def _smallest_singular(pattern, N, k):
    """The k smallest eigenvalues (ascending) of the Hermitian positive
    semi-definite matrix with values N on pattern, as singular values
    (their square roots), their eigenvectors (columns) and the stored
    entries of the shift-invert factor.

    ARPACK finds them in shift-invert mode about a tiny negative shift
    sigma, so that N - sigma I stays positive definite when the kernel is
    exact and is factored once as a band by factor_hpd.  ARPACK needs
    k < n - 1; smaller problems take a dense eigh of N and report no
    factor (None).  The start vector is fixed, so repeated calls agree.
    """
    A = pattern.csr(N)
    n = pattern.n
    if k >= n - 1:
        lam, vecs = np.linalg.eigh(A.toarray())
        lam, vecs = lam[:k], vecs[:, :k]
        factor_nnz = None
    else:
        sigma = -1e-10 * float(np.max(np.abs(N[pattern.diagonal])))
        shifted = N.copy()
        shifted[pattern.diagonal] -= sigma
        v0 = np.ones(n, dtype=complex)
        try:
            lu = factor_hpd(pattern, shifted)
            OPinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=A.dtype)
            lam, vecs = spla.eigsh(A, k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv,
                                    tol=_ARPACK_TOL)
        except spla.ArpackNoConvergence as exc:
            lam = np.sort(exc.eigenvalues.real)
            raise IndeterminateKernelError(
                f"shift-invert eigensolve did not converge: {exc}",
                singular_values=np.sqrt(np.maximum(lam, 0.0)).tolist(),
            ) from exc
        except (spla.ArpackError, np.linalg.LinAlgError, RuntimeError) as exc:
            raise LinearSolveError(f"shift-invert eigensolve failed: {exc}") from exc
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
        factor_nnz = lu.nnz
    return np.sqrt(np.maximum(lam, 0.0)), vecs, factor_nnz


# relative modulus within which a section's peaks count as tied
PEAK_RTOL = 1e-6
# relative accuracy of ARPACK's eigenvalues (its default is machine precision)
_ARPACK_TOL = 1e-12


def _fix_phase(vals):
    """vals times the unit phase that makes real and positive its value at
    the lowest-index vertex whose modulus is within PEAK_RTOL of the
    largest."""
    mod = np.abs(vals)
    peak = vals[np.argmax(mod >= (1.0 - PEAK_RTOL) * mod.max())]
    return vals * (np.conj(peak) / abs(peak))


def holomorphic_basis(dbar, gap_floor=10.0):
    """Orthonormal basis (area-weighted) of the numerical dbar kernel on
    sections of K^2 L^n.

    The kernel is detected by the largest ratio of consecutive singular
    values of the metric-normalized operator B = diag(sqrt(w_out)) M
    diag(1 / sqrt(w_in)) among its 2h + 2 smallest, h = 3(g-1) + n l being
    the Riemann-Roch dimension the search confirms, found as eigenvalues
    of its normal matrix N = B^H B (_stencil_normal, _smallest_singular)
    with denominators floored at 1e-14 sqrt(max |diag N|); a ratio below
    gap_floor raises an indeterminate-kernel error carrying the singular
    values.  A kernel of any dimension up to 2h + 1 is found as such, so
    one that is too large or too small is still reported.  Each basis
    section's phase is fixed by making real and positive its value at
    the lowest-index vertex whose modulus is within PEAK_RTOL of the
    largest: on symmetric surfaces a section peaks at several vertices
    whose moduli agree only to roundoff, so the largest modulus alone
    would pick the vertex, and the phase, by roundoff.
    """
    l = 0 if dbar.bundle is None else dbar.bundle.degree
    h = h1_dim(dbar.mesh.genus, dbar.n * l)
    w_in, w_out = dbar_weights(dbar.mesh, dbar.m)
    pattern, N = _stencil_normal(dbar, w_out, 1.0 / np.sqrt(w_in))
    s, vecs, factor_nnz = _smallest_singular(pattern, N, 2 * h + 2)
    ratios = s[1:] / np.maximum(s[:-1], 1e-14 * np.sqrt(np.max(np.abs(N[pattern.diagonal]))))
    d = int(np.argmax(ratios)) + 1
    gap = float(ratios[d - 1])
    if gap < gap_floor:
        raise IndeterminateKernelError(
            f"no singular-value gap >= {gap_floor} (best {gap:.2f})",
            singular_values=s.tolist(),
        )
    sections = [DiscreteSection((dbar.m, dbar.n), _fix_phase(vecs[:, i] / np.sqrt(w_in)),
                                degree_l=l) for i in range(d)]
    return BasisResult(sections, s, gap, h, factor_nnz=factor_nnz)


def class_is_trivial(mesh, beta, metric_u, dbar, tol=1e-3):
    """Decide whether the Dolbeault class of a face-valued (0,1)-form is
    trivial, by harmonic projection in the metric e^{2u} h.

    beta must take values in the same K^m L^n as the supplied dbar
    operator (typically Hom(K, L^s) = K^{-1} L^s, which has no global
    holomorphic sections, so the projection is unique).  The projection's
    normal matrix M^H W M (_stencil_normal), with a small Tikhonov floor,
    is Hermitian positive definite and is factored as a band by
    factor_hpd.  Returns (is_trivial, harmonic_norm): the
    weighted L2 norm of beta minus its best dbar-exact approximation, and
    the comparison with tol.
    """
    beta = np.asarray(beta, dtype=complex)
    if beta.shape[0] != mesh.n_faces:
        raise ShapeError("beta must be a face field")
    w_in, w_out = dbar_weights(dbar.mesh, dbar.m, metric_u)
    M = dbar.matrix
    pattern, lhs = _stencil_normal(dbar, w_out)
    # small Tikhonov floor keeps the solve well posed if the discrete
    # kernel is only numerically trivial
    lhs[pattern.diagonal] += 1e-12 * float(np.max(np.abs(lhs[pattern.diagonal])))
    rhs = M.conj().T @ (w_out * beta)
    try:
        psi = factor_hpd(pattern, lhs).solve(rhs)
    except Exception as exc:
        raise LinearSolveError(f"harmonic projection solve failed: {exc}") from exc
    if not np.all(np.isfinite(psi)):
        raise LinearSolveError("harmonic projection returned non-finite values")
    resid = beta - M @ psi
    norm = float(np.sqrt(np.sum(w_out * np.abs(resid) ** 2)))
    return norm < tol, norm
