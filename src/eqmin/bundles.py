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
from .factor import band_plan, factor_hpd
from .mobius import conformal_factor

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

    face_curvature integrates to 2 pi l exactly because the curvature
    2-form is prescribed as c times the hyperbolic area form.
    """

    def __init__(self, mesh, l):
        self.degree = int(l)
        # rho0: curvature density against the hyperbolic area form, with
        # integral 2 pi l.  The transition functions carry the opposite
        # sign because the first Chern form is (i/2pi) F
        self.curvature_density = l / (2.0 * (mesh.genus - 1))
        self.transition_scale = -self.curvature_density
        self.face_curvature = self.curvature_density * mesh.face_area


def make_line_bundle(mesh, l):
    return LineBundleConnection(mesh, l)


class DiscreteSection:
    """Vertex-class values of a section of K^m L^n."""

    def __init__(self, bundle_type, values, degree_l=0, dbar_residual=None):
        self.bundle_type = tuple(bundle_type)
        self.values = np.asarray(values, dtype=complex)
        self.degree_l = int(degree_l)
        self.dbar_residual = dbar_residual

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
            bundle_type, degree_l = (int(data["m"]), int(data["n"])), int(data["l"])
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"section file {path!r}: {exc}") from exc
        if mesh is not None and len(values) != mesh.n_vertices:
            raise InvalidParameterError(f"section file {path!r} holds {len(values)} values "
                                        f"for {mesh.n_vertices} vertices")
        return DiscreteSection(bundle_type, values, degree_l=degree_l)


def tensor_weight(z, m, u=None):
    """Pointwise squared-norm weight of the frame dz^m: (2/lambda_gamma^2)^m,
    for the background metric (u = None) or the induced metric e^{2u} h."""
    lam2 = conformal_factor(z) ** 2
    if u is not None:
        lam2 = lam2 * np.exp(2.0 * np.asarray(u))
    return (2.0 / lam2) ** m


class DbarOperator:
    """Sparse covariant (0,1)-derivative from vertex fields to face fields."""

    def __init__(self, matrix, mesh, bundle, m, n):
        self.matrix = matrix
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
    section, normalized by the section's own norm."""
    w_in, w_out = dbar_weights(mesh, m)
    num = np.sqrt(np.sum(w_out * np.abs(dbar_values) ** 2))
    den = np.sqrt(np.sum(w_in * np.abs(values) ** 2))
    return num / max(den, 1e-300)


def stencil_read(mesh, m, n, transition_scale):
    """Read factors of K^m L^n class values at the F x 6 stencil points:
    class value -> chart value at the point (frame change for K), parallel
    transported to the face centroid along the chart segment (unitary
    gauge for L, with the bundle's transition scale)."""
    return mesh.stencil_kderiv ** (-m) * np.exp(
        1j * n * transition_scale * (mesh.stencil_gshift - mesh.stencil_omega)
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


def _stencil_factor(mesh, A):
    """factor_hpd of a Hermitian matrix on the pattern of the dbar
    stencil's normal matrices M^H M, which only the mesh determines: the
    kernel search's shifted normal operator and the class oracle's
    projection share one band plan, kept on the mesh and made from the
    first such matrix factored."""
    A = A.tocsr()
    return factor_hpd(A, mesh.memo("stencil_band_plan", lambda: band_plan(A)))


def dbar_operator(mesh, L, m, n):
    """Assemble the discrete dbar on sections of K^m L^n.

    L may be None when n = 0.  Kernel contains the constants exactly for
    (m, n) = (0, 0) since the stencil model includes the constant term.
    The stencil fits are the mesh's own (_stencil_dbar_rows, computed
    once per mesh); each (m, n) only multiplies them by its read factors.
    """
    if n != 0 and L is None:
        raise InvalidParameterError("a line bundle is required when n != 0")
    c = 0.0 if L is None else L.transition_scale
    F = mesh.n_faces
    rows_coef = mesh.memo("dbar_rows", lambda: _stencil_dbar_rows(mesh))
    entries = rows_coef * stencil_read(mesh, m, n, c)
    rows = np.repeat(np.arange(F), 6)
    cols = mesh.stencil_class.ravel()
    M = sp.csr_matrix(
        (entries.ravel(), (rows, cols)), shape=(F, mesh.n_vertices), dtype=complex
    )
    return DbarOperator(M, mesh, L, m, n)


class BasisResult(list):
    """List of DiscreteSection with kernel-detection diagnostics attached:
    the singular values, the gap ratio, and factor_nnz, the stored entries
    of the shift-invert factor (None when the search took the dense
    path)."""

    def __init__(self, sections, singular_values, gap_ratio, factor_nnz=None):
        super().__init__(sections)
        self.singular_values = singular_values
        self.gap_ratio = gap_ratio
        self.factor_nnz = factor_nnz


def _smallest_singular(B, k, mesh):
    """The k smallest singular values of B (ascending), their right
    singular vectors (columns), the largest singular value and the stored
    entries of the shift-invert factor.

    They are the eigenpairs of the Hermitian normal operator N = B^H B,
    found by ARPACK in shift-invert mode about a tiny negative shift, so
    that N - sigma I stays positive definite when the kernel is exact and
    is factored once as a band by factor_hpd, with the band plan of the
    mesh's stencil pattern (_stencil_factor).  ARPACK needs k < n - 1;
    smaller problems take a dense eigh of N and report no factor (None).
    The start vector is fixed, so repeated calls agree.
    """
    N = (B.conj().T @ B).tocsc()
    n = N.shape[0]
    if k >= n - 1:
        lam, vecs = np.linalg.eigh(N.toarray())
        lam_max = lam[-1]
        lam, vecs = lam[:k], vecs[:, :k]
        factor_nnz = None
    else:
        sigma = -1e-10 * float(np.max(np.abs(N.diagonal())))
        v0 = np.ones(n, dtype=complex)
        try:
            shifted = _stencil_factor(mesh, N - sigma * sp.identity(n, format="csc"))
            OPinv = spla.LinearOperator(N.shape, matvec=shifted.solve, dtype=N.dtype)
            lam, vecs = spla.eigsh(N, k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv)
            lam_max = spla.eigsh(N, 1, which="LA", v0=v0,
                                 return_eigenvectors=False)[0]
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
        factor_nnz = shifted.nnz
    s = np.sqrt(np.maximum(lam, 0.0))
    return s, vecs, float(np.sqrt(max(lam_max, 0.0))), factor_nnz


# relative modulus within which a section's peaks count as tied
PEAK_RTOL = 1e-6


def _fix_phase(vals):
    """vals times the unit phase that makes real and positive its value at
    the lowest-index vertex whose modulus is within PEAK_RTOL of the
    largest."""
    mod = np.abs(vals)
    peak = vals[np.argmax(mod >= (1.0 - PEAK_RTOL) * mod.max())]
    return vals * (np.conj(peak) / abs(peak))


# the largest kernel dimension holomorphic_basis looks for: it computes the
# KERNEL_MAX_DIM + 1 smallest singular values
KERNEL_MAX_DIM = 24


def holomorphic_basis(dbar, gap_floor=10.0):
    """Orthonormal basis (area-weighted) of the numerical dbar kernel.

    The kernel is detected by the largest ratio of consecutive singular
    values of the metric-normalized operator among the smallest few; a
    ratio below gap_floor raises an indeterminate-kernel error carrying
    the singular values.  Each basis section's phase is fixed by making
    real and positive its value at the lowest-index vertex whose modulus
    is within PEAK_RTOL of the largest: on symmetric surfaces a section
    peaks at several vertices whose moduli agree only to roundoff, so
    the largest modulus alone would pick the vertex, and the phase, by
    roundoff.
    """
    mesh = dbar.mesh
    w_in, w_out = dbar_weights(mesh, dbar.m)
    B = sp.diags(np.sqrt(w_out)) @ dbar.matrix @ sp.diags(1.0 / np.sqrt(w_in))
    upper = min(KERNEL_MAX_DIM, mesh.n_vertices - 1)
    s, vecs, s_max, factor_nnz = _smallest_singular(B, upper + 1, mesh)
    ratios = s[1:] / np.maximum(s[:-1], 1e-14 * s_max)
    d = int(np.argmax(ratios)) + 1
    gap = float(ratios[d - 1])
    if gap < gap_floor:
        raise IndeterminateKernelError(
            f"no singular-value gap >= {gap_floor} (best {gap:.2f})",
            singular_values=s.tolist(),
        )
    l = 0 if dbar.bundle is None else dbar.bundle.degree
    sections = []
    for i in range(d):
        vals = _fix_phase(vecs[:, i] / np.sqrt(w_in))
        res = dbar(vals)
        sec = DiscreteSection((dbar.m, dbar.n), vals, degree_l=l, dbar_residual=res)
        sections.append(sec)
    return BasisResult(sections, s, gap, factor_nnz=factor_nnz)


def class_is_trivial(mesh, beta, metric_u, dbar, tol=1e-3):
    """Decide whether the Dolbeault class of a face-valued (0,1)-form is
    trivial, by harmonic projection in the metric e^{2u} h.

    beta must take values in the same K^m L^n as the supplied dbar
    operator (typically Hom(K, L^s) = K^{-1} L^s, which has no global
    holomorphic sections, so the projection is unique).  The projection's
    normal matrix M^H W M, with a small Tikhonov floor, is Hermitian
    positive definite and is factored as a band by factor_hpd, with the
    band plan of the mesh's stencil pattern that the kernel search uses
    too (_stencil_factor).  Returns (is_trivial, harmonic_norm): the
    weighted L2 norm of beta minus its best dbar-exact approximation, and
    the comparison with tol.
    """
    beta = np.asarray(beta, dtype=complex)
    if beta.shape[0] != mesh.n_faces:
        raise ShapeError("beta must be a face field")
    w_in, w_out = dbar_weights(dbar.mesh, dbar.m, metric_u)
    M = dbar.matrix
    W = sp.diags(w_out)
    lhs = (M.conj().T @ W @ M).tocsr()
    # small Tikhonov floor keeps the solve well posed if the discrete
    # kernel is only numerically trivial
    reg = 1e-12 * float(np.max(np.abs(lhs.diagonal())))
    lhs = lhs + reg * sp.identity(lhs.shape[0], format="csr")
    rhs = M.conj().T @ (w_out * beta)
    try:
        psi = _stencil_factor(dbar.mesh, lhs).solve(rhs)
    except Exception as exc:
        raise LinearSolveError(f"harmonic projection solve failed: {exc}") from exc
    if not np.all(np.isfinite(psi)):
        raise LinearSolveError("harmonic projection returned non-finite values")
    resid = beta - M @ psi
    norm = float(np.sqrt(np.sum(w_out * np.abs(resid) ** 2)))
    return norm < tol, norm
