"""Banded Cholesky factorization of Hermitian positive-definite matrices,
the package's one factorization.

Its users are Newton's preconditioner (the cotangent Laplacian plus a
positive diagonal, one factor per step), the polish's normal matrices
(a diagonal block per field) and the normal matrices of the dbar
stencil (the class oracle's projection and the kernel search's shifted
operator); the last two couple each vertex to a patch of patches.  They
are factored as bands because LAPACK's band kernels are faster at these
sizes, not because a band stores less.  At g=2, r=4,
against SuperLU in MMD_AT_PLUS_A order: the K^2 L stencil normal
matrix's band (kd 221) holds 226,884 entries and L + U 153,330, but it
factors in 5.2 ms against 11.7 ms and solves in 0.24 ms against 0.30 ms;
a polish block's band holds 526,330 and L + U 518,322, and it factors
in 4.4 ms against 44 ms.  The rows and columns are put in reverse
Cuthill-McKee order, computed from the sparsity pattern, which narrows
the band to a fraction of the size, and the band is factored by
LAPACK's pbtrf, whose dense updates run in the tuned BLAS.  The
factor's storage is the band, (kd + 1) * n entries for half-bandwidth
kd and size n.

Each of these matrices is written at the stored places of a pattern its
caller keeps, a HermitianPattern, so a matrix is the array of its values
in the pattern's entry order.  Everything but the values depends on the
pattern alone: the order, kd and each entry's place in the band are
computed once per pattern, at its first factorization, and
factor_hpd(pattern, values) only scatters the values into a new band and
factors it.

A factor has the precision of the values it was made from: float32
values give a float32 band, factored by LAPACK's spbtrf, at half the
storage of a float64 one.  BandFactor.solve casts a right-hand side to
the band's precision, keeping it complex when it is, and returns the
result in the common type of the two, so a float64 right-hand side of a
float32 factor gets a float64 result, accurate to single precision: the
polish factors each field's block in float32 and uses the factors as the
block-Jacobi preconditioner of a double-precision conjugate-gradient
solve.
"""

import functools

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded, get_lapack_funcs

from .errors import ShapeError

__all__ = ["BandFactor", "HermitianPattern", "factor_hpd"]


class BandFactor:
    """Lower banded Cholesky factor of a matrix in band order; solve takes
    and returns vectors in the caller's order, b cast to the band's
    precision (keeping its kind, real or complex) and the result in
    np.result_type(b, band).  The solves call LAPACK's pbtrs of the band's
    type, looked up once per factor, without scipy's wrapper."""

    def __init__(self, cb, perm):
        self.cb = cb
        self.perm = perm
        # the half-bandwidth kd and the band's stored entries, (kd + 1) * n
        self.bandwidth = cb.shape[0] - 1
        self.nnz = int(cb.size)
        self._pbtrs, = get_lapack_funcs(("pbtrs",), (cb,))

    def solve(self, b):
        b = np.asarray(b)
        # a complex b on a real band stays complex, its parts solved apart
        if np.iscomplexobj(b) and not np.iscomplexobj(self.cb):
            return self.solve(b.real) + 1j * self.solve(b.imag)
        y, _ = self._pbtrs(self.cb, b[self.perm].astype(self.cb.dtype, copy=False),
                           lower=1, overwrite_b=1)
        x = np.empty(y.shape, dtype=np.result_type(b, self.cb))
        x[self.perm] = y
        return x


class HermitianPattern:
    """The sparsity pattern of a Hermitian matrix of order n, as CSR
    indptr and indices with both triangles and the diagonal stored (the
    arrays given, not copies).  A matrix on it is the array of its values
    in the pattern's entry order."""

    def __init__(self, indptr, indices):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1

    def csr(self, values):
        """The CSR matrix of values on this pattern, sharing its arrays."""
        return sp.csr_matrix((values, self.indices, self.indptr), shape=(self.n, self.n))

    @functools.cached_property
    def diagonal(self):
        """The places of the diagonal entries."""
        rows = np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))
        return np.flatnonzero(self.indices == rows)

    @functools.cached_property
    def band(self):
        """(perm, kd, slot): the reverse Cuthill-McKee order perm, the
        half-bandwidth kd in that order, and slot, each stored entry's flat
        index in LAPACK's lower band storage of shape (kd + 1, n) in
        Fortran order, or (kd + 1) * n, one past the band, for an entry
        above the diagonal in band order.  Made on first use, which is the
        first factorization."""
        n = self.n
        # imported on first use, which keeps csgraph out of the package import
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        ones = np.ones(len(self.indices), dtype=np.int8)
        perm = reverse_cuthill_mckee(self.csr(ones), symmetric_mode=True)
        rank = np.empty(n, dtype=perm.dtype)
        rank[perm] = np.arange(n, dtype=perm.dtype)
        j = rank[self.indices]
        below = np.repeat(rank, np.diff(self.indptr))
        below -= j
        kd = int(np.max(below))
        # LAPACK's lower band storage: entry (i, j) at ab[i - j, j]
        end = (kd + 1) * n
        slot = j.astype(np.int32 if end <= np.iinfo(np.int32).max else np.int64, copy=False)
        slot *= kd + 1
        slot += below
        # the entries above the diagonal go to end, by arithmetic rather than
        # a branch per entry; below now holds the shift to end, 0 elsewhere
        below = (below < 0) * (end - slot)
        slot += below
        return perm, kd, slot


def factor_hpd(pattern, values):
    """Factor the Hermitian positive-definite matrix (real or complex) with
    the given values on pattern, a HermitianPattern, in the precision of
    the values; returns a BandFactor.  Raises ShapeError unless there is
    one value per stored entry, and numpy's LinAlgError when the matrix
    is not positive definite."""
    values = np.asarray(values)
    if values.shape != pattern.indices.shape:
        raise ShapeError(f"{values.shape} values for a pattern of "
                         f"{len(pattern.indices)} entries")
    perm, kd, slot = pattern.band
    band = np.zeros((kd + 1) * pattern.n + 1, dtype=values.dtype)
    band[slot] = values
    ab = band[:-1].reshape((kd + 1, pattern.n), order="F")
    cb = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    return BandFactor(cb, perm)
