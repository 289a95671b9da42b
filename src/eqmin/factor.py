"""Banded Cholesky factorization of Hermitian positive-definite matrices.

The normal matrices of the polish step and of the class-triviality
projection couple each vertex to a patch of patches, so their factors
are about half dense under any fill-reducing ordering.  They are
therefore factored as bands: the rows and columns are put in reverse
Cuthill-McKee order, computed from the matrix's sparsity pattern, which
narrows the band to a fraction of the size, and the band is factored by
LAPACK's pbtrf, whose dense updates run in the tuned BLAS.  The factor's
storage is the band, (kd + 1) * n entries for half-bandwidth kd and size
n.  The kernel search's shifted normal operator B^H B - sigma I, with the
class oracle's sparsity pattern, is factored the same way for its
shift-invert eigensolve.

Everything but the values depends on the pattern alone, so it is split
off: band_plan(A) computes the order, kd and each stored entry's place in
the band once per pattern, and factor_hpd(A, plan) only scatters A's
values into a new band and factors it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import ShapeError

__all__ = ["BandFactor", "BandPlan", "band_plan", "factor_hpd"]


class BandFactor:
    """Lower banded Cholesky factor of a matrix in band order; solve takes
    and returns vectors in the caller's order."""

    def __init__(self, cb, perm):
        self.cb = cb
        self.perm = perm
        # the half-bandwidth kd and the band's stored entries, (kd + 1) * n
        self.bandwidth = cb.shape[0] - 1
        self.nnz = int(cb.size)

    def solve(self, b):
        y = cho_solve_banded((self.cb, True), np.asarray(b)[self.perm],
                             check_finite=False)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


class BandPlan:
    """The band layout of one sparsity pattern: the pattern's CSR indptr
    and indices (those of the matrix it was made from, not copies), the
    reverse Cuthill-McKee order perm, the half-bandwidth kd, and slot,
    each stored entry's flat index in LAPACK's lower band storage of
    shape (kd + 1, n) in Fortran order, or (kd + 1) * n, one past the
    band, for an entry above the diagonal in band order."""

    def __init__(self, indptr, indices, perm, kd, slot):
        self.indptr = indptr
        self.indices = indices
        self.perm = perm
        self.kd = kd
        self.slot = slot

    def matches(self, A):
        """Whether the canonical CSR matrix A has this plan's pattern."""
        return (np.array_equal(A.indptr, self.indptr)
                and np.array_equal(A.indices, self.indices))


def _canonical_csr(A):
    """A as a square CSR matrix with sorted, unique column indices; raises
    ShapeError for a matrix that is not square."""
    n = A.shape[0]
    if A.shape != (n, n) or n == 0:
        raise ShapeError(f"matrix of shape {A.shape} is not square")
    A = sp.csr_matrix(A)
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    return A


def band_plan(A):
    """The BandPlan of the sparsity pattern of the sparse Hermitian matrix
    A; its order is reverse Cuthill-McKee on that pattern.  Raises
    ShapeError for a matrix that is not square."""
    A = _canonical_csr(A)
    n = A.shape[0]
    # imported on first use, which keeps csgraph out of the package import
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty(n, dtype=perm.dtype)
    rank[perm] = np.arange(n, dtype=perm.dtype)
    j = rank[A.indices]
    below = np.repeat(rank, np.diff(A.indptr))
    below -= j
    kd = int(np.max(below))
    # LAPACK's lower band storage: entry (i, j) at ab[i - j, j]
    end = (kd + 1) * n
    slot = j.astype(np.int32 if end <= np.iinfo(np.int32).max else np.int64, copy=False)
    slot *= kd + 1
    slot += below
    # the entries above the diagonal go to end, by arithmetic rather than a
    # branch per entry; below now holds the shift to end, 0 elsewhere
    below = (below < 0) * (end - slot)
    slot += below
    return BandPlan(A.indptr, A.indices, perm, kd, slot)


def factor_hpd(A, plan):
    """Factor a sparse Hermitian positive-definite matrix A (real or
    complex) with the band layout plan; returns a BandFactor.  A matrix
    whose pattern is not plan's is factored with a fresh plan of its own,
    which is not kept.  Raises ShapeError for a matrix that is not square
    and numpy's LinAlgError when A is not positive definite."""
    A = _canonical_csr(A)
    if not plan.matches(A):
        plan = band_plan(A)
    n = A.shape[0]
    band = np.zeros((plan.kd + 1) * n + 1, dtype=A.dtype)
    band[plan.slot] = A.data
    ab = band[:-1].reshape((plan.kd + 1, n), order="F")
    cb = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    return BandFactor(cb, plan.perm)
