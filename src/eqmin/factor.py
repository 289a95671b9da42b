"""Banded Cholesky factorization of Hermitian positive-definite matrices.

The normal matrices of the polish step and of the class-triviality
projection couple each vertex to a patch of patches, so their factors
are about half dense under any fill-reducing ordering.  They are
therefore factored as bands: the rows and columns are put in reverse
Cuthill-McKee order, computed from the matrix's own sparsity pattern,
which narrows the band to a fraction of the size, and the band is
factored by LAPACK's pbtrf, whose dense updates run in the tuned BLAS.
The factor's storage is the band, (kd + 1) * n entries for half-bandwidth
kd and size n.  The kernel search's shifted normal operator B^H B - sigma I,
with the class oracle's sparsity pattern, is factored the same way for
its shift-invert eigensolve.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import ShapeError

__all__ = ["BandFactor", "factor_hpd"]


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


def factor_hpd(A):
    """Factor a sparse Hermitian positive-definite matrix A (real or
    complex) in reverse Cuthill-McKee order; returns a BandFactor.  Raises
    ShapeError for a matrix that is not square and numpy's LinAlgError
    when A is not positive definite."""
    n = A.shape[0]
    if A.shape != (n, n) or n == 0:
        raise ShapeError(f"matrix of shape {A.shape} is not square")
    # imported on first use, which keeps csgraph out of the package import
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = sp.csr_matrix(A)
    perm = reverse_cuthill_mckee(A, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    C = A.tocoo()
    i, j = rank[C.row], rank[C.col]
    lower = i >= j
    i, j = i[lower], j[lower]
    kd = int(np.max(i - j))
    # LAPACK's lower band storage: entry (i, j) at ab[i - j, j]
    ab = np.zeros((kd + 1, n), dtype=A.dtype, order="F")
    ab[i - j, j] = C.data[lower]
    cb = cholesky_banded(ab, lower=True, overwrite_ab=True, check_finite=False)
    return BandFactor(cb, perm)
