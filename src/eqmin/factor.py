"""Sparse factorization of Hermitian positive-definite matrices over
mesh-vertex fields.

The normal matrices of the polish step and of the class-triviality
projection couple each vertex to its patch, so their fill under
elimination depends mostly on how the vertices are numbered.  The rows
and columns are first put in the mesh's bisection order
(SurfaceMesh.vertex_order), with stacked fields interleaved per vertex;
SuperLU then orders the permuted matrix by minimum degree on A^T + A and
factors it in symmetric mode, without pivoting off the diagonal, which
positive definiteness allows.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ShapeError

__all__ = ["MeshFactor", "factor_hpd"]


class MeshFactor:
    """SuperLU factors of a matrix in mesh order; solve takes and returns
    vectors in the caller's order."""

    def __init__(self, lu, perm):
        self.lu = lu
        self.perm = perm
        # the entries SuperLU stores for L and U, including the zeros of
        # its supernode blocks; lu.L and lu.U would build CSC copies of
        # both factors and keep them as long as lu lives
        self.nnz = int(lu.nnz)

    def solve(self, b):
        y = self.lu.solve(np.asarray(b)[self.perm])
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def factor_hpd(mesh, A):
    """Factor a Hermitian positive-definite matrix A over f stacked vertex
    fields of mesh (shape fV x fV, field k of vertex v at row kV + v), in
    mesh order; returns a MeshFactor."""
    V = mesh.n_vertices
    fields = A.shape[0] // V
    if fields == 0 or A.shape != (fields * V, fields * V):
        raise ShapeError(f"matrix of shape {A.shape} is not square over {V} vertices")
    perm = (mesh.vertex_order()[:, None] + V * np.arange(fields)).ravel()
    A = sp.csc_matrix(A)[perm][:, perm]
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    return MeshFactor(lu, perm)
