"""Elliptic solvers for the induced geometry of equivariant minimal surfaces.

Conformal gauge: the induced metric is gamma = e^{2u} h with h the
background hyperbolic metric.  Writing t for the pointwise h-norm density
of the holomorphic data (t = |f|^2 (2/lambda^2)^2 for f the dz^2
coefficient), the curvature equation kappa_gamma = -1 - ||II^{2,0}||^2
becomes the semilinear scalar equation

    Delta_h u = -1 + e^{2u} + e^{-2u} t_q                       (target H^3)

and, for target H^4 with W = L + L^{-1} and log-scale w of the metric on
L, the coupled system

    Delta_h u = -1 + e^{2u} + e^{-2u} (e^{2w} t_1 + e^{-2w} t_2)
    Delta_h w = rho_0 - e^{-2u} (e^{-2w} t_2 - e^{2w} t_1)

with rho_0 = l / (2(g-1)) the curvature density of L.  The squared
gamma-norms are then ||theta_1||^2 = e^{-4u} e^{2w} t_1 and
||theta_2||^2 = e^{-4u} e^{-2w} t_2, and the normal curvature satisfies
kappa_perp = e^{-2u}(rho_0 - Delta_h w) = ||theta_2||^2 - ||theta_1||^2.

Both systems are solved by damped Newton iteration from u = w = 0 with a
backtracking (halving) line search on the area-weighted residual norm.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bundles import tensor_weight
from .errors import (
    InvalidParameterError,
    LinearSolveError,
    NonConvergenceError,
    ShapeError,
    StagnationError,
)
from .factor import band_plan, factor_hpd
from .hypmesh import laplacian

__all__ = [
    "GermData3",
    "GermData4",
    "GermSolution",
    "CurvatureEquations",
    "t_density",
    "manufactured_forcing",
    "solve_gauss3",
    "solve_gauss_ricci4",
    "polish_solution",
]


def _exp(x):
    """exp with clipped argument; keeps rejected line-search states finite."""
    return np.exp(np.clip(x, -60.0, 60.0))


def t_density(mesh, values):
    """Pointwise h-norm density of a quadratic-differential-type section:
    |f|^2 (2/lambda^2)^2 at the vertices."""
    return np.abs(np.asarray(values)) ** 2 * tensor_weight(mesh.vertices, 2)


class GermData3:
    """Input data for a minimal surface in hyperbolic 3-space: the Hopf
    differential q, a holomorphic section of K^2.  There is no line bundle:
    L is None."""

    L = None

    def __init__(self, mesh, q=None, t_field=None):
        self.mesh = mesh
        self.q = q
        if t_field is not None:
            self.t = np.asarray(t_field, dtype=float)
        elif q is not None:
            self.t = t_density(mesh, q.values)
        else:
            self.t = np.zeros(mesh.n_vertices)
        if self.t.shape[0] != mesh.n_vertices:
            raise ShapeError("t field length does not match the mesh")


class GermData4:
    """Input data for a minimal surface in hyperbolic 4-space: line bundle
    L of degree l with |l| < 2(g-1), theta1 in H0(K^2 L), theta2 in
    H0(K^2 L^{-1})."""

    def __init__(self, mesh, L, theta1, theta2):
        self.mesh = mesh
        self.L = L
        l = L.degree
        if abs(l) >= 2 * (mesh.genus - 1):
            raise InvalidParameterError(
                f"degree {l} outside the admissible window |l| < {2 * (mesh.genus - 1)}"
            )
        self.theta1 = theta1
        self.theta2 = theta2
        self.t1 = (
            t_density(mesh, theta1.values)
            if theta1 is not None
            else np.zeros(mesh.n_vertices)
        )
        self.t2 = (
            t_density(mesh, theta2.values)
            if theta2 is not None
            else np.zeros(mesh.n_vertices)
        )
        self.rho0 = L.curvature_density


class GermSolution:
    """Solved conformal factor(s).

    u and w come from the cotangent-Laplacian Newton solve and make the
    integrated identities exact.  u_smooth and w_smooth, when present, are
    the collocation-polished representatives used for derivative-based
    pointwise diagnostics, and polish is the record of how they were
    obtained (see polish_solution).
    """

    def __init__(self, u, w=None, newton_trace=None, converged=False):
        self.u = u
        self.w = w
        self.newton_trace = newton_trace or []
        self.converged = converged
        self.u_smooth = None
        self.w_smooth = None
        self.polish = None


def manufactured_forcing(mesh, u_star):
    """The t field that makes the constant u_star an exact solution of the
    scalar curvature equation: 0 = -1 + e^{2u*} + e^{-2u*} t.

    Negative for u_star > 0; not realizable by holomorphic data, used only
    for solver-correctness checks.
    """
    t = np.exp(2.0 * u_star) * (1.0 - np.exp(2.0 * u_star))
    return np.full(mesh.n_vertices, t)


class CurvatureEquations:
    """The Gauss (and Ricci) equations of germ data as Delta_h x = f(x).

    The state x is u for GermData3 and (u, w) stacked for GermData4.  The
    reaction terms are written through the squared gamma-norms of the
    second fundamental form:

        f_u = -1 + e^{2u} (1 + ||II||^2)
        f_w = rho_0 - e^{2u} (||theta_2||^2 - ||theta_1||^2)

    so that the curvatures kappa_gamma = e^{-2u}(-1 - Delta_h u) and
    kappa_perp = e^{-2u}(rho_0 - Delta_h w) satisfy the Gauss equation
    kappa_gamma = -1 - ||II||^2 and the Ricci equation
    kappa_perp = ||theta_2||^2 - ||theta_1||^2 exactly at a solution.
    """

    def __init__(self, data):
        self.data = data
        self.coupled = isinstance(data, GermData4)
        # the number of fields, and the vertex areas stacked once per field:
        # the weights of the area-weighted norms of a state or a residual
        self.n = 2 if self.coupled else 1
        self.areas = np.tile(data.mesh.vertex_areas, self.n)

    def fields(self, x):
        """(u, w) of a state vector; w is None for the scalar equation."""
        if not self.coupled:
            return x, None
        V = self.data.mesh.n_vertices
        return x[:V], x[V:]

    def norms(self, u, w=None):
        """(||II||^2, ||theta_1||^2, ||theta_2||^2) in the induced metric;
        the theta norms are None for the scalar equation."""
        em4u = _exp(-4.0 * u)
        if not self.coupled:
            return em4u * self.data.t, None, None
        th1 = em4u * _exp(2.0 * w) * self.data.t1
        th2 = em4u * _exp(-2.0 * w) * self.data.t2
        return th1 + th2, th1, th2

    def curvatures(self, u, lap_u, lap_w=None):
        """(kappa_gamma, kappa_perp) from the Laplacians of the fields;
        kappa_perp is None for the scalar equation."""
        em2u = _exp(-2.0 * u)
        kappa_gamma = em2u * (-1.0 - lap_u)
        if not self.coupled:
            return kappa_gamma, None
        return kappa_gamma, em2u * (self.data.rho0 - lap_w)

    def f(self, u, w=None):
        """Reaction terms [f_u] or [f_u, f_w]."""
        ii, th1, th2 = self.norms(u, w)
        e2u = _exp(2.0 * u)
        f_u = -1.0 + e2u * (1.0 + ii)
        if not self.coupled:
            return [f_u]
        return [f_u, self.data.rho0 - e2u * (th2 - th1)]

    def df(self, u, w=None):
        """Diagonals of the Jacobian blocks: df[i][j] = d f_i / d x_j."""
        ii, th1, th2 = self.norms(u, w)
        e2u2 = 2.0 * _exp(2.0 * u)
        d_uu = e2u2 * (1.0 - ii)
        if not self.coupled:
            return [[d_uu]]
        kp = th2 - th1
        return [[d_uu, -e2u2 * kp], [e2u2 * kp, e2u2 * ii]]

    def system(self, operator, weight):
        """Residual x -> lap x - weight f(x), lap acting on each field, and
        its Jacobian x -> CSR matrix, as a pair of callables.  operator
        names the mesh's Laplacian lap: "cotangent" (laplacian(mesh), the
        Newton solve's) or "patch_fit" (the weighted patch-fit Laplacian,
        the polish's).

        Every Jacobian of the system has one sparsity pattern, the block
        Laplacian plus the diagonal of each block (_jacobian_pattern).  It
        is built once per mesh, operator and number of fields and kept on
        the mesh; each call copies the Laplacian's values and subtracts
        weight * df on those diagonals, so no sparse assembly runs per
        call.  The matrices returned share the pattern's index arrays and
        must not be modified in place.
        """
        mesh = self.data.mesh
        lap = _LAPLACIANS[operator](mesh)

        def residual(x):
            xs = self.fields(x)
            return np.concatenate(
                [lap @ y - weight * fy for y, fy in zip(xs, self.f(*xs))]
            )

        shape = (len(self.areas),) * 2
        indices, indptr, base, diagonals = mesh.memo(
            ("jacobian", operator, self.n), lambda: _jacobian_pattern(lap, self.n))

        def jacobian(x):
            data = base.copy()
            for pos_row, df_row in zip(diagonals, self.df(*self.fields(x))):
                for pos, d in zip(pos_row, df_row):
                    data[pos] -= weight * d
            return sp.csr_matrix((data, indices, indptr), shape=shape)

        return residual, jacobian


# the Laplacians the curvature equations are written with, each kept on
# the mesh, by the operator name CurvatureEquations.system takes
_LAPLACIANS = {
    "cotangent": laplacian,
    "patch_fit": lambda mesh: mesh.fd_laplacian_matrix(weighted=True),
}


def _flagged_union(parts):
    """The union of the patterns of the canonical CSR matrices parts, as a
    canonical complex CSR matrix whose imaginary parts flag the parts that
    hold each entry (bit b for parts[b]): the entries of parts[b], in its
    own order, sit at np.flatnonzero(flags & 2**b) of the union."""
    return sum(sp.csr_matrix((np.full(p.nnz, 2.0**b * 1j), p.indices, p.indptr), shape=p.shape)
               for b, p in enumerate(parts))


class _BlockPattern:
    """The CSR pattern of an n x n block matrix whose diagonal blocks have
    the pattern of diag and whose off-diagonal blocks have that of off,
    both _flagged_unions of at most 8 V x V parts.  Row r of block row i
    holds the rows r of the blocks (i, 0), ..., (i, n - 1) in turn;
    indices and indptr are int32 unless there are more entries than int32
    counts.  Of diag and off only their row pointers and flags are kept.
    """

    def __init__(self, diag, off, n):
        self.n = n
        kinds = {True: diag, False: off}
        self.ptr = {kind: P.indptr for kind, P in kinds.items()}
        self.flags = {kind: P.data.imag.astype(np.uint8) for kind, P in kinds.items()}
        V = diag.shape[0]
        row_length = np.diff(diag.indptr) + (n - 1) * np.diff(off.indptr)
        indptr = np.concatenate([[0], np.cumsum(np.tile(row_length, n))])
        index = np.int32 if indptr[-1] <= np.iinfo(np.int32).max else np.int64
        self.indptr = indptr.astype(index)
        self.indices = np.empty(indptr[-1], dtype=index)
        for i, j, at in self.blocks():
            self.indices[at] = kinds[i == j].indices + j * V

    def places(self, kind, bit):
        """The places in a block of this kind (True: a diagonal block) of
        the entries of the part flagged bit, in that part's order."""
        return np.flatnonzero(self.flags[kind] & bit).astype(self.indptr.dtype)

    def blocks(self):
        """(i, j, at) for each block (i, j), at the global place of each
        of its entries."""
        V = len(self.ptr[True]) - 1
        for i in range(self.n):
            start = self.indptr[i * V:(i + 1) * V]
            for j in range(self.n):
                ptr = self.ptr[i == j]
                length = np.diff(ptr)
                at = np.repeat(start - ptr[:-1], length) + np.arange(ptr[-1], dtype=start.dtype)
                yield i, j, at
                start = start + length


def _jacobian_pattern(lap, n):
    """The sparsity pattern of the Jacobians of n fields coupled through
    diagonal reaction terms, with lap acting on each field: the union of
    the block diagonal of n copies of lap and the diagonal of every block.

    Returns (indices, indptr, base, diagonals): the CSR index arrays of
    the pattern, the block Laplacian's values on it (zeros elsewhere), and
    diagonals[i][j], the positions in the value array of the diagonal of
    block (i, j).
    """
    if not lap.has_sorted_indices:
        lap = lap.sorted_indices()
    eye = sp.identity(lap.shape[0], format="csr")
    # diagonal blocks: the identity (flag 1) and lap (flag 2); off-diagonal
    # blocks: the identity
    pattern = _BlockPattern(_flagged_union([eye, lap]), _flagged_union([eye]), n)
    on_lap = pattern.places(True, 2)
    base = np.zeros(len(pattern.indices))
    diagonals = [[] for _ in range(n)]
    for i, j, at in pattern.blocks():
        if i == j:
            base[at[on_lap]] = lap.data
        diagonals[i].append(at[pattern.places(i == j, 1)])
    return pattern.indices, pattern.indptr, base, diagonals


def _jacobian_solver():
    """A solve (J, b) -> J^-1 b by SuperLU for the Jacobians of one Newton
    solve.

    The Jacobians share one sparsity pattern, and COLAMD's fill-reducing
    column order reads only the pattern.  So the first call factors with
    SuperLU's default COLAMD and keeps its column order; each later call
    factors J with its columns already in that order (permc_spec
    "NATURAL") and un-permutes the solution.
    """
    order = None

    def solve(J, b):
        nonlocal order
        J = J.tocsc()
        if order is None:
            lu = spla.splu(J)
            order = np.argsort(lu.perm_c)
            return lu.solve(b)
        x = np.empty_like(b)
        x[order] = spla.splu(J[:, order], permc_spec="NATURAL").solve(b)
        return x

    return solve


def _newton(x0, residual, jacobian, areas, tol, max_iter):
    """Damped Newton with halving line search on the weighted residual norm.

    residual returns the area-weighted equation values R (so the geometric
    equation is R / areas); the norm tracked is the L2 norm of R / areas
    against the area element, sqrt(sum R^2 / areas).  The Jacobians are
    factored by _jacobian_solver, which orders their columns once per solve.
    """

    def norm(R):
        return float(np.sqrt(np.sum(R**2 / areas)))

    solve = _jacobian_solver()
    x = x0.copy()
    R = residual(x)
    nrm = norm(R)
    trace = [[0, nrm, 1.0]]
    for it in range(1, max_iter + 1):
        if nrm <= tol:
            return x, trace, True
        J = jacobian(x)
        try:
            delta = solve(J, -R)
        except Exception as exc:
            raise LinearSolveError(f"Newton linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise LinearSolveError("Newton step is non-finite")
        step = 1.0
        while True:
            x_try = x + step * delta
            R_try = residual(x_try)
            n_try = norm(R_try)
            if n_try < nrm:
                break
            step *= 0.5
            if step < 1e-8:
                raise StagnationError(
                    f"line search stagnated at iteration {it}", trace=trace
                )
        x, R, nrm = x_try, R_try, n_try
        trace.append([it, nrm, step])
    if nrm <= tol:
        return x, trace, True
    raise NonConvergenceError(
        f"Newton did not reach tol {tol:g} in {max_iter} iterations "
        f"(residual {nrm:g})",
        trace=trace,
    )


def _solve(data, tol, max_iter):
    """Damped Newton from x = 0 on the cotangent discretization of the
    curvature equations of data."""
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    eqs = CurvatureEquations(data)
    residual, jacobian = eqs.system("cotangent", data.mesh.vertex_areas)
    x, trace, ok = _newton(np.zeros(len(eqs.areas)), residual, jacobian, eqs.areas, tol,
                           max_iter)
    u, w = eqs.fields(x)
    return GermSolution(u=u, w=w, newton_trace=trace, converged=ok)


def solve_gauss3(data, tol=1e-10, max_iter=30):
    """Solve the scalar curvature equation for u on the given data."""
    return _solve(data, tol, max_iter)


def solve_gauss_ricci4(data, tol=1e-10, max_iter=30):
    """Solve the coupled curvature system for (u, w) on H^4 germ data."""
    # integrating the Ricci equation gives
    # 2 pi l = int e^{2u} (||theta_2||^2 - ||theta_1||^2) dA_h, so l > 0
    # needs theta2, l < 0 needs theta1, and l = 0 both sections or neither
    l = data.L.degree
    has1, has2 = np.max(data.t1) > 0.0, np.max(data.t2) > 0.0
    if not (has2 if l > 0 else has1 if l < 0 else has1 == has2):
        raise InvalidParameterError(
            f"degree {l} has no solution with theta{1 if has1 else 2} the only nonzero "
            "section: l > 0 needs theta2, l < 0 theta1, l = 0 both or neither"
            if has1 or has2 else "zero sections are incompatible with a nonzero degree"
        )
    if not (has1 or has2):
        # w decouples into Delta_h w = rho0, solvable only for l = 0 where
        # w is an arbitrary constant (fixed to 0); u solves the scalar case
        # (the coupled Jacobian is singular here: its ww block is S)
        sol = solve_gauss3(GermData3(data.mesh), tol=tol, max_iter=max_iter)
        sol.w = np.zeros(data.mesh.n_vertices)
        return sol
    return _solve(data, tol, max_iter)


# The polish's Marquardt damping: its normal matrices are N + this |diag N|.
_POLISH_DAMPING = 0.03

# Polish steps after the first solve their normal equations by CG to this
# relative residual, within this many iterations (3-4 are used at r=4).
_PCG_RTOL = 1e-12
_PCG_MAXITER = 25


def _preconditioned_cg(A, rhs, lu):
    """Solve A x = rhs by conjugate gradients preconditioned with the
    factorization of a nearby matrix; A is a matrix or a LinearOperator.
    Returns (x, iterations), with x None when CG did not reach _PCG_RTOL."""
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    M = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    x, info = spla.cg(A, rhs, rtol=_PCG_RTOL, maxiter=_PCG_MAXITER, M=M,
                      callback=count)
    return (x if info == 0 else None), iterations


def _damped_normal_operator(J, aa, damping):
    """The polish's damped normal matrix N + damping (|diag N| + 1e-300),
    N = J^T diag(aa) J, as the operator v -> J^T (aa J v) + d v, without
    forming N.  diag N = sum_i aa_i J_ij^2 is summed over J's entries."""
    weights = np.repeat(aa, np.diff(J.indptr)) * J.data**2
    d = damping * (np.bincount(J.indices, weights=weights, minlength=J.shape[1]) + 1e-300)
    JT = J.T
    return spla.LinearOperator(J.shape, matvec=lambda v: JT @ (aa * (J @ v)) + d * v,
                               dtype=float)


class _PolishNormal:
    """The polish's damped normal matrices on one mesh, for n fields.

    The polish Jacobian is J = L - D (CurvatureEquations.system): L is the
    block diagonal of n copies of the weighted patch-fit Laplacian lap,
    and D holds the reaction terms, block (i, j) diag(df[i][j]).  With
    W = diag(a) on each field,

        N = J^T W J = L^T W L - E - E^T + D^T W D,   E = D^T W L,

    where L^T W L has the blocks Q = lap^T W lap on its diagonal, block
    (i, j) of E is diag(a df[j][i]) lap, and D^T W D is diagonal in each
    block.  Q and the pattern of N (a _BlockPattern) depend on the mesh
    alone and are kept, with the places of lap's entries, of their
    transposes and of the diagonal in each kind of block; matrix(df,
    damping) writes Q, the reaction terms and the damping at those
    places, with no sparse products.

    A diagonal block's pattern is that of Q, lap, lap^T and the identity,
    an off-diagonal block's that of lap, lap^T and the identity: the
    pattern the product J^T W J has when no sum in it cancels.  Stored
    entries that do cancel (sections that vanish at a vertex zero a
    reaction block there) hold zeros, so the pattern, and a band plan
    made from it, serve every J.
    """

    def __init__(self, lap, a, n):
        if not lap.has_sorted_indices:
            lap = lap.sorted_indices()
        self.lap, self.a, self.n = lap, a, n
        V = lap.shape[0]
        # for each entry of lap^T, in its canonical order, the number of the
        # entry of lap it transposes
        number_t = sp.csr_matrix((np.arange(lap.nnz), lap.indices, lap.indptr),
                                 shape=lap.shape).T.tocsr()
        weighted = sp.csr_matrix((np.repeat(a, np.diff(lap.indptr)) * lap.data, lap.indices,
                                  lap.indptr), shape=lap.shape)
        Q = (lap.T @ weighted).tocsr()
        # an off-diagonal block's pattern, flagged (1 diagonal, 2 lap, 4
        # lap^T), and a diagonal block's, with Q's values as real parts
        off = _flagged_union([sp.identity(V, format="csr"), lap, number_t])
        diag = Q + off
        self.pattern = _BlockPattern(diag, off, n)
        self.q = diag.data.real.copy()
        # each kind of block: the places in it of the identity's and lap's
        # entries and of lap's transposed entries
        self.kinds = {}
        for kind in (False, True):
            on_eye, on_lap, on_t = (self.pattern.places(kind, b) for b in (1, 2, 4))
            transposing = np.empty_like(on_t)
            transposing[number_t.data] = on_t
            self.kinds[kind] = on_eye, on_lap, transposing

    def matrix(self, df, damping):
        """N + damping (|diag N| + 1e-300) for the reaction-term diagonals
        df of CurvatureEquations.df, as a CSR matrix on the kept pattern."""
        a, lap, n = self.a, self.lap, self.n
        row_count = np.diff(lap.indptr)
        # a df[i][j] times lap's values, row by row: block (i, j) of E
        # holds scaled[j][i] at lap's places, and block (i, j) of E^T
        # holds scaled[i][j] at their transposes
        scaled = [[np.repeat(a * d, row_count) * lap.data for d in row] for row in df]
        pattern = self.pattern
        data = np.zeros(len(pattern.indices))
        diagonal = []
        for i, j, at in pattern.blocks():
            on_eye, on_lap, on_t = self.kinds[i == j]
            if i == j:
                data[at] = self.q
                diagonal.append(at[on_eye])
            data[at[on_lap]] -= scaled[j][i]
            data[at[on_t]] -= scaled[i][j]
            data[at[on_eye]] += sum(a * df[k][i] * df[k][j] for k in range(n))
        diagonal = np.concatenate(diagonal)
        data[diagonal] += damping * (np.abs(data[diagonal]) + 1e-300)
        size = n * lap.shape[0]
        return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=(size, size))


def polish_solution(data, sol, iterations=4):
    """Damped collocation polish of a converged solution for pointwise
    diagnostics.

    The finite-element fields carry small grid-scale kinks at irregular
    vertices, because the lumped cotangent Laplacian is only weakly
    consistent there; finite-difference second derivatives of those fields
    then stall at O(1) locally.  This runs a few damped Gauss-Newton steps
    on the area-weighted least-squares collocation residual of the
    equations, measured with the pointwise-consistent patch-fit Laplacian.
    The damping (Marquardt scaling of the normal matrix) keeps the
    near-neutral rough modes of the fit operator unexcited, so the steps
    remove the kinks without absorbing rough truncation error into the
    fields.  The corrected fields differ from the originals by O(h^2) and
    are stored on the solution as u_smooth / w_smooth; the original fields
    are untouched.

    The damped normal matrix N = J^T W J + _POLISH_DAMPING diag|N| is symmetric
    positive definite.  Between steps only the diagonal reaction terms of
    the Jacobian J move, by O(h^2), so N is formed and factored once, as a
    band in reverse Cuthill-McKee order by factor_hpd, at the first step.
    N is formed without sparse products, on the mesh's normal pattern
    (_PolishNormal), and factored with that pattern's band plan, made
    from the first N; both are kept on the mesh, per field count.  Each later step solves its own
    normal equations by conjugate gradients preconditioned with that
    factorization, applying N as v -> J^T W J v + damping |diag N| v
    without forming it.  When CG does not reach its tolerance the current
    N is formed, factored and solved directly, and its factorization
    preconditions the remaining steps.  sol.polish records each step
    (weighted collocation residual before and after, accepted line-search
    fraction, CG iterations, 0 for a direct solve), the number of
    factorizations and the storage of each (factor_nnz, the band's
    entries, (kd + 1) * n for half-bandwidth kd and size n).
    """
    mesh = data.mesh
    eqs = CurvatureEquations(data)
    resid, jac = eqs.system("patch_fit", 1.0)
    x = np.concatenate([sol.u, sol.w] if eqs.coupled else [sol.u])
    aa, n = eqs.areas, eqs.n
    normal = mesh.memo(("polish_normal", n), lambda: _PolishNormal(
        _LAPLACIANS["patch_fit"](mesh), mesh.vertex_areas, n))

    def wnorm(R):
        return float(np.sqrt(np.sum(aa * R**2)))

    lu = None
    steps = []
    factor_nnz = []
    R = resid(x)
    for _ in range(iterations):
        J = jac(x)
        rhs = -(J.T @ (aa * R))
        step = None
        if lu is not None:
            step, cg_iterations = _preconditioned_cg(
                _damped_normal_operator(J, aa, _POLISH_DAMPING), rhs, lu)
        if step is None:
            lu = None  # release the old factors before making new ones
            N = normal.matrix(eqs.df(*eqs.fields(x)), _POLISH_DAMPING)
            plan = mesh.memo(("polish_band_plan", n), lambda: band_plan(N))
            try:
                lu = factor_hpd(N, plan)
                step = lu.solve(rhs)
            except Exception as exc:
                raise LinearSolveError(f"polish solve failed: {exc}") from exc
            factor_nnz.append(lu.nnz)
            cg_iterations = 0
        base = wnorm(R)
        after = base
        accepted = 0.0
        frac = 1.0
        while frac > 1e-4:
            x_try = x + frac * step
            R_try = resid(x_try)
            n_try = wnorm(R_try)
            if n_try < base:
                x, R, after, accepted = x_try, R_try, n_try, frac
                break
            frac *= 0.5
        steps.append({
            "residual_before": base,
            "residual_after": after,
            "step_fraction": accepted,
            "cg_iterations": cg_iterations,
        })
    sol.polish = {"steps": steps, "factorizations": len(factor_nnz),
                  "factor_nnz": factor_nnz}
    sol.u_smooth, sol.w_smooth = eqs.fields(x)
    return sol
