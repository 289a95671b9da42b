"""Elliptic solvers for the induced geometry of equivariant minimal surfaces.

Conformal gauge: the induced metric is gamma = e^{2u} h with h the
background hyperbolic metric.  Writing t_q, t_1, t_2 for GermData.t[n],
n = 0, 1, -1: the h-norm density |f|^2 (2/lambda^2)^2 of the section of
K^2 L^n with dz^2 coefficient f, the curvature equation kappa_gamma =
-1 - ||II^{2,0}||^2 becomes the semilinear scalar equation

    Delta_h u = -1 + e^{2u} + e^{-2u} t_q                       (target H^3)

and, for target H^4 with W = L + L^{-1} and log-scale w of the metric on
L, the coupled system

    Delta_h u = -1 + e^{2u} + e^{-2u} (e^{2w} t_1 + e^{-2w} t_2)
    Delta_h w = rho_0 - e^{-2u} (e^{-2w} t_2 - e^{2w} t_1)

with rho_0 = l / (2(g-1)) the curvature density of L.  The squared
gamma-norms are then ||theta_1||^2 = e^{-4u} e^{2w} t_1 and
||theta_2||^2 = e^{-4u} e^{-2w} t_2, and the normal curvature satisfies
kappa_perp = e^{-2u}(rho_0 - Delta_h w) = ||theta_2||^2 - ||theta_1||^2.

Both systems are solved by damped Newton iteration with a backtracking
(halving) line search on the area-weighted residual norm, started from
the constant state that solves the integrated equations (_constant_start),
or from u = w = 0 when there is none.  Each Newton step is a GMRES solve
preconditioned with one band Cholesky factor of the cotangent Laplacian
plus a positive diagonal (_gmres_step); for the coupled system it runs
in the rotated fields u - w and u + w, in which both diagonal blocks of
the Jacobian are that one matrix.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import bundles, moduli
from .errors import (
    InvalidParameterError,
    LinearSolveError,
    NonConvergenceError,
    ShapeError,
    StagnationError,
)
from .factor import HermitianPattern, factor_hpd
from .hypmesh import laplacian

__all__ = [
    "GermData",
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
    return np.abs(np.asarray(values)) ** 2 * bundles.tensor_weight(mesh.vertices, 2)


class GermData:
    """Input data for a minimal surface in hyperbolic 3- or 4-space: for
    each power n of the target, the holomorphic section of K^2 L^n or None
    (sections[n]) and its h-norm density (t[n], zero without a section).
    The powers are (0,) when L is None (3-space: the Hopf differential q)
    and (1, -1) otherwise (theta1, theta2), with |deg L| < 2(g-1).  Each
    given section is filed under its bundle_type (2, n); t_field, for
    3-space only, replaces t[0]."""

    def __init__(self, mesh, L=None, sections=(), t_field=None):
        self.mesh = mesh
        self.L = L
        if L is not None and not moduli.is_admissible(mesh.genus, L.degree):
            raise InvalidParameterError(f"degree {L.degree} outside the admissible window "
                                        f"|l| < {2 * (mesh.genus - 1)}")
        self.sections = dict.fromkeys((0,) if L is None else (1, -1))
        for sec in sections:
            m, n = sec.bundle_type
            if m != 2 or n not in self.sections:
                raise InvalidParameterError(f"a section of K^{m} L^{n} is not data of the "
                                            f"target, of K^2 L^n for n in {tuple(self.sections)}")
            if self.sections[n] is not None:
                raise InvalidParameterError(f"a second section of K^2 L^{n}")
            self.sections[n] = sec
        self.t = {n: np.zeros(mesh.n_vertices) if sec is None else t_density(mesh, sec.values)
                  for n, sec in self.sections.items()}
        if t_field is not None:
            self.t[0] = np.asarray(t_field, dtype=float)
            if self.t[0].shape[0] != mesh.n_vertices:
                raise ShapeError("t field length does not match the mesh")

    @cached_property
    def dbar_norms(self):
        """Each power n's relative dbar norm of the values of its section of
        K^2 L^n (0 without one), computed on first use."""
        return {n: 0.0 if sec is None else float(bundles.relative_dbar_norm(
                    self.mesh, 2, bundles.dbar_operator(self.mesh, self.L, 2, n)(sec.values),
                    sec.values))
                for n, sec in self.sections.items()}


class GermSolution:
    """Solved conformal factor(s).

    u and w come from the cotangent-Laplacian Newton solve and make the
    integrated identities exact.  u_smooth and w_smooth, when present, are
    the collocation-polished representatives used for derivative-based
    pointwise diagnostics, and polish is the record of how they were
    obtained (see polish_solution).
    """

    def __init__(self, u, w=None, newton_trace=None, newton_steps=None, converged=False,
                 start=None):
        self.u = u
        self.w = w
        # the constant Newton started from, {"u": a} or {"u": a, "w": b};
        # None for the zero start
        self.start = start
        self.newton_trace = newton_trace or []
        # each Newton step's linear solve: its GMRES iterations and the
        # relative residual GMRES reached (_gmres_step)
        self.newton_steps = newton_steps or []
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

    The state x is u for 3-space GermData (L None) and (u, w) stacked for
    4-space GermData.  The reaction terms are written through the squared
    gamma-norms of the second fundamental form:

        f_u = -1 + e^{2u} (1 + ||II||^2)
        f_w = rho_0 - e^{2u} (||theta_2||^2 - ||theta_1||^2)

    so that the curvatures kappa_gamma = e^{-2u}(-1 - Delta_h u) and
    kappa_perp = e^{-2u}(rho_0 - Delta_h w) satisfy the Gauss equation
    kappa_gamma = -1 - ||II||^2 and the Ricci equation
    kappa_perp = ||theta_2||^2 - ||theta_1||^2 exactly at a solution.

    t, when given, replaces data.t: the densities of each power n, of any
    one length, that f and df read.
    """

    def __init__(self, data, t=None):
        self.data = data
        self.t = data.t if t is None else t
        self.coupled = data.L is not None
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
            return em4u * self.t[0], None, None
        th1 = em4u * _exp(2.0 * w) * self.t[1]
        th2 = em4u * _exp(-2.0 * w) * self.t[-1]
        return th1 + th2, th1, th2

    def curvatures(self, u, lap_u, lap_w=None):
        """(kappa_gamma, kappa_perp) from the Laplacians of the fields;
        kappa_perp is None for the scalar equation."""
        em2u = _exp(-2.0 * u)
        kappa_gamma = em2u * (-1.0 - lap_u)
        if not self.coupled:
            return kappa_gamma, None
        return kappa_gamma, em2u * (self.data.L.curvature_density - lap_w)

    def f(self, u, w=None):
        """Reaction terms [f_u] or [f_u, f_w]."""
        ii, th1, th2 = self.norms(u, w)
        e2u = _exp(2.0 * u)
        f_u = -1.0 + e2u * (1.0 + ii)
        if not self.coupled:
            return [f_u]
        return [f_u, self.data.L.curvature_density - e2u * (th2 - th1)]

    def df(self, u, w=None):
        """Diagonals of the Jacobian blocks: df[i][j] = d f_i / d x_j."""
        ii, th1, th2 = self.norms(u, w)
        e2u2 = 2.0 * _exp(2.0 * u)
        d_uu = e2u2 * (1.0 - ii)
        if not self.coupled:
            return [[d_uu]]
        kp = th2 - th1
        return [[d_uu, -e2u2 * kp], [e2u2 * kp, e2u2 * ii]]

    def residual(self, lap, weight):
        """Residual x -> lap x - weight f(x), the Laplacian matrix lap acting
        on each field, as a callable: Newton's is laplacian(mesh), the
        polish's the weighted patch-fit Laplacian."""

        def residual(x):
            xs = self.fields(x)
            return np.concatenate(
                [lap @ y - weight * fy for y, fy in zip(xs, self.f(*xs))]
            )

        return residual

    def system(self, lap, weight):
        """The residual of residual(lap, weight) and its Jacobian
        x -> CSR matrix, as a pair of callables: block (i, j) of the
        Jacobian is lap - diag(weight df[i][i]) on the diagonal and
        -diag(weight df[i][j]) off it, assembled by scipy.sparse.bmat.
        Newton and the polish apply the Jacobian field by field without
        forming it; this matrix is the reference they are checked with.
        """

        def jacobian(x):
            D = [[sp.diags(weight * d) for d in row] for row in self.df(*self.fields(x))]
            return sp.bmat([[lap - D_ij if i == j else -D_ij for j, D_ij in enumerate(row)]
                            for i, row in enumerate(D)], format="csr")

        return self.residual(lap, weight), jacobian


def _flagged_union(parts):
    """The union of the patterns of the canonical CSR matrices parts, at
    most 8, as a canonical uint8 CSR matrix whose values flag the parts
    that hold each entry (bit b for parts[b]): the entries of parts[b], in
    its own order, sit at np.flatnonzero(flags & 2**b)."""
    flags = [sp.csr_matrix((np.full(p.nnz, 2**b, dtype=np.uint8), p.indices, p.indptr),
                           shape=p.shape) for b, p in enumerate(parts)]
    return sum(flags[1:], flags[0])


def _newton(x0, residual, solve_step, areas, tol, max_iter, steps=None):
    """Damped Newton with halving line search on the weighted residual norm.

    residual returns the area-weighted equation values R (so the geometric
    equation is R / areas); the norm tracked is the L2 norm of R / areas
    against the area element, sqrt(sum R^2 / areas), inf when it
    overflows: the start's then ends the solve, a trial state's is
    rejected.  solve_step(x, R) returns the Newton step at the state x of
    residual R, a solution, exact or inexact, of J(x) delta = -R; when it
    raises, or returns a non-finite step, the solve raises
    LinearSolveError with the trace so far.  steps, when given, is the
    list to which solve_step appends a record of each linear solve; every
    error the solve raises carries it as newton_steps, besides the trace.
    """
    payload = {} if steps is None else {"newton_steps": steps}

    def norm(R):
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.sum(R**2 / areas)))

    x = x0.copy()
    R = residual(x)
    nrm = norm(R)
    if not np.isfinite(nrm):
        raise NonConvergenceError("the starting residual's norm overflows a double", **payload)
    trace = [[0, nrm, 1.0]]
    for it in range(1, max_iter + 1):
        if nrm <= tol:
            return x, trace, True
        try:
            delta = solve_step(x, R)
        except Exception as exc:
            raise LinearSolveError(f"Newton linear solve failed: {exc}", trace=trace,
                                   **payload) from exc
        if not np.all(np.isfinite(delta)):
            raise LinearSolveError("Newton step is non-finite", trace=trace, **payload)
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
                    f"line search stagnated at iteration {it}", trace=trace, **payload
                )
        x, R, nrm = x_try, R_try, n_try
        trace.append([it, nrm, step])
    if nrm <= tol:
        return x, trace, True
    raise NonConvergenceError(
        f"Newton did not reach tol {tol:g} in {max_iter} iterations "
        f"(residual {nrm:g})",
        trace=trace,
        **payload,
    )


# Each Newton step solves its linear system by GMRES to this relative
# residual, restarted every _GMRES_RESTART iterations, for at most
# _GMRES_MAXITER restart cycles (rh4 data take 5-10 iterations per step,
# rh3 data 1 while ||II||^2 <= 1, and rh3 data past the fold of the
# solution branch up to 17 before the line search stagnates).
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 50
_GMRES_MAXITER = 4


def _gmres_step(eqs, records):
    """The Newton step of the cotangent discretization of eqs, as the
    solve_step(x, R) of _newton; each call appends to records its GMRES
    iterations and the relative residual GMRES reached.

    The Jacobian is J = S - A df: S the cotangent Laplacian on each field
    and A df the reaction terms, diagonal in each block (vertex areas A,
    CurvatureEquations.df).  For 3-space the step solves -J delta = R by
    GMRES, preconditioned with the band Cholesky factor of
    Y = -S + diag(A |df_uu|), which is -J itself where df_uu >= 0, that is
    where ||II||^2 <= 1; there GMRES converges in one iteration.  For
    4-space the coupling of J is skew, d f_u / d w = -d f_w / d u, so in
    the rotated fields alpha = u - w, beta = u + w both diagonal blocks of
    -J are Y = -S + diag(A e^{2u}), symmetric positive definite at every
    state, and the off-diagonal blocks are diagonal:

        -J = [[Y, diag(A e^{2u} (1 - 4 ||theta_2||^2))],
              [diag(A e^{2u} (1 - 4 ||theta_1||^2)), Y]]

    in (alpha, beta).  GMRES solves that system, preconditioned by its
    block lower triangle, which takes two solves with one factor of Y.
    Y is factored once per step, in double precision, by factor_hpd on
    the pattern of S, which the mesh keeps with its band plan.  GMRES runs
    to the relative residual _GMRES_RTOL, and its iterate is the step even
    when it does not get there within its cap: _newton's residual test
    and line search judge the step.
    """
    mesh = eqs.data.mesh
    lap = laplacian(mesh)
    # lap stores its diagonal, so its pattern holds Y's
    pattern = mesh.memo("newton_pattern", lambda: HermitianPattern(lap.indptr, lap.indices))
    a, n = mesh.vertex_areas, eqs.n
    shape = (n * mesh.n_vertices,) * 2

    def step(x, R):
        df = eqs.df(*eqs.fields(x))
        if eqs.coupled:
            # df[1][0] = -df[0][1]: the rotated blocks need only df[0][1]
            (d_uu, d_uw), (_, d_ww) = df
            mean, half = 0.5 * (d_uu + d_ww), 0.5 * (d_uu - d_ww)
            c = [[a * mean, a * (half + d_uw)], [a * (half - d_uw), a * mean]]
            R_u, R_w = np.split(R, 2)
            b = np.concatenate([R_u - R_w, R_u + R_w])
        else:
            c = [[a * df[0][0]]]
            b = R
        values = -lap.data
        values[pattern.diagonal] += np.abs(c[0][0])
        lu = factor_hpd(pattern, values)

        def matvec(z):
            zs = np.split(z, n)
            return np.concatenate([-(lap @ z_i) + sum(c_ij * z_j for c_ij, z_j in zip(row, zs))
                                   for z_i, row in zip(zs, c)])

        def block_lower(r):
            r_a, r_b = np.split(r, 2)
            p_a = lu.solve(r_a)
            return np.concatenate([p_a, lu.solve(r_b - c[1][0] * p_a)])

        A = spla.LinearOperator(shape, matvec=matvec, dtype=float)
        M = spla.LinearOperator(shape, matvec=block_lower if eqs.coupled else lu.solve,
                                dtype=float)
        # gmres hands the residual norm to the callback once per iteration
        norms = []
        z, _ = spla.gmres(A, b, rtol=_GMRES_RTOL, atol=0.0, restart=_GMRES_RESTART,
                          maxiter=_GMRES_MAXITER, M=M, callback=norms.append,
                          callback_type="pr_norm")
        records.append({"gmres_iterations": len(norms),
                        "relative_residual": float(np.linalg.norm(b - A @ z)
                                                   / np.linalg.norm(b))})
        if not eqs.coupled:
            return z
        z_a, z_b = np.split(z, 2)
        return np.concatenate([0.5 * (z_a + z_b), 0.5 * (z_b - z_a)])

    return step


# The constant start's scalar Newton: its tolerance on the norm of f, and
# its iteration limit.
_START_TOL = 1e-13
_START_MAX_ITER = 50


def _constant_start(eqs):
    """The constant state, one value per field, that solves the reaction
    equations f = 0 at the area-mean densities sum A t / sum A; None when
    the damped Newton from 0 finds none.

    f is linear in the densities and the cotangent Laplacian's columns
    sum to zero, so at a constant state each field's summed Newton
    residual is -sum(A) f at the means: these are the discrete integrated
    Gauss and Ricci equations over constant states.  For 3-space the root
    is e^{2a} = (1 + sqrt(1 - 4 t)) / 2, which exists iff the mean density
    t <= 1/4.  The means cost O(V) once, each Newton step O(1): f and df
    run on one-element arrays, and the n x n Jacobian is solved densely.
    """
    a = eqs.data.mesh.vertex_areas
    mean = CurvatureEquations(eqs.data, {n: np.array([a @ t / a.sum()])
                                         for n, t in eqs.t.items()})
    try:
        x, _, _ = _newton(
            np.zeros(eqs.n), lambda x: np.concatenate(mean.f(*x[:, None])),
            lambda x, R: np.linalg.solve(np.array(mean.df(*x[:, None]))[..., 0], -R),
            np.ones(eqs.n), _START_TOL, _START_MAX_ITER)
    except (LinearSolveError, NonConvergenceError):
        return None
    return x


def _solve(data, tol, max_iter):
    """Damped Newton on the cotangent discretization of the curvature
    equations of data, from their constant solution (_constant_start) or,
    when there is none, from x = 0."""
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    eqs = CurvatureEquations(data)
    residual = eqs.residual(laplacian(data.mesh), data.mesh.vertex_areas)
    steps = []
    c = _constant_start(eqs)
    x0 = np.zeros(len(eqs.areas)) if c is None else np.repeat(c, data.mesh.n_vertices)
    x, trace, ok = _newton(x0, residual, _gmres_step(eqs, steps), eqs.areas, tol, max_iter,
                           steps)
    u, w = eqs.fields(x)
    start = None if c is None else dict(zip("uw", c.tolist()))
    return GermSolution(u=u, w=w, newton_trace=trace, newton_steps=steps, converged=ok,
                        start=start)


def solve_gauss3(data, tol=1e-10, max_iter=30):
    """Solve the scalar curvature equation for u on the given data."""
    return _solve(data, tol, max_iter)


def solve_gauss_ricci4(data, tol=1e-10, max_iter=30):
    """Solve the coupled curvature system for (u, w) on H^4 germ data."""
    # integrating the Ricci equation gives
    # 2 pi l = int e^{2u} (||theta_2||^2 - ||theta_1||^2) dA_h, so l > 0
    # needs theta2, l < 0 needs theta1, and l = 0 both sections or neither
    l = data.L.degree
    has1, has2 = np.max(data.t[1]) > 0.0, np.max(data.t[-1]) > 0.0
    if not (has2 if l > 0 else has1 if l < 0 else has1 == has2):
        raise InvalidParameterError(
            f"degree {l} has no solution with theta{1 if has1 else 2} the only nonzero "
            "section: l > 0 needs theta2, l < 0 theta1, l = 0 both or neither"
            if has1 or has2 else "zero sections are incompatible with a nonzero degree"
        )
    if not (has1 or has2):
        # w decouples into Delta_h w = L's curvature density, solvable only
        # for l = 0 where w is an arbitrary constant (fixed to 0); u solves
        # the scalar case (the coupled Jacobian is singular here: its ww
        # block is S)
        sol = solve_gauss3(GermData(data.mesh), tol=tol, max_iter=max_iter)
        sol.w = np.zeros(data.mesh.n_vertices)
        sol.start["w"] = 0.0
        return sol
    return _solve(data, tol, max_iter)


# The polish's Marquardt damping: its normal matrices are N + this |diag N|.
_POLISH_DAMPING = 0.03

# Polish steps solve their normal equations by CG, preconditioned with a
# single-precision factor of each field's block, to this relative residual
# within this many iterations (rh4 data take up to 11, 45, 20, 11-14, 7 and
# 5 per step at r=1, 2, 3, 4, 5 and 6; rh3 data up to 5).
_PCG_RTOL = 1e-12
_PCG_MAXITER = 100


def _pcg(apply, b, precondition):
    """Preconditioned conjugate gradients for apply(x) = b from x = 0,
    iteration by iteration as scipy.sparse.linalg.cg runs them: each
    iteration starts by testing ||r|| < _PCG_RTOL ||b||.  Returns x and
    the iterations run: 0 with x = 0 for a zero b, and _PCG_MAXITER when
    they end short of the tolerance."""
    x = np.zeros_like(b)
    bound = _PCG_RTOL * np.linalg.norm(b)
    if bound == 0.0:
        return x, 0
    r = b.copy()
    for it in range(_PCG_MAXITER):
        if np.linalg.norm(r) < bound:
            return x, it
        z = precondition(r)
        rho = np.dot(r, z)
        p = z if it == 0 else z + (rho / rho_prev) * p
        q = apply(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, _PCG_MAXITER


class _PolishNormal:
    """The polish's damped normal matrices on one mesh: their diagonal
    blocks, one V x V block per field, their diagonals, and the Jacobian
    products that apply them.

    The polish Jacobian is J = L - D (CurvatureEquations.system): L is the
    block diagonal of n copies of the weighted patch-fit Laplacian lap,
    and D holds the reaction terms, block (i, j) diag(df[i][j]).  With
    W = diag(a) on each field,

        N = J^T W J = L^T W L - E - E^T + D^T W D,   E = D^T W L,

    so N's diagonal block i is

        Q - diag(a df[i][i]) lap - lap^T diag(a df[i][i]) + diag(sum_k a df[k][i]^2),

    Q = lap^T W lap.  The pattern of a block, the union of those of lap,
    lap^T and Q, which holds the diagonal, depends on the mesh alone and
    is kept, with Q's values on it and the places in it of the entries of
    lap and lap^T; block(df, i, damping) starts from Q and writes the
    reaction terms and the damping at those places and at the diagonal's,
    with no sparse products, and returns the values.  pattern is the
    blocks' HermitianPattern, on which every field's block is factored; it
    makes its band plan at the first factorization, once the arrays that
    built the pattern are freed.  The pattern is that of the product when
    no sum in it cancels; stored entries that do cancel hold zeros, so the
    pattern, and a band plan made from it, serve every J.  diagonal(df, j)
    is the diagonal of block j in closed form, from diag Q, read at the
    pattern's diagonal, and the diagonal of lap, also kept; jacobian and
    jacobian_t apply J and J^T field by field, the latter through lap_t, a
    CSC view of lap that copies nothing, so no step forms J.
    """

    def __init__(self, lap, a):
        if not lap.has_sorted_indices:
            lap = lap.sorted_indices()
        self.lap, self.a = lap, a
        # for each entry of lap^T, in its canonical order, the number of the
        # entry of lap it transposes
        number_t = sp.csr_matrix((np.arange(lap.nnz), lap.indices, lap.indptr),
                                 shape=lap.shape).T.tocsr()
        weighted = sp.csr_matrix((np.repeat(a, np.diff(lap.indptr)) * lap.data, lap.indices,
                                  lap.indptr), shape=lap.shape)
        Q = (lap.T @ weighted).tocsr()
        # canonical, as every part of a flagged union is
        Q.sum_duplicates()
        self.lap_diagonal = lap.diagonal()
        # a CSC view of lap, sharing its arrays; made once, as each .T
        # builds and checks a new matrix object
        self.lap_t = lap.T
        # lap stores every diagonal entry and Q's diagonal is positive, so
        # the union holds the diagonal
        union = _flagged_union([lap, number_t, Q])
        self.pattern = HermitianPattern(union.indptr, union.indices)
        # the places of lap's entries and of lap's transposed entries, in
        # the order of the entries of lap, and Q's values at their places
        self.on_lap, on_t, on_q = (np.flatnonzero(union.data & 2**b) for b in range(3))
        self.on_t = np.empty_like(on_t)
        self.on_t[number_t.data] = on_t
        self.q = np.zeros(len(union.indices))
        self.q[on_q] = Q.data

    def block(self, df, i, damping):
        """Diagonal block i of N + damping (|diag N| + 1e-300) for the
        reaction-term diagonals df of CurvatureEquations.df, as its values
        on the kept pattern."""
        a, lap = self.a, self.lap
        # a df[i][i] times lap's values, row by row: E's block (i, i) at
        # lap's places and E^T's at their transposes
        scaled = np.repeat(a * df[i][i], np.diff(lap.indptr)) * lap.data
        data = self.q.copy()
        data[self.on_lap] -= scaled
        data[self.on_t] -= scaled
        diagonal = self.pattern.diagonal
        data[diagonal] += sum(a * row[i] * row[i] for row in df)
        data[diagonal] += damping * (np.abs(data[diagonal]) + 1e-300)
        return data

    def diagonal(self, df, j):
        """diag N of field j, in closed form: diag Q - 2 a lap_jj df[j][j]
        + sum_i a df[i][j]^2, lap_jj the diagonal of lap."""
        a = self.a
        return (self.q[self.pattern.diagonal] - 2.0 * a * self.lap_diagonal * df[j][j]
                + sum(a * row[j] * row[j] for row in df))

    def jacobian(self, df, v):
        """J v, field by field, for the fields v: lap v_i - sum_j df[i][j] v_j."""
        return [self.lap @ v_i - sum(d * v_j for d, v_j in zip(row, v))
                for v_i, row in zip(v, df)]

    def jacobian_t(self, df, y):
        """J^T y, field by field: lap^T y_j - sum_i df[i][j] y_i."""
        return [self.lap_t @ y_j - sum(row[j] * y_i for row, y_i in zip(df, y))
                for j, y_j in enumerate(y)]


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
    the Jacobian J move, by O(h^2), so N's diagonal block of each field is
    formed and factored once, at the first step, in single precision, as a
    band in reverse Cuthill-McKee order by factor_hpd; the blocks are
    formed one at a time, without sparse products, at the stored places of
    the mesh's one block pattern (_PolishNormal), which also keeps the band
    plan both fields are factored with, and is kept on the mesh.  The
    damping bounds a block's diagonally scaled condition number by about
    (rho + damping) / damping, rho the largest eigenvalue of the scaled
    J^T W J, which keeps the float32 Cholesky far from breakdown.  Every
    step, the first included, solves its own normal equations on the whole
    coupled N in double precision by conjugate gradients (_pcg),
    preconditioned block-Jacobi with those factors, applying N as
    v -> J^T W J v + damping |diag N| v field by field, with diag N in
    closed form, so no step forms J or N (_PolishNormal).  The (u, w)
    coupling blocks of N are small beside its diagonal blocks, and vanish
    for proportional sections at l = 0, so the factors precondition N well:
    CG takes a few times the iterations a factor of the coupled N would
    need (see _PCG_MAXITER).

    When a float32 factorization fails, or CG does not reach _PCG_RTOL
    within _PCG_MAXITER iterations, the polish raises LinearSolveError,
    with the payload step (the failed step's number, from 1),
    cg_iterations (0 when a factorization failed) and
    relative_residual, the relative residual CG reached (1.0 when it did
    not run).  sol.polish records each step (weighted collocation residual
    before and after, accepted line-search fraction, CG iterations) and
    the factors' storage, factor_nnz: the sum over the fields of their
    bands' entries, (kd + 1) * V each for half-bandwidth kd and V
    vertices.
    """
    mesh = data.mesh
    eqs = CurvatureEquations(data)
    lap = mesh.fd_laplacian_matrix(weighted=True)
    resid = eqs.residual(lap, 1.0)
    x = np.concatenate([sol.u, sol.w] if eqs.coupled else [sol.u])
    aa, a, n = eqs.areas, mesh.vertex_areas, eqs.n
    normal = mesh.memo("polish_normal", lambda: _PolishNormal(lap, a))

    def wnorm(R):
        return float(np.sqrt(np.sum(aa * R**2)))

    df = eqs.df(*eqs.fields(x))
    try:
        lus = [factor_hpd(normal.pattern, normal.block(df, i, _POLISH_DAMPING).astype(np.float32))
               for i in range(n)]
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"polish solve failed: {exc}", step=1, cg_iterations=0,
                               relative_residual=1.0) from exc

    def block_jacobi(r):
        return np.concatenate([lu.solve(part) for lu, part in zip(lus, r.reshape(n, -1))])

    steps = []
    R = resid(x)
    for k in range(1, iterations + 1):
        df = eqs.df(*eqs.fields(x))
        d = _POLISH_DAMPING * (np.concatenate([normal.diagonal(df, j) for j in range(n)])
                               + 1e-300)

        def apply(v):
            Jv = normal.jacobian(df, v.reshape(n, -1))
            return np.concatenate(normal.jacobian_t(df, [a * r for r in Jv])) + d * v

        rhs = -np.concatenate(normal.jacobian_t(df, [a * r for r in R.reshape(n, -1)]))
        step, cg_iterations = _pcg(apply, rhs, block_jacobi)
        if cg_iterations == _PCG_MAXITER:
            reached = float(np.linalg.norm(rhs - apply(step)) / np.linalg.norm(rhs))
            raise LinearSolveError(
                f"polish solve failed: CG reached relative residual {reached:.3g}, not "
                f"{_PCG_RTOL:g}, in {cg_iterations} iterations at step {k}",
                step=k, cg_iterations=cg_iterations, relative_residual=reached)
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
    sol.polish = {"steps": steps, "factor_nnz": sum(lu.nnz for lu in lus)}
    sol.u_smooth, sol.w_smooth = eqs.fields(x)
    return sol
