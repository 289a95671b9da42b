"""Newton solvers for the curvature equations."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eqmin import bundles, factor, germsolve, hypmesh
from eqmin.errors import InvalidParameterError, LinearSolveError
from conftest import make_section


def test_zero_data_gives_flat_solution(mesh_r3):
    data = germsolve.GermData3(mesh_r3)
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.u)) < 1e-10


def test_manufactured_constant_recovered(mesh_r3):
    u_star = 0.1
    t = germsolve.manufactured_forcing(mesh_r3, u_star)
    data = germsolve.GermData3(mesh_r3, t_field=t)
    sol = germsolve.solve_gauss3(data, tol=1e-12)
    assert sol.converged
    assert np.max(np.abs(sol.u - u_star)) < 1e-10
    assert len(sol.newton_trace) - 1 <= 12


def test_newton_residual_decreases(mesh_r3, basis_K2_r3):
    data = germsolve.GermData3(mesh_r3, q=basis_K2_r3[0])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    norms = [step[1] for step in sol.newton_trace]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_solution_negative_where_data_vanishes(mesh_r3, basis_K2_r3):
    # adding second-fundamental-form data only shrinks the conformal factor
    data = germsolve.GermData3(mesh_r3, q=basis_K2_r3[0])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    assert np.max(sol.u) < 1e-8


@pytest.mark.parametrize("solve", [germsolve.solve_gauss3, germsolve.solve_gauss_ricci4],
                         ids=["solve_gauss3", "solve_gauss_ricci4"])
def test_invalid_tolerance_rejected(mesh_r3, basis_K2_r3, solve):
    data = (germsolve.GermData3(mesh_r3) if solve is germsolve.solve_gauss3
            else _rh4_r3_data(mesh_r3, basis_K2_r3))
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        solve(data, tol=0.0)


def test_degree_window_enforced(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 2)
    with pytest.raises(InvalidParameterError):
        germsolve.GermData4(mesh_r3, L, None, None)


def test_zero_sections_need_degree_zero(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 1)
    data = germsolve.GermData4(mesh_r3, L, None, None)
    with pytest.raises(InvalidParameterError):
        germsolve.solve_gauss_ricci4(data)


def test_coupled_solver_zero_data(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    data = germsolve.GermData4(mesh_r3, L, None, None)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.u)) < 1e-10
    assert np.max(np.abs(sol.w)) < 1e-12


def test_coupled_solver_balances_ricci(mesh_r3, basis_K2_r3):
    # degree 0 with both sections: the log-scale w stays bounded and the
    # integral of e^{-2u} Q against the area element vanishes with rho0
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(mesh_r3, L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(mesh_r3, L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData4(mesh_r3, L, theta1, theta2)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.w)) < 3.0
    a = mesh_r3.vertex_areas
    Q = np.exp(-2.0 * sol.w) * data.t2 - np.exp(2.0 * sol.w) * data.t1
    kp_int = float(np.sum(a * np.exp(-2.0 * sol.u) * Q))
    assert abs(kp_int) < 1e-6


def test_polish_stays_close_and_reduces_collocation(mesh_r3, basis_K2_r3):
    data = germsolve.GermData3(mesh_r3, q=basis_K2_r3[0])
    sol = germsolve.solve_gauss3(data, tol=1e-11)
    germsolve.polish_solution(data, sol)
    assert sol.u_smooth is not None
    assert np.max(np.abs(sol.u_smooth - sol.u)) < 0.05
    C = mesh_r3.fd_laplacian_matrix(weighted=True)

    def colloc(u):
        r = C @ u - (-1.0 + np.exp(2.0 * u) + np.exp(-2.0 * u) * data.t)
        return float(np.sqrt(np.sum(mesh_r3.vertex_areas * r**2)))

    assert colloc(sol.u_smooth) < 0.5 * colloc(sol.u)


@pytest.mark.parametrize("target", ["rh3", "rh4"])
def test_system_jacobian_matches_finite_differences(mesh_r2, target):
    # arbitrary positive data and fields of size ~0.3: the equations do not
    # need holomorphic data, and a sign error in any block shows here
    rng = np.random.default_rng(7)
    V = mesh_r2.n_vertices

    def section(weight):
        vals = rng.standard_normal(V) + 1j * rng.standard_normal(V)
        return bundles.DiscreteSection((2, weight), 0.5 * vals, degree_l=1)

    if target == "rh3":
        data = germsolve.GermData3(mesh_r2, q=section(0))
    else:
        L = bundles.make_line_bundle(mesh_r2, 1)
        data = germsolve.GermData4(mesh_r2, L, section(1), section(-1))
    eqs = germsolve.CurvatureEquations(data)
    residual, jacobian = eqs.system("cotangent", mesh_r2.vertex_areas)
    x = 0.3 * rng.standard_normal(2 * V if eqs.coupled else V)
    J = jacobian(x)
    assert J.format == "csr"
    h = 1e-6
    J_fd = np.empty(J.shape)
    for k in range(len(x)):
        e = np.zeros_like(x)
        e[k] = h
        J_fd[:, k] = (residual(x + e) - residual(x - e)) / (2.0 * h)
    assert np.max(np.abs(J.toarray() - J_fd)) < 1e-6 * np.max(np.abs(J_fd))


def _random_data(mesh, target, rng, vanish=None):
    """Arbitrary data (the equations need no holomorphy); with vanish, both
    sections are zero at those vertices, so the coupling blocks of the
    Jacobian hold exact zeros there."""
    V = mesh.n_vertices

    def section(weight):
        vals = 0.5 * (rng.standard_normal(V) + 1j * rng.standard_normal(V))
        if vanish is not None:
            vals[vanish] = 0.0
        return bundles.DiscreteSection((2, weight), vals, degree_l=0)

    if target == "rh3":
        return germsolve.GermData3(mesh, q=section(0))
    L = bundles.make_line_bundle(mesh, 0)
    return germsolve.GermData4(mesh, L, section(1), section(-1))


@pytest.mark.parametrize("operator", ["cotangent", "patch_fit"])
@pytest.mark.parametrize("target, vanish", [("rh3", None), ("rh4", None), ("rh4", slice(0, None, 7))])
def test_fixed_pattern_jacobian_equals_block_assembly(mesh_r3, target, vanish, operator):
    rng = np.random.default_rng(11)
    data = _random_data(mesh_r3, target, rng, vanish)
    eqs = germsolve.CurvatureEquations(data)
    if operator == "cotangent":
        lap, weight = hypmesh.laplacian(mesh_r3), mesh_r3.vertex_areas
    else:
        lap, weight = mesh_r3.fd_laplacian_matrix(weighted=True), 1.0
    _, jacobian = eqs.system(operator, weight)
    x = 0.3 * rng.standard_normal(lap.shape[0] * (2 if eqs.coupled else 1))
    J = jacobian(x)
    assert J.format == "csr"
    # the block assembly every call used to run
    lap_x = sp.block_diag([lap] * (2 if eqs.coupled else 1), format="csr")
    df = eqs.df(*eqs.fields(x))
    ref = lap_x - sp.bmat([[sp.diags(weight * d) for d in row] for row in df], format="csr")
    assert np.array_equal(J.toarray(), ref.toarray())
    if vanish is not None:
        # the pattern keeps the coupling entries that are exactly zero
        assert np.count_nonzero(J.data) < J.nnz
        assert ref.nnz < J.nnz
    # every Jacobian of the system shares the pattern
    J2 = jacobian(0.3 * rng.standard_normal(len(x)))
    assert np.shares_memory(J2.indices, J.indices) and np.shares_memory(J2.indptr, J.indptr)


@pytest.mark.parametrize("target, vanish",
                         [("rh3", None), ("rh4", None), ("rh4", slice(0, None, 7))])
def test_polish_normal_matrix_equals_the_damped_product(mesh_r3, target, vanish):
    rng = np.random.default_rng(13)
    data = _random_data(mesh_r3, target, rng, vanish)
    eqs = germsolve.CurvatureEquations(data)
    n = 2 if eqs.coupled else 1
    _, jacobian = eqs.system("patch_fit", 1.0)
    x = 0.3 * rng.standard_normal(n * mesh_r3.n_vertices)
    normal = germsolve._PolishNormal(mesh_r3.fd_laplacian_matrix(weighted=True),
                                     mesh_r3.vertex_areas, n)
    N = normal.matrix(eqs.df(*eqs.fields(x)), 0.03)
    # the product every factorization used to form
    J = jacobian(x)
    ref = (J.T @ sp.diags(np.tile(mesh_r3.vertex_areas, n)) @ J).tocsr()
    ref = ref + 0.03 * sp.diags(np.abs(ref.diagonal()) + 1e-300)
    assert abs(N - ref).max() <= 1e-14 * abs(ref).max()
    if vanish is None:
        assert N.nnz == ref.nnz
    else:
        # the product drops the coupling entries that cancel; N keeps them,
        # as zeros
        assert ref.nnz < N.nnz
        assert (N - N.multiply(ref != 0)).count_nonzero() == 0


def test_jacobian_pattern_built_once_per_mesh_and_operator(monkeypatch):
    mesh = hypmesh.build_surface(2, 2)
    built = []
    pattern = germsolve._jacobian_pattern

    def counting(lap, n):
        built.append((id(lap), n))
        return pattern(lap, n)

    monkeypatch.setattr(germsolve, "_jacobian_pattern", counting)
    t = germsolve.manufactured_forcing(mesh, 0.1)
    rng = np.random.default_rng(3)
    for data in (germsolve.GermData3(mesh, t_field=t), _random_data(mesh, "rh4", rng)):
        for _ in range(2):
            sol = (germsolve.solve_gauss3(data) if isinstance(data, germsolve.GermData3)
                   else germsolve.solve_gauss_ricci4(data))
            assert sol.converged
            germsolve.polish_solution(data, sol)
    cot, fd = id(hypmesh.laplacian(mesh)), id(mesh.fd_laplacian_matrix(weighted=True))
    assert built == [(cot, 1), (fd, 1), (cot, 2), (fd, 2)]


def test_jacobian_pattern_places_entries_past_int32_keys():
    # the block layout of two fields of size V = 30000, past the V at which
    # entry keys row * 2V + col would overflow int32; scipy indexes the
    # Laplacian, and the pattern, with int32 arrays
    V = 30000
    lap = sp.diags([np.ones(V - 1), np.full(V, -2.0), np.ones(V - 1)], [-1, 0, 1], format="csr")
    assert lap.indices.dtype == np.int32
    indices, indptr, base, diagonals = germsolve._jacobian_pattern(lap, 2)
    J = sp.csr_matrix((base, indices, indptr), shape=(2 * V, 2 * V))
    assert (J - sp.block_diag([lap] * 2, format="csr")).count_nonzero() == 0
    rows = np.repeat(np.arange(2 * V), np.diff(indptr))
    k = np.arange(V)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(rows[diagonals[i][j]], i * V + k)
            assert np.array_equal(indices[diagonals[i][j]], j * V + k)


def _rh4_r3_data(mesh_r3, basis_K2_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(mesh_r3, L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(mesh_r3, L, 2, -1, 0.5 * basis_K2_r3[1].values)
    return germsolve.GermData4(mesh_r3, L, theta1, theta2)


def test_newton_orders_columns_once_per_solve(mesh_r3, basis_K2_r3, monkeypatch):
    data = _rh4_r3_data(mesh_r3, basis_K2_r3)
    splu = spla.splu
    specs = []

    def recording(A, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    iterations = len(sol.newton_trace) - 1
    assert iterations >= 3
    assert specs == [None] + ["NATURAL"] * (iterations - 1)
    # reference: SuperLU's default COLAMD ordering on every iteration
    monkeypatch.setattr(germsolve, "_jacobian_solver",
                        lambda: lambda J, b: splu(J.tocsc()).solve(b))
    ref = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    assert sol.newton_trace == ref.newton_trace
    assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.w, ref.w)


def test_newton_later_factorization_failure_is_a_linear_solve_error(mesh_r3, basis_K2_r3,
                                                                    monkeypatch):
    data = _rh4_r3_data(mesh_r3, basis_K2_r3)
    splu = spla.splu

    def failing_later(A, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", failing_later)
    with pytest.raises(LinearSolveError, match="Newton linear solve failed"):
        germsolve.solve_gauss_ricci4(data, tol=1e-11)


def test_damped_normal_operator_applies_the_damped_normal_matrix(mesh_r3):
    rng = np.random.default_rng(5)
    data = _random_data(mesh_r3, "rh4", rng)
    eqs = germsolve.CurvatureEquations(data)
    _, jacobian = eqs.system("patch_fit", 1.0)
    a = mesh_r3.vertex_areas
    aa = np.concatenate([a, a])
    J = jacobian(0.3 * rng.standard_normal(2 * mesh_r3.n_vertices))
    N = (J.T @ sp.diags(aa) @ J).tocsc()
    N = N + 0.03 * sp.diags(np.abs(N.diagonal()) + 1e-300)
    v = rng.standard_normal(N.shape[0])
    Nv = N @ v
    op = germsolve._damped_normal_operator(J, aa, 0.03)
    assert np.linalg.norm(op @ v - Nv) <= 1e-13 * np.linalg.norm(Nv)


@pytest.fixture(scope="module", params=["rh3", "rh4"])
def solved_r3(request, mesh_r3, basis_K2_r3):
    """A converged r=3 solution: rh3 data, or rh4 data with l=0 and both
    sections."""
    if request.param == "rh3":
        data = germsolve.GermData3(mesh_r3, q=basis_K2_r3[0])
        return data, germsolve.solve_gauss3(data, tol=1e-11)
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(mesh_r3, L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(mesh_r3, L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData4(mesh_r3, L, theta1, theta2)
    return data, germsolve.solve_gauss_ricci4(data, tol=1e-11)


def _fresh(u, w):
    return germsolve.GermSolution(u=u, w=w, converged=True)


def _smoothed(sol):
    """The polished fields as one vector: u, then w when present."""
    return np.concatenate([sol.u_smooth] + ([sol.w_smooth] if sol.w is not None else []))


def _factor_every_step(data, sol, steps=4):
    """Reference polish: one-step polishes chained from the previous
    smoothed fields, so every step factors its own normal matrix."""
    u, w = sol.u, sol.w
    for _ in range(steps):
        one = germsolve.polish_solution(data, _fresh(u, w), iterations=1)
        u, w = one.u_smooth, one.w_smooth
    return _smoothed(one)


@pytest.fixture
def count_factor(monkeypatch):
    calls = []

    def counting(A, plan):
        calls.append(1)
        return factor.factor_hpd(A, plan)

    monkeypatch.setattr(germsolve, "factor_hpd", counting)
    return calls


def test_polish_factors_once_and_matches_factor_every_step(solved_r3, count_factor):
    data, sol = solved_r3
    ref = _factor_every_step(data, sol)
    del count_factor[:]
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    assert len(count_factor) == 1
    assert np.max(np.abs(_smoothed(polished) - ref)) < 1e-10
    record = polished.polish
    assert record["factorizations"] == 1
    (fill,) = record["factor_nnz"]
    assert type(fill) is int and fill > 0
    steps = record["steps"]
    assert len(steps) == 4
    assert steps[0]["cg_iterations"] == 0
    assert all(0 < s["cg_iterations"] <= 10 for s in steps[1:])
    for s in steps:
        assert s["step_fraction"] == 1.0
        assert s["residual_after"] < s["residual_before"]
    for prev, nxt in zip(steps, steps[1:]):
        assert nxt["residual_before"] == prev["residual_after"]


def test_polish_refactors_when_cg_fails(solved_r3, count_factor, monkeypatch):
    data, sol = solved_r3
    ref = _factor_every_step(data, sol)

    def no_convergence(A, b, **kwargs):
        return np.zeros_like(b), kwargs["maxiter"]

    monkeypatch.setattr(spla, "cg", no_convergence)
    del count_factor[:]
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    assert len(count_factor) == 4
    assert np.max(np.abs(_smoothed(polished) - ref)) < 1e-10
    assert polished.polish["factorizations"] == 4
    assert len(polished.polish["factor_nnz"]) == 4
    assert [s["cg_iterations"] for s in polished.polish["steps"]] == [0] * 4


def _colamd(A, plan):
    """SuperLU with its default COLAMD ordering and partial pivoting, in
    the caller's order: the oracle for the banded factor.  Its factor
    object has the solve and nnz that the polish reads."""
    return spla.splu(sp.csc_matrix(A))


def test_mesh_order_factor_solves_polish_matrix_like_colamd(solved_r3, monkeypatch):
    data, sol = solved_r3
    matrices = []

    def recording(A, plan):
        matrices.append((A, plan))
        return factor.factor_hpd(A, plan)

    monkeypatch.setattr(germsolve, "factor_hpd", recording)
    germsolve.polish_solution(data, _fresh(sol.u, sol.w), iterations=1)
    ((N, plan),) = matrices
    b = np.random.default_rng(0).standard_normal(N.shape[0])
    ref = _colamd(N, plan).solve(b)
    x = factor.factor_hpd(N, plan).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_polish_in_mesh_order_matches_colamd_polish(solved_r3, monkeypatch):
    data, sol = solved_r3
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    monkeypatch.setattr(germsolve, "factor_hpd", _colamd)
    ref = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    assert np.max(np.abs(_smoothed(polished) - _smoothed(ref))) <= 1e-13
    assert ([s["cg_iterations"] for s in polished.polish["steps"]]
            == [s["cg_iterations"] for s in ref.polish["steps"]])


def test_system_residual_is_the_newton_residual(solved_r3, mesh_r3):
    data, sol = solved_r3
    a = mesh_r3.vertex_areas
    eqs = germsolve.CurvatureEquations(data)
    residual, _ = eqs.system("cotangent", a)
    if eqs.coupled:
        R = residual(np.concatenate([sol.u, sol.w]))
        aa = np.concatenate([a, a])
    else:
        R = residual(sol.u)
        aa = a
    assert float(np.sqrt(np.sum(R**2 / aa))) == sol.newton_trace[-1][1]
