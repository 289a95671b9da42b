"""Newton solvers for the curvature equations."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from eqmin import bundles, factor, germsolve, hypmesh
from eqmin.errors import InvalidParameterError, LinearSolveError, StagnationError
from conftest import make_section


def test_zero_data_gives_flat_solution(mesh_r3):
    data = germsolve.GermData(mesh_r3)
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.u)) < 1e-10


def test_manufactured_constant_recovered(mesh_r3):
    u_star = 0.1
    t = germsolve.manufactured_forcing(mesh_r3, u_star)
    data = germsolve.GermData(mesh_r3, t_field=t)
    sol = germsolve.solve_gauss3(data, tol=1e-12)
    assert sol.converged
    assert np.max(np.abs(sol.u - u_star)) < 1e-10
    assert len(sol.newton_trace) - 1 <= 12
    # the constant is the start, and from zero the Newton driver finds it
    assert len(sol.newton_trace) == 1
    assert sol.start["u"] == pytest.approx(u_star, abs=1e-14)
    eqs = germsolve.CurvatureEquations(data)
    residual, jacobian = eqs.system("cotangent", mesh_r3.vertex_areas)
    u, trace, ok = germsolve._newton(np.zeros(mesh_r3.n_vertices), residual, jacobian,
                                     eqs.areas, 1e-12, 30)
    assert ok and len(trace) > 2
    assert np.max(np.abs(u - u_star)) < 1e-10


def test_newton_residual_decreases(mesh_r3, basis_K2_r3):
    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    norms = [step[1] for step in sol.newton_trace]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_solution_negative_where_data_vanishes(mesh_r3, basis_K2_r3):
    # adding second-fundamental-form data only shrinks the conformal factor
    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    assert np.max(sol.u) < 1e-8


@pytest.mark.parametrize("solve", [germsolve.solve_gauss3, germsolve.solve_gauss_ricci4],
                         ids=["solve_gauss3", "solve_gauss_ricci4"])
def test_invalid_tolerance_rejected(mesh_r3, basis_K2_r3, solve):
    data = (germsolve.GermData(mesh_r3) if solve is germsolve.solve_gauss3
            else _rh4_r3_data(mesh_r3, basis_K2_r3))
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        solve(data, tol=0.0)


def test_degree_window_enforced(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 2)
    with pytest.raises(InvalidParameterError):
        germsolve.GermData(mesh_r3, L)


def test_zero_sections_need_degree_zero(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 1)
    data = germsolve.GermData(mesh_r3, L)
    with pytest.raises(InvalidParameterError):
        germsolve.solve_gauss_ricci4(data)


def test_coupled_solver_zero_data(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    data = germsolve.GermData(mesh_r3, L)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.u)) < 1e-10
    assert np.max(np.abs(sol.w)) < 1e-12


def test_coupled_solver_balances_ricci(mesh_r3, basis_K2_r3):
    # degree 0 with both sections: the log-scale w stays bounded and the
    # integral of e^{-2u} Q against the area element vanishes with L's
    # curvature density
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData(mesh_r3, L, [theta1, theta2])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    assert sol.converged
    assert np.max(np.abs(sol.w)) < 3.0
    a = mesh_r3.vertex_areas
    Q = np.exp(-2.0 * sol.w) * data.t[-1] - np.exp(2.0 * sol.w) * data.t[1]
    kp_int = float(np.sum(a * np.exp(-2.0 * sol.u) * Q))
    assert abs(kp_int) < 1e-6


def test_polish_stays_close_and_reduces_collocation(mesh_r3, basis_K2_r3):
    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-11)
    germsolve.polish_solution(data, sol)
    assert sol.u_smooth is not None
    assert np.max(np.abs(sol.u_smooth - sol.u)) < 0.05
    C = mesh_r3.fd_laplacian_matrix(weighted=True)

    def colloc(u):
        r = C @ u - (-1.0 + np.exp(2.0 * u) + np.exp(-2.0 * u) * data.t[0])
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
        data = germsolve.GermData(mesh_r2, sections=[section(0)])
    else:
        L = bundles.make_line_bundle(mesh_r2, 1)
        data = germsolve.GermData(mesh_r2, L, [section(1), section(-1)])
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


def _random_data(mesh, target, rng, vanish=None, l=0):
    """Arbitrary data (the equations need no holomorphy), for 4-space at
    degree l; with vanish, both sections are zero at those vertices, so
    the coupling blocks of the Jacobian hold exact zeros there."""
    V = mesh.n_vertices

    def section(weight):
        vals = 0.5 * (rng.standard_normal(V) + 1j * rng.standard_normal(V))
        if vanish is not None:
            vals[vanish] = 0.0
        return bundles.DiscreteSection((2, weight), vals, degree_l=l)

    if target == "rh3":
        return germsolve.GermData(mesh, sections=[section(0)])
    L = bundles.make_line_bundle(mesh, l)
    return germsolve.GermData(mesh, L, [section(1), section(-1)])


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
                                     mesh_r3.vertex_areas)
    # the product every factorization used to form
    J = jacobian(x)
    ref = (J.T @ sp.diags(np.tile(mesh_r3.vertex_areas, n)) @ J).tocsr()
    ref = ref + 0.03 * sp.diags(np.abs(ref.diagonal()) + 1e-300)
    V = mesh_r3.n_vertices
    for i in range(n):
        N = normal.pattern.csr(normal.block(eqs.df(*eqs.fields(x)), i, 0.03))
        ref_i = ref[i * V:(i + 1) * V, i * V:(i + 1) * V]
        assert abs(N - ref_i).max() <= 1e-14 * abs(ref_i).max()
        # the entries that cancel where the sections vanish lie in the
        # coupling blocks, which no block holds
        assert N.nnz == ref_i.nnz


@pytest.mark.parametrize("target, vanish", [("rh3", None), ("rh4", slice(0, None, 7))])
def test_polish_plan_is_the_band_plan_of_its_first_matrix(mesh_r3, target, vanish):
    # the plan is made at the first factorization, from the kept pattern,
    # which every N fills, stored zeros included, so it is the plan the
    # first N's CSR matrix would make
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    rng = np.random.default_rng(17)
    data = _random_data(mesh_r3, target, rng, vanish)
    eqs = germsolve.CurvatureEquations(data)
    normal = germsolve._PolishNormal(mesh_r3.fd_laplacian_matrix(weighted=True),
                                     mesh_r3.vertex_areas)
    assert "band" not in vars(normal.pattern)
    x = 0.3 * rng.standard_normal(eqs.n * mesh_r3.n_vertices)
    N = normal.block(eqs.df(*eqs.fields(x)), 0, 0.03)
    lu = factor.factor_hpd(normal.pattern, N)
    A = normal.pattern.csr(N)
    assert np.array_equal(lu.perm, reverse_cuthill_mckee(A, symmetric_mode=True))
    b = rng.standard_normal(A.shape[0])
    ref = spla.spsolve(A.tocsc(), b)
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)


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
    for data in (germsolve.GermData(mesh, t_field=t), _random_data(mesh, "rh4", rng)):
        for _ in range(2):
            sol = (germsolve.solve_gauss3(data) if data.L is None
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


def _rh4_r3_data(mesh_r3, basis_K2_r3, amplitudes=(0.3, 0.5)):
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(L, 2, 1, amplitudes[0] * basis_K2_r3[0].values)
    theta2 = make_section(L, 2, -1, amplitudes[1] * basis_K2_r3[1].values)
    return germsolve.GermData(mesh_r3, L, [theta1, theta2])


def test_sections_are_filed_by_bundle_not_by_order(mesh_r3, basis_K2_r3):
    data = _rh4_r3_data(mesh_r3, basis_K2_r3)
    theta1, theta2 = data.sections[1], data.sections[-1]
    swapped = germsolve.GermData(mesh_r3, data.L, [theta2, theta1])
    assert swapped.sections == data.sections
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    ref = germsolve.solve_gauss_ricci4(swapped, tol=1e-11)
    assert sol.newton_trace == ref.newton_trace
    assert np.array_equal(sol.u, ref.u) and np.array_equal(sol.w, ref.w)


def test_sections_outside_the_target_rejected(mesh_r3, basis_K2_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    k2 = basis_K2_r3[0]
    k2l = make_section(L, 2, 1, k2.values)
    # a K^2 section for 4-space, a K^2 L section for 3-space, and two
    # sections of one bundle
    for target_L, sections in ((L, [k2]), (None, [k2l]), (L, [k2l, k2l])):
        with pytest.raises(InvalidParameterError):
            germsolve.GermData(mesh_r3, target_L, sections)


def test_newton_orders_columns_once_per_surface(basis_K2_r3, monkeypatch):
    # a mesh of its own, whose memo holds no column order yet; amplitudes
    # that take 3 iterations from the constant start
    def solve_twice():
        mesh = hypmesh.build_surface(2, 3)
        data = _rh4_r3_data(mesh, basis_K2_r3, (0.5, 0.8))
        return [germsolve.solve_gauss_ricci4(data, tol=1e-11) for _ in range(2)]

    splu = spla.splu
    specs = []

    def recording(A, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    sols = solve_twice()
    iterations = len(sols[0].newton_trace) - 1
    assert iterations >= 3
    # the first factorization on the surface orders the columns, by
    # COLAMD; every later one, also in the second solve, keeps that order
    assert specs == [None] + ["NATURAL"] * (2 * iterations - 1)
    # reference: SuperLU's default COLAMD ordering on every iteration
    monkeypatch.setattr(germsolve, "_jacobian_solver",
                        lambda: lambda J, b: splu(J.tocsc()).solve(b))
    for sol, ref in zip(sols, solve_twice()):
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


@pytest.mark.parametrize("target, l", [("rh3", 0), ("rh4", -1), ("rh4", 0), ("rh4", 1)])
def test_constant_start_solves_the_integrated_equations(mesh_r3, target, l):
    data = _random_data(mesh_r3, target, np.random.default_rng(19), l=l)
    eqs = germsolve.CurvatureEquations(data)
    c = germsolve._constant_start(eqs)
    assert c.shape == (eqs.n,)
    residual, _ = eqs.system("cotangent", mesh_r3.vertex_areas)
    R = residual(np.repeat(c, mesh_r3.n_vertices))
    a = mesh_r3.vertex_areas
    for field in eqs.fields(R)[:eqs.n]:
        assert abs(field.sum()) <= 1e-12 * a.sum()
    if target == "rh3":
        # the closed form of the integrated Gauss equation's stable root
        t = a @ data.t[0] / a.sum()
        assert np.exp(2.0 * c[0]) == pytest.approx((1.0 + np.sqrt(1.0 - 4.0 * t)) / 2.0,
                                                   rel=1e-14)


def test_data_without_a_constant_state_start_from_zero(mesh_r3, basis_K2_r3):
    # the mean density exceeds 1/4, so the integrated Gauss equation has
    # no constant solution; Newton starts from 0 and stagnates
    data = germsolve.GermData(mesh_r3, sections=[make_section(None, 2, 0,
                                                              2.0 * basis_K2_r3[0].values)])
    a = mesh_r3.vertex_areas
    assert a @ data.t[0] / a.sum() > 0.25
    eqs = germsolve.CurvatureEquations(data)
    assert germsolve._constant_start(eqs) is None
    residual, _ = eqs.system("cotangent", a)
    with pytest.raises(StagnationError) as failure:
        germsolve.solve_gauss3(data)
    R = residual(np.zeros(mesh_r3.n_vertices))
    assert failure.value.payload["trace"][0][1] == float(np.sqrt(np.sum(R**2 / a)))


def test_baseline_datum_converges_in_three_factorizations(mesh_r4, L1_r4, basis_K2Linv_r4,
                                                          basis_K2L_r4, monkeypatch):
    splu = spla.splu
    calls = []

    def counting(A, **kwargs):
        calls.append(1)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    data = germsolve.GermData(mesh_r4, L1_r4, [
        make_section(L1_r4, 2, -1, 0.4 * basis_K2Linv_r4[0].values),
        make_section(L1_r4, 2, 1, 0.3 * basis_K2L_r4[0].values)])
    sol = germsolve.solve_gauss_ricci4(data)
    assert sol.converged and sol.start is not None
    assert len(calls) <= 3


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
        data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
        return data, germsolve.solve_gauss3(data, tol=1e-11)
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData(mesh_r3, L, [theta1, theta2])
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

    def counting(pattern, values):
        calls.append(1)
        return factor.factor_hpd(pattern, values)

    monkeypatch.setattr(germsolve, "factor_hpd", counting)
    return calls


def test_polish_factors_once_and_matches_factor_every_step(solved_r3, count_factor):
    data, sol = solved_r3
    ref = _factor_every_step(data, sol)
    del count_factor[:]
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    # one factorization per field: 1 for rh3, 2 for rh4
    assert len(count_factor) == germsolve.CurvatureEquations(data).n
    assert np.max(np.abs(_smoothed(polished) - ref)) < 1e-10
    record = polished.polish
    assert "factorizations" not in record
    fill = record["factor_nnz"]
    assert type(fill) is int and fill > 0
    steps = record["steps"]
    assert len(steps) == 4
    # every step, the first included, is a CG solve on the same factors
    assert all(0 < s["cg_iterations"] <= 10 for s in steps)
    for s in steps:
        assert s["step_fraction"] == 1.0
        assert s["residual_after"] < s["residual_before"]
    for prev, nxt in zip(steps, steps[1:]):
        assert nxt["residual_before"] == prev["residual_after"]


def test_roundoff_coupling_leaves_the_float32_factor_normal(mesh_r3, basis_K2_r3,
                                                            monkeypatch):
    # proportional sections at l = 0 decouple u and w: the coupling blocks
    # of N are roundoff, which no factor holds, so no factor's fill runs in
    # subnormal arithmetic
    L = bundles.make_line_bundle(mesh_r3, 0)
    q = basis_K2_r3[0].values
    data = germsolve.GermData(mesh_r3, L, [make_section(L, 2, 1, 0.4 * q),
                                           make_section(L, 2, -1, 0.3 * q)])
    sol = germsolve.solve_gauss_ricci4(data)
    factors = []

    def recording(pattern, values):
        factors.append(factor.factor_hpd(pattern, values))
        return factors[-1]

    monkeypatch.setattr(germsolve, "factor_hpd", recording)
    germsolve.polish_solution(data, sol)
    assert len(factors) == 2
    for f in factors:
        assert f.cb.dtype == np.float32
        assert np.count_nonzero((f.cb != 0.0) & (np.abs(f.cb) < np.finfo(np.float32).tiny)) == 0


def test_polish_preconditions_each_field_with_its_own_block(solved_r3, monkeypatch):
    data, sol = solved_r3
    calls = []

    def recording(pattern, values):
        calls.append((pattern, values, factor.factor_hpd(pattern, values)))
        return calls[-1][2]

    monkeypatch.setattr(germsolve, "factor_hpd", recording)
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    eqs = germsolve.CurvatureEquations(data)
    # the mesh's one block pattern, kept by the polish
    normal = data.mesh.memo("polish_normal", lambda: None)
    assert len(calls) == eqs.n
    assert all(pattern is normal.pattern for pattern, _, _ in calls)
    assert normal.pattern.n == data.mesh.n_vertices
    df = eqs.df(sol.u, sol.w) if eqs.coupled else eqs.df(sol.u)
    for i, (_, values, _) in enumerate(calls):
        expected = normal.block(df, i, germsolve._POLISH_DAMPING).astype(np.float32)
        assert values.dtype == np.float32 and np.array_equal(values, expected)
    assert polished.polish["factor_nnz"] == sum(lu.cb.size for _, _, lu in calls)


def test_polish_cg_miss_is_a_linear_solve_error(solved_r3, monkeypatch):
    # CG capped at one iteration misses its tolerance at the first step
    data, sol = solved_r3
    cg = spla.cg

    def one_iteration(A, b, **kwargs):
        return cg(A, b, **{**kwargs, "maxiter": 1})

    monkeypatch.setattr(spla, "cg", one_iteration)
    with pytest.raises(LinearSolveError, match="polish solve failed") as failed:
        germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    payload = failed.value.payload
    assert (payload["step"], payload["cg_iterations"]) == (1, 1)
    assert germsolve._PCG_RTOL < payload["relative_residual"] < 1.0


@pytest.fixture
def no_float32_factor(monkeypatch):
    """Band factors fail on float32 values, as LAPACK's spbtrf would on a
    matrix that loses definiteness in single precision."""
    cholesky_banded = factor.cholesky_banded

    def failing_in_float32(ab, **kwargs):
        if ab.dtype == np.float32:
            raise np.linalg.LinAlgError("1-th leading minor not positive definite")
        return cholesky_banded(ab, **kwargs)

    monkeypatch.setattr(factor, "cholesky_banded", failing_in_float32)


def test_polish_float32_factor_failure_is_a_linear_solve_error(solved_r3, no_float32_factor):
    data, sol = solved_r3
    with pytest.raises(LinearSolveError, match="polish solve failed") as failed:
        germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)
    assert failed.value.payload == {"step": 1, "cg_iterations": 0, "relative_residual": 1.0}


class _colamd:
    """SuperLU with its default COLAMD ordering and partial pivoting, in
    the caller's order and the precision of the values: the oracle for
    the banded factor.  It has the solve and nnz that the polish reads,
    and solves by the band factor's precision rule."""

    def __init__(self, pattern, values):
        self.lu = spla.splu(pattern.csr(values).tocsc())
        self.nnz = self.lu.nnz
        self.dtype = values.dtype

    def solve(self, b):
        return self.lu.solve(b.astype(self.dtype)).astype(np.result_type(b, self.dtype))


def _rounded_in_float64(factorize):
    """factorize, a factor_hpd stand-in, applied to the polish's float32
    values of N cast to float64: a double-precision factor of the
    single-precision N."""
    return lambda pattern, values: factorize(pattern, values.astype(np.float64))


def test_mesh_order_factor_solves_polish_matrix_like_colamd(solved_r3, monkeypatch):
    data, sol = solved_r3
    matrices = []

    def recording(pattern, values):
        matrices.append((pattern, values))
        return factor.factor_hpd(pattern, values)

    monkeypatch.setattr(germsolve, "factor_hpd", recording)
    germsolve.polish_solution(data, _fresh(sol.u, sol.w), iterations=1)
    assert len(matrices) == germsolve.CurvatureEquations(data).n
    rng = np.random.default_rng(0)
    for pattern, N in matrices:
        # the polish factors each field's block in single precision; the
        # band factor is compared with COLAMD in double
        assert N.dtype == np.float32
        N = N.astype(np.float64)
        b = rng.standard_normal(pattern.n)
        ref = _colamd(pattern, N).solve(b)
        x = factor.factor_hpd(pattern, N).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_polish_in_mesh_order_matches_colamd_polish(solved_r3, monkeypatch):
    data, sol = solved_r3
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    monkeypatch.setattr(germsolve, "factor_hpd", _colamd)
    ref = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    assert np.max(np.abs(_smoothed(polished) - _smoothed(ref))) <= 1e-13
    # the two single-precision factors differ by their roundoff, about 1e-7
    # relative, so CG may take one iteration more on either (rh3: 2 and 3
    # at the first step); factored in double precision, as below, they
    # agree exactly
    for s, r in zip(polished.polish["steps"], ref.polish["steps"]):
        assert 0 < s["cg_iterations"] <= 10 and abs(s["cg_iterations"] - r["cg_iterations"]) <= 1


def test_polish_in_mesh_order_matches_colamd_polish_factored_in_float64(solved_r3,
                                                                      monkeypatch):
    # the band and SuperLU with COLAMD, each factoring the single-precision
    # N in double precision, are both accurate to double precision, so CG
    # takes the same iterations on either, step by step
    data, sol = solved_r3
    monkeypatch.setattr(germsolve, "factor_hpd", _rounded_in_float64(factor.factor_hpd))
    polished = germsolve.polish_solution(data, _fresh(sol.u, sol.w))
    monkeypatch.setattr(germsolve, "factor_hpd", _rounded_in_float64(_colamd))
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
