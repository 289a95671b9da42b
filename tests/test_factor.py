"""Banded Cholesky factorization of the polish and class-oracle matrices."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded

from eqmin import bundles, factor, germsolve, hypmesh
from eqmin.cli import RunConfig, sweep
from eqmin.errors import LinearSolveError, ShapeError
from conftest import make_section


def _bandwidth(A, rank):
    """Half-bandwidth of A with row and column k moved to rank[k]."""
    C = sp.coo_matrix(A)
    return int(np.max(np.abs(rank[C.row] - rank[C.col])))


def test_band_order_is_a_permutation(mesh_r3):
    V = mesh_r3.n_vertices
    S = hypmesh.laplacian(mesh_r3)
    A = (S.T @ S + sp.identity(V)).tocsr()
    pattern = factor.HermitianPattern(A.indptr, A.indices)
    lu = factor.factor_hpd(pattern, A.data)
    assert np.array_equal(np.sort(lu.perm), np.arange(V))
    rank = np.argsort(lu.perm)
    assert lu.bandwidth == _bandwidth(A, rank)
    assert lu.bandwidth < _bandwidth(A, np.arange(V))
    assert lu.nnz == (lu.bandwidth + 1) * V
    b = np.random.default_rng(0).standard_normal(V)
    ref = spla.spsolve(A, b)
    assert np.linalg.norm(lu.solve(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    # one value per stored entry
    for values in (A.data[:-1], np.append(A.data, 1.0)):
        with pytest.raises(ShapeError):
            factor.factor_hpd(pattern, values)


@pytest.fixture(scope="module")
def polish_normal_r3(mesh_r3, basis_K2_r3):
    """The pattern and float64 values of u's block of the polish's damped
    normal matrix at a solved rh4 datum at g=2, r=3, l=0."""
    L = bundles.make_line_bundle(mesh_r3, 0)
    data = germsolve.GermData(mesh_r3, L, [make_section(L, 2, 1, 0.3 * basis_K2_r3[0].values),
                                           make_section(L, 2, -1, 0.5 * basis_K2_r3[1].values)])
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-11)
    eqs = germsolve.CurvatureEquations(data)
    normal = germsolve._PolishNormal(mesh_r3.fd_laplacian_matrix(weighted=True),
                                     mesh_r3.vertex_areas)
    return normal.pattern, normal.block(eqs.df(sol.u, sol.w), 0, germsolve._POLISH_DAMPING)


def _solve_in_band_dtype(lu, b):
    """A band factor's solve as LAPACK's pbtrs gives it, with b in the
    band's dtype and no cast of the result."""
    y = cho_solve_banded((lu.cb, True), b[lu.perm], check_finite=False)
    x = np.empty_like(y)
    x[lu.perm] = y
    return x


def test_float32_values_give_a_float32_band_with_float64_solves(polish_normal_r3):
    pattern, N = polish_normal_r3
    lu64 = factor.factor_hpd(pattern, N)
    lu32 = factor.factor_hpd(pattern, N.astype(np.float32))
    assert lu64.cb.dtype == np.float64 and lu32.cb.dtype == np.float32
    assert (lu32.bandwidth, lu32.nnz) == (lu64.bandwidth, lu64.nnz)
    assert lu32.cb.nbytes == lu64.cb.nbytes // 2
    b = np.random.default_rng(2).standard_normal(pattern.n)
    ref = lu64.solve(b)
    x = lu32.solve(b)
    assert x.dtype == np.float64
    assert np.linalg.norm(x - ref) <= 1e-5 * np.linalg.norm(ref)
    # a float32 right-hand side stays in float32
    assert lu32.solve(b.astype(np.float32)).dtype == np.float32


def test_float64_and_complex128_factors_solve_as_before(polish_normal_r3):
    pattern, N = polish_normal_r3
    rng = np.random.default_rng(4)
    b = rng.standard_normal(pattern.n)
    lu = factor.factor_hpd(pattern, N)
    x = lu.solve(b)
    assert x.dtype == np.float64 and np.array_equal(x, _solve_in_band_dtype(lu, b))
    lu = factor.factor_hpd(pattern, N.astype(np.complex128))
    assert lu.cb.dtype == np.complex128
    for rhs in (b, b + 1j * rng.standard_normal(pattern.n)):
        x = lu.solve(rhs)
        assert x.dtype == np.complex128
        assert np.array_equal(x, _solve_in_band_dtype(lu, rhs.astype(np.complex128)))
    # a complex right-hand side of a real factor keeps its imaginary part
    c = b + 1j * rng.standard_normal(pattern.n)
    for values, rtol in ((N, 1e-14), (N.astype(np.float32), 1e-5)):
        lu = factor.factor_hpd(pattern, values)
        x = lu.solve(c)
        assert x.dtype == np.complex128
        ref = lu.solve(c.real) + 1j * lu.solve(c.imag)
        assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


@pytest.fixture(scope="module")
def solved_r4(mesh_r4, L1_r4, basis_K2L_r4, basis_K2Linv_r4):
    """The baseline rh4 datum at g=2, r=4, l=1, solved."""
    theta1 = make_section(L1_r4, 2, 1, 0.4 * basis_K2L_r4[0].values)
    theta2 = make_section(L1_r4, 2, -1, 0.3 * basis_K2Linv_r4[0].values)
    data = germsolve.GermData(mesh_r4, L1_r4, [theta1, theta2])
    return data, germsolve.solve_gauss_ricci4(data, tol=1e-11)


def _factored(monkeypatch, module, call):
    """The matrices that call factors through module.factor_hpd, each as a
    CSR matrix with its factor."""
    factored = []

    def recording(pattern, values):
        factored.append((pattern.csr(values), factor.factor_hpd(pattern, values)))
        return factored[-1][1]

    monkeypatch.setattr(module, "factor_hpd", recording)
    call()
    return factored


def _first_factored(monkeypatch, module, call):
    """The first matrix that call factors through module.factor_hpd, as a
    CSR matrix, and its factor."""
    return _factored(monkeypatch, module, call)[0]


def test_polish_band_stays_narrow_at_r4(solved_r4, monkeypatch):
    data, sol = solved_r4
    fresh = germsolve.GermSolution(u=sol.u, w=sol.w, converged=True)
    factored = _factored(monkeypatch, germsolve,
                         lambda: germsolve.polish_solution(data, fresh, iterations=1))
    # one block per field
    assert len(factored) == 2
    for N, lu in factored:
        n = N.shape[0]
        assert n == data.mesh.n_vertices
        # the mesh's own numbering spans nearly the whole matrix
        assert _bandwidth(N, np.arange(n)) > 0.9 * n
        assert lu.bandwidth < 0.55 * n


def test_class_oracle_band_stays_narrow_at_r4(solved_r4, monkeypatch):
    data, sol = solved_r4
    mesh = data.mesh
    dbar = bundles.dbar_operator(mesh, data.L, -1, 1)
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(mesh.n_faces) + 1j * rng.standard_normal(mesh.n_faces)
    A, lu = _first_factored(monkeypatch, bundles,
                            lambda: bundles.class_is_trivial(mesh, beta, sol.u, dbar))
    n = A.shape[0]
    assert n == mesh.n_vertices
    assert _bandwidth(A, np.arange(n)) > 0.9 * n
    assert lu.bandwidth < 0.25 * n


def test_indefinite_matrix_fails_to_factor_and_ends_in_linear_solve_error(
        mesh_r3, basis_K2_r3, monkeypatch):
    # Hermitian with eigenvalues -1 and 3
    with pytest.raises(np.linalg.LinAlgError):
        A = sp.csr_matrix(np.array([[1.0, 2j], [-2j, 1.0]]))
        factor.factor_hpd(factor.HermitianPattern(A.indptr, A.indices), A.data)

    def negated(pattern, values):
        return factor.factor_hpd(pattern, -values)

    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    monkeypatch.setattr(germsolve, "factor_hpd", negated)
    monkeypatch.setattr(bundles, "factor_hpd", negated)
    with pytest.raises(LinearSolveError, match="Newton linear solve failed") as failed:
        germsolve.solve_gauss3(data, tol=1e-10)
    assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)
    with pytest.raises(LinearSolveError, match="polish solve failed") as failed:
        germsolve.polish_solution(data, sol)
    assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)
    dbar = bundles.dbar_operator(mesh_r3, None, -1, 0)
    beta = np.random.default_rng(1).standard_normal(mesh_r3.n_faces) + 0j
    with pytest.raises(LinearSolveError, match="harmonic projection") as failed:
        bundles.class_is_trivial(mesh_r3, beta, sol.u, dbar)
    assert isinstance(failed.value.__cause__, np.linalg.LinAlgError)


def test_cli_import_leaves_csgraph_unloaded():
    # factor imports scipy.sparse.csgraph on first use, which keeps it out
    # of the start-up cost of every eqmin command
    src = str(Path(factor.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, eqmin.cli; "
            "print([m for m in sys.modules if m.startswith('scipy.sparse.csgraph')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_orders_each_pattern_once(tmp_path, monkeypatch):
    # a sweep's runs share the mesh and with it the band plans of the dbar
    # stencil's normal pattern (the kernel search and the class oracle), of
    # the cotangent Laplacian's pattern (Newton) and of the polish's normal
    # pattern
    import scipy.sparse.csgraph as csgraph

    rcm = csgraph.reverse_cuthill_mckee
    orders = []

    def counting(A, **kwargs):
        orders.append(A.shape)
        return rcm(A, **kwargs)

    monkeypatch.setattr(csgraph, "reverse_cuthill_mckee", counting)
    cfg = RunConfig(genus=2, resolution=3, target="rh3", l=0, data_spec="basis:0:0.1",
                    output_dir=str(tmp_path))
    _, reports = sweep(cfg, "amplitude", [0.1, 0.4, 0.8], write_files=False)
    assert not any("failed_at" in rep for rep in reports)
    assert len(orders) == 3
