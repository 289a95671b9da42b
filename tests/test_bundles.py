"""Line bundles, dbar kernels, and the class-triviality oracle."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import dbar_matrix
from eqmin import bundles, factor, germsolve, hypmesh
from eqmin.errors import IndeterminateKernelError, InvalidParameterError, ShapeError


def test_curvature_integrates_to_degree(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 2)
    total = float(np.sum(L.curvature_density * mesh_r3.face_area))
    assert abs(total - 2.0 * np.pi * 2) < 1e-9


def test_constants_in_trivial_dbar_kernel(mesh_r3):
    dbar = bundles.dbar_operator(mesh_r3, None, 0, 0)
    r = dbar(np.ones(mesh_r3.n_vertices))
    assert np.max(np.abs(r)) < 1e-10


def test_dbar_requires_bundle_for_twist(mesh_r3):
    with pytest.raises(InvalidParameterError):
        bundles.dbar_operator(mesh_r3, None, 2, 1)


def _dbar_reference(mesh, L, m, n):
    """The dbar matrix assembled with its own stencil inverse, as every
    call did before the stencil rows were kept on the mesh."""
    zeta = mesh.stencil_coord - mesh.face_centroid[:, None]
    scale = np.max(np.abs(zeta), axis=1, keepdims=True)
    zs = zeta / scale
    A = np.stack([np.ones_like(zs), zs, np.conj(zs), zs**2, zs * np.conj(zs),
                  np.conj(zs) ** 2], axis=2)
    entries = np.linalg.inv(A)[:, 2, :] / scale * bundles.stencil_read(mesh, m, n, L)
    rows = np.repeat(np.arange(mesh.n_faces), 6)
    return sp.csr_matrix((entries.ravel(), (rows, mesh.stencil_class.ravel())),
                         shape=(mesh.n_faces, mesh.n_vertices), dtype=complex)


def test_dbar_stencil_inverse_computed_once_per_mesh(monkeypatch):
    mesh = hypmesh.build_surface(2, 2)
    L = bundles.make_line_bundle(mesh, 1)
    twists = [(None, 2, 0), (L, 2, 1), (L, 2, -1)]
    inv = np.linalg.inv
    calls = []

    def counting(A):
        calls.append(A.shape)
        return inv(A)

    monkeypatch.setattr(np.linalg, "inv", counting)
    ops = [bundles.dbar_operator(mesh, *t) for t in twists]
    assert calls == [(mesh.n_faces, 6, 6)]
    monkeypatch.setattr(np.linalg, "inv", inv)
    fresh = hypmesh.build_surface(2, 2)
    L_fresh = bundles.make_line_bundle(fresh, 1)
    for op, (bundle, m, n) in zip(ops, twists):
        ref = _dbar_reference(fresh, None if bundle is None else L_fresh, m, n)
        M = dbar_matrix(op)
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert np.array_equal(M.data, ref.data)


def test_quadratic_differentials_dimension(basis_K2_r3):
    assert len(basis_K2_r3) == 3
    assert basis_K2_r3.gap_ratio >= 10.0
    for sec in basis_K2_r3:
        assert sec.bundle_type == (2, 0)


def test_twisted_kernel_dimension(mesh_r3):
    L = bundles.make_line_bundle(mesh_r3, 1)
    dbar = bundles.dbar_operator(mesh_r3, L, 2, 1)
    basis = bundles.holomorphic_basis(dbar)
    assert len(basis) == 4
    assert basis.gap_ratio >= 10.0


def test_no_gap_reported_with_singular_values(mesh_r2):
    dbar = bundles.dbar_operator(mesh_r2, None, 2, 0)
    with pytest.raises(IndeterminateKernelError) as err:
        bundles.holomorphic_basis(dbar)
    assert err.value.singular_values is not None


def _dense_oracle(dbar, max_dim=24):
    """Kernel search by a dense SVD of the weighted operator: the ascending
    smallest singular values, the detected dimension and gap, and the
    kernel projector in the weighted coordinates."""
    w_in, w_out = bundles.dbar_weights(dbar.mesh, dbar.m)
    B = sp.diags(np.sqrt(w_out)) @ dbar_matrix(dbar) @ sp.diags(1.0 / np.sqrt(w_in))
    _, svals, Vh = np.linalg.svd(B.toarray())
    s = svals[::-1][: max_dim + 1]
    ratios = s[1:] / np.maximum(s[:-1], 1e-14 * svals[0])
    d = int(np.argmax(ratios)) + 1
    X = np.conj(Vh[::-1][:d]).T
    return s, d, float(ratios[d - 1]), X @ X.conj().T


@pytest.mark.parametrize("name, n", [("K2", 0), ("K2L", 1), ("K2Linv", -1)])
def test_kernel_search_matches_dense_svd(mesh_r3, name, n):
    L = bundles.make_line_bundle(mesh_r3, 1) if n else None
    dbar = bundles.dbar_operator(mesh_r3, L, 2, n)
    s_ref, d_ref, gap_ref, P_ref = _dense_oracle(dbar)
    # K^2 L^-1 has gap 8.7 at r=3; the floor is lowered so both searches
    # report their dimension and gap
    basis = bundles.holomorphic_basis(dbar, gap_floor=1.0)
    # the search reads the 2h + 2 smallest singular values, h = 3 + n, and
    # decides as the 25-value dense search does
    s = np.asarray(basis.singular_values)
    assert basis.h == 3 + n and len(s) == 2 * basis.h + 2
    assert np.max(np.abs(s - s_ref[:len(s)]) / s_ref[:len(s)]) < 1e-8
    assert len(basis) == d_ref
    assert basis.gap_ratio == pytest.approx(gap_ref, rel=1e-8)
    w_in, _ = bundles.dbar_weights(dbar.mesh, dbar.m)
    X = np.stack([sec.values * np.sqrt(w_in) for sec in basis], axis=1)
    assert np.max(np.abs(X @ X.conj().T - P_ref)) < 1e-8


def test_small_mesh_kernel_search_matches_dense_svd():
    # K^2 L at l = 3 on g3r1: V = 20 is too small for ARPACK's k < V - 1
    # with k = 2h + 2 = 20, so the dense eigh runs
    mesh = hypmesh.build_surface(3, 1)
    dbar = bundles.dbar_operator(mesh, bundles.make_line_bundle(mesh, 3), 2, 1)
    s_ref = _dense_oracle(dbar)[0]
    with pytest.raises(IndeterminateKernelError) as err:
        bundles.holomorphic_basis(dbar)
    s = np.asarray(err.value.singular_values)
    assert len(s) == mesh.n_vertices
    assert np.allclose(s, s_ref, rtol=1e-8, atol=1e-12 * s_ref[-1])
    # the dense path factors nothing
    assert bundles.holomorphic_basis(dbar, gap_floor=0.0).factor_nnz is None


def test_basis_is_deterministic(mesh_r3, basis_K2_r3):
    dbar = bundles.dbar_operator(mesh_r3, None, 2, 0)
    again = bundles.holomorphic_basis(dbar)
    assert np.array_equal(again.singular_values, basis_K2_r3.singular_values)
    for a, b in zip(basis_K2_r3, again):
        assert np.array_equal(a.values, b.values)
        # the phase is set at the first vertex within PEAK_RTOL of the peak
        mod = np.abs(a.values)
        peak = a.values[np.argmax(mod >= (1.0 - bundles.PEAK_RTOL) * mod.max())]
        assert peak.real > 0 and abs(peak.imag) <= 1e-12 * peak.real


@pytest.mark.parametrize("eps", [1e-12, -1e-12])
def test_phase_rule_ignores_roundoff_between_tied_peaks(eps):
    # two peaks of modulus 2 at vertices 3 and 7, the later one larger or
    # smaller by roundoff: the phase is set at vertex 3 either way
    vals = np.full(10, 0.5 + 0.5j)
    vals[3] = 2.0 * np.exp(0.7j)
    vals[7] = 2.0 * (1.0 + eps) * np.exp(-2.1j)
    fixed = bundles._fix_phase(vals)
    assert fixed[3] == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(np.abs(fixed), np.abs(vals), rtol=1e-15)
    assert fixed[7] == pytest.approx(2.0 * np.exp(-2.8j), abs=1e-11)


# (m, n) of K^m L^n and whether the weights are those of a solved metric
# (the class oracle's) or the background's with the vertex scaling (the
# kernel search's)
_STENCIL_NORMALS = [((2, 0), False), ((2, -1), False), ((2, 1), False),
                    ((-1, 1), True), ((-1, -1), True)]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("bundle, metric", _STENCIL_NORMALS,
                         ids=["K2", "K2Linv", "K2L", "Kinv_L", "Kinv_Linv"])
def test_stencil_normal_equals_the_sparse_product(request, r, bundle, metric):
    mesh = request.getfixturevalue(f"mesh_r{r}")
    m, n = bundle
    dbar = bundles.dbar_operator(mesh, bundles.make_line_bundle(mesh, 1), m, n)
    M = dbar_matrix(dbar)
    # the products the class oracle and the kernel search used to form
    if metric:
        u = 0.3 * np.sin(np.arange(mesh.n_vertices))
        c, (_, w) = None, bundles.dbar_weights(mesh, m, u)
        ref = (M.conj().T @ sp.diags(w) @ M).tocsr()
    else:
        w_in, w = bundles.dbar_weights(mesh, m)
        c = 1.0 / np.sqrt(w_in)
        B = sp.diags(np.sqrt(w)) @ M @ sp.diags(c)
        ref = (B.conj().T @ B).tocsr()
    pattern, values = bundles._stencil_normal(dbar, w, c)
    assert np.array_equal(pattern.indptr, ref.indptr)
    assert np.array_equal(pattern.indices, ref.indices)
    assert np.max(np.abs(values - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    assert np.max(np.abs(values[pattern.diagonal] - ref.diagonal())) <= 1e-14 * np.max(
        np.abs(ref.data))
    # one pattern per mesh, whatever the bundle and weights
    assert bundles._stencil_normal(dbar, np.ones(mesh.n_faces))[0] is pattern


def _incidence_stencil_pattern(stencil_class, V):
    """The stencil pattern as the sparse product S^T S of the F x V stencil
    incidence S, and each stencil pair's place in it by searchsorted."""
    F = len(stencil_class)
    S = sp.csr_matrix((np.ones(6 * F, dtype=np.int32), stencil_class.ravel(),
                       np.arange(0, 6 * F + 1, 6)), shape=(F, V))
    P = (S.T @ S).tocsr()
    P.sort_indices()
    keys = np.repeat(np.arange(V, dtype=np.int64), np.diff(P.indptr)) * V + P.indices
    pairs = stencil_class[:, :, None].astype(np.int64) * V + stencil_class[:, None, :]
    return P.indptr, P.indices, np.searchsorted(keys, pairs.ravel())


@pytest.mark.parametrize("genus, resolution", [(2, 1), (3, 2)])
def test_stencil_pattern_equals_the_incidence_product(genus, resolution):
    # at g=2, r=1 faces repeat a class in their stencil, so pairs coincide
    mesh = hypmesh.build_surface(genus, resolution)
    pattern, place = bundles._stencil_pattern(mesh.stencil_class, mesh.n_vertices)
    indptr, indices, ref_place = _incidence_stencil_pattern(mesh.stencil_class,
                                                            mesh.n_vertices)
    for got, ref in ((pattern.indptr, indptr), (pattern.indices, indices)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert np.array_equal(place, ref_place)


class _SuperLUFactor:
    """SuperLU in place of the band factor, for the shift-invert solves."""

    def __init__(self, pattern, values):
        self.lu = spla.splu(pattern.csr(values).tocsc())
        self.nnz = self.lu.nnz

    def solve(self, b):
        return self.lu.solve(np.asarray(b))


@pytest.mark.parametrize("name, n", [("K2", 0), ("K2L", 1), ("K2Linv", -1)])
def test_band_and_superlu_shift_invert_give_the_same_sections(mesh_r3, monkeypatch, name, n):
    L = bundles.make_line_bundle(mesh_r3, 1) if n else None
    dbar = bundles.dbar_operator(mesh_r3, L, 2, n)
    # the K^2 L^-1 gap is 8.7 at r=3
    band = bundles.holomorphic_basis(dbar, gap_floor=1.0)
    monkeypatch.setattr(bundles, "factor_hpd", _SuperLUFactor)
    superlu = bundles.holomorphic_basis(dbar, gap_floor=1.0)
    assert len(band) == len(superlu)
    for a, b in zip(band, superlu):
        assert np.max(np.abs(a.values - b.values)) <= 1e-8 * np.max(np.abs(a.values))


def test_kernel_search_runs_one_eigensolve(mesh_r3, monkeypatch):
    # the gap ratios' floor is read from N's diagonal, not from a second
    # eigensolve for the largest singular value
    eigsh, calls = bundles.spla.eigsh, []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("which"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(bundles.spla, "eigsh", counted)
    for L, n in ((None, 0), (bundles.make_line_bundle(mesh_r3, 1), 1)):
        bundles.holomorphic_basis(bundles.dbar_operator(mesh_r3, L, 2, n))
    assert calls == ["LM", "LM"]


def test_kernel_search_factors_once_on_the_band(mesh_r3, monkeypatch):
    # ARPACK's own shift-invert calls the splu bound in its module
    arpack = sys.modules[spla.eigsh.__module__]
    calls = {"splu": 0, "band": 0}
    splu = spla.splu

    def counted_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counted_band(pattern, values):
        calls["band"] += 1
        return factor.factor_hpd(pattern, values)

    monkeypatch.setattr(arpack, "splu", counted_splu)
    monkeypatch.setattr(spla, "splu", counted_splu)
    monkeypatch.setattr(bundles, "factor_hpd", counted_band)
    basis = bundles.holomorphic_basis(bundles.dbar_operator(mesh_r3, None, 2, 0))
    assert len(basis) == 3
    assert calls == {"splu": 0, "band": 1}


def test_basis_residuals_small(mesh_r3, basis_K2_r3):
    dbar = bundles.dbar_operator(mesh_r3, None, 2, 0)
    for sec in basis_K2_r3:
        # truncation-level residual, not solver-level: the stencil is a
        # second-order fit
        assert bundles.relative_dbar_norm(mesh_r3, 2, dbar(sec.values), sec.values) < 0.1


def test_section_save_load_roundtrip(tmp_path, mesh_r3, basis_K2_r3):
    path = tmp_path / "q.json"
    basis_K2_r3[0].save(str(path), mesh=mesh_r3)
    back = bundles.DiscreteSection.load(str(path), mesh=mesh_r3)
    assert back.bundle_type == (2, 0)
    assert np.allclose(back.values, basis_K2_r3[0].values)


def test_mesh_fingerprints_are_pinned():
    # a saved section names its mesh by this hash, so a file: section
    # keeps loading only while every geometry refactor keeps it
    pinned = {
        (2, 1): "b36742c919cc6f37", (2, 2): "452e14f8f3bad4dd",
        (2, 3): "fc085a411871f22d", (2, 4): "81b03d928d1b3ff2",
        (3, 1): "60f606c0fac4ac39", (3, 2): "ada3d8be6f6c4822",
        (3, 3): "8fd2f99e5f29e9bc", (3, 4): "5d7c5b27409b5f92",
    }
    for (genus, resolution), digest in pinned.items():
        mesh = hypmesh.build_surface(genus, resolution)
        assert bundles.mesh_fingerprint(mesh) == digest, (genus, resolution)


def test_section_load_rejects_wrong_mesh(tmp_path, mesh_r2, mesh_r3, basis_K2_r3):
    path = tmp_path / "q.json"
    basis_K2_r3[0].save(str(path), mesh=mesh_r3)
    with pytest.raises(ShapeError):
        bundles.DiscreteSection.load(str(path), mesh=mesh_r2)


def test_dbar_adjoint_is_the_conjugate_transpose():
    # <M v, y> = <v, M^H y>, on a mesh where some faces' stencils repeat a
    # class, and both against the matrix of the entries
    mesh = hypmesh.build_surface(2, 1)
    classes = np.sort(mesh.stencil_class, axis=1)
    assert np.any(classes[:, 1:] == classes[:, :-1])
    rng = np.random.default_rng(9)
    dbar = bundles.dbar_operator(mesh, bundles.make_line_bundle(mesh, 1), -1, 1)
    M = dbar_matrix(dbar)
    v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    y = rng.standard_normal(mesh.n_faces) + 1j * rng.standard_normal(mesh.n_faces)
    Mv, MHy = dbar(v), dbar.adjoint(y)
    assert np.vdot(y, Mv) == pytest.approx(np.vdot(MHy, v), rel=1e-13)
    assert np.linalg.norm(Mv - M @ v) <= 1e-14 * np.linalg.norm(Mv)
    assert np.linalg.norm(MHy - M.conj().T @ y) <= 1e-14 * np.linalg.norm(MHy)


def test_coboundary_class_is_trivial(mesh_r3):
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(mesh_r3.n_vertices) + 1j * rng.standard_normal(
        mesh_r3.n_vertices
    )
    dbar = bundles.dbar_operator(mesh_r3, None, -1, 0)
    beta = dbar(psi)
    u0 = np.zeros(mesh_r3.n_vertices)
    trivial, norm = bundles.class_is_trivial(mesh_r3, beta, u0, dbar, tol=1e-3)
    assert trivial
    assert norm < 1e-8


def test_mesh_order_factor_solves_class_oracle_matrix_like_colamd(mesh_r3, basis_K2_r3,
                                                                   monkeypatch):
    # the projection of a class in K^-1 L^1 at l = 1, in the metric of a
    # solved germ: the normal matrix is complex Hermitian positive definite
    data = germsolve.GermData(mesh_r3, sections=[basis_K2_r3[0]])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    dbar = bundles.dbar_operator(mesh_r3, bundles.make_line_bundle(mesh_r3, 1), -1, 1)
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(mesh_r3.n_faces) + 1j * rng.standard_normal(mesh_r3.n_faces)
    matrices = []

    def recording(pattern, values):
        matrices.append((pattern, values))
        return factor.factor_hpd(pattern, values)

    monkeypatch.setattr(bundles, "factor_hpd", recording)
    bundles.class_is_trivial(mesh_r3, beta, sol.u, dbar)
    ((pattern, values),) = matrices
    A = pattern.csr(values)
    assert abs(A - A.conj().T).max() <= 1e-14 * abs(A).max()
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    ref = spla.splu(A.tocsc()).solve(b)
    x = factor.factor_hpd(pattern, values).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_holomorphic_class_is_nontrivial(mesh_r3, basis_K2_r3):
    q = basis_K2_r3[0]
    data = germsolve.GermData(mesh_r3, sections=[q])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    from eqmin.higgs import build_from_germ

    asm = build_from_germ(data, sol)
    beta = asm.blocks[("W", "K")]
    dbar = bundles.dbar_operator(mesh_r3, None, -1, 0)
    trivial, norm = bundles.class_is_trivial(mesh_r3, beta, sol.u, dbar, tol=1e-3)
    assert not trivial
    assert norm > 1e-2
