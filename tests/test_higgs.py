"""Higgs-bundle assembly: structural identities and gauge actions."""

import numpy as np
import pytest

from eqmin import bundles, germsolve, higgs
from eqmin.errors import InvalidParameterError, StaleSolutionError
from conftest import make_section


@pytest.fixture(scope="module")
def rh3_assembly(mesh_r3, basis_K2_r3):
    data = germsolve.GermData3(mesh_r3, q=basis_K2_r3[0])
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    return higgs.build_from_germ(data, sol)


@pytest.fixture(scope="module")
def rh4_assembly(mesh_r3, basis_K2_r3):
    L = bundles.make_line_bundle(mesh_r3, 0)
    theta1 = make_section(mesh_r3, L, 2, 1, 0.3 * basis_K2_r3[0].values)
    theta2 = make_section(mesh_r3, L, 2, -1, 0.5 * basis_K2_r3[1].values)
    data = germsolve.GermData4(mesh_r3, L, theta1, theta2)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    return higgs.build_from_germ(data, sol)


def test_refuses_unconverged(mesh_r3):
    data = germsolve.GermData3(mesh_r3)
    bad = germsolve.GermSolution(u=np.zeros(mesh_r3.n_vertices), converged=False)
    with pytest.raises(StaleSolutionError):
        higgs.build_from_germ(data, bad)


def test_phi_image_isotropic(rh3_assembly, rh4_assembly):
    assert rh3_assembly.phi_t_phi() == 0.0
    assert rh4_assembly.phi_t_phi() == 0.0


def test_structural_zero_blocks(rh4_assembly):
    assert ("Kinv", "K") not in rh4_assembly.blocks
    names = rh4_assembly.block_names
    idx = {nm: k for k, nm in enumerate(names)}
    for (r, c) in rh4_assembly.blocks:
        assert idx[r] < idx[c]


def test_pairing_duality_exact(rh4_assembly):
    b = rh4_assembly.blocks
    assert np.array_equal(b[("Kinv", "L")], -b[("Linv", "K")])
    assert np.array_equal(b[("Kinv", "Linv")], -b[("L", "K")])


def test_geodesic_assembly_splits(mesh_r3):
    data = germsolve.GermData3(mesh_r3)
    sol = germsolve.solve_gauss3(data, tol=1e-10)
    asm = higgs.build_from_germ(data, sol)
    assert asm.blocks == {}


def test_gauge_scale_halves_beta(rh4_assembly):
    out = higgs.gauge_scale(rh4_assembly, 2.0)
    for key, val in rh4_assembly.blocks.items():
        assert np.array_equal(out.blocks[key], val / 2.0)
    assert np.array_equal(out.phi, 2.0 * rh4_assembly.phi)


def test_gauge_scale_identity(rh3_assembly):
    out = higgs.gauge_scale(rh3_assembly, 1.0)
    for key, val in rh3_assembly.blocks.items():
        assert np.array_equal(out.blocks[key], val)


def test_gauge_roundtrip(rh4_assembly):
    back = higgs.gauge_scale(higgs.gauge_scale(rh4_assembly, 2.0), 0.5)
    for key, val in rh4_assembly.blocks.items():
        ref = np.max(np.abs(val))
        assert np.max(np.abs(back.blocks[key] - val)) <= 1e-12 * ref


def test_gauge_zero_rejected(rh3_assembly):
    with pytest.raises(InvalidParameterError):
        higgs.gauge_scale(rh3_assembly, 0.0)


def test_gauge_matrix_preserves_pairing(rh4_assembly):
    G = higgs.gauge_matrix(rh4_assembly, 2.0)
    Q = rh4_assembly.Q_V
    assert np.array_equal(G.T @ Q @ G, Q.astype(complex))


def test_lift_matrix_preserves_pairing(rh4_assembly):
    G = higgs.lift_matrix(rh4_assembly, 2.0)
    Q = rh4_assembly.Q_V
    assert np.array_equal(G.T @ Q @ G, Q.astype(complex))


def test_cx_lift_acts_on_beta(rh4_assembly):
    out = higgs.cx_lift(rh4_assembly, 2.0)
    beta1, beta2 = rh4_assembly.beta_blocks()
    n1, n2 = out.beta_blocks()
    assert np.array_equal(n1, 2.0 * beta1)
    assert np.array_equal(n2, beta2 / 2.0)
    assert np.array_equal(out.phi, rh4_assembly.phi)


@pytest.mark.parametrize("act", [higgs.cx_lift, higgs.lift_matrix],
                         ids=["cx_lift", "lift_matrix"])
def test_cx_lift_needs_rank_two_w(rh3_assembly, act):
    with pytest.raises(InvalidParameterError):
        act(rh3_assembly, 2.0)


def test_hodge_flag(mesh_r4, L1_r4, basis_K2Linv_r4, rh4_assembly):
    assert not higgs.hodge_flag(rh4_assembly)
    # one section solves only at a degree of its sign: theta2 needs l > 0
    theta2 = make_section(mesh_r4, L1_r4, 2, -1, 0.5 * basis_K2Linv_r4[0].values)
    data = germsolve.GermData4(mesh_r4, L1_r4, None, theta2)
    sol = germsolve.solve_gauss_ricci4(data, tol=1e-10)
    asm = higgs.build_from_germ(data, sol)
    assert higgs.hodge_flag(asm)
    beta1, beta2 = asm.beta_blocks()
    assert beta1 is None
    assert beta2 is not None


# The block layout of each target written out by hand: the reference for
# what higgs derives from its table of summand types.
_LAYOUT_PINS = {
    "rh3": {
        "Q_V": [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
        "gauge": [0.5, 1, 2, 1],
        "lift": None,
        "bundles": {"W<-K": (-1, 0), "Kinv<-W": (-1, 0), "Kinv<-Kinv": (-1, 0),
                    "W<-W": (0, 0), "K<-K": (1, 0), "one<-one": (0, 0)},
    },
    "rh4": {
        "Q_V": [[0, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1]],
        "gauge": [0.5, 1, 1, 2, 1],
        "lift": [1, 0.5, 2, 1, 1],
        "bundles": {"Linv<-K": (-1, -1), "Kinv<-L": (-1, -1), "L<-K": (-1, 1),
                    "Kinv<-Linv": (-1, 1), "Kinv<-Kinv": (-1, 0), "L<-L": (0, 1),
                    "Linv<-Linv": (0, -1), "K<-K": (1, 0), "one<-one": (0, 0)},
    },
}


@pytest.mark.parametrize("target", ["rh3", "rh4"])
def test_block_layout_pinned(request, target):
    asm = request.getfixturevalue(f"{target}_assembly")
    pins = _LAYOUT_PINS[target]
    assert np.array_equal(asm.Q_V, np.array(pins["Q_V"], dtype=float))
    assert np.array_equal(higgs.gauge_matrix(asm, 2), np.diag(pins["gauge"]))
    if pins["lift"] is not None:
        assert np.array_equal(higgs.lift_matrix(asm, 2), np.diag(pins["lift"]))
    pinned = {tuple(key.split("<-")): t for key, t in pins["bundles"].items()}
    # the diagonal entries pin the summand types in block order, the others
    # the blocks held and the bundle K^m L^k each takes values in
    assert list(asm.types.items()) == [(r, t) for (r, c), t in pinned.items() if r == c]
    assert set(asm.blocks) == {key for key in pinned if key[0] != key[1]}
    for (r, c), t in pinned.items():
        if r != c:
            (mr, kr), (mc, kc) = asm.types[r], asm.types[c]
            assert (mr - mc, kr - kc) == t


def test_constant_section_reads_at_faces(mesh_r3):
    vals = np.full(mesh_r3.n_vertices, 1.7 + 0.2j)
    face_vals = higgs.section_at_faces(mesh_r3, 0, 0, 0.0, vals)
    assert np.allclose(face_vals, 1.7 + 0.2j)
