"""Shared meshes and holomorphic bases (session scoped, they are the
expensive part of every test)."""

import numpy as np
import pytest
import scipy.sparse as sp

from eqmin import bundles, hypmesh


@pytest.fixture(scope="session")
def mesh_r2():
    return hypmesh.build_surface(2, 2)


@pytest.fixture(scope="session")
def mesh_r3():
    return hypmesh.build_surface(2, 3)


@pytest.fixture(scope="session")
def mesh_r4():
    return hypmesh.build_surface(2, 4)


@pytest.fixture(scope="session")
def basis_K2_r3(mesh_r3):
    dbar = bundles.dbar_operator(mesh_r3, None, 2, 0)
    return bundles.holomorphic_basis(dbar)


@pytest.fixture(scope="session")
def L1_r4(mesh_r4):
    return bundles.make_line_bundle(mesh_r4, 1)


@pytest.fixture(scope="session")
def basis_K2L_r4(mesh_r4, L1_r4):
    dbar = bundles.dbar_operator(mesh_r4, L1_r4, 2, 1)
    return bundles.holomorphic_basis(dbar)


@pytest.fixture(scope="session")
def basis_K2Linv_r4(mesh_r4, L1_r4):
    dbar = bundles.dbar_operator(mesh_r4, L1_r4, 2, -1)
    return bundles.holomorphic_basis(dbar)


def make_section(L, m, n, values):
    """DiscreteSection of K^m L^n (L None for n = 0) with the given values."""
    return bundles.DiscreteSection((m, n), values, degree_l=0 if L is None else L.degree)


def dbar_matrix(dbar):
    """The F x V sparse matrix of a DbarOperator, assembled from its stencil
    entries; the entries of a class that recurs in a face's stencil are
    summed."""
    mesh = dbar.mesh
    rows = np.repeat(np.arange(mesh.n_faces), 6)
    return sp.csr_matrix((dbar.entries.ravel(), (rows, mesh.stencil_class.ravel())),
                         shape=(mesh.n_faces, mesh.n_vertices), dtype=complex)
