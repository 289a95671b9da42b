"""Exact moduli arithmetic and classification verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eqmin import moduli
from eqmin.errors import DegenerateOrbitError, InvalidParameterError


def test_stable_generic_degree_one():
    d = moduli.classify(2, 4, 1, {"beta1": True, "beta2": True})
    assert d.verdict == "Stable"
    assert d.linearly_full
    assert not d.superminimal
    assert d.dims == {"h1": 4, "fiber_dim": 10, "total_dim": 10, "components": 3}
    assert d.w2 == 1


def test_degree_out_of_range():
    d = moduli.classify(2, 4, 2, {})
    assert d.verdict == "OutOfRange"


def test_boundary_copy_is_stable_decomposable():
    d = moduli.classify(2, 4, 0, {"beta1": True, "beta2": True, "proportional": True})
    assert d.verdict == "StableDecomposable"
    assert d.decomposable
    assert not d.linearly_full


def test_totally_geodesic_polystable():
    d3 = moduli.classify(2, 3, class_flags={"beta": False})
    assert d3.verdict == "Polystable"
    assert d3.superminimal
    d4 = moduli.classify(2, 4, 0, {"beta1": False, "beta2": False})
    assert d4.verdict == "Polystable"
    assert d4.decomposable and d4.superminimal


def test_superminimal_hodge_still_stable():
    d = moduli.classify(2, 4, 1, {"beta1": False, "beta2": True})
    assert d.verdict == "Stable"
    assert d.superminimal


def test_mirror_degree_uses_first_class():
    d = moduli.classify(2, 4, -1, {"beta1": True, "beta2": False})
    assert d.verdict == "Stable"


def test_inconclusive_flags_degrade():
    d = moduli.classify(2, 4, 1, {"beta2": None})
    assert d.verdict == "Undetermined"


def test_rh3_stable():
    d = moduli.classify(3, 3, class_flags={"beta": True})
    assert d.verdict == "Stable"
    assert d.dims == {"total_dim": 12}
    assert d.w2 == 0


# classify(g, 4, l, flags).to_dict() over every flag pattern, as a
# reference table independent of how classify reads the flags.  A row
# gives g, l, the "proportional" flag and the first class's flag; its
# four cells are the second class's flag True, False, None and absent.
# Flags: T True, F False, N None, - absent.  A cell is the verdict's
# initial (S Stable, D StableDecomposable, P Polystable, U Unstable,
# O OutOfRange, ? Undetermined) followed by f when linearly full, m when
# superminimal and d when decomposable.
_VERDICTS_4 = """
2 -1 - T  Sf  Sfm Sf  Sf
2 -1 - F  Um  Um  Um  Um
2 -1 - N  ?   ?m  ?   ?
2 -1 - -  ?   ?m  ?   ?
2  0 T T  Dd  Um  ?   ?
2  0 T F  Um  Pmd ?m  ?m
2  0 T N  ?   ?m  ?   ?
2  0 T -  ?   ?m  ?   ?
2  0 F T  Sf  Um  ?   ?
2  0 F F  Um  Pmd ?m  ?m
2  0 F N  ?   ?m  ?   ?
2  0 F -  ?   ?m  ?   ?
2  0 N T  Sf  Um  ?   ?
2  0 N F  Um  Pmd ?m  ?m
2  0 N N  ?   ?m  ?   ?
2  0 N -  ?   ?m  ?   ?
2  0 - T  Sf  Um  ?   ?
2  0 - F  Um  Pmd ?m  ?m
2  0 - N  ?   ?m  ?   ?
2  0 - -  ?   ?m  ?   ?
2  1 - T  Sf  Um  ?   ?
2  1 - F  Sfm Um  ?m  ?m
2  1 - N  Sf  Um  ?   ?
2  1 - -  Sf  Um  ?   ?
2  2 - T  O   O   O   O
2  2 - F  O   O   O   O
2  2 - N  O   O   O   O
2  2 - -  O   O   O   O
3 -3 - T  Sf  Sfm Sf  Sf
3 -3 - F  Um  Um  Um  Um
3 -3 - N  ?   ?m  ?   ?
3 -3 - -  ?   ?m  ?   ?
3 -1 - T  Sf  Sfm Sf  Sf
3 -1 - F  Um  Um  Um  Um
3 -1 - N  ?   ?m  ?   ?
3 -1 - -  ?   ?m  ?   ?
3  0 T T  Dd  Um  ?   ?
3  0 T F  Um  Pmd ?m  ?m
3  0 T N  ?   ?m  ?   ?
3  0 T -  ?   ?m  ?   ?
3  0 F T  Sf  Um  ?   ?
3  0 F F  Um  Pmd ?m  ?m
3  0 F N  ?   ?m  ?   ?
3  0 F -  ?   ?m  ?   ?
3  0 N T  Sf  Um  ?   ?
3  0 N F  Um  Pmd ?m  ?m
3  0 N N  ?   ?m  ?   ?
3  0 N -  ?   ?m  ?   ?
3  0 - T  Sf  Um  ?   ?
3  0 - F  Um  Pmd ?m  ?m
3  0 - N  ?   ?m  ?   ?
3  0 - -  ?   ?m  ?   ?
3  1 - T  Sf  Um  ?   ?
3  1 - F  Sfm Um  ?m  ?m
3  1 - N  Sf  Um  ?   ?
3  1 - -  Sf  Um  ?   ?
3  3 - T  Sf  Um  ?   ?
3  3 - F  Sfm Um  ?m  ?m
3  3 - N  Sf  Um  ?   ?
3  3 - -  Sf  Um  ?   ?
3  4 - T  O   O   O   O
3  4 - F  O   O   O   O
3  4 - N  O   O   O   O
3  4 - -  O   O   O   O
"""
# The 3-space target at g=2, asked with l=1, whatever the "proportional"
# flag: cells for the one class's flag True, False, None and absent.
_VERDICTS_3 = "Sf Pmd ? ?"
_FLAG = {"T": True, "F": False, "N": None}
_VERDICT = {"S": "Stable", "D": "StableDecomposable", "P": "Polystable",
            "U": "Unstable", "O": "OutOfRange", "?": "Undetermined"}


def _expected(g, n, l, flags, cell, dims):
    return {"g": g, "n": n, "l": l, "class_flags": flags, "verdict": _VERDICT[cell[0]],
            "linearly_full": "f" in cell, "superminimal": "m" in cell,
            "decomposable": "d" in cell, "dims": dims, "w2": l % 2}


def _flags(**codes):
    return {name: _FLAG[c] for name, c in codes.items() if c != "-"}


def test_verdict_table_pinned():
    rows = [line.split() for line in _VERDICTS_4.strip().splitlines()]
    assert len(rows) == 64
    for g, l, prop, b1, *cells in rows:
        g, l = int(g), int(l)
        dims = {"h1": 3 * (g - 1) + l, "fiber_dim": 10 * (g - 1),
                "total_dim": 10 * (g - 1), "components": 4 * g - 5}
        for b2, cell in zip("TFN-", cells):
            flags = _flags(beta1=b1, beta2=b2, proportional=prop)
            got = moduli.classify(g, 4, l, flags).to_dict()
            assert got == _expected(g, 4, l, flags, cell, dims), (g, l, flags)
    for prop in "TFN-":
        for beta, cell in zip("TFN-", _VERDICTS_3.split()):
            flags = _flags(beta=beta, proportional=prop)
            got = moduli.classify(2, 3, 1, flags).to_dict()
            assert got == _expected(2, 3, 0, flags, cell, {"total_dim": 6}), flags


def test_secant_certificate_examples():
    assert moduli.secant_genericity(2, 1) == {
        "h0_K_lambda": 4,
        "secant_dim": 1,
        "ambient_dim": 3,
        "generic_ok": True,
    }
    assert moduli.secant_genericity(3, 3) == {
        "h0_K_lambda": 9,
        "secant_dim": 5,
        "ambient_dim": 8,
        "generic_ok": True,
    }
    with pytest.raises(InvalidParameterError):
        moduli.secant_genericity(2, 0)


@given(st.integers(min_value=2, max_value=10))
@settings(deadline=None)
def test_component_count_exact(g):
    degrees = moduli.admissible_degrees(g)
    assert len(degrees) == 4 * g - 5
    assert degrees == list(range(-(2 * g - 3), 2 * g - 2))


@given(st.integers(min_value=2, max_value=10))
@settings(deadline=None)
def test_dimension_identities_exact(g):
    for l in moduli.admissible_degrees(g):
        dims = moduli.moduli_dims(g, 4, l)
        assert dims["total_dim"] == 10 * (g - 1)
        assert moduli.h1_dim(g, l) + moduli.h1_dim(g, -l) == 6 * (g - 1)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=-25, max_value=25))
@settings(deadline=None)
def test_out_of_range_iff_degree_too_large(g, l):
    d = moduli.classify(g, 4, l, {"beta1": True, "beta2": True})
    assert (d.verdict == "OutOfRange") == (abs(l) >= 2 * (g - 1))


@given(st.integers(min_value=2, max_value=10))
@settings(deadline=None)
def test_zeroing_a_class_never_helps_stability(g):
    rank = {"Stable": 3, "StableDecomposable": 2, "Polystable": 1,
            "Undetermined": 1, "Unstable": 0}
    for l in moduli.admissible_degrees(g):
        full = moduli.classify(g, 4, l, {"beta1": True, "beta2": True})
        for flags in ({"beta1": False, "beta2": True},
                      {"beta1": True, "beta2": False},
                      {"beta1": False, "beta2": False}):
            weaker = moduli.classify(g, 4, l, flags)
            assert rank[weaker.verdict] <= rank[full.verdict] or (
                # losing the inactive class keeps stability in the
                # superminimal components
                weaker.verdict == "Stable"
            )


def test_orbit_normal_form_equalizes():
    b1 = np.array([2.0 + 0j, 0.0])
    b2 = np.array([0.0, 8.0 + 0j])
    (n1, n2), a = moduli.orbit_normal_form(b1, b2)
    assert a == 2.0
    assert np.allclose(np.abs(n1), [4.0, 0.0])
    assert np.allclose(np.abs(n2), [0.0, 4.0])


def test_orbit_normal_form_single_class():
    b2 = np.array([3.0 + 4j])
    (n1, n2), a = moduli.orbit_normal_form(np.zeros(1), b2)
    assert np.allclose(np.abs(n2), 1.0)
    assert abs(a - 0.2) < 1e-14


def test_orbit_normal_form_idempotent():
    rng = np.random.default_rng(11)
    b1 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b2 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    (n1, n2), _ = moduli.orbit_normal_form(b1, b2)
    (_, _), a2 = moduli.orbit_normal_form(n1, n2)
    assert abs(a2 - 1.0) < 1e-12


def test_orbit_degenerate_rejected():
    with pytest.raises(DegenerateOrbitError):
        moduli.orbit_normal_form(np.zeros(3), np.zeros(3))


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None)
def test_orbit_normal_form_equivariant(a):
    b1 = np.array([1.0 + 1j, 2.0])
    b2 = np.array([0.5, 1.5 - 1j])
    (n1, n2), s = moduli.orbit_normal_form(b1, b2)
    (m1, m2), s2 = moduli.orbit_normal_form(a * b1, b2 / a)
    assert np.allclose(m1, n1) and np.allclose(m2, n2)
    assert abs(s2 * a - s) < 1e-9 * s


def test_proportionality_detector():
    b = np.array([1.0 + 2j, 3.0, -1j])
    assert moduli.classes_proportional(b, (2.0 - 1j) * b)
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, 1.0, 0.0])
    assert not moduli.classes_proportional(c, d)
    assert not moduli.classes_proportional(np.zeros(3), d)
