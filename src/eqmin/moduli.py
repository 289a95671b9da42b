"""Exact classification arithmetic for the moduli of equivariant minimal
surfaces.

Everything here is integer and flag arithmetic: extension-class dimension
counts from Riemann-Roch, the component count and dimension of the moduli
space, and stability verdicts from the vanishing pattern of the extension
classes, with the proportionality test of a class pair.  Numerical inputs
enter only as booleans (is this class nonzero with margin?), which the
caller produces from the harmonic-projection oracle; a flag of None means
the margin test was inconclusive and the verdict degrades to Undetermined
rather than guessing.
"""

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "ModuliDescriptor",
    "CLASSES",
    "VERDICTS",
    "h1_dim",
    "is_admissible",
    "admissible_degrees",
    "moduli_dims",
    "classify",
    "secant_genericity",
    "classes_proportional",
]

# The extension classes of each target, keyed by the power k of L in the
# summand K^0 L^k of W they map K into: W is trivial for n = 3 and
# L + L^-1 for n = 4.
CLASSES = {3: {0: "beta"}, 4: {-1: "beta1", 1: "beta2"}}

VERDICTS = (
    "Stable",
    "StableDecomposable",
    "Polystable",
    "Unstable",
    "OutOfRange",
    "Undetermined",
)


def h1_dim(g, l):
    """The Riemann-Roch dimension 3(g-1)+l of H0(K^2 L) for deg L = l
    with |l| < 2(g-1), which is also the extension-class dimension."""
    return 3 * (g - 1) + l


def is_admissible(g, l):
    """Whether the degree l lies in the window |l| < 2(g-1)."""
    return abs(l) < 2 * (g - 1)


def admissible_degrees(g):
    """All degrees l with |l| < 2(g-1); exactly 4g-5 of them."""
    return [l for l in range(-2 * g, 2 * g) if is_admissible(g, l)]


def moduli_dims(g, n, l=0):
    """Exact dimension data of the moduli space containing the germ."""
    if n == 3:
        return {"total_dim": 6 * (g - 1)}
    return {
        "h1": h1_dim(g, l),
        "fiber_dim": 10 * g - 10,
        "total_dim": 10 * (g - 1),
        "components": 4 * g - 5,
    }


class ModuliDescriptor:
    """Classification record: verdict, flags, and exact dimension data."""

    def __init__(self, g, n, l, class_flags, verdict, linearly_full,
                 superminimal, decomposable, dims, w2):
        self.g = g
        self.n = n
        self.l = l
        self.class_flags = dict(class_flags)
        self.verdict = verdict
        self.linearly_full = linearly_full
        self.superminimal = superminimal
        self.decomposable = decomposable
        self.dims = dict(dims)
        self.w2 = w2

    def to_dict(self):
        return {
            "g": self.g,
            "n": self.n,
            "l": self.l,
            "class_flags": {k: v for k, v in self.class_flags.items()},
            "verdict": self.verdict,
            "linearly_full": self.linearly_full,
            "superminimal": self.superminimal,
            "decomposable": self.decomposable,
            "dims": self.dims,
            "w2": self.w2,
        }


def classify(g, n, l=0, class_flags=None):
    """Stability verdict from the vanishing pattern of the beta classes.

    class_flags: the classes of CLASSES[n] by name, and for n = 4
    optionally "proportional" (classes proportional with L trivial).  Flag
    values are True (nonzero with margin), False (zero with margin), or
    None (inconclusive).

    Degree l != 0 is stable when the class mapping K into L^{sign l} is
    nonzero and the secant-variety genericity certificate applies.  At
    l = 0 (always for n = 3, which has no L) all classes nonzero is
    stable, all zero polystable; two nonzero proportional classes give
    the boundary copy of the 3-space moduli.
    """
    if g < 2:
        raise InvalidParameterError("genus must be at least 2")
    if n not in CLASSES:
        raise InvalidParameterError("n must be 3 or 4")
    if n == 3:
        l = 0  # the 3-space target has no L
    flags = dict(class_flags or {})
    values = [flags.get(name) for name in CLASSES[n].values()]
    out_of_range = not is_admissible(g, l)
    decomposable = False
    if out_of_range:
        verdict = "OutOfRange"
    elif l != 0:
        lead = flags.get(CLASSES[n][1 if l > 0 else -1])
        if lead is None or not secant_genericity(g, abs(l))["generic_ok"]:
            verdict = "Undetermined"
        else:
            verdict = "Stable" if lead else "Unstable"
    elif None in values:
        verdict = "Undetermined"
    elif all(values):
        # proportionality relates two classes
        decomposable = len(values) > 1 and bool(flags.get("proportional"))
        verdict = "StableDecomposable" if decomposable else "Stable"
    elif not any(values):
        verdict = "Polystable"
        decomposable = True
    else:
        verdict = "Unstable"
    return ModuliDescriptor(
        g, n, l, flags, verdict,
        linearly_full=verdict == "Stable",
        superminimal=not out_of_range and any(v is False for v in values),
        decomposable=decomposable,
        dims=moduli_dims(g, n, l),
        w2=l % 2,
    )


def secant_genericity(g, l):
    """Certificate that a generic extension class avoids the secant variety.

    For 1 <= l < 2(g-1): the class lives in a projective space of
    dimension l+3g-4 (sections of K tensor a degree-l line bundle, which
    number l+3(g-1)), the obstructing secant variety has dimension 2l-1,
    and genericity holds when 2l-1 < l+3g-4.
    """
    if l < 1 or not is_admissible(g, l):
        raise InvalidParameterError(
            f"degree {l} outside the certificate window [1, {2 * (g - 1) - 1}]"
        )
    h0 = h1_dim(g, l)
    secant_dim = 2 * l - 1
    ambient_dim = l + 3 * g - 4
    return {
        "h0_K_lambda": h0,
        "secant_dim": secant_dim,
        "ambient_dim": ambient_dim,
        "generic_ok": secant_dim < ambient_dim,
    }


def _norm(b, weights=None):
    b = np.asarray(b, dtype=complex)
    if weights is None:
        return float(np.sqrt(np.sum(np.abs(b) ** 2)))
    return float(np.sqrt(np.sum(np.asarray(weights) * np.abs(b) ** 2)))


# angular distance below which two classes count as proportional
PROPORTIONAL_TOL = 1e-6


def classes_proportional(beta1, beta2, weights=None):
    """Whether the two classes are complex-proportional (angular distance
    below PROPORTIONAL_TOL after norm equalization)."""
    n1 = _norm(beta1, weights)
    n2 = _norm(beta2, weights)
    if n1 == 0.0 or n2 == 0.0:
        return False
    b1 = np.asarray(beta1, dtype=complex)
    b2 = np.asarray(beta2, dtype=complex)
    w = 1.0 if weights is None else np.asarray(weights)
    inner = np.sum(w * b1 * np.conj(b2))
    return bool(1.0 - abs(inner) / (n1 * n2) < PROPORTIONAL_TOL)
