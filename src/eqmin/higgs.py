"""Block assembly of the holomorphic structure and Higgs field.

The orthogonal bundle V associated with a solved germ is the smooth sum
K^{-1} + W + K + 1 with W trivial for the 3-space target and W = L + L^{-1}
for the 4-space target.  Its holomorphic structure is upper triangular
with respect to this sum: the diagonal carries the dbar operators of the
summands and the only off-diagonal entries are the (0,1)-forms beta (and
their pairing duals), computed from the solved metric as conj(q) divided
by the induced conformal density.  The zero blocks are structural (absent
keys, never stored floats), so the shape constraints demanded by
holomorphy of the block pairing hold exactly rather than to roundoff.

Block ordering of V: ("Kinv", "W", "K", "one") for n = 3 and
("Kinv", "L", "Linv", "K", "one") for n = 4; the pairing Q_V, the gauges
and the class blocks are read from the summand types in _LAYOUT.
"""

from typing import NamedTuple

import numpy as np

# dbar_operator is unused here but stays bound: perfbench/spans.py patches higgs.dbar_operator
from .bundles import dbar_operator, stencil_read, tensor_weight
from .errors import InvalidParameterError, ShapeError, StaleSolutionError
from .moduli import CLASSES

__all__ = [
    "HiggsAssembly",
    "build_from_germ",
    "gauge_scale",
    "gauge_matrix",
    "lift_matrix",
    "cx_lift",
    "hodge_flag",
    "section_at_faces",
]


def section_at_faces(mesh, m, n, transition_scale, values):
    """Chart values of a K^m L^n section at the face centroids.

    Averages the three corner class values after transporting each to the
    face chart at the centroid (frame change for K, parallel transport in
    the unitary gauge for L).
    """
    read = stencil_read(mesh, m, n, transition_scale)[:, :3]
    vals = np.asarray(values, dtype=complex)[mesh.stencil_class[:, :3]]
    return np.mean(read * vals, axis=1)


# Per target n: the summands of V in block order with their types (m, k),
# the summand being K^m L^k, and for each extension class, in class order,
# the W summand it maps K into and the germ data attribute holding the
# section it is read from.
_LAYOUT = {
    3: ({"Kinv": (-1, 0), "W": (0, 0), "K": (1, 0), "one": (0, 0)},
        (("W", "q"),)),
    4: ({"Kinv": (-1, 0), "L": (0, 1), "Linv": (0, -1), "K": (1, 0), "one": (0, 0)},
        (("Linv", "theta1"), ("L", "theta2"))),
}


class ExtensionClass(NamedTuple):
    """An extension class beta in Hom(K, W) and where the assembly keeps it."""

    name: str  # its name in moduli.CLASSES
    k: int  # beta maps K into the W summand of type (0, k) ...
    section: str  # ... and is read from the germ section in K^2 L^-k
    block: tuple  # (W summand, "K"), holding beta
    dual: tuple  # ("Kinv", Q_V partner of the W summand), holding -beta


def _layout(n):
    """Summand types, block pairing Q_V and extension classes of target n.

    Q_V pairs each summand with the one of opposite type and a summand of
    type (0, 0) with itself.
    """
    types, classes = _LAYOUT[n]
    names = list(types)
    opposite = {(-m, -k): name for name, (m, k) in types.items()}
    partner = {name: name if t == (0, 0) else opposite[t] for name, t in types.items()}
    Q = np.zeros((len(names), len(names)))
    for i, name in enumerate(names):
        Q[i, names.index(partner[name])] = 1.0
    return types, Q, tuple(
        ExtensionClass(CLASSES[n][types[w][1]], types[w][1], section, (w, "K"),
                       ("Kinv", partner[w]))
        for w, section in classes
    )


class HiggsAssembly:
    """Immutable block data of the associated orthogonal Higgs bundle.

    blocks maps (row_name, col_name) to the face-valued (0,1)-form entry
    of the block dbar operator; keys absent from the dict are structural
    zeros.  phi is the constant block column of the Higgs field inclusion
    K^{-1} -> V, and Q_V the constant block pairing.  types maps the
    summand names, in block order, to their types (m, k); classes holds
    the ExtensionClass records in class order.
    """

    def __init__(self, n, mesh, L, blocks, phi):
        self.n = int(n)
        if self.n not in _LAYOUT:
            raise InvalidParameterError("n must be 3 or 4")
        self.mesh = mesh
        self.L = L
        self.types, self.Q_V, self.classes = _layout(self.n)
        self.block_names = tuple(self.types)
        self.blocks = dict(blocks)
        self.phi = np.asarray(phi, dtype=complex)
        if self.phi.shape != (len(self.block_names),):
            raise ShapeError("phi must be a block column vector")
        self._check_structure()

    # ---- structural invariants ----------------------------------------

    def _check_structure(self):
        names = self.block_names
        idx = {nm: k for k, nm in enumerate(names)}
        for (r, c) in self.blocks:
            if idx[r] >= idx[c]:
                raise ShapeError(f"block ({r}, {c}) breaks upper-triangularity")
            if (r, c) == ("Kinv", "K"):
                raise ShapeError("the Kinv -> K block must be structurally zero")
        # pairing holomorphy: the row-Kinv entries are minus the Q_W duals
        # of the column-K entries, block for block
        for cls in self.classes:
            bu = self.blocks.get(cls.dual)
            bl = self.blocks.get(cls.block)
            if (bu is None) != (bl is None):
                raise ShapeError("pairing-dual beta blocks must vanish together")
            if bu is not None and not np.array_equal(bu, -bl):
                raise ShapeError("pairing holomorphy violated: alpha1 != -alpha3^t")
        if self.phi_t_phi() != 0.0:
            raise ShapeError("phi image is not Q_V-isotropic")

    def phi_t_phi(self):
        """The composition phi^t circ phi through Q_V; structurally zero."""
        return complex(self.phi @ self.Q_V @ self.phi)

    # ---- accessors -----------------------------------------------------

    def beta_blocks(self):
        """The independent (0,1)-form entries in class order: beta for n=3,
        (beta1, beta2) for n=4.  beta2 sits in Hom(K, L), beta1 in
        Hom(K, L^{-1})."""
        return tuple(self.blocks.get(cls.block) for cls in self.classes)


def build_from_germ(data, sol):
    """Assemble the Higgs-bundle blocks from solved germ data.

    The off-diagonal entries are beta = conj(q) / s^2 read at face
    centroids, where s^2 is the induced conformal density; for the 4-space
    target beta1 comes from theta1 (landing in L^{-1}, the conjugate gauge
    of L) and beta2 from theta2 (landing in L).  The target is the 3-space
    one when the data has no line bundle L.
    """
    if not sol.converged:
        raise StaleSolutionError("refusing to assemble from a non-converged solution")
    mesh = data.mesh
    n, c = (3, 0.0) if data.L is None else (4, data.L.transition_scale)
    types, _, classes = _layout(n)
    # 1 / s^2 at the face centroids, s^2 = e^{2u} lambda^2 / 2
    dens = tensor_weight(mesh.face_centroid, 1, u=sol.u[mesh.faces].mean(axis=1))
    blocks = {}
    for cls in classes:
        section = getattr(data, cls.section)
        if section is not None:
            beta = np.conj(section_at_faces(mesh, 2, -cls.k, c, section.values)) * dens
            blocks[cls.block] = beta
            blocks[cls.dual] = -beta
    # the Higgs field includes K^{-1} as its summand
    phi = np.array([t == (-1, 0) for t in types.values()], dtype=complex)
    return HiggsAssembly(n, mesh, data.L, blocks, phi)


def gauge_matrix(asm, lam):
    """The constant gauge diag(lam^m) on the summands K^m L^k as a matrix:
    1/lam on Kinv, lam on K, 1 elsewhere.

    Its conjugation divides the beta blocks by lam; it preserves Q_V since
    the pairing couples summands of opposite type.
    """
    return np.diag(np.array([lam ** m for m, _ in asm.types.values()], dtype=complex))


def _check_circle_action(asm):
    if asm.n != 4:
        raise InvalidParameterError("the circle action lift needs the 4-space target")


def lift_matrix(asm, a):
    """The Q_V-orthogonal lift diag(a^-k) on the summands K^m L^k of the
    SO(Q_W) circle action to the full bundle: 1/a on L, a on Linv."""
    _check_circle_action(asm)
    return np.diag(np.array([a ** -k for _, k in asm.types.values()], dtype=complex))


def gauge_scale(asm, lam):
    """Rescale by the constant gauge of gauge_matrix.

    Every beta block is divided by lam and the Higgs inclusion is
    multiplied by lam: the lam-scaled Higgs field is identified with the
    1/lam-scaled extension class through this gauge.
    """
    if lam == 0:
        raise InvalidParameterError("gauge scale must be nonzero")
    blocks = {key: val / lam for key, val in asm.blocks.items()}
    return HiggsAssembly(asm.n, asm.mesh, asm.L, blocks, lam * asm.phi)


def cx_lift(asm, a):
    """Apply the SO(Q_W) action a.(beta1, beta2) = (a beta1, beta2 / a)
    through its Q_V-orthogonal gauge lift (lift_matrix).

    The lift scales a class into the W summand of type (0, k), and its
    dual, by a^-k.  The conjugated assembly is exactly the
    (a beta1, beta2 / a) assembly, so the action fixes the isomorphism
    class.
    """
    _check_circle_action(asm)
    if a == 0:
        raise InvalidParameterError("action parameter must be nonzero")
    blocks = dict(asm.blocks)
    for cls in asm.classes:
        for key in (cls.block, cls.dual):
            if key in blocks:
                blocks[key] = blocks[key] * a if cls.k < 0 else blocks[key] / a
    return HiggsAssembly(asm.n, asm.mesh, asm.L, blocks, asm.phi.copy())


# sup norm below which a beta block counts as vanishing
HODGE_TOL = 1e-8


def hodge_flag(asm):
    """True iff one of the beta blocks vanishes in sup norm below HODGE_TOL."""
    if asm.n != 4:
        raise InvalidParameterError("the Hodge criterion applies to the 4-space target")
    return any(b is None or float(np.max(np.abs(b))) < HODGE_TOL for b in asm.beta_blocks())
