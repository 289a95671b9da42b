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
("Kinv", "L", "Linv", "K", "one") for n = 4.  The pairing Q_V couples
Kinv with K, L with Linv (W with itself for n = 3), and one with itself.
"""

import numpy as np

from .bundles import dbar_operator, stencil_read
from .errors import InvalidParameterError, ShapeError, StaleSolutionError
from .germsolve import GermData3, GermData4
from .mobius import conformal_factor

__all__ = [
    "HiggsAssembly",
    "build_from_germ",
    "gauge_scale",
    "gauge_matrix",
    "lift_matrix",
    "cx_lift",
    "shear_gauge",
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


def _block_names(n):
    if n == 3:
        return ("Kinv", "W", "K", "one")
    return ("Kinv", "L", "Linv", "K", "one")


def _pairing(n):
    """Constant block pairing Q_V in the block ordering of _block_names."""
    if n == 3:
        Q = np.zeros((4, 4))
        Q[0, 2] = Q[2, 0] = 1.0
        Q[1, 1] = 1.0
        Q[3, 3] = 1.0
    else:
        Q = np.zeros((5, 5))
        Q[0, 3] = Q[3, 0] = 1.0
        Q[1, 2] = Q[2, 1] = 1.0
        Q[4, 4] = 1.0
    return Q


class HiggsAssembly:
    """Immutable block data of the associated orthogonal Higgs bundle.

    blocks maps (row_name, col_name) to the face-valued (0,1)-form entry
    of the block dbar operator; keys absent from the dict are structural
    zeros.  phi is the constant block column of the Higgs field inclusion
    K^{-1} -> V, and Q_V the constant block pairing.
    """

    def __init__(self, n, mesh, L, blocks, phi):
        self.n = int(n)
        if self.n not in (3, 4):
            raise InvalidParameterError("n must be 3 or 4")
        self.mesh = mesh
        self.L = L
        self.block_names = _block_names(self.n)
        self.Q_V = _pairing(self.n)
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
        if self.n == 3:
            pairs = [(("Kinv", "W"), ("W", "K"))]
        else:
            pairs = [(("Kinv", "L"), ("Linv", "K")), (("Kinv", "Linv"), ("L", "K"))]
        for up, lo in pairs:
            bu = self.blocks.get(up)
            bl = self.blocks.get(lo)
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
        """The independent (0,1)-form entries: beta for n=3, (beta1, beta2)
        for n=4.  beta2 sits in Hom(K, L), beta1 in Hom(K, L^{-1})."""
        if self.n == 3:
            return (self.blocks.get(("W", "K")),)
        return (self.blocks.get(("Linv", "K")), self.blocks.get(("L", "K")))

    def export_blocks(self):
        """Manifest of every structurally nonzero block with its bundle type."""
        hom = {
            "Kinv": (-1, 0),
            "W": (0, 0),
            "L": (0, 1),
            "Linv": (0, -1),
            "K": (1, 0),
            "one": (0, 0),
        }
        out = {}
        for (r, c), val in self.blocks.items():
            mr, nr = hom[r]
            mc, nc = hom[c]
            out[f"{r}<-{c}"] = {
                "bundle": (mr - mc, nr - nc),
                "kind": "form01",
                "sup": float(np.max(np.abs(val))),
            }
        for k, nm in enumerate(self.block_names):
            out[f"{nm}<-{nm}"] = {"bundle": hom[nm], "kind": "dbar", "sup": None}
        return out


def _beta_density(mesh, sol):
    """1 / s^2 at the face centroids, s^2 = e^{2u} lambda^2 / 2."""
    u_face = sol.u[mesh.faces].mean(axis=1)
    lam2 = conformal_factor(mesh.face_centroid) ** 2
    return 2.0 / (lam2 * np.exp(2.0 * u_face))


def build_from_germ(data, sol):
    """Assemble the Higgs-bundle blocks from solved germ data.

    The off-diagonal entries are beta = conj(q) / s^2 read at face
    centroids, where s^2 is the induced conformal density; for the 4-space
    target beta1 comes from theta1 (landing in L^{-1}, the conjugate gauge
    of L) and beta2 from theta2 (landing in L).
    """
    if not sol.converged:
        raise StaleSolutionError("refusing to assemble from a non-converged solution")
    mesh = data.mesh
    dens = _beta_density(mesh, sol)
    blocks = {}
    if isinstance(data, GermData3):
        n = 3
        L = None
        if data.q is not None:
            qf = section_at_faces(mesh, 2, 0, 0.0, data.q.values)
            beta = np.conj(qf) * dens
            blocks[("W", "K")] = beta
            blocks[("Kinv", "W")] = -beta
    elif isinstance(data, GermData4):
        n = 4
        L = data.L
        c = L.transition_scale
        if data.theta1 is not None:
            t1f = section_at_faces(mesh, 2, 1, c, data.theta1.values)
            beta1 = np.conj(t1f) * dens
            blocks[("Linv", "K")] = beta1
            blocks[("Kinv", "L")] = -beta1
        if data.theta2 is not None:
            t2f = section_at_faces(mesh, 2, -1, c, data.theta2.values)
            beta2 = np.conj(t2f) * dens
            blocks[("L", "K")] = beta2
            blocks[("Kinv", "Linv")] = -beta2
    else:
        raise InvalidParameterError("unrecognized germ data type")
    phi = np.zeros(len(_block_names(n)), dtype=complex)
    phi[0] = 1.0
    return HiggsAssembly(n, mesh, L, blocks, phi)


def gauge_matrix(asm, lam):
    """The constant gauge diag(1/lam on Kinv, I_W, lam on K, 1) as a matrix.

    Its conjugation divides the beta blocks by lam; it preserves Q_V since
    the pairing couples the two reciprocally scaled slots.
    """
    k = len(asm.block_names)
    g = np.ones(k, dtype=complex)
    g[asm.block_names.index("Kinv")] = 1.0 / lam
    g[asm.block_names.index("K")] = lam
    return np.diag(g)


def lift_matrix(asm, a):
    """The Q_V-orthogonal lift diag(1, 1/a on L, a on Linv, 1, 1) of the
    SO(Q_W) circle action to the full bundle."""
    g = np.ones(5, dtype=complex)
    g[asm.block_names.index("L")] = 1.0 / a
    g[asm.block_names.index("Linv")] = a
    return np.diag(g)


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

    The conjugated assembly is exactly the (a beta1, beta2 / a) assembly,
    so the action fixes the isomorphism class.
    """
    if asm.n != 4:
        raise InvalidParameterError("the circle action lift needs the 4-space target")
    if a == 0:
        raise InvalidParameterError("action parameter must be nonzero")
    blocks = {}
    for key, val in asm.blocks.items():
        if key in (("Linv", "K"), ("Kinv", "L")):
            blocks[key] = val * a
        elif key in (("L", "K"), ("Kinv", "Linv")):
            blocks[key] = val / a
        else:
            blocks[key] = val
    return HiggsAssembly(asm.n, asm.mesh, asm.L, blocks, asm.phi.copy())


def shear_gauge(asm, psi_L, psi_Linv=None):
    """Unipotent pairing-orthogonal gauge shifting beta by a dbar-exact form.

    psi is a vertex section of Hom(K, W) (components psi_L in K^{-1} L and
    psi_Linv in K^{-1} L^{-1} for n = 4; the single K^{-1} section psi_L
    for n = 3).  The gauge is upper triangular with (W, K) entry psi and
    (Kinv, K) entry -psi^t psi / 2, which keeps it Q_V-orthogonal, and it
    maps the beta assembly to the (beta + dbar psi) assembly.  Test
    utility witnessing that cohomologous beta inputs give gauge-equivalent
    assemblies.
    """
    mesh = asm.mesh
    blocks = dict(asm.blocks)

    def shift(lo_key, up_key, dpsi):
        base = blocks.get(lo_key)
        newb = dpsi if base is None else base + dpsi
        blocks[lo_key] = newb
        blocks[up_key] = -newb

    if asm.n == 3:
        d = dbar_operator(mesh, None, -1, 0)
        shift(("W", "K"), ("Kinv", "W"), d(psi_L))
    else:
        if psi_L is not None:
            d2 = dbar_operator(mesh, asm.L, -1, 1)
            shift(("L", "K"), ("Kinv", "Linv"), d2(psi_L))
        if psi_Linv is not None:
            d1 = dbar_operator(mesh, asm.L, -1, -1)
            shift(("Linv", "K"), ("Kinv", "L"), d1(psi_Linv))
    return HiggsAssembly(asm.n, asm.mesh, asm.L, blocks, asm.phi.copy())


def hodge_flag(asm, tol=1e-8):
    """True iff one of the beta blocks vanishes in sup norm below tol."""
    if asm.n != 4:
        raise InvalidParameterError("the Hodge criterion applies to the 4-space target")
    beta1, beta2 = asm.beta_blocks()
    sup1 = 0.0 if beta1 is None else float(np.max(np.abs(beta1)))
    sup2 = 0.0 if beta2 is None else float(np.max(np.abs(beta2)))
    return sup1 < tol or sup2 < tol
