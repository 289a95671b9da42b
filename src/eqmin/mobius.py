"""Moebius transformations of the unit disk and hyperbolic trigonometry.

All geometry lives in the Poincare disk with curvature -1, conformal factor
lambda(z) = 2 / (1 - |z|^2).
"""

import cmath
import math

import numpy as np

__all__ = [
    "Mobius",
    "conformal_factor",
    "hyp_dist",
    "hyp_midpoint",
    "polygon_circumradius",
    "triangle_angles_from_lengths",
]


def conformal_factor(z):
    """Conformal factor of the hyperbolic metric lambda^2 |dz|^2 at z."""
    zz = np.asarray(z)
    return 2.0 / (1.0 - np.abs(zz) ** 2)


def hyp_dist(p, q):
    """Hyperbolic distance between two points of the open unit disk."""
    p = np.asarray(p)
    q = np.asarray(q)
    num = np.abs(p - q)
    den = np.abs(1.0 - np.conj(p) * q)
    return 2.0 * np.arctanh(num / den)


class Mobius:
    """Holomorphic automorphism of the unit disk.

    Stored as a 2x2 complex matrix [[a, b], [conj(b), conj(a)]] acting by
    z -> (a z + b) / (conj(b) z + conj(a)), normalised to |a|^2 - |b|^2 = 1.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        n = math.sqrt(abs(abs(a) ** 2 - abs(b) ** 2))
        self.a = a / n
        self.b = b / n

    @staticmethod
    def identity():
        return Mobius(1.0 + 0.0j, 0.0j)

    @staticmethod
    def translate_to_zero(p):
        """The isometry z -> (z - p) / (1 - conj(p) z)."""
        # matrix form: a = 1, b = -p up to the common factor
        return Mobius(1.0 + 0.0j, -complex(p))

    @staticmethod
    def rotation(phi):
        return Mobius(cmath.exp(0.5j * phi), 0.0j)

    @staticmethod
    def from_two_points(p, q, p_img, q_img):
        """Unique disk isometry with p -> p_img and q -> q_img.

        Requires hyp_dist(p, q) == hyp_dist(p_img, q_img).
        """
        tp = Mobius.translate_to_zero(p)
        ti = Mobius.translate_to_zero(p_img)
        w = tp(q)
        wi = ti(q_img)
        if abs(abs(w) - abs(wi)) > 1e-9 * (1.0 + abs(w)):
            raise ValueError("point pairs are not isometric")
        phi = cmath.phase(wi) - cmath.phase(w)
        return ti.inv() * Mobius.rotation(phi) * tp

    def __call__(self, z):
        return (self.a * z + self.b) / (np.conj(self.b) * z + np.conj(self.a))

    def deriv(self, z):
        """Complex derivative; |a|^2 - |b|^2 = 1 so this is 1/(conj(b) z + conj(a))^2."""
        return 1.0 / (np.conj(self.b) * z + np.conj(self.a)) ** 2

    def inv(self):
        return Mobius(np.conj(self.a), -self.b)

    def __mul__(self, other):
        # composition: (self * other)(z) = self(other(z))
        a = self.a * other.a + self.b * np.conj(other.b)
        b = self.a * other.b + self.b * np.conj(other.a)
        return Mobius(a, b)

    def __repr__(self):
        return f"Mobius(a={self.a!r}, b={self.b!r})"


def hyp_midpoint(p, q):
    """Hyperbolic midpoint of the geodesic segment from p to q."""
    t = Mobius.translate_to_zero(p)
    w = t(q)
    r = abs(w)
    if r == 0.0:
        return complex(p)
    m = math.tanh(0.5 * math.atanh(r)) * (w / r)
    return t.inv()(m)


def _polygon_angle(r_hyp, k):
    """Interior angle of the regular hyperbolic k-gon with circumradius r_hyp."""
    # right triangle: angle pi/k at the centre, hypotenuse r_hyp
    # cosh(hyp) = cot(pi/k) * cot(beta) with beta half the interior angle
    beta = math.atan(1.0 / (math.cosh(r_hyp) * math.tan(math.pi / k)))
    return 2.0 * beta


# width of the bracket at which the circumradius bisection stops
CIRCUMRADIUS_TOL = 1e-14


def polygon_circumradius(genus):
    """Circumradius of the regular 4g-gon whose angles sum to 2*pi.

    Found by bisection on the interior-angle condition angle = pi/(2g).
    """
    k = 4 * genus
    target = math.pi / (2 * genus)
    lo, hi = 1e-6, 30.0
    # angle decreases with radius
    while hi - lo > CIRCUMRADIUS_TOL:
        mid = 0.5 * (lo + hi)
        if _polygon_angle(mid, k) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def triangle_angles_from_lengths(a, b, c):
    """Angles of a hyperbolic triangle with side lengths (a, b, c).

    Angle alpha is opposite side a, etc.  Inputs may be arrays.
    """
    ca, cb, cc = np.cosh(a), np.cosh(b), np.cosh(c)
    sa, sb, sc = np.sinh(a), np.sinh(b), np.sinh(c)
    cos_alpha = (cb * cc - ca) / (sb * sc)
    cos_beta = (ca * cc - cb) / (sa * sc)
    cos_gamma = (ca * cb - cc) / (sa * sb)
    clipped = [np.clip(x, -1.0, 1.0) for x in (cos_alpha, cos_beta, cos_gamma)]
    return tuple(np.arccos(x) for x in clipped)
