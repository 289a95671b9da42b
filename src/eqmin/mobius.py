"""Disk automorphisms as coefficient pairs, and hyperbolic trigonometry.

All geometry lives in the Poincare disk with curvature -1, conformal factor
lambda(z) = 2 / (1 - |z|^2).

A holomorphic automorphism of the disk is a pair p = (a, b) (p[0] and
p[1]: a tuple, or an array of shape (2, ...)) acting by z -> (a z + b) /
(conj(b) z + conj(a)); its matrix [[a, b], [conj(b), conj(a)]] has
determinant |a|^2 - |b|^2 > 0, and (a, b) and (-a, -b) are one map.
"""

import math

import numpy as np

__all__ = [
    "apply",
    "compose",
    "conformal_factor",
    "derivative",
    "hyp_dist",
    "hyp_midpoint",
    "invert",
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


def apply(p, z):
    """The image p(z)."""
    return (p[0] * z + p[1]) / (np.conj(p[1]) * z + np.conj(p[0]))


def compose(p, q):
    """p o q, (p o q)(z) = p(q(z)): the matrix product, not normalised."""
    return p[0] * q[0] + p[1] * np.conj(q[1]), p[0] * q[1] + p[1] * np.conj(q[0])


def invert(p):
    """The inverse map, by the adjugate matrix."""
    return np.conj(p[0]), -p[1]


def derivative(p, z):
    """p'(z) = 1 / (conj(b) z + conj(a))^2, for |a|^2 - |b|^2 = 1."""
    return 1.0 / (np.conj(p[1]) * z + np.conj(p[0])) ** 2


def _unit(p):
    """p scaled to |a|^2 - |b|^2 = 1."""
    n = math.sqrt(abs(abs(p[0]) ** 2 - abs(p[1]) ** 2))
    return p[0] / n, p[1] / n


def hyp_midpoint(p, q):
    """Hyperbolic midpoint of the geodesic segment from p to q: q carried
    to w by t(z) = (z - p) / (1 - conj(p) z), w moved to the point of half
    its distance from 0, and carried back."""
    t = _unit((1.0 + 0.0j, -complex(p)))
    w = apply(t, q)
    r = abs(w)
    if r == 0.0:
        return complex(p)
    m = math.tanh(0.5 * math.atanh(r)) * (w / r)
    return apply(_unit(invert(t)), m)


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
