"""The array cover product, the wall kernel built on it and the wall rule
on the cone over the SU(1,1) quadric.

Points of the ambient space are CoverElement triples (z, w, phi) with
|z| < |w| and exp(i phi) = w/|w|; they need not satisfy the quadric
normalisation.  For a group element g, the wall E_g is cut out of the cone
by the bilinear pairing

    <a, b> = Re(z_a conj(z_b) - w_a conj(w_b))

together with a sheet condition: p lies on the same component as g exactly
when phi(g^{-1} p) lies in (-pi/2, pi/2).  I_g is the closed side
containing the translates g * (inside), H_g is the closure of the
complement.  The two only overlap on the wall itself.
"""

from __future__ import annotations

import math

import numpy as np

from .cover import CoverElement


def _chart_cone(pts: np.ndarray):
    """The cone points (Z, W, PHI) of chart points pts (shape (..., 3)):
    (x1, x2, s) is (x1 + i x2, 1 + i s, arctan s)."""
    Z = pts[..., 0] + 1j * pts[..., 1]
    W = 1.0 + 1j * pts[..., 2]
    return Z, W, np.arctan(pts[..., 2])


def _cover_product(z1, w1, phi1, Z, W, PHI):
    """The w and phi of `cover_mul`'s product g . p, vectorised, for
    g = (z1, w1, phi1) and cone points p = (Z, W, PHI) broadcast together:
    w = conj(z1) Z + w1 W, phi = phi1 + PHI + arg(1 + conj(z1) Z / (w1 W)).
    Each cocycle bracket must have positive real part, else ArithmeticError.
    conj(z1) Z serves the bracket, then becomes w in place."""
    qw = np.conjugate(z1) * Z
    b = w1 * W
    bracket = qw / b
    bracket += 1.0
    qw += b
    del b  # freed before the phase is formed: fewer fresh pages per call
    if not (bracket.real > 0.0).all():
        raise ArithmeticError("cocycle bracket left the principal branch")
    return qw, phi1 + PHI + np.angle(bracket)


def batch_wall(g: CoverElement, Z: np.ndarray, W: np.ndarray, PHI: np.ndarray):
    """Form values <g, p>, sheet coordinates phi(g^{-1} p) and the w_h of
    h = g^{-1} p, vectorised; a caller that needs the modulus |w_h| forms
    it from w_h.

    Z, W, PHI are parallel arrays describing cone points.  g is one wall;
    or one wall per point, a CoverElement whose z, w and phi are arrays
    parallel to Z; or a column of L walls, (L, 1) arrays, which gives
    (L, n) results on n points.  The elementwise arithmetic is the same in
    every form.  h is `_cover_product` with g^{-1} = (-z_g, conj(w_g),
    -phi_g), and <g, p> = -Re w_h.
    """
    w_h, phi = _cover_product(-g.z, np.conjugate(g.w), -g.phi, Z, W, PHI)
    return -w_h.real, phi, w_h


def wall_masks(val, phi, band: float):
    """The wall rule on `batch_wall` values, with a band about the wall.

    Returns the masks (holds, on): the point is on the I-side,
    <g, p> <= -1, and it is within band of the wall, |<g, p> + 1| <= band.
    Each holds only inside the sheet window |phi| < pi/2, found once for
    both.  The point is strictly inside where it holds and is not on the
    wall at band 0, and H_g is the complement of that.
    """
    window = np.abs(phi) < math.pi / 2.0
    return (val <= -1.0) & window, (np.abs(val + 1.0) <= band) & window
