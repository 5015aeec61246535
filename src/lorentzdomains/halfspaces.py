"""The wall kernel and the wall rule on the cone over the SU(1,1) quadric.

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


def batch_wall(g: CoverElement, Z: np.ndarray, W: np.ndarray, PHI: np.ndarray):
    """Form values <g, p>, sheet coordinates phi(g^{-1} p) and moduli
    |w_h|, h = g^{-1} p, vectorised.

    Z, W, PHI are parallel arrays describing cone points.  g is one wall;
    or one wall per point, a CoverElement whose z, w and phi are arrays
    parallel to Z; or a column of L walls, (L, 1) arrays, which gives
    (L, n) results on n points.  The elementwise arithmetic is the same in
    every form.  Each of the two complex products a = conj(z_g) Z and
    b = conj(w_g) W is formed once and serves the value Re(a) - Re(b),
    which is Re(a - b) bit for bit and holds no complex array, the modulus
    |a - b| = |w_h|, and the cocycle bracket 1 - a / b; both are freed
    before the phase is formed.
    """
    a = np.conjugate(g.z) * Z
    b = np.conjugate(g.w) * W
    val = a.real - b.real
    modulus = np.abs(a - b)
    bracket = 1.0 - a / b
    del a, b
    if not (bracket.real > 0.0).all():
        raise ArithmeticError("cocycle bracket left the principal branch")
    phi = -g.phi + PHI + np.angle(bracket)
    return val, phi, modulus


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
