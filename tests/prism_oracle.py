"""The per-prism scan of `verify` as it was before its work buffers, kept as
a test oracle.

`reduction._prism_scan` decides every wall g D^n of a prism, n = 0 too,
from two lattice-point counts per point, folds its verdicts into the
caller's masks, and checks the truncation of the wall family as one
scalar premise per prism.  The oracle evaluates the n = 0 wall on every
point, clips the ranges to |n| <= 2N and returns the |n| <= N and
|n| <= 2N verdicts apart, and `description_masks` checks that they agree
off the boundary, as the doubling check once did.  The tests check the
masks of `reduction._description_masks` against it bit for bit.
"""

import math

import numpy as np

from lorentzdomains.cover import CoverElement, cover_mul, cover_pow
from lorentzdomains.domain import _parts, membership_mask
from lorentzdomains.halfspaces import _chart_cone, batch_wall, wall_masks
from lorentzdomains.reduction import BOUNDARY_BAND, _corona_lifts


def n_range(phi0, step: float, half_width: int, reach):
    """Per point, the inclusive range lo..hi of the n in [-half_width,
    half_width] with |phi0 + n step| <= reach (empty when lo > hi), as
    whole numbers in float64."""
    # in place: at 10^4 points each (2, n) temporary is 160 KB
    lo = -reach - phi0
    lo /= step
    np.maximum(np.ceil(lo, out=lo), -half_width, out=lo)
    hi = reach - phi0
    hi /= step
    np.minimum(np.floor(hi, out=hi), half_width, out=hi)
    return lo, hi


def decided_ranges(phi0, step: float, half_width: int, r):
    """The ranges of n in [-half_width, half_width] that the moduli r of a
    prism's walls decide, from one (2, n) pass through `n_range`.

    Returns (lo, hi) as `n_range` does, each of shape (2, n); write
    B = BOUNDARY_BAND.  Row 0 is the open range |phi0 + n step| <=
    arccos(min(1, (1 - 2B) / r)) + 2B: outside it a prism wall of modulus
    r on the point neither captures the point nor puts it near a
    boundary.  Row 1 is the decided-hit range
    |phi0 + n step| <= arccos(min(1, (1 + 2B) / r)) - 2B, empty unless
    r > 1 + 2B: inside it the wall holds strictly on the point and is not
    near it (see `prism_scan`).  r = inf gives the sheet window in row 0,
    pi/2 + 2B: beyond pi/2 + B no wall captures or is near, and the second
    band is the margin for the drift of the computed coordinate from the
    line phi0 + n step.
    """
    band = 2.0 * BOUNDARY_BAND
    reach = np.array([[1.0 - band], [1.0 + band]]) / r
    np.arccos(np.minimum(1.0, reach, out=reach), out=reach)
    reach += np.array([[band], [-band]])
    return n_range(phi0, step, half_width, reach)


def prism_scan(g: CoverElement, D: CoverElement, two_n: int, step: float, Z, W, PHI):
    """Violation masks of the prism over the corona lift g, and its
    boundary mask, from one `batch_wall` call on every point and rows
    only where the moduli leave some n undecided.

    D is the wall-rotation step.  Returns (violated_n, violated_2n, near):
    whether a point strictly violates some wall g D^n with |n| <= N, resp.
    |n| <= 2N = two_n, and whether it lies near the boundary of any of them.

    The identity.  D^n is the axis rotation z = 0, w = exp(-i n step),
    phi = -n step, so on a point p every wall g D^n has the same modulus
    r = |conj(z_g) Z - conj(w_g) W| = |w_h|, h = g^{-1} p, the sheet
    coordinate phi_n = phi_0 + n step and the value -r cos(phi_n); the
    n = 0 wall, g itself, gives phi_0 and w_h, so r, with its value.  Write
    B = BOUNDARY_BAND; the margins 2B below cover the rounding of values
    and coordinates, which stays near 1e-13.

    - Decided miss: |phi_n| > arccos(min(1, (1 - 2B) / r)) + 2B, outside
      the open range of `decided_ranges`.  Then r cos(phi_n) < 1 - 2B or
      the window is shut, and the wall neither captures the point nor is
      near it.
    - Decided hit: |phi_n| <= arccos(min(1, (1 + 2B) / r)) - 2B, inside
      its decided-hit range, which is empty unless r > 1 + 2B.  Then the
      value lies below -1 - 2B inside the window, and the wall holds
      strictly and is not near.  This is an interval of n: violated_2n is
      set where it meets [-2N, 2N], and violated_n where it meets [-N, N].
    - Evaluated: the n = 0 wall on every point, and the n != 0 walls
      of the open range outside the decided-hit range, go through
      `batch_wall` and `wall_masks`.  Those rows are listed only on the
      points whose open range the decided-hit range does not cover, and
      only the rows n read there are built, each as
      cover_mul(g, cover_pow(D, n)); with none, no power is built.  Each
      evaluated wall must keep its sheet coordinate within B of the line
      phi_0 + n step, or RuntimeError is raised.

    The guard.  The identity needs every D^n to be that axis rotation, and
    the points to be cone points, exp(i PHI) = W/|W|.  D is checked once
    per call: it must be an exact axis rotation (`axis_turns` set, z = 0)
    whose phi is within 4 ulp of -step (the two roundings of pi k / p_lcm
    differ by at most 2 ulp up to k = 400), or RuntimeError is raised.
    Then `cover_pow` makes every D^n an exact axis rotation too, with
    phi = -pi (n turns) rounded once.
    """
    deviation = abs(D.phi + step)
    if D.axis_turns is None or D.z != 0 or not deviation <= 4.0 * math.ulp(step):
        raise RuntimeError(
            f"prism wall sheet coordinates leave the line phi_0 + n*{step:.6g}: "
            f"D is not the exact axis rotation through that step "
            f"(axis_turns {D.axis_turns}, |z| {abs(D.z):.3g}, phi off by {deviation:.3g})"
        )
    val0, phi0, w_h = batch_wall(g, Z, W, PHI)
    r = np.abs(w_h)
    del w_h
    violated_n, near = wall_masks(val0, phi0, BOUNDARY_BAND)
    violated_2n = violated_n.copy()

    (lo, sure_lo), (hi, sure_hi) = decided_ranges(phi0, step, two_n, r)
    violated_2n |= sure_lo <= sure_hi
    violated_n |= np.maximum(sure_lo, -(two_n // 2)) <= np.minimum(sure_hi, two_n // 2)

    # the undecided (point, n): [lo, hi] less the decided-hit interval and n = 0
    open_points = np.flatnonzero((lo <= hi) & ((sure_lo > lo) | (sure_hi < hi)))
    bounds = (a[open_points].astype(np.int64).tolist() for a in (lo, hi, sure_lo, sure_hi))
    pairs = [
        (i, n)
        for i, first, last, hit_first, hit_last in zip(open_points.tolist(), *bounds)
        for n in range(first, last + 1)
        if n and not hit_first <= n <= hit_last
    ]
    if not pairs:
        return violated_n, violated_2n, near
    point, n = np.array(pairs).T

    rows, row_of = np.unique(n, return_inverse=True)
    walls = _parts([cover_mul(g, cover_pow(D, row)) for row in rows])
    wall = CoverElement(*(a[row_of] for a in walls))
    val, phi = batch_wall(wall, Z[point], W[point], PHI[point])[:2]
    if np.any(np.abs(phi - (phi0[point] + n * step)) > BOUNDARY_BAND):
        raise RuntimeError(
            f"prism wall sheet coordinates leave the line phi_0 + n*{step:.6g}"
        )
    hit, near_wall = wall_masks(val, phi, BOUNDARY_BAND)
    near[point[near_wall]] = True
    violated_2n[point[hit]] = True
    violated_n[point[hit & (np.abs(n) <= two_n // 2)]] = True
    return violated_n, violated_2n, near


def description_masks(cons, pts):
    """The masks (in_linear, in_prism_complement, near_boundary) of the
    finite description, the prism complement and the boundary band on the
    chart points pts, from `prism_scan` on every corona lift with
    two_n = 4 p_lcm; RuntimeError when a prism verdict off the boundary
    changes as the wall scan doubles."""
    config = cons.config
    Z, W, PHI = _chart_cone(pts)
    in_linear = membership_mask(cons, pts)
    near_boundary = np.zeros(len(Z), dtype=bool)
    for wall in cons.slab:
        val, phi = batch_wall(wall.g, Z, W, PHI)[:2]
        near_boundary |= wall_masks(val, phi, BOUNDARY_BAND)[1]

    two_n = 4 * config.p_lcm
    step = math.pi * config.k / config.p_lcm
    in_prism_complement = np.ones(len(Z), dtype=bool)
    changed = []
    for x, g in _corona_lifts(config):
        violated_n, violated_2n, near = prism_scan(g, cons.D, two_n, step, Z, W, PHI)
        near_boundary |= near
        in_prism_complement &= violated_2n
        changed.append((x, np.flatnonzero(violated_n != violated_2n)))

    for x, points in changed:
        if not near_boundary[points].all():
            raise RuntimeError(
                f"prism wall scan did not stabilise for corona point {x}"
            )
    return in_linear, in_prism_complement, near_boundary
