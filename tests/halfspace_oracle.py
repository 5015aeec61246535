"""Scalar half-space predicates, kept as test oracles.

One point and one wall at a time, through the exact cover product
(`cover_mul(cover_inv(g), p)`), where the package evaluates walls in batch
(`halfspaces.batch_wall`, `halfspaces.wall_masks`).  The tests check the
batched rule and the package's slab and prism scans against these.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from lorentzdomains.cover import (
    CoverElement,
    LevelConfig,
    axis_rotation,
    cover_inv,
    cover_mul,
    cover_pow,
)
from lorentzdomains.disc import GroupElement, mobius_apply

# A cone point must satisfy exp(i phi) = w/|w| to this accuracy.
PHASE_TOL = 1e-10
# Width of the wall when testing side 'E'.
WALL_TOL = 1e-9
# Chart plane Re(w) = 1 thickness for slab membership.
SLAB_PLANE_TOL = 1e-10
# Accuracy required of the disc image of a prism lift.
LIFT_IMAGE_TOL = 1e-9


def is_cone_point(p: CoverElement, tol: float = PHASE_TOL) -> bool:
    """Whether p is a valid point of the cone over the quadric."""
    if abs(p.z) >= abs(p.w):
        return False
    return abs(complex(math.cos(p.phi), math.sin(p.phi)) - p.w / abs(p.w)) <= tol


def chart_point(x1: float, x2: float, s: float) -> CoverElement:
    """The slab-chart point (x1 + i x2, 1 + i s) with principal phase."""
    return CoverElement(complex(x1, x2), complex(1.0, s), math.atan(s))


def pairing_form(a, b) -> float:
    """The invariant bilinear form Re(z1 conj(z2) - w1 conj(w2)).

    Accepts anything with .z and .w attributes (GroupElement, CoverElement).
    """
    return (a.z * b.z.conjugate() - a.w * b.w.conjugate()).real


@dataclass(frozen=True)
class HalfSpaceConstraint:
    """A constraint `p in side_g` for side I (inner), H (outer) or E (wall)."""

    g: CoverElement
    side: str
    label: str = ""

    def __post_init__(self):
        if self.side not in ("I", "H", "E"):
            raise ValueError("side must be one of 'I', 'H', 'E'")


def _wall_data(g: CoverElement, p: CoverElement):
    """Form value <g, p> and the sheet coordinate phi(g^{-1} p)."""
    h = cover_mul(cover_inv(g), p)
    return -h.w.real, h.phi


def membership(c: HalfSpaceConstraint, p: CoverElement) -> bool:
    """Whether the cone point p satisfies the constraint.

    I_g:    <g, p> <= -1 and the sheet window holds;
    H_g:    not (<g, p> < -1 and the sheet window holds);
    E_g:    |<g, p> + 1| <= WALL_TOL and the sheet window holds.
    I and H are both closed; they overlap exactly on the wall.
    """
    val, phi = _wall_data(c.g, p)
    window = -math.pi / 2.0 < phi < math.pi / 2.0
    if c.side == "I":
        return val <= -1.0 and window
    if c.side == "H":
        return not (val < -1.0 and window)
    return abs(val + 1.0) <= WALL_TOL and window


def slab_membership(p: CoverElement, config: LevelConfig) -> bool:
    """Whether p lies in the open slab E_e intersect H_D intersect H_D^{-1}.

    In coordinates: |z| < |w|, Re(w) = 1, |Im(w)| < tan(pi k / (2 p_lcm)),
    and phi is the principal argument of w.
    """
    if abs(p.z) >= abs(p.w):
        return False
    if abs(p.w.real - 1.0) > SLAB_PLANE_TOL:
        return False
    if abs(p.w.imag) >= math.tan(math.pi * config.k / (2.0 * config.p_lcm)):
        return False
    return abs(p.phi - math.atan2(p.w.imag, p.w.real)) <= PHASE_TOL


def axis_step(config: LevelConfig) -> CoverElement:
    """The exact generator D = R_u(2 pi k / p_lcm) of the combined stabiliser."""
    return axis_rotation(Fraction(config.k, config.p_lcm))


def prism_membership(
    p: CoverElement,
    x: complex,
    g_lift: CoverElement,
    config: LevelConfig,
    window: int = 0,
) -> bool:
    """Whether p lies in the prism over the orbit point x.

    The prism is the intersection of H_{g_lift * D^n} over all integers n;
    a symmetric window n in [-N, N] (N = 2 p_lcm by default) is evaluated
    and the result is required to be stable when the window doubles.
    g_lift must be a lift of a group element sending u to x.
    """
    proj = GroupElement(g_lift.z, g_lift.w)
    if abs(mobius_apply(proj, 0j) - x) > LIFT_IMAGE_TOL:
        raise ValueError("g_lift does not send u to x")
    N = window if window > 0 else 2 * config.p_lcm
    D = axis_step(config)
    inside_N = True
    inside_2N = True
    for n in range(-2 * N, 2 * N + 1):
        g = cover_mul(g_lift, cover_pow(D, n))
        val, phi = _wall_data(g, p)
        violated = val < -1.0 and -math.pi / 2.0 < phi < math.pi / 2.0
        if violated:
            inside_2N = False
            if abs(n) <= N:
                inside_N = False
    if inside_N != inside_2N:
        raise RuntimeError(
            "prism window of half-width %d is unstable; widen the window" % N
        )
    return inside_2N


def cylinder_bounds(x: complex, config: LevelConfig):
    """Inner and outer cylinder radii of the prism over x.

    r_in = sqrt(1 - |x|^2), r_out = sec(pi k / (2 p_lcm)) * r_in; the prism
    over x contains the solid cylinder {|w - conj(x) z| <= r_in} and its
    projection is contained in {|w - conj(x) z| <= r_out}.
    """
    if abs(x) >= 1.0:
        raise ValueError("x must lie in the open unit disc")
    r_in = math.sqrt(1.0 - abs(x) ** 2)
    r_out = r_in / math.cos(math.pi * config.k / (2.0 * config.p_lcm))
    return r_in, r_out
