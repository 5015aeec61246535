"""Arithmetic in the universal covering group of SU(1,1).

An element is a triple (z, w, phi) where (z, w) is the underlying SU(1,1)
pair and phi is a continuous determination of arg(w): exp(i*phi) = w/|w|.
The product rule is

    z3 = conj(w1) z2 + z1 w2
    w3 = conj(z1) z2 + w1 w2
    phi3 = phi1 + phi2 + Arg(1 + conj(z1) z2 / (w1 w2))

where the bracket always has positive real part (its distance from 1 is
below 1), so the principal branch is the right one.

Rotations about the origin get an exact rational bookkeeping slot
(`axis_turns`): products and powers of such elements are computed in exact
arithmetic, which makes identities like D^(3p) = C^k hold bitwise in phi.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .disc import TriangleGroupData, build_triangle_group

# |z| of a numerically central element must stay below this.
CENTRAL_Z_TOL = 1e-9


@dataclass(frozen=True)
class CoverElement:
    """Element (z, w, phi) of the universal cover; exp(i phi) = w/|w|.

    axis_turns, when set, records that the element is the lift of the
    rotation through 2*pi*axis_turns about the origin, with
    w = exp(-i pi axis_turns) and phi = -pi * float(axis_turns).
    """

    z: complex
    w: complex
    phi: float
    axis_turns: Optional[Fraction] = None


def axis_rotation(turns) -> CoverElement:
    """Exact lift of the rotation through 2*pi*turns about the origin."""
    turns = Fraction(turns)
    half = 2 * turns
    if half.denominator == 1:
        # multiples of a half turn have exact coordinates
        n = half.numerator % 4
        w = (1 + 0j, -1j, -1 + 0j, 1j)[n]
    else:
        w = cmath.exp(-1j * math.pi * float(turns))
    return CoverElement(0j, w, -math.pi * float(turns), turns)


COVER_IDENTITY = axis_rotation(0)


def central(n: int) -> CoverElement:
    """The n-th power of the central element C (full turn about the origin)."""
    return axis_rotation(Fraction(n))


def cover_mul(a: CoverElement, b: CoverElement) -> CoverElement:
    if a.axis_turns is not None and b.axis_turns is not None:
        return axis_rotation(a.axis_turns + b.axis_turns)
    z1, w1, z2, w2 = a.z, a.w, b.z, b.w
    if z1 == 0:
        # left factor rotates about the origin: the cocycle term vanishes
        return CoverElement(w1.conjugate() * z2, w1 * w2, a.phi + b.phi)
    if z2 == 0:
        return CoverElement(z1 * w2, w1 * w2, a.phi + b.phi)
    z3 = w1.conjugate() * z2 + z1 * w2
    w3 = z1.conjugate() * z2 + w1 * w2
    bracket = 1.0 + (z1.conjugate() * z2) / (w1 * w2)
    if bracket.real <= 0.0:
        raise ArithmeticError("cocycle bracket left the principal branch")
    return CoverElement(z3, w3, a.phi + b.phi + cmath.phase(bracket))


def cover_inv(a: CoverElement) -> CoverElement:
    if a.axis_turns is not None:
        return axis_rotation(-a.axis_turns)
    return CoverElement(-a.z, a.w.conjugate(), -a.phi)


def cover_pow(a: CoverElement, n: int) -> CoverElement:
    if a.axis_turns is not None:
        return axis_rotation(a.axis_turns * n)
    if n < 0:
        return cover_pow(cover_inv(a), -n)
    acc = COVER_IDENTITY
    base = a
    while n:
        if n & 1:
            acc = cover_mul(acc, base)
        base_needed = n >> 1
        if base_needed:
            base = cover_mul(base, base)
        n = base_needed
    return acc


def R_param(x: complex, t: float) -> CoverElement:
    """Continuous lift of the rotation through t about the disc point x.

    R_param(x, 0) is the identity and phi depends continuously on t, so
    this is the unique lifted one-parameter subgroup through the rotation.
    """
    if x == 0:
        return CoverElement(0j, cmath.exp(-1j * t / 2.0), -t / 2.0)
    a = abs(x) ** 2
    if a >= 1.0:
        raise ValueError("rotation centre must lie in the open unit disc")
    scale = 1.0 / math.sqrt(1.0 - a)
    trans = CoverElement(x * scale, complex(scale, 0.0), 0.0)
    core = CoverElement(0j, cmath.exp(-1j * t / 2.0), -t / 2.0)
    return cover_mul(cover_mul(trans, core), cover_inv(trans))


def as_central_power(g: CoverElement, tol: float = CENTRAL_Z_TOL) -> int:
    """The integer n with g = C^n, or an ArithmeticError if g is not central."""
    if abs(g.z) > tol:
        raise ArithmeticError("element is not central: |z| = %g" % abs(g.z))
    n = round(-g.phi / math.pi)
    if abs(g.phi + n * math.pi) > tol or abs(g.w - (-1.0) ** (n % 2)) > 10 * tol:
        raise ArithmeticError("element is not a lattice point of the centre")
    return n


@dataclass(frozen=True)
class LevelConfig:
    """Data of a level-k lift of a (p, q, r) rotation triangle group.

    central_corrections = (x, y, z) are the canonical residues in [0, k)
    with p*x = q*y = r*z = -1 and x + y + z = -mu (mod k); the lifted
    generators are R_vertex(2pi/order) * C^correction.  lam is the unit
    in {1, 2} with lam * k = 1 (mod 3) when q = r = 3, else None.
    p_lcm is lcm(p, 3), the combined rotation order about u once the
    cyclic order-3 factor is adjoined.  mu is the integer with
    R_u(2pi/p) R_v(2pi/q) R_w(2pi/r) = C^mu.

    tri is the triangle group and gens the lifted generators u, v, w, D
    and C by letter, built once, by the lift; every later stage reads
    them from here.  D = R_u(2 pi k / p_lcm) generates, together with the
    centre, the combined rotation group about the axis of u; it is exact,
    so D^p_lcm equals C^k bitwise.  The other fields determine tri and
    gens, which take no part in comparison, hashing or repr.
    """

    k: int
    p_tri: int
    p_lcm: int
    lam: Optional[int]
    central_corrections: tuple
    signature: tuple
    mu: int
    tri: TriangleGroupData = field(compare=False, repr=False)
    gens: dict = field(compare=False, repr=False)


def series_signature(series: str, k: int) -> tuple[int, int, int]:
    """Triangle signature (p, 3, 3) for series tag 'E' or 'Z' at level k."""
    if k < 1:
        raise ValueError(f"level k must be a positive integer, got {k}")
    if series == "E":
        return (k + 3, 3, 3)
    if series == "Z":
        return (2 * k + 3, 3, 3)
    raise ValueError(f"unknown series tag {series!r}, expected 'E' or 'Z'")


def lift_level(p: int, q: int, r: int, k: int) -> LevelConfig:
    """Solve the central-correction congruences for the level-k lift.

    The triangle group and the rotations R_u(2pi/p), R_v(2pi/q),
    R_w(2pi/r) are built once: their product measures mu, never assumed,
    and times their central corrections they are the lifted generators.
    Raises ValueError naming the failed condition when no lift exists.
    """
    if k < 1:
        raise ValueError("level k must be a positive integer")
    tri = build_triangle_group(p, q, r)
    gu = R_param(tri.u, 2.0 * math.pi / p)
    gv = R_param(tri.v, 2.0 * math.pi / q)
    gw = R_param(tri.w, 2.0 * math.pi / r)
    mu = as_central_power(cover_mul(cover_mul(gu, gv), gw))
    if math.gcd(k, p * q * r) != 1:
        raise ValueError(
            "no level-%d lift: gcd(k, pqr) = %d is not 1"
            % (k, math.gcd(k, p * q * r))
        )
    obstruction = mu * p * q * r - p * q - q * r - r * p
    if obstruction % k != 0:
        raise ValueError(
            "no level-%d lift: k does not divide mu*pqr - pq - qr - rp = %d"
            % (k, obstruction)
        )
    x = (-pow(p, -1, k)) % k
    y = (-pow(q, -1, k)) % k
    z = (-pow(r, -1, k)) % k
    assert (x + y + z + mu) % k == 0
    lam = None
    if q == 3 and r == 3:
        lam = 1 if k % 3 == 1 else 2
    p_lcm = (p * 3) // math.gcd(p, 3)
    gens = {
        letter: cover_mul(g, central(c))
        for letter, g, c in zip("uvw", (gu, gv, gw), (x, y, z))
    }
    gens["D"] = axis_rotation(Fraction(k, p_lcm))
    gens["C"] = central(1)
    return LevelConfig(
        k=k,
        p_tri=p,
        p_lcm=p_lcm,
        lam=lam,
        central_corrections=(x, y, z),
        signature=(p, q, r),
        mu=mu,
        tri=tri,
        gens=gens,
    )

