"""Hyperbolic geometry in the Poincare disc: triangle groups, orbits, coronas.

Group elements are pairs (z, w) with |w|^2 - |z|^2 = 1, identified with the
SU(1,1) matrix [[conj(w), z], [conj(z), w]].  The element acts on the open
unit disc by x |-> (conj(w) x + z) / (conj(z) x + w).

Conventions fixed throughout the package:
  * the vertex u of the base triangle sits at the origin,
  * the vertex v lies on the positive real axis,
  * the vertex w lies in the upper half of the disc,
  * rotation angles are anticlockwise-positive.
With these choices the generator product rot_u * rot_v * rot_w equals minus
the identity in SU(1,1) (the identity of PSU(1,1)).
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

# Orbit points closer than this are merged into one.
ORBIT_DEDUP_TOL = 1e-9
# Spatial-hash cell size used for the merge; well above the merge tolerance
# and well below the minimal separation of distinct orbit points.
_GRID = 1e-7
# Hyperbolic padding added to the exploration radius of the orbit walk so
# that BFS paths may leave the target ball and come back.
_ORBIT_PAD = 1.5
# Abort an orbit walk that touches more points than this.
DEFAULT_ORBIT_BUDGET = 200_000


class OrbitBudgetError(RuntimeError):
    """Raised when an orbit enumeration exceeds its element budget."""


@dataclass(frozen=True)
class GroupElement:
    """An element (z, w) of SU(1,1) with |w|^2 - |z|^2 = 1."""

    z: complex
    w: complex


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in SU(1,1), renormalised onto the quadric."""
    z = a.w.conjugate() * b.z + a.z * b.w
    w = a.z.conjugate() * b.z + a.w * b.w
    scale = 1.0 / math.sqrt(abs(w) ** 2 - abs(z) ** 2)
    return GroupElement(z * scale, w * scale)


def group_inv(a: GroupElement) -> GroupElement:
    return GroupElement(-a.z, a.w.conjugate())


def mobius_apply(g: GroupElement, x: complex) -> complex:
    """Image of the disc point x under g."""
    return (g.w.conjugate() * x + g.z) / (g.z.conjugate() * x + g.w)


def rotation_about(x: complex, t: float) -> GroupElement:
    """Rotation through the angle t (anticlockwise) about the disc point x.

    For x = 0 this is (0, exp(-it/2)); conjugating by the hyperbolic
    translation taking 0 to x gives the closed form below.
    """
    a = abs(x) ** 2
    if a >= 1.0:
        raise ValueError("rotation centre must lie in the open unit disc")
    denom = 1.0 - a
    z = -2j * x * math.sin(t / 2.0) / denom
    w = (cmath.exp(-1j * t / 2.0) - a * cmath.exp(1j * t / 2.0)) / denom
    scale = 1.0 / math.sqrt(abs(w) ** 2 - abs(z) ** 2)
    return GroupElement(z * scale, w * scale)


@dataclass(frozen=True)
class TriangleGroupData:
    """A hyperbolic (p, q, r) triangle group in the fixed convention.

    L is the hyperbolic distance between the vertices u and v; d is the
    common Euclidean radius of the edge-corona points of u, and s the
    largest Euclidean gap between subsequent corona points on that circle.
    """

    p: int
    q: int
    r: int
    u: complex
    v: complex
    w: complex
    gen_u: GroupElement
    gen_v: GroupElement
    gen_w: GroupElement
    L: float
    d: float
    s: float


def build_triangle_group(p: int, q: int, r: int) -> TriangleGroupData:
    """Construct the (p, q, r) rotation triangle group.

    The triangle has angles pi/p at u = 0, pi/q at v > 0 on the real axis
    and pi/r at w in the upper half disc; the generators are the
    anticlockwise rotations through 2pi/p, 2pi/q, 2pi/r about the vertices.
    Raises ValueError for a signature that is not hyperbolic, and
    ArithmeticError when double precision does not resolve the triangle's
    vertices or generators (at large p), or their product is not +-identity.
    """
    if min(p, q, r) < 2:
        raise ValueError("triangle signature entries must be >= 2")
    if 1.0 / p + 1.0 / q + 1.0 / r >= 1.0:
        raise ValueError("signature (%d,%d,%d) is not hyperbolic" % (p, q, r))
    ap, aq, ar = math.pi / p, math.pi / q, math.pi / r
    cosh_uv = (math.cos(ap) * math.cos(aq) + math.cos(ar)) / (
        math.sin(ap) * math.sin(aq)
    )
    cosh_uw = (math.cos(ap) * math.cos(ar) + math.cos(aq)) / (
        math.sin(ap) * math.sin(ar)
    )
    try:
        L = math.acosh(cosh_uv)
        L_uw = math.acosh(cosh_uw)
        u = 0.0 + 0.0j
        v = complex(math.tanh(L / 2.0), 0.0)
        w = math.tanh(L_uw / 2.0) * cmath.exp(1j * ap)
        gen_u = rotation_about(u, 2.0 * ap)
        gen_v = rotation_about(v, 2.0 * aq)
        gen_w = rotation_about(w, 2.0 * ar)
    except ValueError as exc:
        raise ArithmeticError(f"triangle ({p},{q},{r}) not resolved: {exc}") from None

    prod = group_mul(group_mul(gen_u, gen_v), gen_w)
    if abs(prod.z) > 1e-9 or abs(prod.w.imag) > 1e-9 or abs(abs(prod.w.real) - 1) > 1e-9:
        raise ArithmeticError("generator product is not +-identity within 1e-9")

    sinh_L = math.sinh(L)
    sq = sinh_L * math.sin(aq)
    d = sq / math.sqrt(sq * sq + 1.0)
    s = sinh_L * math.sin(2.0 * aq) / (sq * sq + 1.0)
    return TriangleGroupData(p, q, r, u, v, w, gen_u, gen_v, gen_w, L, d, s)


def _canonical_order(points):
    """Deterministic ordering: by principal angle, then Euclidean radius."""
    return sorted(points, key=lambda x: (round(cmath.phase(x), 9), round(abs(x), 9)))


# A twin of a point lies in the point's own cell unless the point lies
# within twice the merge tolerance of the cell's edge, in cell units; the
# second tolerance covers the rounding of the cell coordinates.
_CELL_EDGE = 2.0 * ORBIT_DEDUP_TOL / _GRID


def _dedup_insert(seen: dict, x: complex) -> bool:
    """Insert x into the spatial hash; return False if a twin already exists.

    Only x's own cell is probed, or the 3 x 3 block around it when x lies
    within _CELL_EDGE of the cell's edge: a twin, within ORBIT_DEDUP_TOL of
    x, is in no other cell.
    """
    u = x.real / _GRID
    v = x.imag / _GRID
    ci = round(u)
    cj = round(v)
    steps = (0,) if max(abs(u - ci), abs(v - cj)) < 0.5 - _CELL_EDGE else (-1, 0, 1)
    for di in steps:
        for dj in steps:
            y = seen.get((ci + di, cj + dj))
            if y is not None and abs(x - y) <= ORBIT_DEDUP_TOL:
                return False
    seen[(ci, cj)] = x
    return True


def orbit(
    tri: TriangleGroupData,
    radius: float,
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> list[complex]:
    """All orbit points of u with Euclidean radius <= radius.

    Breadth-first walk over generator applications; exploration is allowed
    to overshoot the target ball by a fixed hyperbolic padding so that
    points reachable only through slightly longer excursions are not lost.
    Points within ORBIT_DEDUP_TOL are merged.  Raises OrbitBudgetError when
    more than `budget` points are touched.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("orbit radius must lie in (0, 1)")
    rho_max = 2.0 * math.atanh(radius) + _ORBIT_PAD
    explore_r = math.tanh(rho_max / 2.0)
    gens = []
    for g in (tri.gen_u, tri.gen_v, tri.gen_w):
        gens.append(g)
        gens.append(group_inv(g))

    seen: dict = {}
    _dedup_insert(seen, tri.u)
    queue = deque([tri.u])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mobius_apply(g, x)
            if abs(y) > explore_r:
                continue
            if _dedup_insert(seen, y):
                if len(seen) > budget:
                    raise OrbitBudgetError(
                        "orbit enumeration exceeded budget of %d points" % budget
                    )
                queue.append(y)
    pts = [x for x in seen.values() if abs(x) <= radius]
    return _canonical_order(pts)


def edge_corona(tri: TriangleGroupData) -> list[complex]:
    """The 2p points (rot_u^m rot_v^l)(u), m = 0..p-1, l in {1, q-1}.

    These are the orbit points whose Dirichlet bisectors support the edges
    of the Dirichlet cell of u; the tests check them against an independent
    clipping of the cell (`tests/dirichlet_oracle.py`).
    """
    pts = []
    for l in (1, tri.q - 1):
        x0 = tri.u
        for _ in range(l):
            x0 = mobius_apply(tri.gen_v, x0)
        for m in range(tri.p):
            g = rotation_about(tri.u, 2.0 * math.pi * m / tri.p)
            pts.append(mobius_apply(g, x0))
    out: dict = {}
    for x in pts:
        _dedup_insert(out, x)
    return _canonical_order(list(out.values()))
