import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzdomains.disc import (
    _GRID,
    ORBIT_DEDUP_TOL,
    OrbitBudgetError,
    _dedup_insert,
    build_triangle_group,
    edge_corona,
    group_inv,
    group_mul,
    mobius_apply,
    orbit,
    rotation_about,
)

from dirichlet_oracle import dirichlet_corona_oracle
from lifts import lift
from orbit_oracle import block_probe_orbit, dedup_insert
from lorentzdomains.reduction import _closed_quantities

# High-precision reference values (50-digit evaluation of the closed forms).
COSH_L_533 = 1.7769014186686121
SINH_L_533 = 1.4688017741228823
D_533 = 0.7861513777574233
S_533 = 0.4858682717566457
COSH_L_733 = 2.5295368059580408
D_733 = 0.8955097630985596
S_733 = 0.3985393377033787

disc_points = st.builds(
    lambda r, a: r * cmath.exp(1j * a),
    st.floats(0.0, 0.9),
    st.floats(-math.pi, math.pi),
)
angles = st.floats(-12.0, 12.0)


def test_rotation_about_origin_closed_form():
    t = 0.7318
    g = rotation_about(0j, t)
    assert abs(g.z) == 0.0
    assert abs(g.w - cmath.exp(-1j * t / 2.0)) < 1e-15


def test_rotation_is_anticlockwise():
    g = rotation_about(0j, 0.25)
    y = mobius_apply(g, 0.5 + 0j)
    assert abs(y - 0.5 * cmath.exp(0.25j)) < 1e-14
    assert y.imag > 0


@given(disc_points, angles)
@settings(max_examples=60, deadline=None)
def test_rotation_fixes_centre(x, t):
    g = rotation_about(x, t)
    assert abs(mobius_apply(g, x) - x) < 1e-9


@given(disc_points, angles, angles)
@settings(max_examples=60, deadline=None)
def test_rotation_angle_additivity(x, s, t):
    ab = group_mul(rotation_about(x, s), rotation_about(x, t))
    c = rotation_about(x, s + t)
    probe = 0.31 - 0.17j
    assert abs(mobius_apply(ab, probe) - mobius_apply(c, probe)) < 1e-9


@given(disc_points, disc_points, disc_points, angles, angles)
@settings(max_examples=60, deadline=None)
def test_mul_matches_composed_action(x, y, probe, s, t):
    a = rotation_about(x, s)
    b = rotation_about(y, t)
    lhs = mobius_apply(group_mul(a, b), probe)
    rhs = mobius_apply(a, mobius_apply(b, probe))
    assert abs(lhs - rhs) < 1e-9
    back = mobius_apply(group_inv(a), mobius_apply(a, probe))
    assert abs(back - probe) < 1e-9


def test_build_533_frozen_values():
    tri = build_triangle_group(5, 3, 3)
    assert abs(math.cosh(tri.L) - COSH_L_533) < 1e-12
    assert abs(tri.d - D_533) < 1e-12
    assert abs(tri.s - S_533) < 1e-12
    assert tri.u == 0j
    assert tri.v.imag == 0.0 and tri.v.real > 0
    assert abs(tri.v.real - math.tanh(tri.L / 2.0)) < 1e-15
    assert tri.w.imag > 0
    assert abs(cmath.phase(tri.w) - math.pi / 5.0) < 1e-12


def test_build_733_frozen_values():
    tri = build_triangle_group(7, 3, 3)
    assert abs(math.cosh(tri.L) - COSH_L_733) < 1e-12
    assert abs(tri.d - D_733) < 1e-12
    assert abs(tri.s - S_733) < 1e-12


def test_build_rejects_non_hyperbolic():
    with pytest.raises(ValueError):
        build_triangle_group(3, 3, 3)
    with pytest.raises(ValueError):
        build_triangle_group(2, 2, 5)


@pytest.mark.parametrize("p", [100_000_000_004, 100_000_000_000_000_004])
def test_build_names_a_triangle_double_precision_cannot_resolve(p):
    """At these p the rotation about v breaks down: the triangle is
    hyperbolic, so this is ArithmeticError, while a bad centre passed to
    `rotation_about` directly stays ValueError."""
    with pytest.raises(ArithmeticError, match=rf"triangle \({p},3,3\) not resolved: "):
        build_triangle_group(p, 3, 3)
    with pytest.raises(ValueError, match="open unit disc"):
        rotation_about(1.0 + 0j, 1.0)


def test_generator_orders():
    tri = build_triangle_group(5, 3, 3)
    probe = 0.2 + 0.4j
    g = tri.gen_u
    acc = g
    for _ in range(4):
        acc = group_mul(acc, g)
    assert abs(mobius_apply(acc, probe) - probe) < 1e-12
    acc = tri.gen_v
    for _ in range(2):
        acc = group_mul(acc, tri.gen_v)
    assert abs(mobius_apply(acc, probe) - probe) < 1e-12


def test_corona_radius_and_spacing_533():
    tri = build_triangle_group(5, 3, 3)
    pts = edge_corona(tri)
    assert len(pts) == 10
    radii = [abs(x) for x in pts]
    mean = sum(radii) / len(radii)
    var = sum((r - mean) ** 2 for r in radii) / len(radii)
    assert math.sqrt(var) < 1e-10
    assert abs(mean - tri.d) < 1e-12
    alpha = math.pi / (2 * tri.p)
    assert abs(tri.d**2 - math.cos(3 * alpha) / math.cos(alpha)) < 1e-12
    # Points are equally spaced on the circle; the largest gap equals s.
    ordered = sorted(pts, key=cmath.phase)
    gaps = [
        abs(ordered[(i + 1) % len(ordered)] - ordered[i]) for i in range(len(ordered))
    ]
    assert abs(max(gaps) - tri.s) < 1e-12


def test_corona_via_v_orbit():
    tri = build_triangle_group(7, 3, 3)
    x01 = mobius_apply(tri.gen_v, tri.u)
    pts = edge_corona(tri)
    assert any(abs(x - x01) < 1e-12 for x in pts)
    assert len(pts) == 14


def test_orbit_contains_corona_and_respects_radius():
    tri = build_triangle_group(5, 3, 3)
    pts = orbit(tri, 0.9)
    assert any(abs(x) < 1e-12 for x in pts)
    for c in edge_corona(tri):
        assert any(abs(x - c) < 1e-9 for x in pts)
    assert all(abs(x) <= 0.9 for x in pts)
    # pairwise separation is macroscopic compared with the merge tolerance
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(pts[i] - pts[j]) > 1e-6


def test_orbit_budget_error():
    tri = build_triangle_group(5, 3, 3)
    with pytest.raises(OrbitBudgetError):
        orbit(tri, 0.99, budget=10)


def test_orbit_deterministic():
    tri = build_triangle_group(7, 3, 3)
    a = orbit(tri, 0.95)
    b = orbit(tri, 0.95)
    assert a == b


def test_orbit_equals_the_block_probe_walk_up_to_k50():
    """The walk returns the block-probe oracle's list, point for point, at
    the radius R of `check_reduction_bound` at every admissible k <= 50."""
    n_levels = 0
    for series in "EZ":
        for k in range(1, 51):
            try:
                config = lift(series, k)
            except ValueError:
                continue
            R = _closed_quantities(config.p_tri, k, config.p_lcm, math)[0]
            assert orbit(config.tri, R) == block_probe_orbit(config.tri, R), (series, k)
            n_levels += 1
    assert n_levels == 68


def test_dedup_insert_decides_as_the_block_probe_near_cell_edges():
    """Points at and near cell edges and corners, each with twins within
    and just beyond ORBIT_DEDUP_TOL in every direction: every insert
    decision and the final hash are the block probe's."""
    rng = random.Random(4)
    offsets = [0.0, 0.5, 0.9, 0.99, 1.01, 1.5, 2.5, 5.0]
    points = []
    for _ in range(400):
        ci, cj = rng.randrange(-10**7, 10**7), rng.randrange(-10**7, 10**7)
        du = rng.choice([0.5, -0.5, rng.uniform(-0.5, 0.5)])
        dv = rng.choice([0.5, -0.5, rng.uniform(-0.5, 0.5)])
        x = complex((ci + du) * _GRID, (cj + dv) * _GRID)
        points.append(x)
        for _ in range(3):
            d = rng.choice(offsets) * ORBIT_DEDUP_TOL
            points.append(x + d * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    rng.shuffle(points)
    got, want = {}, {}
    decisions = [(_dedup_insert(got, x), dedup_insert(want, x)) for x in points]
    assert all(a == b for a, b in decisions)
    assert got == want
    assert 0 < sum(a for a, _ in decisions) < len(points)


@pytest.mark.parametrize("p", [4, 5, 7, 9, 11])
def test_dirichlet_oracle_matches_corona(p):
    tri = build_triangle_group(p, 3, 3)
    closed_form = edge_corona(tri)
    oracle = dirichlet_corona_oracle(tri)
    assert len(oracle) == 2 * p
    assert len(closed_form) == len(oracle)
    for a, b in zip(closed_form, oracle):
        assert abs(a - b) < 1e-7


def hyperbolic_distance(x: complex, y: complex) -> float:
    """Distance in the Poincare metric (curvature -1)."""
    return 2.0 * math.atanh(abs(x - y) / abs(1.0 - x.conjugate() * y))


def test_hyperbolic_distance_translation_invariant():
    tri = build_triangle_group(5, 3, 3)
    x, y = 0.3 + 0.2j, -0.1 + 0.5j
    g = group_mul(tri.gen_v, tri.gen_w)
    d0 = hyperbolic_distance(x, y)
    d1 = hyperbolic_distance(mobius_apply(g, x), mobius_apply(g, y))
    assert abs(d0 - d1) < 1e-12
    assert abs(hyperbolic_distance(0, tri.v) - tri.L) < 1e-12
