import cmath
import math
import random

import numpy as np
import pytest

from lorentzdomains.cover import (
    COVER_IDENTITY,
    CoverElement,
    cover_inv,
    cover_mul,
    lift_level,
    R_param,
)
from lorentzdomains import domain, halfspaces, reduction
from lorentzdomains.disc import GroupElement, build_triangle_group, mobius_apply
from lorentzdomains.halfspaces import batch_wall, wall_masks

from halfspace_oracle import (
    WALL_TOL,
    HalfSpaceConstraint,
    chart_point,
    cylinder_bounds,
    is_cone_point,
    membership,
    pairing_form,
    prism_membership,
    slab_membership,
)
from lifts import level_constraints

SEC_PI_15 = 1.0223405948650293
R_IN_D533 = 0.6180339887498948
R_OUT_D533 = 0.6318412357053743


def random_group_element(rng):
    g = COVER_IDENTITY
    for _ in range(rng.randint(1, 3)):
        x = rng.uniform(0.0, 0.7) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        g = cover_mul(g, R_param(x, rng.uniform(-2.0, 2.0) * math.pi))
    return g


def random_cone_point(rng):
    g = random_group_element(rng)
    lam = rng.uniform(0.2, 3.0)
    return CoverElement(lam * g.z, lam * g.w, g.phi)


def test_reference_membership_examples():
    I_e = HalfSpaceConstraint(COVER_IDENTITY, "I")
    H_e = HalfSpaceConstraint(COVER_IDENTITY, "H")
    E_e = HalfSpaceConstraint(COVER_IDENTITY, "E")
    p_in = CoverElement(0j, 2.0 + 0j, 0.0)
    p_shifted = CoverElement(0j, 2.0 + 0j, 2.0 * math.pi)
    p_neg = CoverElement(0j, -2.0 + 0j, math.pi)
    p_wall = CoverElement(0j, 1.0 + 0j, 0.0)
    assert membership(I_e, p_in)
    assert not membership(H_e, p_in)
    assert not membership(I_e, p_shifted)
    assert membership(H_e, p_shifted)
    assert membership(H_e, p_neg)
    assert not membership(I_e, p_neg)
    assert membership(I_e, p_wall) and membership(H_e, p_wall)
    assert membership(E_e, p_wall)
    assert not membership(E_e, p_in)


def test_is_cone_point():
    assert is_cone_point(CoverElement(0.1j, 2.0 + 0j, 0.0))
    assert not is_cone_point(CoverElement(3.0 + 0j, 2.0 + 0j, 0.0))
    assert not is_cone_point(CoverElement(0j, 2.0 + 0j, 1.0))


def test_I_and_H_cover_everything():
    rng = random.Random(41)
    for _ in range(400):
        g = random_group_element(rng)
        p = random_cone_point(rng)
        in_I = membership(HalfSpaceConstraint(g, "I"), p)
        in_H = membership(HalfSpaceConstraint(g, "H"), p)
        assert in_I or in_H
        if in_I and in_H:
            assert abs(pairing_form(g, p) + 1.0) <= 1e-9


def test_left_translation_covariance():
    rng = random.Random(43)
    for _ in range(1000):
        g = random_group_element(rng)
        p = random_cone_point(rng)
        lhs = membership(HalfSpaceConstraint(g, "I"), p)
        h = cover_mul(cover_inv(g), p)
        rhs = h.w.real >= 1.0 and abs(h.phi) < math.pi / 2.0
        assert lhs == rhs


def test_form_bi_invariance():
    rng = random.Random(47)
    for _ in range(200):
        a, b, g = (random_group_element(rng) for _ in range(3))
        lhs = pairing_form(cover_mul(g, a), cover_mul(g, b))
        assert abs(lhs - pairing_form(a, b)) < 1e-9 * max(1.0, abs(lhs))
    assert abs(pairing_form(COVER_IDENTITY, COVER_IDENTITY) + 1.0) == 0.0


def test_slab_membership():
    cfg = lift_level(5, 3, 3, 2)
    half = math.tan(math.pi * cfg.k / (2 * cfg.p_lcm))
    assert slab_membership(chart_point(0.0, 0.0, 0.0), cfg)
    assert slab_membership(chart_point(0.3, -0.2, 0.999 * half), cfg)
    assert not slab_membership(chart_point(0.0, 0.0, 1.001 * half), cfg)
    p = chart_point(0.1, 0.1, 0.0)
    assert not slab_membership(CoverElement(p.z, p.w + 1e-8, p.phi), cfg)
    assert not slab_membership(CoverElement(p.z, p.w, p.phi + 2 * math.pi), cfg)
    assert not slab_membership(chart_point(2.0, 0.0, 0.0), cfg)


def test_prism_over_origin_contains_small_w():
    cfg = lift_level(5, 3, 3, 2)
    rng = random.Random(53)
    for _ in range(60):
        b = rng.uniform(-1.2, 1.2)
        w = rng.uniform(0.3, 0.99) * cmath.exp(1j * b)
        z = rng.uniform(0.0, 0.9) * abs(w) * cmath.exp(1j * rng.uniform(-3, 3))
        p = CoverElement(z, w, b)
        assert prism_membership(p, 0j, COVER_IDENTITY, cfg)


def test_prism_lift_precondition():
    cfg = lift_level(5, 3, 3, 2)
    with pytest.raises(ValueError):
        prism_membership(chart_point(0, 0, 0), 0.5 + 0j, COVER_IDENTITY, cfg)


def test_prism_cylinder_sandwich():
    cfg = lift_level(5, 3, 3, 2)
    tri = build_triangle_group(5, 3, 3)
    gens = cfg.gens
    x0 = mobius_apply(GroupElement(gens["v"].z, gens["v"].w), 0j)
    assert abs(abs(x0) - tri.d) < 1e-12
    r_in, r_out = cylinder_bounds(x0, cfg)
    rng = random.Random(59)
    half = math.tan(math.pi * cfg.k / (2 * cfg.p_lcm))
    checked_in = 0
    for _ in range(400):
        s = rng.uniform(-half, half)
        rad = math.sqrt(1.0 + s * s)
        z = rng.uniform(0, 0.999) * rad * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        p = chart_point(z.real, z.imag, s)
        dist = abs(p.w - x0.conjugate() * p.z)
        if abs(dist - r_in) < 1e-9 or abs(dist - r_out) < 1e-9:
            continue
        member = prism_membership(p, x0, gens["v"], cfg)
        if dist <= r_in:
            assert member
            checked_in += 1
        if member:
            assert dist <= r_out
    assert checked_in > 0


def test_prism_window_consistency():
    cfg = lift_level(5, 3, 3, 2)
    gens = cfg.gens
    x0 = mobius_apply(GroupElement(gens["v"].z, gens["v"].w), 0j)
    rng = random.Random(61)
    half = math.tan(math.pi * cfg.k / (2 * cfg.p_lcm))
    for _ in range(15):
        s = rng.uniform(-half, half)
        z = rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        p = chart_point(z.real, z.imag, s)
        a = prism_membership(p, x0, gens["v"], cfg)
        b = prism_membership(p, x0, gens["v"], cfg, window=3 * cfg.p_lcm)
        assert a == b


def test_cylinder_bounds_values():
    cfg = lift_level(5, 3, 3, 2)
    r_in, r_out = cylinder_bounds(0j, cfg)
    assert abs(r_in - 1.0) < 1e-15
    assert abs(r_out - SEC_PI_15) < 1e-12
    tri = build_triangle_group(5, 3, 3)
    r_in, r_out = cylinder_bounds(tri.d + 0j, cfg)
    assert abs(r_in - R_IN_D533) < 1e-12
    assert abs(r_out - R_OUT_D533) < 1e-12
    assert abs(r_out / r_in - SEC_PI_15) < 1e-12


def test_package_exports_resolve():
    import lorentzdomains

    assert [n for n in lorentzdomains.__all__ if not hasattr(lorentzdomains, n)] == []


def test_batch_matches_scalar():
    """`batch_wall` and `wall_masks` against the scalar oracle, for sides I,
    H and E, on slab points, on the same points one sheet up, and on
    points placed on a wall plane and 0.5 and 1.5 WALL_TOL off it."""
    cfg = lift_level(5, 3, 3, 2)
    rng = random.Random(67)
    half = math.tan(math.pi * cfg.k / (2 * cfg.p_lcm))
    offsets = WALL_TOL * np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    seen = np.zeros((3, 2), dtype=int)  # per side: points outside, inside
    for _ in range(6):
        g = random_group_element(rng)
        pts = []
        for _ in range(100):
            s = rng.uniform(-half, half)
            z = rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            p = chart_point(z.real, z.imag, s)
            pts += [p, CoverElement(p.z, p.w, p.phi + 2.0 * math.pi)]
            shift = (-1.0 + offsets - pairing_form(g, p)) * g.z / abs(g.z) ** 2
            pts += [CoverElement(p.z + d, p.w, p.phi) for d in shift if abs(p.z + d) < abs(p.w)]
        Z = np.array([p.z for p in pts])
        W = np.array([p.w for p in pts])
        PHI = np.array([p.phi for p in pts])
        val, phi, _ = batch_wall(g, Z, W, PHI)
        holds, on_exactly = wall_masks(val, phi, 0.0)
        strict = holds & ~on_exactly
        _, on = wall_masks(val, phi, WALL_TOL)
        for i, p in enumerate(pts):
            form = pairing_form(g, p)
            assert abs(val[i] - form) < 1e-12
            verdicts = [(on[i], membership(HalfSpaceConstraint(g, "E"), p))]
            # exactly on the plane the two routes round the form differently
            if abs(form + 1.0) > 1e-12:
                verdicts.append((holds[i], membership(HalfSpaceConstraint(g, "I"), p)))
                verdicts.append((not strict[i], membership(HalfSpaceConstraint(g, "H"), p)))
            for side, (batch, scalar) in enumerate(verdicts):
                assert bool(batch) == scalar
                seen[side, int(scalar)] += 1
    assert (seen > 0).all()


def _batch_wall_repeated_products(g, Z, W, PHI):
    """`batch_wall` with each complex product formed three times: for the
    value, for the modulus and, negated, for the bracket."""
    val = (np.conjugate(g.z) * Z - np.conjugate(g.w) * W).real
    modulus = np.abs(np.conjugate(g.z) * Z - np.conjugate(g.w) * W)
    bracket = 1.0 + (-np.conjugate(g.z) * Z) / (np.conjugate(g.w) * W)
    if not (bracket.real > 0.0).all():
        raise ArithmeticError("cocycle bracket left the principal branch")
    return val, -g.phi + PHI + np.angle(bracket), modulus


def _same_bits(got, ref):
    """Whether `batch_wall`'s (value, phi, w_h), with the modulus |w_h| in
    place of w_h, equal the repeated-product form bit for bit."""
    got = (got[0], got[1], np.abs(got[2]))
    return len(got) == len(ref) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, ref)
    )


def test_batch_wall_matches_the_repeated_product_form_bitwise():
    """Forming each product once rounds as forming it again (IEEE rounding
    is sign-symmetric, and a complex difference is taken part by part):
    single walls, per-point walls and columns on random cone points, z = 0
    walls among them."""
    rng = np.random.default_rng(19)
    n = 5000
    r = np.sqrt(rng.uniform(0.0, 0.999, n))
    W = np.exp(1j * rng.uniform(-1.2, 1.2, n)) * rng.uniform(0.5, 2.0, n)
    Z = r * np.abs(W) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    PHI = np.angle(W) + 2.0 * math.pi * rng.integers(-1, 2, n)
    elements = [random_group_element(random.Random(seed)) for seed in range(40)]
    elements.append(CoverElement(0j, 1.0 + 0j, 0.0))
    elements.append(CoverElement(0j, cmath.exp(0.3j), 0.3))
    for g in elements:
        assert _same_bits(batch_wall(g, Z, W, PHI), _batch_wall_repeated_products(g, Z, W, PHI))
    column = CoverElement(
        np.array([g.z for g in elements])[:, None],
        np.array([g.w for g in elements])[:, None],
        np.array([g.phi for g in elements])[:, None],
    )
    got = batch_wall(column, Z, W, PHI)
    assert got[0].shape == (len(elements), n)
    # w_h itself comes back: the modulus is formed only where it is read
    assert np.iscomplexobj(got[2])
    assert _same_bits(got, _batch_wall_repeated_products(column, Z, W, PHI))
    owner = rng.integers(0, len(elements), n)
    per_point = CoverElement(column.z[owner, 0], column.w[owner, 0], column.phi[owner, 0])
    assert _same_bits(
        batch_wall(per_point, Z, W, PHI), _batch_wall_repeated_products(per_point, Z, W, PHI)
    )


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 4)])
def test_batch_wall_matches_the_repeated_product_form_on_real_calls(series, k, monkeypatch):
    """Every `batch_wall` call of a sampled verify, on its real wall
    columns and points, against the repeated-product form, the modulus
    included.  A build makes none: its walls are read from their chart
    functionals alone."""
    calls = []

    def checked(g, Z, W, PHI):
        got = batch_wall(g, Z, W, PHI)
        assert _same_bits(got, _batch_wall_repeated_products(g, Z, W, PHI))
        calls.append(got[0].size)
        return got

    monkeypatch.setattr(reduction, "batch_wall", checked)
    monkeypatch.setattr(halfspaces, "batch_wall", checked)
    assert not hasattr(domain, "batch_wall")
    cs = level_constraints(series, k)
    domain.build_polyhedron(cs, domain.enumerate_vertices(cs))
    assert calls == []
    stats = reduction.sample_equivalence(cs, n_samples=2000, seed=3)
    assert stats.n_agree == stats.n_evaluated > 0
    # the slab pair on every point, then at most one call per corona prism,
    # on the few rows (point, n) its ranges leave undecided
    n_lifts = len(reduction._corona_lifts(cs.config))
    assert calls[:2] == [2000, 2000]
    assert len(calls) - 2 <= n_lifts and sum(calls[2:]) < 2000


def test_batch_wall_bracket_check_still_fires():
    """A wall with |z_g| > |w_g| turns the cocycle bracket off the principal
    branch on part of the cone, and both forms raise."""
    g = CoverElement(2.0 + 0j, 1.0 + 0j, 0.0)
    Z = np.array([0.0, 0.9 + 0j])
    W = np.ones(2, dtype=complex)
    PHI = np.zeros(2)
    for kernel in (batch_wall, _batch_wall_repeated_products):
        with pytest.raises(ArithmeticError, match="principal branch"):
            kernel(g, Z, W, PHI)
    val, _, _ = batch_wall(g, Z[:1], W[:1], PHI[:1])
    assert val.tolist() == [-1.0]
