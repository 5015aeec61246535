import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import lorentzdomains
import lorentzdomains.reduction as reduction
from lorentzdomains.cli import main
from lorentzdomains.cover import (
    CoverElement, cover_mul, cover_pow, lift_level, series_signature,
)
from lorentzdomains.disc import build_triangle_group, edge_corona, orbit
from lorentzdomains.domain import _in_slab_cone
from lorentzdomains.halfspaces import _chart_cone, batch_wall, wall_masks
from lorentzdomains.reduction import (
    BOUNDARY_BAND,
    PREMISE_SLACK,
    _closed_quantities,
    _ScanState,
    _corona_lifts,
    _description_masks,
    _prism_scan,
    _slab_samples,
    check_reduction_bound,
    ell,
    sample_equivalence,
)

from lifts import level_constraints, lift
from prism_oracle import decided_ranges, description_masks

# high-precision references, evaluated at 40 digits
E2_R = 0.9241763718304448
E2_ELL = 0.5488468718152576
E2_RHS = 0.668740304976422
E2_MARGIN = 0.11989343316116444
E2_TANH_L = 0.8266084762447985
Z2_R = 0.9690206784932729
Z2_ELL = 0.6647174015893444
Z2_RHS = 0.7770942488589634
Z2_MARGIN = 0.11237684726961902
SEC_PI_15 = 1.0223405948650293

ADMISSIBLE = [k for k in range(1, 21) if k % 3 != 0]


def test_series_signature():
    assert series_signature("E", 2) == (5, 3, 3)
    assert series_signature("E", 7) == (10, 3, 3)
    assert series_signature("Z", 2) == (7, 3, 3)
    assert series_signature("Z", 5) == (13, 3, 3)
    with pytest.raises(ValueError):
        series_signature("Q", 2)
    with pytest.raises(ValueError):
        series_signature("E", 0)


def test_ell_endpoint_collapses():
    tri = build_triangle_group(5, 3, 3)
    t_max = 1.0 / math.cos(math.pi / 3)
    both = [ell(t_max, s, tri) for s in (1, -1)]
    assert abs(both[0] - both[1]) < 1e-9
    assert abs(both[0] - 1.0 / math.tanh(tri.L)) < 1e-9


def test_ell_monotone():
    tri = build_triangle_group(7, 3, 3)
    ts = [1.0 + i * (1.0 / math.cos(math.pi / 3) - 1.0) / 40 for i in range(41)]
    lo = [ell(t, -1, tri) for t in ts]
    hi = [ell(t, 1, tri) for t in ts]
    assert all(a < b for a, b in zip(lo, lo[1:]))
    assert all(a > b for a, b in zip(hi, hi[1:]))


def test_ell_domain_errors():
    tri = build_triangle_group(5, 3, 3)
    with pytest.raises(ValueError):
        ell(0.5, -1, tri)
    with pytest.raises(ValueError):
        ell(2.01, -1, tri)
    with pytest.raises(ValueError):
        ell(1.1, 2, tri)


def test_ell_frozen_value():
    tri = build_triangle_group(5, 3, 3)
    assert abs(ell(SEC_PI_15, -1, tri) - E2_ELL) < 1e-12


def f_bound(s: float, t: float, config) -> float:
    """f(s, t) = 1/s - sec(pi k / 2 p_lcm)/t * sqrt(1 - s^2)/s on 0 < s < 1."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s = {s} outside (0, 1)")
    if t < 1.0 - 1e-12:
        raise ValueError(f"t = {t} below 1")
    sec = 1.0 / math.cos(math.pi * config.k / (2 * config.p_lcm))
    return 1.0 / s - (sec / t) * math.sqrt(1.0 - s * s) / s


def test_f_bound():
    cfg = lift_level(5, 3, 3, 2)
    assert abs(f_bound(1.0 - 1e-13, 1.2, cfg) - 1.0) < 1e-6
    sec = 1.0 / math.cos(math.pi * 2 / (2 * cfg.p_lcm))
    lhs = f_bound(E2_R, sec, cfg)
    assert abs(lhs - (1.0 - math.sqrt(1.0 - E2_R**2)) / E2_R) < 1e-12
    assert f_bound(0.9, 1.01, cfg) < f_bound(0.95, 1.01, cfg)
    for bad_s in (-0.1, 0.0, 1.0, 1.3):
        with pytest.raises(ValueError):
            f_bound(bad_s, 1.2, cfg)
    with pytest.raises(ValueError):
        f_bound(0.5, 0.8, cfg)


def test_check_reduction_bound_E2():
    rep = check_reduction_bound(level_constraints("E", 2))
    assert rep.p_tri == 5 and rep.p_lcm == 15
    assert abs(rep.alpha - math.pi / 10) < 1e-15
    assert abs(rep.R - E2_R) < 1e-12
    assert abs(rep.ell_minus_at_sec - E2_ELL) < 1e-12
    assert abs(rep.rhs - E2_RHS) < 1e-12
    assert abs(rep.margin - E2_MARGIN) < 1e-12
    assert abs(rep.tanh_L - E2_TANH_L) < 1e-12
    assert rep.holds
    assert rep.orbit_premise_ok
    assert rep.R > rep.tanh_L


def test_check_reduction_bound_Z2():
    rep = check_reduction_bound(level_constraints("Z", 2))
    assert rep.p_tri == 7 and rep.p_lcm == 21
    assert abs(rep.R - Z2_R) < 1e-12
    assert abs(rep.ell_minus_at_sec - Z2_ELL) < 1e-12
    assert abs(rep.rhs - Z2_RHS) < 1e-12
    assert abs(rep.margin - Z2_MARGIN) < 1e-12
    assert rep.holds and rep.orbit_premise_ok


def test_inadmissible_level_rejected():
    with pytest.raises(ValueError):
        check_reduction_bound(level_constraints("E", 3))
    with pytest.raises(ValueError):
        check_reduction_bound(level_constraints("Z", 6))


def test_margins_positive_all_admissible():
    for series in ("E", "Z"):
        for k in ADMISSIBLE:
            rep = check_reduction_bound(level_constraints(series, k))
            assert rep.holds and rep.orbit_premise_ok is True, (series, k)
            assert rep.margin > 0.0, (series, k)
            assert rep.ell_minus_at_sec <= 1.0, (series, k)
            assert rep.R >= rep.tanh_L, (series, k)


def test_orbit_premise_small_levels():
    for series, k in (("E", 1), ("E", 4), ("Z", 1), ("Z", 4)):
        rep = check_reduction_bound(level_constraints(series, k))
        assert rep.orbit_premise_ok, (series, k)


# levels where the wider walk max(0.999, R + 5e-4) is defined (radius
# below 1); from Z25 and E47 on it is not
@pytest.mark.parametrize(
    "series,k",
    [(s, k) for s in "EZ" for k in (1, 2, 5, 14, 20)] + [("E", 40), ("E", 46)],
)
def test_premise_walk_to_R_finds_every_point_inside_R(series, k):
    """Only points with |x| < R - PREMISE_SLACK can fail the premise; the
    walk to R finds the same ones as a walk to a wider radius."""
    rep = check_reduction_bound(level_constraints(series, k))
    assert rep.orbit_premise_ok is True
    R = rep.R
    wide = max(0.999, R + 5e-4)
    assert wide < 1.0
    tri = build_triangle_group(*series_signature(series, k))

    def inner(radius):
        return np.array([x for x in orbit(tri, radius) if abs(x) < R - PREMISE_SLACK])

    got, ref = inner(R), inner(wide)
    assert len(got) == len(ref) > 1
    assert np.abs(got[:, None] - ref[None, :]).min(axis=1).max() < 1e-9


def test_chain_endpoint_inequality():
    # 2 cos(pi k / 2 p_lcm) >= csc(pi/4 - alpha/2) across both series
    for series in ("E", "Z"):
        for k in ADMISSIBLE:
            p, _, _ = series_signature(series, k)
            p_lcm = 3 * p
            alpha = math.pi / (2 * p)
            lhs = 2.0 * math.cos(math.pi * k / (2 * p_lcm))
            rhs = 1.0 / math.sin(math.pi / 4 - alpha / 2)
            assert lhs >= rhs, (series, k, lhs, rhs)


def test_f_minus_ell_shape():
    # f(R, t) - ell^-(t) decreases in t and stays nonnegative at t = sec
    for series, k in (("E", 2), ("Z", 4)):
        p, q, r = series_signature(series, k)
        cfg = lift_level(p, q, r, k)
        tri = build_triangle_group(p, q, r)
        alpha = math.pi / (2 * p)
        R = (math.cos(alpha) / math.cos(2 * alpha)) * math.sqrt(
            math.cos(3 * alpha) / math.cos(alpha)
        )
        sec = 1.0 / math.cos(math.pi * k / (2 * cfg.p_lcm))
        ts = [1.0 + i * (sec - 1.0) / 30 for i in range(31)]
        gaps = [f_bound(R, t, cfg) - ell(t, -1, tri) for t in ts]
        assert all(a > b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] >= 0.0


def test_closed_forms_match_group_data():
    for p in (5, 7, 11, 13):
        tri = build_triangle_group(p, 3, 3)
        alpha = math.pi / (2 * p)
        d_sq = math.cos(3 * alpha) / math.cos(alpha)
        assert abs(tri.d**2 - d_sq) < 1e-12
        sinh_closed = math.sqrt(d_sq) / (math.sqrt(3.0) * math.sin(alpha))
        assert abs(math.sinh(tri.L) - sinh_closed) < 1e-11


def test_two_route_agreement_sweep():
    for series in ("E", "Z"):
        for k in ADMISSIBLE:
            p, q, r = series_signature(series, k)
            tri = build_triangle_group(p, q, r)
            p_lcm = 3 * p
            R, ell_closed, rhs_closed = _closed_quantities(p, k, p_lcm, math)
            sec = 1.0 / math.cos(math.pi * k / (2 * p_lcm))
            assert abs(ell(sec, -1, tri) - ell_closed) < 1e-10
            rhs_direct = (1.0 - math.sqrt(1.0 - R * R)) / R
            assert abs(rhs_direct - rhs_closed) < 1e-10


def test_extended_precision_route_consistent():
    with mpmath.workdps(50):
        R, e, rhs = _closed_quantities(5, 2, 15, mpmath)
        R, e, rhs = float(R), float(e), float(rhs)
    assert abs(R - E2_R) < 1e-14
    assert abs(e - E2_ELL) < 1e-14
    assert abs(rhs - E2_RHS) < 1e-14


def test_a_tight_margin_is_too_tight_to_decide(monkeypatch, capsys):
    """With the threshold raised above every margin, the bound raises
    ArithmeticError, and `verify` exits 1 with one JSON error naming the
    level."""
    monkeypatch.setattr(reduction, "TIGHT_MARGIN", 1.0)
    with pytest.raises(ArithmeticError, match="too tight to decide in double precision"):
        check_reduction_bound(level_constraints("E", 2))
    assert main(["verify", "--series", "E", "--k", "2", "--samples", "100"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"error", "series", "k"} and (out["series"], out["k"]) == ("E", 2)
    assert "too tight to decide in double precision" in out["error"]


def test_importing_the_cli_leaves_mpmath_unloaded(tmp_path):
    """Importing the CLI, one build and one verify load no mpmath."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lorentzdomains.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, lorentzdomains.cli as cli\n"
        "assert cli.main(['build', '--series', 'E', '--k', '1', '--formats', 'json',"
        " '--out', sys.argv[1]]) == 0\n"
        "assert cli.main(['verify', '--series', 'E', '--k', '1', '--samples', '500']) == 0\n"
        "print('mpmath' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stderr.strip() == "False"


def test_a_missing_corona_point_fails_the_orbit_premise(monkeypatch):
    """Dropped from the corona, a first-shell point is an orbit point inside
    R that matches no corona point: the first, a middle or the last one,
    up to E400, where the corona has 806 points."""
    for series, k, drop in [("E", 1, 0), ("Z", 50, None), ("E", 400, -1)]:
        monkeypatch.setattr(reduction, "edge_corona", edge_corona)
        assert check_reduction_bound(level_constraints(series, k)).certified
        full = edge_corona(build_triangle_group(*series_signature(series, k)))
        drop = len(full) // 2 if drop is None else drop % len(full)
        kept = full[:drop] + full[drop + 1:]
        monkeypatch.setattr(reduction, "edge_corona", lambda tri: kept)
        rep = check_reduction_bound(level_constraints(series, k))
        assert abs(full[drop]) < rep.R - PREMISE_SLACK
        assert rep.holds and rep.orbit_premise_ok is False and not rep.certified


# ---------------------------------------------------------------------------
# the prism scan of sample_equivalence against the full-window scan


def _reference_description_masks(cons, pts):
    """The full-window scan at tolerance 0: every union-group and slab
    wall, and every wall g D^n, |n| <= 4 p_lcm, of every corona lift, on
    every point, one `batch_wall` call per wall, with a band about every
    wall.  Also returns the bands of the union-group walls alone."""
    config = cons.config
    Z, W, PHI = _chart_cone(pts)
    bands = np.zeros(len(Z), dtype=bool)

    def wall_masks(g):
        val, phi, _ = batch_wall(g, Z, W, PHI)
        window = np.abs(phi) < math.pi / 2.0
        inside = (val <= -1.0) & window
        nonlocal bands
        bands |= window & (np.abs(val + 1.0) < BOUNDARY_BAND)
        bands |= (val <= -1.0 + BOUNDARY_BAND) & (
            np.abs(np.abs(phi) - math.pi / 2.0) < BOUNDARY_BAND
        )
        return inside

    in_linear = np.ones(len(Z), dtype=bool)
    for group in cons.groups:
        captured = np.zeros(len(Z), dtype=bool)
        for wall in group:
            captured |= wall_masks(wall.g)
        in_linear &= captured
    near_group, bands = bands, np.zeros(len(Z), dtype=bool)
    for wall in cons.slab:
        in_linear &= ~wall_masks(wall.g)

    D = cons.D
    N = 2 * config.p_lcm
    d_list = {}
    cur = cover_pow(D, -2 * N)
    for n in range(-2 * N, 2 * N + 1):
        d_list[n] = cur
        cur = cover_mul(cur, D)

    scans = []
    for x, g in _corona_lifts(config):
        violated_n = np.zeros(len(Z), dtype=bool)
        violated_2n = np.zeros(len(Z), dtype=bool)
        for n in range(-2 * N, 2 * N + 1):
            hit = wall_masks(cover_mul(g, d_list[n]))
            violated_2n |= hit
            if abs(n) <= N:
                violated_n |= hit
        scans.append((x, violated_n, violated_2n))

    near_boundary = bands | near_group
    in_prism_complement = np.ones(len(Z), dtype=bool)
    for x, violated_n, violated_2n in scans:
        if np.any((violated_n != violated_2n) & ~near_boundary):
            raise RuntimeError(
                f"prism wall scan did not stabilise for corona point {x}"
            )
        in_prism_complement &= violated_2n
    return in_linear, in_prism_complement, near_boundary, near_group


def _probe_points(cons, n_samples, seed):
    """Slab samples, plus chart points placed on the boundaries the scan
    tests, all as (n, 3) chart points in the slab and the cone.

    Some sit on the level -1 of a wall (a prism wall g D^n near the middle
    of its range, or a wall of the finite description) or 0.5 and 1.5
    bands off it.  Others are moved along s until the sheet coordinate of
    a prism wall at the end of its range is pi/2 or 0.5, 1.5 or 2.5 bands
    beyond it.  On the n = 0 wall g that coordinate is arg(W - c Z) -
    phi_g, c = conj(z_g) / conj(w_g), which is arctan((s - b) / a) -
    phi_g for W = 1 + i s, a = 1 - Re(c Z) > 0 and b = Im(c Z), so the
    s that puts the wall g D^n at a given coordinate has a closed form.
    """
    config = cons.config
    rng = np.random.default_rng(seed)
    samples = _slab_samples(config, n_samples, seed)
    Z, W, PHI = _chart_cone(samples)
    D = cons.D
    step = math.pi * config.k / config.p_lcm
    lifts = [g for _, g in _corona_lifts(config)]
    linear = [wall.g for grp in cons.groups for wall in grp]
    shifts = BOUNDARY_BAND * np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
    probes = []
    for i in range(0, n_samples, 3):
        if i % 2:
            g = cover_mul(lifts[i % len(lifts)], cover_pow(D, int(rng.integers(-2, 3))))
        else:
            g = linear[i % len(linear)]
        val, _, _ = batch_wall(g, Z[i:i + 1], W[i:i + 1], PHI[i:i + 1])
        z = Z[i] + (-1.0 + shifts - val[0]) * g.z / abs(g.z) ** 2
        probes.append(np.column_stack([z.real, z.imag, np.full(len(z), W[i].imag)]))
    edge = math.pi / 2.0 + BOUNDARY_BAND * np.array([0.0, 0.5, 1.5, 2.5])
    for i in range(1, n_samples, 3):
        g = lifts[i % len(lifts)]
        cz = np.conjugate(g.z) / np.conjugate(g.w) * Z[i]
        a, b = 1.0 - cz.real, cz.imag
        if a <= 0.0:
            continue
        sign = 1.0 if i % 2 else -1.0
        arg = math.atan2(W[i].imag - b, a)
        n = np.round((g.phi + sign * edge - arg) / (sign * step))
        theta = g.phi + sign * edge - sign * n * step
        s = b + a * np.tan(theta[np.abs(theta) < math.pi / 2.0])
        probes.append(np.column_stack([np.full((len(s), 2), [Z[i].real, Z[i].imag]), s]))
    probes = np.vstack(probes)
    h = math.tan(math.pi * config.k / (2 * config.p_lcm))
    in_slab = np.abs(probes[:, 2]) <= h + 1e-12
    return np.vstack([samples, probes[in_slab & _in_slab_cone(probes)]])


def _scan(x, g, D, N, step, Z, W, PHI):
    """The masks (violated, near) of one prism: whether a point strictly
    violates some wall g D^n, and whether it lies near one."""
    violated, near = np.ones(len(Z), dtype=bool), np.zeros(len(Z), dtype=bool)
    _prism_scan(x, g, D, N, step, _ScanState.of(Z, W, PHI), violated, near)
    return violated, near


def _has_lift(series, k):
    try:
        lift(series, k)
    except ValueError:
        return False
    return True


ADMISSIBLE_50 = [(s, k) for s in "EZ" for k in range(1, 51) if _has_lift(s, k)]


@pytest.mark.parametrize("series, k", ADMISSIBLE_50)
def test_description_masks_equal_the_oracle_up_to_k50(series, k):
    """The three masks are the oracle's bit for bit on 2,000 slab samples
    at every admissible level k <= 50, and the truncation premise needs
    at most 0.583 of the family |n| <= N = 2 p_lcm for any slab point."""
    cons = level_constraints(series, k)
    pts = _slab_samples(cons.config, 2000, k)
    for got, want in zip(_description_masks(cons, pts), description_masks(cons, pts)):
        assert got.tobytes() == want.tobytes()
    config = cons.config
    step = math.pi * k / config.p_lcm
    phi_max = step / 2.0  # arctan of the slab's half-height
    for _, g in _corona_lifts(config):
        reach_n = (phi_max + abs(g.phi) + math.pi + 2.0 * BOUNDARY_BAND) / step + 1.0
        assert reach_n <= 0.5834 * 2 * config.p_lcm


@pytest.mark.parametrize("series, k", [(s, k) for s in "EZ" for k in (1, 2, 4, 5)])
def test_description_masks_equal_the_oracle_at_the_acceptance_cases(series, k):
    """The three masks are the oracle's bit for bit on the 10^4 slab
    samples `verify` draws at the acceptance cases."""
    cons = level_constraints(series, k)
    pts = _slab_samples(cons.config, 10_000, 0)
    for got, want in zip(_description_masks(cons, pts), description_masks(cons, pts)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "series, k",
    [(s, k) for s in "EZ" for k in (1, 2, 4, 5, 7)] + [("Z", 10), ("E", 11)],
)
def test_description_masks_match_full_window_scan(series, k):
    """The boundary mask, slab and prism bands only, equals the full scan's,
    which also bands every union-group wall; the prism verdicts are equal,
    and off the boundary `membership_mask` agrees with the scan's finite
    description at tolerance 0."""
    cons = level_constraints(series, k)
    pts = _probe_points(cons, 1500, seed=k)
    in_linear, in_prism, near = _description_masks(cons, pts)
    want_linear, want_prism, want_near, near_group = _reference_description_masks(cons, pts)
    assert np.array_equal(near, want_near)
    assert np.array_equal(in_prism, want_prism)
    assert np.array_equal(in_linear[~near], want_linear[~near])
    assert want_near.sum() > 0.1 * (len(pts) - 1500)
    assert near_group[1500:].sum() > 0.02 * (len(pts) - 1500)

    in_linear, in_prism, near, _ = _reference_description_masks(
        cons, _slab_samples(cons.config, 2000, 11)
    )
    stats = sample_equivalence(level_constraints(series, k), n_samples=2000, seed=11)
    assert (stats.n_boundary_excluded, stats.n_evaluated, stats.n_agree) == (
        int(near.sum()),
        int((~near).sum()),
        int(((in_linear == in_prism) & ~near).sum()),
    )


@pytest.mark.parametrize(
    "series, k",
    [(s, k) for s in "EZ" for k in (1, 2, 4, 5)] + [("Z", 10), ("E", 11), ("Z", 14), ("E", 40)],
)
def test_group_walls_are_prism_walls(series, k):
    """Every union-group wall element is a corona lift times D^n with
    |n| <= 2N, to rounding, so the prism scan marks the boundary band of
    every group wall and `_description_masks` needs no group band; the
    slab walls D and D^-1 are no such product, and their bands are added
    on their own."""
    cons = level_constraints(series, k)
    two_n = 4 * cons.config.p_lcm
    d_list = [cover_pow(cons.D, n) for n in range(-two_n, two_n + 1)]
    products = [
        cover_mul(g, d) for _, g in _corona_lifts(cons.config) for d in d_list
    ]
    table = np.array([(h.z, h.w, h.phi) for h in products], dtype=complex)

    def distance(g):
        return np.abs(table - np.array([g.z, g.w, g.phi])).max(axis=1).min()

    for grp in cons.groups:
        for wall in grp:
            assert distance(wall.g) <= 1e-12 * max(1.0, abs(wall.g.w)), wall.label
    for wall in cons.slab:
        assert distance(wall.g) > 1e-3, wall.label


@pytest.mark.parametrize("series, k", [("E", 1), ("Z", 4)])
def test_skipped_prism_walls_are_inert(series, k):
    """Every wall outside the sheet window's range of n (the oracle's
    `decided_ranges` at r = inf, the widest open range) has its window
    closed on the point and is not near it; every wall inside evaluates,
    one wall per point, bit for bit as the one wall on all points."""
    cons = level_constraints(series, k)
    config = cons.config
    Z, W, PHI = _chart_cone(_probe_points(cons, 1500, seed=3))
    D = cons.D
    two_n = 4 * config.p_lcm
    step = math.pi * k / config.p_lcm
    n_skipped = 0
    for _, g in _corona_lifts(config):
        _, phi0, _ = batch_wall(cover_mul(g, cover_pow(D, 0)), Z, W, PHI)
        (lo, _), (hi, _) = decided_ranges(phi0, step, two_n, np.inf)
        for n in range(-two_n, two_n + 1):
            wall = cover_mul(g, cover_pow(D, n))
            val, phi, _ = batch_wall(wall, Z, W, PHI)
            kept = (lo <= n) & (n <= hi)
            _, near = wall_masks(val, phi, BOUNDARY_BAND)
            assert not np.any(~kept & ((np.abs(phi) < math.pi / 2.0) | near))
            n_skipped += int((~kept).sum())
            m = int(kept.sum())
            per_point = CoverElement(
                np.full(m, wall.z), np.full(m, wall.w), np.full(m, wall.phi)
            )
            val_k, phi_k, _ = batch_wall(per_point, Z[kept], W[kept], PHI[kept])
            assert val_k.tobytes() == val[kept].tobytes()
            assert phi_k.tobytes() == phi[kept].tobytes()
    assert n_skipped > 0.8 * len(Z) * (2 * two_n + 1) * 2 * cons.tri.p


def test_prism_scan_rejects_sheet_coordinates_off_the_line(monkeypatch):
    """A step that D does not rotate by is refused before any wall is
    built, and an evaluated row whose sheet coordinate drifts off the line
    phi_0 + n step is refused after its evaluation."""
    cons = level_constraints("E", 2)
    config = cons.config
    Z, W, PHI = _chart_cone(_probe_points(cons, 300, seed=1))
    N = 2 * config.p_lcm
    step = math.pi * config.k / config.p_lcm
    x, g = _corona_lifts(config)[0]
    _scan(x, g, cons.D, N, step, Z, W, PHI)
    with pytest.raises(RuntimeError, match="sheet coordinates"):
        _scan(x, g, cons.D, N, step * (1.0 + 1e-3), Z, W, PHI)

    rows = []

    def drifting_pow(a, n):
        rows.append(n)
        d = cover_pow(a, n)
        return CoverElement(d.z, d.w, d.phi + 1e-3)

    monkeypatch.setattr(reduction, "cover_pow", drifting_pow)
    with pytest.raises(RuntimeError, match="sheet coordinates leave the line"):
        _scan(x, g, cons.D, N, step, Z, W, PHI)
    assert rows


@pytest.mark.parametrize("series, k", [("E", 1), ("Z", 4), ("Z", 10)])
def test_decided_prism_walls_match_their_evaluation(series, k):
    """Every wall the modulus bound decides as a hit holds strictly and is
    not near the point, and every wall it decides as a miss neither holds
    nor is near, in the ranges of the oracle (`decided_ranges`), which the
    scan forms as floors; on plain slab samples almost no n != 0 wall is
    left to evaluate."""
    cons = level_constraints(series, k)
    config = cons.config
    n_samples = 1500
    Z, W, PHI = _chart_cone(_probe_points(cons, n_samples, seed=5))
    plain = np.arange(len(Z)) < n_samples
    two_n = 4 * config.p_lcm
    step = math.pi * k / config.p_lcm
    d_list = [cover_pow(cons.D, n) for n in range(-two_n, two_n + 1)]
    n_hit = n_window = n_undecided = 0
    for _, g in _corona_lifts(config):
        _, phi0, _ = batch_wall(g, Z, W, PHI)
        r = np.abs(np.conjugate(g.z) * Z - np.conjugate(g.w) * W)
        (lo, sure_lo), (hi, sure_hi) = decided_ranges(phi0, step, two_n, r)
        (window_lo, _), (window_hi, _) = decided_ranges(phi0, step, two_n, np.inf)
        for n in range(-two_n, two_n + 1):
            val, phi, _ = batch_wall(cover_mul(g, d_list[n + two_n]), Z, W, PHI)
            inside, near = wall_masks(val, phi, BOUNDARY_BAND)
            miss = (n < lo) | (n > hi)
            hit = (sure_lo <= n) & (n <= sure_hi)
            assert not np.any(miss & (inside | near))
            assert np.all(inside[hit] & ~near[hit])
            n_hit += int(hit.sum())
            if n != 0:
                n_window += int(((window_lo <= n) & (n <= window_hi) & plain).sum())
                n_undecided += int((~miss & ~hit & plain).sum())
    assert n_hit > 0
    assert n_undecided < 1e-3 * n_window


def test_prism_scan_rejects_a_d_off_the_axis_rotations():
    """D is checked once per prism scan, in place of a table of its
    powers: it must be an exact axis rotation through `step`, also on the
    path `sample_equivalence` takes."""
    cons = level_constraints("E", 2)
    config = cons.config
    pts = _slab_samples(config, 200, 0)
    Z, W, PHI = _chart_cone(pts)
    N = 2 * config.p_lcm
    step = math.pi * config.k / config.p_lcm
    x, g = _corona_lifts(config)[0]
    D = cons.D
    _scan(x, g, D, N, step, Z, W, PHI)
    _description_masks(cons, pts)
    for bad in (
        dataclasses.replace(D, phi=D.phi + 1e-6),
        dataclasses.replace(D, z=1e-9 + 0j),
        CoverElement(D.z, D.w, D.phi),
    ):
        with pytest.raises(RuntimeError, match="sheet coordinates"):
            _scan(x, g, bad, N, step, Z, W, PHI)
        with pytest.raises(RuntimeError, match="sheet coordinates"):
            _description_masks(dataclasses.replace(cons, D=bad), pts)


def test_description_masks_check_the_window_edge_premise():
    """A point far enough out along s makes the bound (|z| + |w|) |W| on
    |w_h| reach (1 - B)/B, where the window edge would need a band of its
    own."""
    cons = level_constraints("E", 1)
    pts = _slab_samples(cons.config, 50, 0)
    _description_masks(cons, pts)
    pts[7, 2] = (1.0 - BOUNDARY_BAND) / BOUNDARY_BAND
    first = re.escape(f"window-edge premise fails for wall {cons.groups[0][0].label}:")
    with pytest.raises(RuntimeError, match=first):
        _description_masks(cons, pts)


@pytest.mark.parametrize("series, k", [("E", 1), ("Z", 5)])
def test_prism_scan_matches_every_wall_of_the_full_family(series, k):
    """On probe points the scan of the family |n| <= N = 2 p_lcm returns
    what evaluating every wall g D^n, |n| <= 2N, returns, and the |n| <= N
    and |n| <= 2N verdicts agree, as the truncation premise says."""
    cons = level_constraints(series, k)
    config = cons.config
    Z, W, PHI = _chart_cone(_probe_points(cons, 2000, seed=2))
    N = 2 * config.p_lcm
    d_list = [cover_pow(cons.D, n) for n in range(-2 * N, 2 * N + 1)]
    step = math.pi * config.k / config.p_lcm
    for x, g in _corona_lifts(config):
        want_n, want_2n, want_near = (np.zeros(len(Z), dtype=bool) for _ in range(3))
        for n, d in zip(range(-2 * N, 2 * N + 1), d_list):
            inside, near = wall_masks(*batch_wall(cover_mul(g, d), Z, W, PHI)[:2], BOUNDARY_BAND)
            want_near |= near
            want_2n |= inside
            if abs(n) <= N:
                want_n |= inside
        assert np.array_equal(want_n, want_2n)
        violated, near = _scan(x, g, cons.D, N, step, Z, W, PHI)
        assert np.array_equal(violated, want_2n)
        assert np.array_equal(near, want_near)


def test_prism_scan_rejects_a_family_too_short_for_its_premise():
    """A family |n| <= 2 is shorter than the truncation premise needs at Z4,
    and the scan names the corona point before it evaluates a wall."""
    cons = level_constraints("Z", 4)
    config = cons.config
    Z, W, PHI = _chart_cone(_probe_points(cons, 600, seed=2))
    step = math.pi * config.k / config.p_lcm
    x, g = _corona_lifts(config)[0]
    _scan(x, g, cons.D, 2 * config.p_lcm, step, Z, W, PHI)
    with pytest.raises(RuntimeError, match=re.escape(f"too short for corona point {x}:")):
        _scan(x, g, cons.D, 2, step, Z, W, PHI)


def test_prism_scan_rejects_a_bracket_off_the_right_half_plane(monkeypatch):
    """A lift whose bracket beta = 1 + kappa Z/W has Re beta <= 0 at some
    sample raises ArithmeticError, on its own and through `sample_equivalence`."""
    cons = level_constraints("E", 2)
    config = cons.config
    pts = _slab_samples(config, 500, 0)
    Z, W, PHI = _chart_cone(pts)
    step = math.pi * config.k / config.p_lcm
    x, g = _corona_lifts(config)[0]
    # kappa = -2: Re beta = 1 - 2 Re(Z/W) < 0 wherever Re(Z/W) > 1/2
    bad = CoverElement(-2.0 + 0j, 1.0 + 0j, g.phi)
    assert np.any((Z / W).real > 0.5)
    with pytest.raises(ArithmeticError, match="principal branch"):
        _scan(x, bad, cons.D, 2 * config.p_lcm, step, Z, W, PHI)
    lifts = _corona_lifts(config)
    monkeypatch.setattr(reduction, "_corona_lifts", lambda config: lifts[:3] + [(x, bad)])
    with pytest.raises(ArithmeticError, match="principal branch"):
        sample_equivalence(cons, n_samples=500, seed=0)


def test_prism_scan_builds_powers_only_for_undecided_rows(monkeypatch):
    """On 10^4 slab samples a lift whose moduli decide every n builds no
    power of D, and every other lift builds each undecided row once, n = 0
    too; the rows are those the oracle's ranges leave undecided."""
    cons = level_constraints("E", 1)
    config = cons.config
    Z, W, PHI = _chart_cone(_slab_samples(config, 10_000, 0))
    two_n = 4 * config.p_lcm
    step = math.pi * config.k / config.p_lcm
    built = []

    def counted_pow(a, n):
        built.append(n)
        return cover_pow(a, n)

    monkeypatch.setattr(reduction, "cover_pow", counted_pow)
    rows_per_lift = []
    for x, g in _corona_lifts(config):
        _, phi0, w_h = batch_wall(g, Z, W, PHI)
        r = np.abs(w_h)
        (lo, sure_lo), (hi, sure_hi) = decided_ranges(phi0, step, two_n, r)
        undecided = {
            n for n in range(-two_n, two_n + 1)
            if np.any((lo <= n) & (n <= hi) & ~((sure_lo <= n) & (n <= sure_hi)))
        }
        built.clear()
        _scan(x, g, cons.D, two_n // 2, step, Z, W, PHI)
        assert sorted(built) == sorted(undecided)
        rows_per_lift.append(len(undecided))
    assert 0 in rows_per_lift and sum(rows_per_lift) > 0
