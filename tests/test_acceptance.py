"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines on
passing runs too.  Every tolerance and sample count here is part of the
contract; do not loosen them to make a failing build green.
"""

import cmath
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from lorentzdomains.cover import (
    COVER_IDENTITY,
    R_param,
    as_central_power,
    central,
    cover_mul,
    cover_pow,
    lift_level,
    series_signature,
)
from lorentzdomains.disc import (
    build_triangle_group,
    edge_corona,
)
from lorentzdomains.domain import (
    build_polyhedron,
    detect_symmetry,
    edge_cycle_check,
    enumerate_vertices,
    find_pairings,
)
from lorentzdomains.export import json_text, off_text
from lorentzdomains.reduction import (
    _closed_quantities,
    check_reduction_bound,
    ell,
    sample_equivalence,
)

from dirichlet_oracle import dirichlet_corona_oracle
from lifts import level_build, level_constraints

CASES = [(s, k) for s in ("E", "Z") for k in (1, 2, 4, 5)]


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: {state}{tail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def built_cases():
    out = {}
    for series, k in CASES:
        cs = level_constraints(series, k)
        poly = build_polyhedron(cs, enumerate_vertices(cs))
        out[(series, k)] = (cs, poly)
    return out


def test_criterion_1_corona_closed_forms():
    t0 = time.time()
    tri = build_triangle_group(5, 3, 3)
    pts = edge_corona(tri)
    ok = len(pts) == 10
    radii = [abs(x) for x in pts]
    ok = ok and all(abs(r - 0.786152) < 1e-5 for r in radii)
    ok = ok and all(abs(r - tri.d) < 1e-12 for r in radii)
    ordered = sorted(pts, key=cmath.phase)
    gaps = [abs(b - a) for a, b in zip(ordered, ordered[1:] + ordered[:1])]
    ok = ok and abs(max(gaps) - 0.485866) < 1e-5
    ok = ok and abs(max(gaps) - tri.s) < 1e-12
    for p in (5, 7):
        tri_p = build_triangle_group(p, 3, 3)
        closed = sorted(edge_corona(tri_p), key=lambda z: (round(abs(z), 12), cmath.phase(z)))
        oracle = sorted(
            dirichlet_corona_oracle(tri_p), key=lambda z: (round(abs(z), 12), cmath.phase(z))
        )
        ok = ok and len(closed) == len(oracle)
        ok = ok and all(abs(a - b) < 1e-9 for a, b in zip(closed, oracle))
    dt = time.time() - t0
    _verdict(1, "corona closed forms", ok and dt < 5.0, f"{dt:.2f}s")


def test_criterion_2_cover_arithmetic():
    t0 = time.time()
    rng = random.Random(1234)

    def rand_elt():
        g = COVER_IDENTITY
        for _ in range(rng.randint(1, 3)):
            x = rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            g = cover_mul(g, R_param(x, rng.uniform(-3.0, 3.0) * math.pi))
        return g

    worst_hom = worst_assoc = worst_cent = 0.0
    for _ in range(10_000):
        a, b = rand_elt(), rand_elt()
        ab = cover_mul(a, b)
        # scale-aware: products grow like |w_a| |w_b|
        scale = max(1.0, abs(a.w) * abs(b.w))
        za, wa = a.z, a.w
        zb, wb = b.z, b.w
        worst_hom = max(
            worst_hom,
            abs(ab.z - (wa.conjugate() * zb + za * wb)) / scale,
            abs(ab.w - (za.conjugate() * zb + wa * wb)) / scale,
        )
        c = rand_elt()
        p1 = cover_mul(cover_mul(a, b), c)
        p2 = cover_mul(a, cover_mul(b, c))
        s3 = max(1.0, abs(a.w) * abs(b.w) * abs(c.w))
        worst_assoc = max(
            worst_assoc,
            abs(p1.z - p2.z) / s3,
            abs(p1.w - p2.w) / s3,
            abs(p1.phi - p2.phi),
        )
        n = rng.randint(-3, 3)
        lft = cover_mul(central(n), a)
        rgt = cover_mul(a, central(n))
        worst_cent = max(
            worst_cent, abs(lft.z - rgt.z), abs(lft.w - rgt.w), abs(lft.phi - rgt.phi)
        )
    ok = worst_hom < 1e-10 and worst_assoc < 1e-10 and worst_cent == 0.0

    # path-lifting oracle: continuous phase along tau -> prod R(x_i, tau t_i)
    from test_cover import path_phi

    for _ in range(30):
        factors = [
            (
                rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                rng.uniform(-3.0, 3.0) * math.pi,
            )
            for _ in range(rng.randint(1, 3))
        ]
        g = COVER_IDENTITY
        for x, t in factors:
            g = cover_mul(g, R_param(x, t))
        ok = ok and abs(g.phi - path_phi(factors)) < 1e-10

    for series_p in (lambda k: k + 3, lambda k: 2 * k + 3):
        for k in (1, 2, 4, 5):
            cfg = lift_level(series_p(k), 3, 3, k)
            gens = cfg.gens
            ok = ok and cover_pow(gens["D"], cfg.p_lcm) == central(k)
    dt = time.time() - t0
    _verdict(
        2, "cover arithmetic", ok and dt < 10.0,
        f"hom {worst_hom:.2e}, assoc {worst_assoc:.2e}, {dt:.2f}s",
    )


def test_criterion_3_level_lifts():
    ok = True
    for p in range(4, 16):
        for k in range(1, 11):
            admissible = math.gcd(k, 3 * p) == 1 and (p - 3) % k == 0
            try:
                cfg = lift_level(p, 3, 3, k)
                got = True
            except ValueError:
                got = False
            ok = ok and (got == admissible)
            if not got:
                continue
            gens = cfg.gens
            rels = [
                cover_pow(gens["u"], p),
                cover_pow(gens["v"], 3),
                cover_pow(gens["w"], 3),
                cover_mul(cover_mul(gens["u"], gens["v"]), gens["w"]),
            ]
            for rel in rels:
                ok = ok and abs(rel.z) < 1e-9
                n = as_central_power(rel)
                ok = ok and n % k == 0
    _verdict(3, "level lifts", ok, "p in [4,15], k in [1,10]")


def test_criterion_4_reduction_bound():
    ok = True
    worst_margin = float("inf")
    for series in ("E", "Z"):
        for k in [k for k in range(1, 21) if k % 3 != 0]:
            rep = check_reduction_bound(level_constraints(series, k))
            ok = ok and rep.holds and rep.margin > 0.0
            worst_margin = min(worst_margin, rep.margin)
    rep2 = check_reduction_bound(level_constraints("E", 2))
    ok = ok and abs(rep2.ell_minus_at_sec - 0.5489) < 1e-3
    ok = ok and abs(rep2.rhs - 0.6687) < 1e-3
    # the geometric route and the closed-form route must coincide
    for series in ("E", "Z"):
        for k in [k for k in range(1, 21) if k % 3 != 0]:
            p, q, r = series_signature(series, k)
            tri = build_triangle_group(p, q, r)
            R, ell_closed, rhs_closed = _closed_quantities(p, k, 3 * p, math)
            sec = 1.0 / math.cos(math.pi * k / (2 * (3 * p)))
            ok = ok and abs(ell(sec, -1, tri) - ell_closed) < 1e-10
            ok = ok and abs((1.0 - math.sqrt(1.0 - R * R)) / R - rhs_closed) < 1e-10
    _verdict(4, "reduction bound", ok, f"min margin {worst_margin:.4f}")


def test_criterion_5_sample_equivalence():
    t0 = time.time()
    ok = True
    total = 0
    for series, k in CASES:
        st = sample_equivalence(level_constraints(series, k), n_samples=10_000, seed=0)
        ok = ok and st.n_evaluated >= 9_900 and st.n_agree == st.n_evaluated
        total += st.n_evaluated
    dt = time.time() - t0
    _verdict(
        5, "descriptions agree", ok and dt < 120.0,
        f"{total} points, 100% agreement, {dt:.1f}s",
    )


def test_criterion_6_polyhedron_validity(built_cases):
    ok = True
    for (series, k), (cs, poly) in built_cases.items():
        ok = ok and poly.euler_characteristic == 2
        # closed + orientable: every directed edge used exactly once
        directed = Counter()
        for face in poly.faces:
            for a, b in zip(face.loop, face.loop[1:] + face.loop[:1]):
                directed[(a, b)] += 1
        ok = ok and all(v == 1 for v in directed.values())
        ok = ok and all((b, a) in directed for (a, b) in directed)
        psi = detect_symmetry(poly, cs)
        ok = ok and psi is not None
        if psi is not None:
            c, s = math.cos(psi), math.sin(psi)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            mapped = poly.vertices @ rot.T
            for row in mapped:
                ok = ok and np.min(
                    np.linalg.norm(poly.vertices - row, axis=1)
                ) < 1e-8
        ok = ok and sum(1 for f in poly.faces if f.is_slab) == 2
    _verdict(6, "polyhedron validity", ok, f"{len(built_cases)} cases")


def test_criterion_7_pairing_scheme(built_cases):
    ok = True
    detail = []
    for (series, k), (cs, poly) in built_cases.items():
        rep = find_pairings(poly, cs)
        partner = rep.partner_of()
        ok = ok and rep.unpaired == ()
        side = [i for i, f in enumerate(poly.faces) if not f.is_slab]
        ok = ok and all(i in partner for i in side)
        ok = ok and max(p.syllables for p in rep.pairings) <= 8
        # involution
        for pr in rep.pairings:
            ok = ok and partner[pr.face_j].face_j == pr.face_i
        # adjacency pattern: b_m with a_{m+1} (E); c_m with a_{m+1}, b with b (Z)
        for pr in rep.pairings:
            la = poly.faces[pr.face_i].label
            lb = poly.faces[pr.face_j].label
            ca, cb = la.split("[")[0], lb.split("[")[0]
            if ca == "slab":
                ok = ok and cb == "slab"
                continue
            ma, mb = int(la.split("[")[1][:-1]), int(lb.split("[")[1][:-1])
            off = (mb - ma) % cs.period
            if series == "E":
                ok = ok and {ca, cb} == {"a", "b"}
                if ca == "b":
                    ok = ok and cb == "a" and off == 1
            else:
                if ca == "c":
                    ok = ok and cb == "a" and off == 1
                elif ca == "b":
                    ok = ok and cb == "b" and off == cs.tri.p
        # flag correspondences stay coherent around every edge
        cycles = edge_cycle_check(poly, rep)
        ok = ok and all(isinstance(n, int) for n, _ in cycles)
        detail.append(f"{series}{k}")
    _verdict(7, "pairing scheme", ok, " ".join(detail))


def test_criterion_8_determinism(built_cases):
    texts = []
    for _ in range(2):
        report = level_build("Z", 2).report
        texts.append((off_text(report), json_text(report)))
    ok = texts[0][0] == texts[1][0] and texts[0][1] == texts[1][1]
    _verdict(8, "byte-identical artifacts", ok, "OFF and JSON")
