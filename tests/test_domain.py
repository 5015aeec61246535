import dataclasses
import functools
import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lorentzdomains import domain
from lorentzdomains.cli import main
from lorentzdomains.cover import (
    COVER_IDENTITY,
    CoverElement,
    R_param,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
)
from lorentzdomains.disc import GroupElement, group_mul, mobius_apply
from lorentzdomains.domain import (
    _COND_LIMIT,
    _DET_FLOOR,
    MEMBERSHIP_TOL,
    PLANE_INCIDENCE_TOL,
    PAIRING_MATCH_TOL,
    VERTEX_MERGE_TOL,
    Pairing,
    PairingReport,
    _LABEL_ORDER,
    _SEED_INCIDENCE_TOL,
    _SEED_MEMBERSHIP_TOL,
    _SEED_SLACK,
    _certificate,
    _chart_images,
    _close_pairs,
    _cyclic_adjacent,
    _in_slab_cone,
    _left_factor,
    _merge_vertices,
    _nearest_vertices,
    _partner_wall,
    _pinned,
    _ranks,
    _seed_triples,
    _seed_window,
    _sigma_permutation,
    _solve_triples,
    _wall_pass,
    _window_key,
    _window_order,
    build_polyhedron,
    detect_symmetry,
    edge_cycle_check,
    enumerate_vertices,
    find_pairings,
    linearize,
    membership_mask,
)
from lorentzdomains.halfspaces import _chart_cone, batch_wall

from halfspace_oracle import chart_point, pairing_form
from lifts import level_build, level_constraints, lift
from cycle_oracle import scalar_edge_cycles
from polyhedron_oracle import (
    dict_polyhedron,
    full_pass,
    newell_normal,
    rotation_scan_symmetry,
    trivial_orbits,
)
from seed_oracle import SEED_BLOCK, sector_blocks, sector_seeds
from word_oracle import (
    SchreierTree,
    fraction_certificate,
    fraction_left_factor,
    gamma1_certificate,
)

# frozen combinatorics of the verified builds; p1 is the primary rotation
# order (k+3 resp. 2k+3) and every count below is linear in it
E_COUNTS = {1: (16, 32, 18), 2: (20, 40, 22), 4: (28, 56, 30), 5: (32, 64, 34)}
Z_COUNTS = {1: (40, 70, 32), 2: (56, 98, 44)}


@pytest.fixture(scope="module")
def e2():
    cs = level_constraints("E", 2)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    rep = find_pairings(poly, cs)
    return cs, poly, rep


@pytest.fixture(scope="module")
def z1():
    cs = level_constraints("Z", 1)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    rep = find_pairings(poly, cs)
    return cs, poly, rep


def test_series_constraints_rejects_bad_level():
    """A level with no lift fails at the lift; a lift of another series'
    signature, or of no series, fails the constraint set."""
    with pytest.raises(ValueError):
        lift("E", 3)
    with pytest.raises(ValueError):
        lift("Z", 6)
    with pytest.raises(ValueError, match="not of series 'Z'"):
        domain.series_constraints("Z", lift("E", 2))
    with pytest.raises(ValueError, match="unknown series"):
        domain.series_constraints("X", lift("E", 2))


def test_e2_counts(e2):
    cs, poly, _ = e2
    assert len(poly.vertices) == 20
    assert len(poly.edges) == 40
    assert len(poly.faces) == 22
    assert poly.euler_characteristic == 2


def test_e2_face_census(e2):
    _, poly, _ = e2
    census = Counter((f.label.split("[")[0], len(f.loop)) for f in poly.faces)
    assert census == {("a", 3): 10, ("b", 3): 10, ("slab", 10): 2}


def test_exactly_two_slab_faces(e2):
    _, poly, _ = e2
    assert sum(1 for f in poly.faces if f.is_slab) == 2


def test_e2_symmetry(e2):
    cs, poly, _ = e2
    psi = detect_symmetry(poly, cs)
    assert psi is not None
    assert abs(psi - math.pi / 5.0) < 1e-12


def test_symmetry_needs_one_vertex_per_power_of_sigma_in_each_orbit(e2):
    """The angle comes from the orbit match only where every orbit holds
    each power of sigma once; trivial orbits, each vertex alone, give
    none."""
    cs, poly, _ = e2
    assert detect_symmetry(poly, cs) == rotation_scan_symmetry(poly, cs) == math.pi / 5.0
    doubled = dataclasses.replace(poly, power=np.where(poly.power == 1, 0, poly.power))
    assert detect_symmetry(doubled, cs) is None
    orbit, power = trivial_orbits(len(poly.vertices))
    assert detect_symmetry(dataclasses.replace(poly, orbit=orbit, power=power), cs) is None


def test_counts_scale_with_rotation_order():
    for series, table in (("E", E_COUNTS), ("Z", Z_COUNTS)):
        for k, (v, e, f) in table.items():
            cs = level_constraints(series, k)
            poly = build_polyhedron(cs, enumerate_vertices(cs))
            assert (len(poly.vertices), len(poly.edges), len(poly.faces)) == (v, e, f)
            assert poly.euler_characteristic == 2


def test_e2_pairings_complete(e2):
    _, poly, rep = e2
    assert rep.unpaired == ()
    assert len(rep.pairings) == len(poly.faces)
    assert max(p.syllables for p in rep.pairings) <= 8


def test_e2_pairing_pattern(e2):
    """Each near-wall triangle glues to the far-wall triangle one step back."""
    cs, poly, rep = e2
    offsets = set()
    for pr in rep.pairings:
        la, lb = poly.faces[pr.face_i].label, poly.faces[pr.face_j].label
        if la.startswith("a"):
            ma = int(la.split("[")[1][:-1])
            mb = int(lb.split("[")[1][:-1])
            assert lb.startswith("b")
            offsets.add((mb - ma) % cs.period)
    assert offsets == {cs.period - 1}


def test_e2_pairing_involution(e2):
    _, poly, rep = e2
    partner = rep.partner_of()
    for pr in rep.pairings:
        back = partner[pr.face_j]
        assert back.face_j == pr.face_i
        round_trip = cover_mul(back.g1, pr.g1)
        assert abs(round_trip.z) < 1e-9
        fwd = dict(pr.vertex_map)
        rev = dict(back.vertex_map)
        assert all(rev[b] == a for a, b in fwd.items())


def test_e2_slab_faces_glued_to_each_other(e2):
    _, poly, rep = e2
    partner = rep.partner_of()
    tops = [i for i, f in enumerate(poly.faces) if f.is_slab]
    assert partner[tops[0]].face_j == tops[1]
    assert partner[tops[1]].face_j == tops[0]


def test_e2_edge_cycles_close(e2):
    _, poly, rep = e2
    records = edge_cycle_check(poly, rep)
    # one record per edge per direction of travel
    assert len(records) == 2 * len(poly.edges) // 2
    assert all(steps == 3 for _, steps in records)
    assert set(n for n, _ in records) == {-8, 8}


def test_z1_census_and_patterns(z1):
    cs, poly, rep = z1
    census = Counter((f.label.split("[")[0], len(f.loop)) for f in poly.faces)
    assert census == {("a", 3): 10, ("b", 4): 10, ("c", 3): 10, ("slab", 20): 2}
    assert rep.unpaired == ()
    pats = Counter()
    for pr in rep.pairings:
        la, lb = poly.faces[pr.face_i].label, poly.faces[pr.face_j].label
        ca, cb = la.split("[")[0], lb.split("[")[0]
        if ca == "slab":
            continue
        ma, mb = int(la.split("[")[1][:-1]), int(lb.split("[")[1][:-1])
        pats[(ca, cb, (mb - ma) % cs.period)] += 1
    assert pats == {("a", "c", 9): 10, ("b", "b", 5): 10, ("c", "a", 1): 10}


def test_z1_edge_cycles_close(z1):
    _, poly, rep = z1
    records = edge_cycle_check(poly, rep)
    assert all(steps == 3 for _, steps in records)
    exps = set(n for n, _ in records)
    assert exps == {-3, -2, -1, 1, 2, 3}


def test_pairing_words_recorded(e2):
    _, _, rep = e2
    for pr in rep.pairings:
        assert isinstance(pr.word, str) and pr.word
        assert pr.syllables >= 0


def test_build_is_deterministic():
    runs = []
    for _ in range(2):
        cs = level_constraints("E", 2)
        poly = build_polyhedron(cs, enumerate_vertices(cs))
        runs.append(poly)
    assert runs[0].vertices.tobytes() == runs[1].vertices.tobytes()
    assert [f.loop for f in runs[0].faces] == [f.loop for f in runs[1].faces]
    assert [f.label for f in runs[0].faces] == [f.label for f in runs[1].faces]


def test_linearize_matches_pairing_form():
    """The affine functional is the chart restriction of the invariant form."""
    cs = level_constraints("E", 2)
    rng = np.random.default_rng(7)
    g = cs.groups[0][0].g
    normals, constants = linearize([g])
    assert normals.tobytes() == cs.normals[:1].tobytes()
    assert constants.tobytes() == cs.constants[:1].tobytes()
    for _ in range(50):
        x1, x2, s = rng.uniform(-0.5, 0.5, size=3)
        p = chart_point(x1, x2, s)
        direct = pairing_form(g, p)
        assert abs(np.array([x1, x2, s]) @ normals[0] + constants[0] - direct) < 1e-12


def test_series_constraints_names_a_wall_whose_window_opens(monkeypatch):
    """Two extra central factors leave every wall plane where it was but
    move its I-side onto another sheet: |phi_g| leaves pi/2 and the
    premise check names the first wall and its margin."""
    monkeypatch.setattr(domain, "central", lambda n: central(n + 2))
    with pytest.raises(
        RuntimeError,
        match=r"premise fails for wall a\[0\] .*margin pi/2 - \|phi\| = -4\.5",
    ):
        level_constraints("E", 2)


ADMISSIBLE_LEVELS = [
    (series, k) for series in ("E", "Z") for k in range(1, 51) if k % 3
]


@pytest.mark.parametrize("series,k", ADMISSIBLE_LEVELS)
def test_every_wall_meets_the_window_premise_with_margin(series, k):
    """The premise of the lemma in `membership_mask` at every admissible
    level k <= 50, with room: |z_g| < |w_g| and pi/2 - |phi_g| >= 0.5
    (0.58 at E50, its smallest)."""
    cs = level_constraints(series, k)
    for wall in cs.all_walls():
        g = wall.g
        assert abs(g.z) < abs(g.w), wall.label
        assert math.pi / 2.0 - abs(g.phi) >= 0.5, wall.label


def test_linearize_identity_is_constant():
    normals, constants = linearize([COVER_IDENTITY])
    vals = np.random.default_rng(0).uniform(-1, 1, size=(10, 3)) @ normals[0] + constants[0]
    assert np.all(vals == -1.0)


def test_membership_interior_point(e2):
    cs, poly, _ = e2
    centroid = poly.vertices.mean(axis=0)
    # the centroid of this domain is the chart origin, inside by construction
    assert membership_mask(cs, np.array([centroid]))[0]
    assert membership_mask(cs, np.array([[0.0, 0.0, 0.0]]))[0]


def test_membership_rejects_far_points(e2):
    cs, _, _ = e2
    h = math.tan(math.pi * cs.k / (2 * cs.config.p_lcm))
    outside = np.array([[0.0, 0.0, 3.0 * h]])
    assert not membership_mask(cs, outside)[0]


def test_vertices_respect_symmetry(e2):
    """The vertex set is invariant under the detected rotation."""
    cs, poly, _ = e2
    psi = detect_symmetry(poly, cs)
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    mapped = poly.vertices @ rot.T
    for row in mapped:
        assert np.min(np.linalg.norm(poly.vertices - row, axis=1)) < 1e-8


# ---------------------------------------------------------------------------
# reference enumeration: every wall evaluated on every point, every triple
# through the SVD, and a list-based merge; the short-circuit membership and
# the determinant-bounded conditioning check must reproduce it bit for bit

ORACLE_LEVELS = [(series, k) for series in ("E", "Z") for k in (1, 2, 4, 5, 7)]
# the segment probes and their tolerance of the per-pair edge test that the
# polyhedron oracle runs; the build reads its edges from shared walls alone
_ORACLE_PROBE_TS = (0.25, 0.5, 0.75)
_ORACLE_PROBE_TOL = 1e-7


def _reference_membership(cs, pts, tol):
    pts = np.asarray(pts, dtype=float)
    cone_ok = pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (1.0 - 1e-12)
    out = np.zeros(len(pts), dtype=bool)
    sub = pts[cone_ok]
    Z, W, PHI = _chart_cone(sub)
    vals, windows = {}, {}
    for wall in cs.all_walls():
        val, phi, _ = batch_wall(wall.g, Z, W, PHI)
        vals[wall.label] = val
        windows[wall.label] = np.abs(phi) < math.pi / 2.0
    exact = np.ones(len(sub), dtype=bool)
    linear = np.ones(len(sub), dtype=bool)
    rows = {wall.label: i for i, wall in enumerate(cs.all_walls())}

    def value(wall):
        return sub @ cs.normals[rows[wall.label]] + cs.constants[rows[wall.label]]

    for wall in cs.slab:
        exact &= ~((vals[wall.label] < -1.0 - tol) & windows[wall.label])
        linear &= ~(value(wall) < -1.0 - tol)
    for grp in cs.groups:
        cap_exact = np.zeros(len(sub), dtype=bool)
        cap_linear = np.zeros(len(sub), dtype=bool)
        for wall in grp:
            cap_exact |= (vals[wall.label] <= -1.0 + tol) & windows[wall.label]
            cap_linear |= value(wall) <= -1.0 + tol
        exact &= cap_exact
        linear &= cap_linear
    assert np.array_equal(exact, linear)
    out[cone_ok] = exact
    return out


def _reference_vertices(cs, banned=None):
    """Every triple through the filters, then the merge; the `banned`
    points are dropped with the filters."""
    walls = cs.all_walls()
    normals, offsets = cs.unit_normals, cs.offsets
    triples = np.array(list(itertools.combinations(range(len(walls)), 3)), dtype=int)
    A, b = normals[triples], offsets[triples]
    keep = np.abs(np.linalg.det(A)) > _DET_FLOOR
    A, b = A[keep], b[keep]
    good = np.linalg.cond(A) < _COND_LIMIT
    A, b = A[good], b[good]
    candidates = np.linalg.solve(A, b[..., None])[..., 0]
    # chunks bound the full walls x points tables; each point is judged alone
    chunk = 1 << 15
    inside = np.concatenate([
        _reference_membership(cs, candidates[start:start + chunk], MEMBERSHIP_TOL)
        for start in range(0, len(candidates), chunk)
    ])
    candidates = candidates[inside]
    act = _reference_active(cs, candidates, PLANE_INCIDENCE_TOL)[0]
    keep = [
        col for col in range(len(candidates))
        if act[:, col].sum() >= 3
        and np.linalg.matrix_rank(normals[act[:, col]], tol=1e-8) == 3
    ]
    candidates = candidates[keep]
    if banned is not None:
        candidates = candidates[~(candidates[:, None, :] == banned[None]).all(axis=2).any(axis=1)]
    order = np.lexsort(
        (
            np.round(candidates[:, 1], 10),
            np.round(candidates[:, 0], 10),
            np.round(candidates[:, 2], 10),
        )
    )
    merged = []
    for idx in order:
        p = candidates[idx]
        if any(np.linalg.norm(p - q) <= VERTEX_MERGE_TOL for q in merged):
            continue
        merged.append(p)
    return np.array(merged)


def _probe_points(cs, rng, n=3000, per_wall=40):
    """Points inside the slab, beyond it, outside the cone, on every wall
    plane (per_wall of them per wall and shift), at the cone edge, and far
    along s."""
    h = math.tan(math.pi * cs.k / (2 * cs.config.p_lcm))
    rho = math.sqrt(1.0 + h * h)
    inside = np.column_stack(
        [rng.uniform(-rho, rho, n), rng.uniform(-rho, rho, n), rng.uniform(-h, h, n)]
    )
    beyond = inside.copy()
    beyond[:, 2] = np.sign(beyond[:, 2]) * rng.uniform(h, 3.0 * h, n)
    r = np.sqrt(1.0 + inside[:, 2] ** 2) * rng.uniform(1.0, 1.5, n)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    off_cone = np.column_stack([r * np.cos(ang), r * np.sin(ang), inside[:, 2]])
    # on each wall plane, and shifted off it so that the wall functional
    # reads -1 +- 0.5 tol and -1 +- 1.5 tol for both tolerances in use
    shifts = [0.0] + [
        sign * f * tol
        for tol in (MEMBERSHIP_TOL, _ORACLE_PROBE_TOL)
        for f in (0.5, 1.5)
        for sign in (-1.0, 1.0)
    ]
    on_walls = []
    for unit, offset, normal in zip(cs.unit_normals, cs.offsets, cs.normals):
        seed = inside[rng.integers(0, n, per_wall)]
        plane = seed - np.outer(seed @ unit - offset, unit)
        for delta in shifts:
            on_walls.append(plane + (delta / (normal @ normal)) * normal)
    # inside the cone by a relative gap of 1e-11 to 1e-2, in the slab and
    # at 1 <= |s| <= 1e4, and anywhere in the cone at those s: far along s
    # the sheet coordinate of a wall that holds nears pi/2
    tall = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 4.0, n)
    s = np.concatenate([inside[:, 2], tall, tall])
    frac = np.concatenate(
        [1.0 - 10.0 ** rng.uniform(-11.0, -2.0, 2 * n), np.sqrt(rng.uniform(0.0, 1.0, n))]
    )
    r = np.sqrt(1.0 + s * s) * frac
    ang = rng.uniform(0.0, 2.0 * math.pi, 3 * n)
    edge_and_tall = np.column_stack([r * np.cos(ang), r * np.sin(ang), s])
    return np.vstack([inside, beyond, off_cone] + on_walls + [edge_and_tall])


def _reference_active(cs, pts, tol):
    """Active incidences and on-plane incidences from the full tables, at
    tol in unit-normal distance: tol max(1, |n|) on each wall's value, n
    its chart normal."""
    Z, W, PHI = _chart_cone(np.asarray(pts, dtype=float))
    walls = cs.all_walls()
    vals = np.empty((len(walls), len(Z)))
    windows = np.empty_like(vals, dtype=bool)
    for i, wall in enumerate(walls):
        val, phi, _ = batch_wall(wall.g, Z, W, PHI)
        vals[i] = val
        windows[i] = np.abs(phi) < math.pi / 2.0
    normals = linearize([wall.g for wall in walls])[0]
    tol = tol * np.maximum(1.0, np.linalg.norm(normals, axis=1))[:, None]
    on_plane = (np.abs(vals + 1.0) <= tol) & windows
    active = np.zeros_like(on_plane)
    n_group_walls = len(walls) - len(cs.slab)
    active[n_group_walls:] = on_plane[n_group_walls:]
    start = 0
    for grp in cs.groups:
        rows = slice(start, start + len(grp))
        strict = ((vals[rows] < -1.0 - tol[rows]) & windows[rows]).any(axis=0)
        active[rows] = on_plane[rows] & ~strict
        start += len(grp)
    return active, on_plane


def _incidence_table(inside, pairs, n_walls):
    """The (point, wall) incidence pairs of `_wall_pass` as a walls x
    inside-points table, after checking that the pairs are unique, sorted
    by point and then by wall, and on points inside."""
    point, wall = pairs
    assert (np.diff(point * n_walls + wall) > 0).all()
    assert inside[point].all() and ((0 <= wall) & (wall < n_walls)).all()
    table = np.zeros((n_walls, int(inside.sum())), dtype=bool)
    table[wall, np.searchsorted(np.flatnonzero(inside), point)] = True
    return table


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_active_walls_matches_full_table(series, k):
    """The active incidences of `_wall_pass` at each incidence tolerance in
    use, on every probe point within the loose seed membership tolerance,
    against the full walls-by-points table: the incidence rule holds apart
    from the membership tolerance that picks the columns."""
    cs = level_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    for tol in (PLANE_INCIDENCE_TOL, _ORACLE_PROBE_TOL):
        inside, pairs = _wall_pass(cs, pts, _SEED_MEMBERSHIP_TOL, tol)
        got = _incidence_table(inside, pairs, len(cs.all_walls()))
        ref, on_plane = _reference_active(cs, pts[inside], tol)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        # both rules fire: incidences kept, and on-plane ones a sibling hides
        assert got.any() and (on_plane & ~got).any()


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_membership_mask_matches_full_table(series, k):
    cs = level_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    for tol in (MEMBERSHIP_TOL, _ORACLE_PROBE_TOL):
        got = membership_mask(cs, pts, tol=tol)
        ref = _reference_membership(cs, pts, tol)
        assert got.tobytes() == ref.tobytes()
        assert 0 < got.sum() < len(pts)


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_wall_pass_matches_membership_and_active_walls(series, k):
    """One pass gives the membership mask and, on the points inside, the
    active incidences of the full walls-by-points table, byte for byte."""
    cs = level_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    for tol, incidence_tol in (
        (MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL),
        (_ORACLE_PROBE_TOL, _ORACLE_PROBE_TOL),
        (_SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL),
    ):
        inside, pairs = _wall_pass(cs, pts, tol, incidence_tol)
        act = _incidence_table(inside, pairs, len(cs.all_walls()))
        assert inside.tobytes() == _reference_membership(cs, pts, tol).tobytes()
        assert inside.tobytes() == membership_mask(cs, pts, tol=tol).tobytes()
        ref, on_plane = _reference_active(cs, pts[inside], incidence_tol)
        assert act.shape == ref.shape and act.tobytes() == ref.tobytes()
        assert act.any() and not act.all(axis=0).any()
        # both rules fire: incidences kept, and on-plane ones a sibling hides
        assert (on_plane & ~act).any()


LEMMA_LEVELS = ORACLE_LEVELS + [("E", 40), ("Z", 50)]


@pytest.mark.parametrize("series,k", LEMMA_LEVELS)
def test_the_window_is_open_wherever_a_wall_can_hold(series, k):
    """The lemma of `membership_mask` against the exact kernel: on every
    probe point in the cone, every wall entry whose `batch_wall` value
    reaches -1 + tol (the loosest tol in use) has its sheet window open,
    and the probes take that window to within 1e-3 of pi/2.  There the
    chart-functional pass gives the full tables' masks and incidences bit
    for bit."""
    cs = level_constraints(series, k)
    per_wall = 40 if k <= 7 else 4
    pts = _probe_points(cs, np.random.default_rng(k), per_wall=per_wall)
    Z, W, PHI = _chart_cone(pts[_in_slab_cone(pts)])
    held = 0
    widest = 0.0
    for wall in cs.all_walls():
        val, phi, _ = batch_wall(wall.g, Z, W, PHI)
        phases = np.abs(phi[val <= -1.0 + _SEED_MEMBERSHIP_TOL])
        assert (phases < math.pi / 2.0).all(), wall.label
        held += len(phases)
        widest = max(widest, float(phases.max(initial=0.0)))
    assert held > 10**5 and widest > math.pi / 2.0 - 1e-3
    chunk = 1 << 12
    for tol, incidence_tol in (
        (MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL),
        (_SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL),
    ):
        inside, pairs = _wall_pass(cs, pts, tol, incidence_tol)
        act = _incidence_table(inside, pairs, len(cs.all_walls()))
        ref = np.concatenate([
            _reference_membership(cs, pts[start:start + chunk], tol)
            for start in range(0, len(pts), chunk)
        ])
        assert inside.tobytes() == ref.tobytes() and inside.any()
        ref_act = _reference_active(cs, pts[inside], incidence_tol)[0]
        assert act.shape == ref_act.shape and act.tobytes() == ref_act.tobytes()


def _near_singular_normals(rng, sigmas):
    """Three unit rows per target whose smallest singular value is about
    that target: two random rows and a unit row tilted out of their plane
    by the target."""
    rows = []
    for sigma in sigmas:
        a, b = rng.normal(size=(2, 3))
        m = np.cross(a, b)
        c = rng.normal() * a + rng.normal() * b
        c = c / np.linalg.norm(c) + sigma * m / np.linalg.norm(m)
        rows += [a / np.linalg.norm(a), b / np.linalg.norm(b), c / np.linalg.norm(c)]
    return np.array(rows)


def test_ranks_match_matrix_rank_per_column():
    """The batched rank test against one `matrix_rank` call per column,
    with 0 to 6 active rows and singular values on both sides of tol."""
    rng = np.random.default_rng(3)
    tols = (1e-8, 1e-8 / _SEED_SLACK)
    sigmas = np.geomspace(1e-9, 1e-7, 24)
    normals = np.vstack([
        _near_singular_normals(rng, sigmas),
        rng.normal(size=(12, 3)),
        np.repeat(rng.normal(size=(2, 3)), 2, axis=0),  # equal rows: rank drops
    ])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    n_near = 3 * len(sigmas)
    cols = []
    for t in range(len(sigmas)):  # each near-singular triple, alone and with others
        cols.append(np.isin(np.arange(len(normals)), [3 * t, 3 * t + 1, 3 * t + 2]))
        extra = rng.choice(np.arange(n_near, len(normals)), rng.integers(1, 4), replace=False)
        cols.append(cols[-1] | np.isin(np.arange(len(normals)), extra))
    for count in range(7):
        for _ in range(30):
            col = np.zeros(len(normals), dtype=bool)
            col[rng.choice(len(normals), count, replace=False)] = True
            cols.append(col)
    act = np.array(cols).T
    smallest = [np.linalg.svd(normals[act[:, i]], compute_uv=False)[-1]
                for i in range(len(cols)) if act[:, i].sum() == 3]
    for tol in tols:
        ref = [
            np.linalg.matrix_rank(normals[act[:, i]], tol=tol) if act[:, i].any() else 0
            for i in range(act.shape[1])
        ]
        got = _ranks(normals, *np.nonzero(act.T), tol, act.shape[1])
        assert got.tolist() == ref
        # singular values within 10x of tol, on either side
        assert any(tol / 10 <= s < tol for s in smallest)
        assert any(tol < s <= 10 * tol for s in smallest)
    assert set(act.sum(axis=0).tolist()) == set(range(7))


def _sequential_merge(candidates, tol):
    """The greedy merge as a loop: keep a candidate unless an earlier kept
    one lies within tol."""
    merged = np.empty((len(candidates), 3))
    n = 0
    for p in candidates:
        if n and np.min(np.linalg.norm(merged[:n] - p, axis=1)) <= tol:
            continue
        merged[n] = p
        n += 1
    return merged[:n].copy()


def test_merge_vertices_matches_the_sequential_merge():
    rng = np.random.default_rng(11)
    tol = VERTEX_MERGE_TOL
    centres = rng.uniform(-1.0, 1.0, size=(60, 3))
    # tight clusters, loose clusters straddling tol, and lone points
    tight = np.repeat(centres[:20], 4, axis=0) + rng.normal(scale=1e-3 * tol, size=(80, 3))
    loose = np.repeat(centres[20:40], 5, axis=0) + rng.uniform(-0.8, 0.8, (100, 3)) * tol
    lone = centres[40:]
    # a chain: the third point is within tol of the second, which the first
    # absorbs, but not of the first, so it is kept
    step = np.array([0.8 * tol, 0.0, 0.0])
    chain = centres[0] + 3.0 + np.outer(np.arange(3), step)
    assert np.array_equal(chain[_merge_vertices(chain, tol)], chain[[0, 2]])
    points = np.vstack([tight, loose, lone, chain, centres[:5]])
    for _ in range(20):
        order = rng.permutation(len(points))
        got = points[order][_merge_vertices(points[order], tol)]
        ref = _sequential_merge(points[order], tol)
        assert got.tobytes() == ref.tobytes()
    assert len(lone) < len(got) < len(points)


@pytest.mark.parametrize("dim", [2, 3])
def test_close_pairs_window_a_mirror_symmetric_set(dim):
    """On a set symmetric under the mirrors that keep x1, as the vertex sets
    are, the window holds every pair within tol and scans few others; a
    window on x1 would scan each point's mirror images too."""
    rng = np.random.default_rng(3)
    tol = VERTEX_MERGE_TOL
    base = rng.uniform(-1.0, 1.0, size=(50, dim))
    mirrors = [np.array(m[:dim]) for m in ((1, 1, 1), (1, -1, 1), (1, 1, -1), (1, -1, -1))]
    pts = np.unique(np.vstack([base * m for m in mirrors]), axis=0)
    pts = np.vstack([pts, pts + rng.normal(scale=tol / 4, size=pts.shape)])
    row, point, dist = _close_pairs(pts, pts, tol)
    brute = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) <= tol
    near = dist <= tol
    assert set(zip(row[near].tolist(), point[near].tolist())) == set(zip(*map(np.ndarray.tolist, np.nonzero(brute))))
    assert brute.sum() == near.sum() <= len(row) < 1.2 * brute.sum()
    x1 = np.abs(pts[:, None, 0] - pts[None, :, 0]) <= 2.0 * tol
    assert x1.sum() > 1.8 * brute.sum()


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 10), ("E", 11)])
def test_enumerate_vertices_matches_reference(series, k):
    """The sector scan against every triple of the full scan, bit for bit."""
    cs = level_constraints(series, k)
    got = enumerate_vertices(cs).points
    ref = _reference_vertices(cs)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


def _banned_build(cs, banned, monkeypatch):
    """`enumerate_vertices` with `_pin_orbits` rejecting the points
    `banned` as well: the vertex set, the point count of each pin round,
    and the vertices of filtering every candidate first (banned points
    with the filters) and merging after.  The incidences are checked
    against a full wall pass, and no banned point is kept."""
    real, calls = domain._pin_orbits, []

    def rejecting(cs, pts, of, power):
        good, (point, wall) = real(cs, pts, of, power)
        calls.append(len(pts))
        good &= ~(pts[:, None, :] == banned[None]).all(axis=2).any(axis=1)
        return good, (point[good[point]], wall[good[point]])

    monkeypatch.setattr(domain, "_pin_orbits", rejecting)
    got = enumerate_vertices(cs)
    assert not (got.points[:, None, :] == banned[None]).all(axis=2).any()
    _, (point, wall) = _wall_pass(cs, got.points, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    assert np.array_equal(got.point, point) and np.array_equal(got.wall, wall)
    return got, calls, _reference_vertices(cs, banned)


def _assert_orbits_restored(cs, got, found):
    """Stand-ins that restore the vertex set join the orbits of the first
    round: as many orbits as before, each holding every power of sigma
    once, and the angle is the rotation scan's."""
    assert got.orbit.max() == found.orbit.max()
    assert (np.bincount(got.orbit * cs.period + got.power) == 1).all()
    poly = build_polyhedron(cs, got)
    assert detect_symmetry(poly, cs) == rotation_scan_symmetry(poly, cs) == math.pi / cs.tri.p


@pytest.mark.parametrize(
    "series,k,index,stand_in", [("E", 2, 5, True), ("Z", 4, 4, True), ("Z", 4, 5, False)]
)
def test_a_kept_vertex_that_fails_the_pin_gives_filter_then_merge(
    series, k, index, stand_in, monkeypatch
):
    """The merge runs before the pin: when `_pin_orbits` rejects one
    vertex that the merge kept, the build drops it, merges again and pins
    the new keepers, and the vertices are those of filtering every
    candidate first and merging after, bit for bit.  Where another
    candidate lies within the merge tolerance of the banned vertex, it
    stands in for it and is pinned in a second round, and joins the orbit
    of the vertex it replaces; else the vertex is gone."""
    cs = level_constraints(series, k)
    found = enumerate_vertices(cs)
    vertices = found.points
    got, calls, ref = _banned_build(cs, vertices[[index]], monkeypatch)
    assert got.points.tobytes() == ref.tobytes()
    if stand_in:
        assert len(got) == len(vertices) and len(calls) == 2 and calls[1] < calls[0]
        _assert_orbits_restored(cs, got, found)
    else:
        assert len(got) == len(vertices) - 1 and len(calls) == 1


@pytest.mark.parametrize(
    "series,k,index,rounds,lost", [("E", 2, 5, 2, 0), ("Z", 4, 4, 3, 0), ("Z", 4, 5, 1, 22)]
)
def test_a_kept_orbit_that_fails_the_pin_gives_filter_then_merge(
    series, k, index, rounds, lost, monkeypatch
):
    """As above, with the kept vertices of one whole sigma-orbit rejected:
    stand-ins replace them over later rounds (at Z4 a stand-in with a
    banned vertex's very coordinates is banned too, and a third round
    pins the next), or the whole orbit is gone (22 vertices at Z4)."""
    cs = level_constraints(series, k)
    found = enumerate_vertices(cs)
    vertices = found.points
    banned = vertices[found.orbit == found.orbit[index]]
    assert len(banned) == cs.period
    got, calls, ref = _banned_build(cs, banned, monkeypatch)
    assert got.points.tobytes() == ref.tobytes()
    assert len(got) == len(vertices) - lost and len(calls) == rounds
    assert all(later < calls[0] for later in calls[1:])
    if not lost:
        _assert_orbits_restored(cs, got, found)


def _reference_polyhedron(cs, vertices):
    """The face assembly by the per-pair edge test: one rank check and one
    probe list per vertex pair sharing two walls, membership and
    incidences of the probes at _ORACLE_PROBE_TOL, the walls
    alive on a segment gathered per pair, and each wall's adjacency found
    by scanning every edge.  Returns the sorted undirected edges of the
    face loops and the (label, loop) list in face order."""
    walls = cs.all_walls()
    incidence = _reference_active(cs, vertices, PLANE_INCIDENCE_TOL)[0]
    pair_shared, probe_pts, probe_owner = {}, [], []
    inc = incidence.astype(np.int64)
    for i, j in np.argwhere(np.triu(inc.T @ inc >= 2, 1)).tolist():
        shared = np.flatnonzero(incidence[:, i] & incidence[:, j])
        span = cs.unit_normals[shared]
        if np.linalg.matrix_rank(span, tol=1e-8) < 2:
            continue
        pair_shared[(i, j)] = tuple(shared)
        for t in _ORACLE_PROBE_TS:
            probe_pts.append(vertices[i] + t * (vertices[j] - vertices[i]))
            probe_owner.append((i, j))
    probe_pts = np.array(probe_pts)
    ok = _reference_membership(cs, probe_pts, _ORACLE_PROBE_TOL)
    probe_act = _reference_active(cs, probe_pts, _ORACLE_PROBE_TOL)[0]
    rows_of = {}
    for row, owner in enumerate(probe_owner):
        rows_of.setdefault(owner, []).append(row)
    seg_walls = {}
    for owner, rows in rows_of.items():
        if not all(ok[r] for r in rows):
            continue
        alive = [w for w in pair_shared[owner] if all(probe_act[w, r] for r in rows)]
        if len(alive) < 2:
            continue
        span = cs.unit_normals[alive]
        if np.linalg.matrix_rank(span, tol=1e-8) < 2:
            continue
        seg_walls[owner] = tuple(alive)
    faces = []
    for wi, wall in enumerate(walls):
        adj = {}
        for (i, j) in seg_walls:
            if wi in seg_walls[(i, j)]:
                adj.setdefault(i, []).append(j)
                adj.setdefault(j, []).append(i)
        assert all(len(ns) == 2 for ns in adj.values())
        seen, loops = set(), []
        for start in sorted(adj):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            prev, cur = None, start
            while True:
                nxt = [v for v in adj[cur] if v != prev][0]
                if nxt == start:
                    break
                loop.append(nxt)
                seen.add(nxt)
                prev, cur = cur, nxt
            loops.append(loop)
        outward = cs.unit_normals[wi] if wall.side == "I" else -cs.unit_normals[wi]
        for li, loop in enumerate(loops):
            if newell_normal(vertices, loop) @ outward < 0:
                loop = loop[::-1]
            pivot = loop.index(min(loop))
            label = wall.label if len(loops) == 1 else f"{wall.label}#{li}"
            faces.append((label, tuple(loop[pivot:] + loop[:pivot])))
    faces.sort(key=lambda f: (_LABEL_ORDER.get(f[0].split("[")[0], 9), f[0]))
    edges = {
        (min(i, j), max(i, j))
        for _, loop in faces for i, j in zip(loop, loop[1:] + loop[:1])
    }
    return tuple(sorted(edges)), faces


@pytest.mark.parametrize(
    "series,k", ORACLE_LEVELS + [("Z", 10), ("E", 11), ("Z", 14), ("E", 40), ("Z", 50)]
)
def test_build_polyhedron_matches_reference(series, k):
    """The edges read from the walls their ends share against the per-pair
    assembly with its segment probes and rank checks."""
    cs = level_constraints(series, k)
    vertices = enumerate_vertices(cs)
    poly = build_polyhedron(cs, vertices)
    edges, faces = _reference_polyhedron(cs, vertices.points)
    assert poly.edges == edges
    assert [(f.label, f.loop) for f in poly.faces] == faces


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 1), ("Z", 4)])
def test_build_polyhedron_rejects_a_broken_vertex_set(series, k):
    """Each hard error of the assembly fires on a mutated vertex set, its
    incidences from one full wall pass (`full_pass`), with the message of
    the dict-of-sets assembly.  An edge's midpoint, a dropped vertex and a
    duplicated vertex each leave a wall skeleton with a vertex of degree
    other than two; an interior point lies on no face; a point beyond the
    slab lies outside the domain, and the wall pass rejects it before any
    assembly."""
    cs = level_constraints(series, k)
    vertices = enumerate_vertices(cs).points
    poly = build_polyhedron(cs, full_pass(cs, vertices))
    nv = len(vertices)

    def both_raise(points, match):
        with pytest.raises(RuntimeError, match=match) as got:
            build_polyhedron(cs, full_pass(cs, points))
        with pytest.raises(RuntimeError) as ref:
            dict_polyhedron(cs, points)
        assert str(got.value) == str(ref.value)

    for i, j in (poly.edges[0], poly.edges[len(poly.edges) // 2], poly.edges[-1]):
        for broken in (
            np.vstack([vertices, 0.5 * (vertices[i] + vertices[j])]),
            np.delete(vertices, j, axis=0),
            np.vstack([vertices, vertices[i]]),
        ):
            both_raise(broken, "1-skeleton vertex degrees")
    both_raise(np.vstack([vertices, [0.0, 0.0, 0.0]]), "stray vertices")
    with pytest.raises(RuntimeError, match=f"vertex {nv} lies outside the domain"):
        full_pass(cs, np.vstack([vertices, [0.0, 0.0, 50.0]]))
    both_raise(vertices[:0], "without vertices")


def _dense_rule_polyhedron(cs, vertices):
    """The face assembly by the dense shared-wall rule: a walls x vertices
    incidence table from the `_wall_pass` pairs, an edge for each vertex
    pair whose columns share two walls (`count.T @ count >= 2`), and a
    walls x edges table of the walls each edge lies on, walked per wall.
    Returns the edges, the (label, loop) list in face order, the
    incidence table and the walls x edges table."""
    walls = cs.all_walls()
    inside, (vertex, row) = _wall_pass(cs, vertices, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    assert inside.all()
    inc = np.zeros((len(walls), len(vertices)), dtype=bool)
    inc[row, vertex] = True
    count = inc.astype(float)
    ii, jj = np.nonzero(np.triu(count.T @ count >= 2, 1))
    edge_walls = inc[:, ii] & inc[:, jj]
    edges = list(zip(ii.tolist(), jj.tolist()))
    faces = []
    for wi, wall in enumerate(walls):
        adj = {}
        for e in np.flatnonzero(edge_walls[wi]).tolist():
            i, j = edges[e]
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
        assert all(len(ns) == 2 for ns in adj.values())
        seen, loops = set(), []
        for start in sorted(adj):
            if start in seen:
                continue
            loop, prev, cur = [start], None, start
            seen.add(start)
            while (nxt := [v for v in adj[cur] if v != prev][0]) != start:
                loop.append(nxt)
                seen.add(nxt)
                prev, cur = cur, nxt
            loops.append(loop)
        outward = cs.unit_normals[wi] if wall.side == "I" else -cs.unit_normals[wi]
        for li, loop in enumerate(loops):
            if newell_normal(vertices, loop) @ outward < 0:
                loop = loop[::-1]
            pivot = loop.index(min(loop))
            label = wall.label if len(loops) == 1 else f"{wall.label}#{li}"
            faces.append((label, tuple(loop[pivot:] + loop[:pivot])))
    faces.sort(key=lambda f: (_LABEL_ORDER.get(f[0].split("[")[0], 9), f[0]))
    return tuple(edges), faces, inc, edge_walls


def test_build_polyhedron_matches_the_dense_rule_above_k50():
    """At E173 the edges and face loops read off the walls meeting at each
    vertex equal those of the dense shared-wall rule, and the two facts
    the rule leans on hold: no two walls meet at more than two vertices,
    and every edge lies on exactly two walls."""
    cs = level_constraints("E", 173)
    vertices = enumerate_vertices(cs)
    poly = build_polyhedron(cs, vertices)
    edges, faces, inc, edge_walls = _dense_rule_polyhedron(cs, vertices.points)
    assert poly.edges == edges
    assert [(f.label, f.loop) for f in poly.faces] == faces
    meet = inc.astype(np.int64) @ inc.T.astype(np.int64)
    np.fill_diagonal(meet, 0)
    assert meet.max() == 2
    assert (edge_walls.sum(axis=0) == 2).all()


EQUIVARIANT_LEVELS = ADMISSIBLE_LEVELS + [
    ("E", 80), ("E", 173), ("Z", 110), ("Z", 160), ("E", 400), ("E", 1000), ("Z", 449),
    ("E", 3713),
]


@pytest.mark.parametrize("series,k", EQUIVARIANT_LEVELS)
def test_equivariant_build_matches_the_full_passes(series, k):
    """The incidences decided per sigma-orbit equal those of one full
    `_wall_pass` over the vertices, every vertex inside; the array face
    complex equals the dict-of-sets assembly (`dict_polyhedron`) edge for
    edge and face for face; and the angle read off the orbit match is the
    rotation scan's, bit for bit.  Each orbit holds one vertex per power
    of sigma: 2 orbits (E) or 4 (Z)."""
    cs = level_constraints(series, k)
    found = enumerate_vertices(cs)
    inside, (point, wall) = _wall_pass(cs, found.points, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    assert inside.all()
    assert np.array_equal(found.point, point) and np.array_equal(found.wall, wall)
    poly = build_polyhedron(cs, found)
    ref = dict_polyhedron(cs, found.points)
    assert poly.edges == ref.edges and poly.faces == ref.faces
    psi = detect_symmetry(poly, cs)
    assert psi is not None and psi == rotation_scan_symmetry(poly, cs)
    assert found.orbit.max() + 1 == (2 if series == "E" else 4)
    assert (np.bincount(found.orbit * cs.period + found.power) == 1).all()


@pytest.mark.parametrize("series,k,dropped", [("Z", 1400, [8, 0]), ("Z", 1856, [137, 11, 0])])
def test_stand_ins_join_the_orbits_of_the_first_round(series, k, dropped, monkeypatch):
    """At Z1400 and Z1856 the pin drops keepers that their representatives
    keep (a term held only by walls on their planes holds by about 1e-17
    in unit-normal distance), and later rounds pin stand-ins for them.
    The stand-ins join the orbits of the first round: 4 orbits, each
    holding every power of sigma once, so the angle read off the orbit
    match is the rotation scan's.  The incidences are those of a full
    `_wall_pass`."""
    real, rounds = domain._pin_orbits, []

    def counting(cs, pts, of, power):
        good, pairs = real(cs, pts, of, power)
        rounds.append(int((~good).sum()))
        return good, pairs

    monkeypatch.setattr(domain, "_pin_orbits", counting)
    cs = level_constraints(series, k)
    found = enumerate_vertices(cs)
    assert rounds == dropped
    inside, (point, wall) = _wall_pass(cs, found.points, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    assert inside.all()
    assert np.array_equal(found.point, point) and np.array_equal(found.wall, wall)
    assert found.orbit.max() + 1 == 4
    assert (np.bincount(found.orbit * cs.period + found.power) == 1).all()
    poly = build_polyhedron(cs, found)
    assert detect_symmetry(poly, cs) == rotation_scan_symmetry(poly, cs) == math.pi / cs.tri.p


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 14), ("E", 40)])
def test_a_keeper_off_its_rotated_representative_raises(series, k, monkeypatch):
    """A keeper moved past _ORBIT_TOL from its representative turned by
    its power of sigma fails the orbit check, which names the vertex and
    the residual; moved by half the bound, it is kept where it was
    solved, and the rest of the build is unchanged."""
    cs = level_constraints(series, k)
    vertices = enumerate_vertices(cs).points
    index = len(vertices) - 1
    real = domain._solve_triples

    def moving(shift):
        def solve(normals, offsets, triples, slack=1.0):
            solved, pts = real(normals, offsets, triples, slack)
            if slack == 1.0:
                pts[(pts == vertices[index]).all(axis=1), 0] += shift
            return solved, pts
        return solve

    monkeypatch.setattr(domain, "_solve_triples", moving(0.5 * domain._ORBIT_TOL))
    got = enumerate_vertices(cs).points
    assert (got[index] != vertices[index]).any()
    assert np.delete(got, index, axis=0).tobytes() == np.delete(vertices, index, axis=0).tobytes()
    monkeypatch.setattr(domain, "_solve_triples", moving(2.0 * domain._ORBIT_TOL))
    with pytest.raises(RuntimeError, match=rf"vertex {index} at .* lies 2e-11 from sigma\^\d+ "
                                           rf"of vertex \d+: beyond 1e-11"):
        enumerate_vertices(cs)


def test_an_orbit_whose_representative_lies_on_no_wall_is_not_pinned():
    """A representative with no wall on its plane (the chart origin, inside
    the domain) has nothing to pin it: its whole orbit fails the pin."""
    cs = level_constraints("E", 2)
    pts = np.zeros((2, 3))
    good, (point, wall) = domain._pin_orbits(cs, pts, np.array([0, 0]), np.array([0, 1]))
    assert not good.any() and len(point) == len(wall) == 0
    assert membership_mask(cs, pts).all()


def _sector_triples(n_first, n):
    """The index triples i < j < l < n with i < n_first, the whole sector
    at once."""
    rows = []
    for i in range(n_first):
        j, l = np.triu_indices(n - 1 - i, 1)
        rows.append(np.column_stack([np.full(len(j), i), i + 1 + j, i + 1 + l]))
    return np.vstack(rows)


def _one_shot_seeds(cs):
    """The seed pass over the whole sector in one go: every sector triple
    solved at once and all its points through one `_pinned` call."""
    sector = _sector_triples(len(cs.groups[0]), len(cs.all_walls()))
    seeds, pts = _solve_triples(cs.unit_normals, cs.offsets, sector, _SEED_SLACK)
    return seeds[_pinned(
        cs, pts, _SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL, 1e-8 / _SEED_SLACK
    )]


def _same_seeds(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 1)])
def test_sector_orbits_cover_every_triple(series, k):
    """The sector is the triples whose first wall lies in group 0, and
    its sigma-orbits hold every triple of the full scan."""
    cs = level_constraints(series, k)
    n, L = len(cs.all_walls()), len(cs.groups[0])
    combos = np.array(list(itertools.combinations(range(n), 3)))
    perm = _sigma_permutation(cs)
    for size in (1, 97, len(combos)):
        sector = np.vstack(list(sector_blocks(L, n, size)))
        assert np.array_equal(sector, combos[combos[:, 0] < L])
        images = [sector]
        for _ in range(cs.period - 1):
            images.append(perm[images[-1]])
        assert np.array_equal(np.unique(np.sort(np.vstack(images), axis=1), axis=0), combos)


@pytest.mark.parametrize("series,k", [("Z", 5), ("Z", 14), ("E", 40)])
def test_sector_blocks_split_the_sector_in_order(series, k):
    """The oracle's blocks, joined, are the whole sector in order; every
    block but the last has the block size, and blocks split inside a
    first-wall row and across two rows."""
    cs = level_constraints(series, k)
    n, L = len(cs.all_walls()), len(cs.groups[0])
    sector = _sector_triples(L, n)
    for size in (97, SEED_BLOCK, len(sector) + 1):
        blocks = list(sector_blocks(L, n, size))
        assert np.vstack(blocks).tobytes() == sector.tobytes()
        assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= size
    blocks = list(sector_blocks(L, n, 97))
    assert any(b[0, 0] != b[-1, 0] for b in blocks)
    assert any(a[-1, 0] == b[0, 0] for a, b in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_undecided_keeps_every_point_the_wall_pass_keeps(series, k):
    """The sector oracle's block prefilter (`sector_seeds`), the mask of
    the slab pair and union group 0 alone, keeps every point the full
    `_wall_pass` keeps, and drops some points of the cone already."""
    cs = level_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    inside = _wall_pass(cs, pts, _SEED_MEMBERSHIP_TOL)[0]
    lead = dataclasses.replace(cs, groups=cs.groups[:1])
    held = membership_mask(lead, pts, _SEED_MEMBERSHIP_TOL)
    assert held[inside].all()
    assert inside.sum() < held.sum() < _in_slab_cone(pts).sum() < len(pts)


STREAM_LEVELS = [(s, k) for s in ("E", "Z") for k in (1, 2, 4, 5)]
STREAM_LEVELS += [("Z", 14), ("E", 40), ("Z", 20)]


@pytest.mark.parametrize("series,k", STREAM_LEVELS)
def test_streamed_seed_pass_matches_the_one_shot_pass(series, k, monkeypatch):
    """The oracle's seeds from the sector in blocks equal, bit for bit,
    those of one pass over the whole sector, at block sizes that split a
    first-wall row, span rows, and hold the whole sector; and the vertices
    seeded from them equal those of the windowed seed pass."""
    cs = level_constraints(series, k)
    ref_seeds = _one_shot_seeds(cs)
    assert len(ref_seeds)
    n_sector = len(cs.groups[0]) * len(cs.all_walls()) ** 2
    for size in [97, SEED_BLOCK, n_sector] + ([1] if k <= 2 else []):
        assert _same_seeds(sector_seeds(cs, size), ref_seeds)
    vertices = enumerate_vertices(cs).points
    monkeypatch.setattr(domain, "_seed_triples", lambda cs: ref_seeds)
    assert enumerate_vertices(cs).points.tobytes() == vertices.tobytes()


SEED_WINDOW_LEVELS = [(s, k) for s in ("E", "Z") for k in (1, 2, 4, 5)]
SEED_WINDOW_LEVELS += [("Z", 14), ("Z", 20), ("E", 40), ("Z", 50), ("E", 80)]


@pytest.mark.parametrize("series,k", SEED_WINDOW_LEVELS)
def test_windowed_seeds_equal_the_sector_oracle(series, k):
    """The seeds drawn from the window of walls next to group 0 equal
    those of the whole sector byte for byte, dtype included: 14 for E and
    44 for Z."""
    cs = level_constraints(series, k)
    seeds = _seed_triples(cs)
    assert _same_seeds(seeds, sector_seeds(cs))
    assert len(seeds) == (14 if series == "E" else 44)


@pytest.mark.parametrize(
    "series,k,walls", [("E", 1, 8), ("E", 40, 8), ("Z", 1, 17), ("Z", 2, 23), ("Z", 50, 23)]
)
def test_seed_window_is_the_groups_next_to_group_0(series, k, walls):
    """The window is every wall of the union groups at offsets {0, +-1}
    (E) or {0, +-1, +-k, +-(k + 1)} (Z) from group 0, mod the period, and
    the two slab walls, in ascending wall order."""
    cs = level_constraints(series, k)
    window = _seed_window(cs)
    assert len(window) == walls and (np.diff(window) > 0).all()
    labels = [cs.all_walls()[i].label for i in window]
    offsets = {0, 1} if series == "E" else {0, 1, k, k + 1}
    groups = sorted({m % cs.period for m in offsets | {-m for m in offsets}})
    letters = "ab" if series == "E" else "abc"
    assert labels == [f"{c}[{m}]" for m in groups for c in letters] + ["slab[D]", "slab[D^-1]"]


def _narrowed(keep_groups):
    """A `_seed_window` that keeps only the group walls whose union group
    keep_groups(cs) names, and the slab pair."""
    real = domain._seed_window

    def window(cs):
        walls = real(cs)
        n_group = len(cs.groups[0]) * len(cs.groups)
        group = walls // len(cs.groups[0])
        return walls[(walls >= n_group) | np.isin(group, keep_groups(cs))]

    return window


@pytest.mark.parametrize("k,found", [(1, 24), (5, 16), (14, 16)])
def test_a_narrowed_seed_window_fails_the_oracle(k, found, monkeypatch):
    """A Z window of the groups at offsets {0, +-1} alone finds 16 of the
    44 seeds (24 at Z1, where +-1 is +-k), and the seed-oracle equality
    fails."""
    cs = level_constraints("Z", k)
    ref = sector_seeds(cs)
    monkeypatch.setattr(domain, "_seed_window", _narrowed(lambda cs: [0, 1, cs.period - 1]))
    seeds = _seed_triples(cs)
    assert len(seeds) == found and not _same_seeds(seeds, ref)


def test_closure_does_not_guard_the_seed_window(monkeypatch):
    """A window of group 0 and the slab pair alone finds 4 of the 44
    seeds at Z14, and the build still closes up with every face paired:
    only the oracle equality and the pinned bytes tell its vertices (off
    in the last bits) from the real ones."""
    cs = level_constraints("Z", 14)
    real = level_build("Z", 14)
    monkeypatch.setattr(domain, "_seed_window", _narrowed(lambda cs: [0]))
    assert len(_seed_triples(cs)) == 4
    narrowed = level_build("Z", 14)
    assert narrowed.certified
    for b in (real, narrowed):
        assert (len(b.poly.vertices), len(b.poly.edges), len(b.poly.faces)) == (248, 434, 188)
    assert narrowed.poly.vertices.tobytes() != real.poly.vertices.tobytes()


def test_seed_pass_memory_is_bounded(monkeypatch):
    """The seed pass solves the same 631 window triples at every Z level
    from Z2 up, so its Python-heap peak at Z160 (1,940 walls, a sector of
    5.6 million triples) stays under 1 MiB."""
    solved = []

    def counted(normals, offsets, triples, slack=1.0):
        solved.append(len(triples))
        return _solve_triples(normals, offsets, triples, slack)

    _seed_triples(level_constraints("Z", 1))  # first-call set-up
    cs = level_constraints("Z", 160)
    tracemalloc.start()
    try:
        _seed_triples(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(domain, "_solve_triples", counted)
    for k in (2, 14, 160):
        _seed_triples(level_constraints("Z", k))
    assert solved == [631] * 3


def test_vertex_search_builds_no_walls_by_points_table():
    """The Python-heap peak of `enumerate_vertices` at Z160, whose
    full-setting pass decides 14,212 candidate points against 1,940 walls:
    22.5 MiB without a table, 32.6 MiB when `_wall_pass` also fills a
    walls x points bool table (26.3 MiB) of its incidences.  At Z50 that
    table (2.7 MiB) does not move the peak, 8.2 MiB either way."""
    cs = level_constraints("Z", 160)
    tracemalloc.start()
    try:
        enumerate_vertices(cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_face_complex_builds_no_dense_incidence_table():
    """The Python-heap peak of `build_polyhedron` at Z50, 824 vertices on
    620 walls: 10.3 MiB with a walls x vertices table and a vertex x
    vertex product of it, under 2 MiB without."""
    cs = level_constraints("Z", 50)
    vertices = enumerate_vertices(cs)
    tracemalloc.start()
    try:
        build_polyhedron(cs, vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("E", 173), ("Z", 110)])
def test_plane_table_matches_each_walls_own_norm(series, k):
    """The unit normals and offsets of the plane table, bit for bit, as
    each wall's own chart normal (Re z_g, Im z_g, -Im w_g) and its
    `np.linalg.norm` give them; `np.linalg.norm(..., axis=1)` rounds
    otherwise and moves the offsets at most levels."""
    cs = level_constraints(series, k)
    for row, wall in enumerate(cs.all_walls()):
        g = wall.g
        normal = np.array([g.z.real, g.z.imag, -g.w.imag])
        scale = float(np.linalg.norm(normal))
        assert cs.normals[row].tobytes() == normal.tobytes(), wall.label
        assert cs.constants[row] == -g.w.real, wall.label
        assert cs.unit_normals[row].tobytes() == (normal / scale).tobytes(), wall.label
        assert cs.offsets[row] == (-1.0 - -g.w.real) / scale, wall.label


def test_plane_table_names_a_degenerate_wall():
    cs = level_constraints("E", 2)
    flat = dataclasses.replace(cs.groups[0][1], g=CoverElement(0j, 1.0 + 0j, 0.0))
    with pytest.raises(RuntimeError, match=r"degenerate wall functional for b\[0\]"):
        _with_group(cs, 0, [cs.groups[0][0], flat])


def _written_out_cone_points(z1, w1, phi1, pts):
    """`_cone_points` with the product of `cover_mul` written out in full,
    the chart point made a cone point inline."""
    z = pts[..., 0] + 1j * pts[..., 1]
    w = 1.0 + 1j * pts[..., 2]
    bracket = 1.0 + (np.conjugate(z1) * z) / (w1 * w)
    if not (bracket.real > 0.0).all():
        raise ArithmeticError("cocycle bracket left the principal branch")
    qz = np.conjugate(w1) * z + z1 * w
    qw = np.conjugate(z1) * z + w1 * w
    return qz, qw, phi1 + np.arctan(pts[..., 2]) + np.angle(bracket)


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 5)])
def test_cone_points_match_the_written_out_product(series, k, monkeypatch):
    """Every `_cone_points` call of `find_pairings`, on its real elements
    and points, bit for bit against the written-out product: the forward
    map of the first faces and the inverse check."""
    cs = level_constraints(series, k)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    real = domain._cone_points
    calls = []

    def checked(z1, w1, phi1, pts):
        got = real(z1, w1, phi1, pts)
        ref = _written_out_cone_points(z1, w1, phi1, pts)
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        calls.append(len(pts))
        return got

    monkeypatch.setattr(domain, "_cone_points", checked)
    report = find_pairings(poly, cs)
    # the first faces' loops forward, then their partners' loops back
    n_points = sum(len(f.loop) for f in poly.faces)
    assert report.unpaired == () and calls == [n_points // 2, n_points // 2]


def _with_group(cs, m, walls):
    groups = list(cs.groups)
    groups[m] = tuple(walls)
    return dataclasses.replace(cs, groups=tuple(groups))


def _shift_offset(wall, delta):
    """The wall with its chart constant -Re w_g lowered by delta: g moves,
    its normal (Re z_g, Im z_g, -Im w_g) stays."""
    g = wall.g
    return dataclasses.replace(wall, g=CoverElement(g.z, g.w + delta, g.phi))


def test_sigma_guard_rejects_a_pruned_group():
    cs = level_constraints("Z", 2)
    with pytest.raises(RuntimeError, match=r"only 13 of 14 union groups"):
        enumerate_vertices(dataclasses.replace(cs, groups=cs.groups[1:]))


def test_sigma_guard_rejects_a_missing_letter():
    cs = level_constraints("Z", 2)
    expected = r"union group 3 has walls \['a\[3\]', 'b\[3\]'\], not abc"
    with pytest.raises(RuntimeError, match=expected):
        enumerate_vertices(_with_group(cs, 3, cs.groups[3][:2]))


@pytest.mark.parametrize("series,k", [("E", 4), ("Z", 4)])
def test_sigma_guard_names_a_moved_wall(series, k):
    cs = level_constraints(series, k)
    grp = list(cs.groups[3])
    row = [w.label for w in cs.all_walls()].index("b[3]")
    scale = float(np.linalg.norm(cs.normals[row]))
    # the offset moves by delta / scale; 1e-14 is inside the bound
    grp[1] = _shift_offset(grp[1], 1e-14 * scale)
    assert np.array_equal(_sigma_permutation(_with_group(cs, 3, grp)),
                          _sigma_permutation(cs))
    grp[1] = _shift_offset(cs.groups[3][1], 1e-10 * scale)
    moved = _with_group(cs, 3, grp)
    # `replace` derives the plane table afresh: only row b[3] moves, and
    # only its constant and offset
    assert moved.normals.tobytes() == cs.normals.tobytes()
    assert moved.unit_normals.tobytes() == cs.unit_normals.tobytes()
    for table in ("constants", "offsets"):
        changed = np.flatnonzero(getattr(moved, table) != getattr(cs, table))
        assert changed.tolist() == [row]
    assert moved.offsets[row] - cs.offsets[row] == pytest.approx(1e-10, rel=1e-3)
    with pytest.raises(RuntimeError, match=r"b\[3\].*residual 1e-10 > 1e-12"):
        enumerate_vertices(moved)


def test_build_domain_past_z24():
    """Z25 has 5.4M plane triples; its sector holds 151,210 of them."""
    build = level_build("Z", 25)
    G = build.cs.period
    assert len(build.poly.vertices) == 4 * G == 424
    assert len(build.poly.faces) == 3 * G + 2 == 320
    assert build.pairings.unpaired == ()
    assert build.reduction.certified


def _with_pairing(rep, i, **change):
    """The report with pairing i changed by `dataclasses.replace`."""
    pairings = list(rep.pairings)
    pairings[i] = dataclasses.replace(pairings[i], **change)
    return PairingReport(tuple(pairings), rep.unpaired)


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 4), ("E", 40)])
@pytest.mark.parametrize(
    "turn", [R_param(0.3 + 0.1j, 1e-8), axis_rotation(1e-8)], ids=["point", "axis"]
)
def test_edge_cycles_reject_a_perturbed_g1(series, k, turn):
    """A pairing whose g1 is turned by 1e-8, about a disc point or about
    the axis, leaves its cycles open: the failure names the edge, the
    steps, the tolerance in force and the residual of the last centre
    test, which lies above that tolerance."""
    cs, poly = _polyhedron(series, k)
    rep = find_pairings(poly, cs)
    bad = _with_pairing(rep, 0, g1=cover_mul(turn, rep.pairings[0].g1))
    with pytest.raises(RuntimeError) as err:
        edge_cycle_check(poly, bad)
    assert str(err.value) == _scalar_walk_error(poly, bad)
    found = re.fullmatch(
        r"edge cycle failed to close: edge \((\d+), (\d+)\), 201 steps, "
        r"tolerance (\S+), last centre residual (\S+)",
        str(err.value),
    )
    assert found, str(err.value)
    assert tuple(map(int, found.groups()[:2])) in poly.edges
    tol, resid = map(float, found.groups()[2:])
    assert domain.CENTRAL_Z_TOL <= tol < resid


def test_edge_cycles_name_a_face_whose_g2_is_not_exact(e2):
    _, poly, rep = e2
    g2 = rep.pairings[3].g2
    bad = _with_pairing(rep, 3, g2=CoverElement(g2.z, g2.w, g2.phi))
    face = rep.pairings[3].face_i
    with pytest.raises(RuntimeError, match=rf"faces \[{face}\]: g2 is not an exact axis") as err:
        edge_cycle_check(poly, bad)
    assert str(err.value) == _scalar_walk_error(poly, bad)


def test_edge_cycles_reject_a_central_composite_off_the_diagonal(e2):
    """A factor C on one g1 keeps its cycles' composites central, but as
    (C^(n+1), C^n): not a diagonal centre."""
    _, poly, rep = e2
    bad = _with_pairing(rep, 0, g1=cover_mul(central(1), rep.pairings[0].g1))
    with pytest.raises(RuntimeError, match="is not a diagonal centre") as err:
        edge_cycle_check(poly, bad)
    assert str(err.value) == _scalar_walk_error(poly, bad)
    n1, n2 = map(int, re.search(r"central \(C\^(-?\d+), C\^(-?\d+)\) after 3 steps",
                                str(err.value)).groups())
    assert abs(n1 - n2) == 1


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 1)])
def test_edge_cycles_reject_a_vertex_map_off_the_partner_face(series, k):
    """A vertex map that carries an edge of face i onto an edge off face j
    leaves the walk no unique face to go on from."""
    cs, poly = _polyhedron(series, k)
    rep = find_pairings(poly, cs)
    pr = rep.pairings[0]
    on_j = set(poly.faces[pr.face_j].loop)
    a, b = next(e for e in poly.edges if not on_j & set(e))
    loop = poly.faces[pr.face_i].loop
    vmap = dict(pr.vertex_map)
    vmap[loop[0]], vmap[loop[1]] = a, b
    bad = _with_pairing(rep, 0, vertex_map=tuple(sorted(vmap.items())))
    with pytest.raises(RuntimeError, match="ambiguous continuation") as err:
        edge_cycle_check(poly, bad)
    assert str(err.value) == _scalar_walk_error(poly, bad)


def _scalar_walk_error(poly, report):
    """The error text of the scalar walk (`cycle_oracle`) on a report."""
    with pytest.raises(RuntimeError) as err:
        scalar_edge_cycles(poly, report)
    return str(err.value)


@pytest.mark.parametrize(
    "series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40), ("Z", 50), ("E", 80)]
)
def test_edge_cycles_equal_the_scalar_walk(series, k):
    """The lockstep walks give the scalar walk's records, in its order."""
    cs, poly = _polyhedron(series, k)
    rep = find_pairings(poly, cs)
    assert rep.unpaired == ()
    records = edge_cycle_check(poly, rep)
    assert records == scalar_edge_cycles(poly, rep)
    assert all(type(n) is int and type(steps) is int for n, steps in records)


@pytest.mark.parametrize("series,k", [("E", 1), ("E", 2), ("Z", 1), ("Z", 5), ("E", 40)])
def test_edge_cycles_of_a_partial_report_equal_the_scalar_walk(series, k, monkeypatch):
    """At WORD_BUDGET 3 some faces stay unpaired: the walks that reach one
    stop without a record, in both walks alike."""
    monkeypatch.setattr(domain, "WORD_BUDGET", 3)
    cs, poly = _polyhedron(series, k)
    rep = find_pairings(poly, cs)
    assert rep.unpaired
    assert edge_cycle_check(poly, rep) == scalar_edge_cycles(poly, rep)


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40)])
def test_edge_cycle_centre_tests_lie_near_a_centre_or_far_from_it(series, k, monkeypatch):
    """Every centre test of the walks, one per step with integer Gamma2
    turns, sees a Gamma1 composite within tol / 100 of a central power,
    which then closes its walk back at the start as C^n, or one at least 1
    from the centre lattice: the tolerance lies between two populations."""
    cs, poly = _polyhedron(series, k)
    rep = find_pairings(poly, cs)
    tests = []
    centre_tests = domain._centre_tests

    def recording(z, w, phi, tol):
        tests.extend(zip(z, w, phi, np.broadcast_to(tol, z.shape)))
        return centre_tests(z, w, phi, tol)

    monkeypatch.setattr(domain, "_centre_tests", recording)
    records = edge_cycle_check(poly, rep)
    near = 0
    for z, w, phi, tol in tests:
        n = round(-phi / math.pi)
        dist = max(abs(z), abs(phi + n * math.pi), abs(w - (-1) ** (n % 2)))
        if dist <= tol / 100:
            near += 1
        else:
            assert dist >= 1.0, (dist, tol)
    # each near composite passed the test, and a passing one ends its walk
    assert near == len(records)
    assert len(tests) < sum(steps for _, steps in records)


@pytest.mark.parametrize("series,k", [("E", 173), ("Z", 110)])
def test_build_domain_where_an_absolute_centre_test_failed(series, k):
    """E173 and Z110, the first levels where an absolute 1e-9 centre test
    left edge cycles open, build with every face paired, every cycle
    closed in 3 steps and the reduction certified, on the template
    V = 2G, F = 2G + 2 (E) and V = 4G, F = 3G + 2 (Z)."""
    build = level_build(series, k)
    G = build.cs.period
    v, f = (2 * G, 2 * G + 2) if series == "E" else (4 * G, 3 * G + 2)
    assert (len(build.poly.vertices), len(build.poly.faces)) == (v, f)
    assert build.pairings.unpaired == ()
    assert {steps for _, steps in build.edge_cycles} == {3}
    assert build.reduction.certified


unit_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(st.lists(unit_entries, min_size=9, max_size=9))
@settings(max_examples=200, deadline=None)
def test_condition_number_bounded_by_determinant(entries):
    """Unit rows: sigma_max <= sqrt(3) and |det| <= sigma_max^2 sigma_min."""
    A = np.array(entries).reshape(3, 3)
    norms = np.linalg.norm(A, axis=1)
    assume(np.all(norms > 1e-3))
    A = A / norms[:, None]
    # a subnormal entry can make the LU inside det divide by zero; such a
    # matrix is near singular and the assume below drops it
    with np.errstate(divide="ignore", invalid="ignore"):
        det = abs(np.linalg.det(A))
    assume(det > 1e-7)
    assert np.linalg.cond(A) <= 3.0 * math.sqrt(3.0) / det * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# reference pairing scan: every (t, u) candidate built from scratch with
# cover_pow and checked by the scalar chart map (one cover_mul pair per
# point) and the scalar nearest-vertex match, and every word found by a
# fresh breadth-first search; the pairings read off the wall labels, with
# their broadcast chart map and words read off the walls, must reproduce
# its report

# the first-vertex prefilter of the oracle scans below: the tolerance the
# package's quick check used before both of its checks matched at
# PAIRING_MATCH_TOL, kept so that the oracles scan exactly as they did
_ORACLE_QUICK_TOL = 1e-6


def _reference_schreier_syllables(tri, target, depth=8):
    """The word search as it ran once per certificate before the tree was
    shared: a fresh breadth-first search over whole generator powers."""
    if abs(target) < 1e-7:
        return []
    moves = []
    for letter, gen, order in (("u", tri.gen_u, tri.p), ("v", tri.gen_v, tri.q)):
        acc = GroupElement(0j, 1.0 + 0j)
        for t in range(1, order):
            acc = group_mul(acc, gen)
            moves.append((letter, t if 2 * t <= order else t - order, acc))
    frontier = [(0j, ())]
    seen = {(0.0, 0.0)}
    for _ in range(depth):
        nxt = []
        for x, path in frontier:
            for letter, power, g in moves:
                if path and path[-1][0] == letter:
                    continue
                y = mobius_apply(g, x)
                key = (round(y.real, 6), round(y.imag, 6))
                if key in seen:
                    continue
                seen.add(key)
                path2 = path + ((letter, power),)
                if abs(y - target) < 1e-7:
                    return [lp for lp in reversed(path2)]
                if len(seen) < 100_000:
                    nxt.append((y, path2))
        frontier = nxt
        if not frontier:
            break
    return None


def _reference_schreier_syllables_many(tri, targets, depth=8):
    """`_reference_schreier_syllables` for each of several targets, from
    one fresh search: its discovery order never reads the target, so the
    first node within 1e-7 of a target is the one a search for that
    target alone stops at."""
    answers = [[] if abs(t) < 1e-7 else None for t in targets]
    pending = [i for i, t in enumerate(targets) if abs(t) >= 1e-7]
    moves = []
    for letter, gen, order in (("u", tri.gen_u, tri.p), ("v", tri.gen_v, tri.q)):
        acc = GroupElement(0j, 1.0 + 0j)
        for t in range(1, order):
            acc = group_mul(acc, gen)
            moves.append((letter, t if 2 * t <= order else t - order, acc))
    frontier = [(0j, ())]
    seen = {(0.0, 0.0)}
    for _ in range(depth):
        if not pending:
            break
        nxt = []
        for x, path in frontier:
            for letter, power, g in moves:
                if path and path[-1][0] == letter:
                    continue
                y = mobius_apply(g, x)
                key = (round(y.real, 6), round(y.imag, 6))
                if key in seen:
                    continue
                seen.add(key)
                path2 = path + ((letter, power),)
                for i in [i for i in pending if abs(y - targets[i]) < 1e-7]:
                    answers[i] = [lp for lp in reversed(path2)]
                    pending.remove(i)
                if len(seen) < 100_000:
                    nxt.append((y, path2))
        frontier = nxt
        if not frontier:
            break
    return answers


def _fresh_powers(cs):
    """The certificate's generator powers and tails D^(3t) C^(kj), each
    recomputed at every use, as before `find_pairings` shared them."""
    gens = cs.config.gens

    def power(letter, n):
        return cover_pow(gens[letter], n)

    def tail(t, j):
        return cover_mul(cover_pow(gens["D"], 3 * t), central(cs.k * j))

    return power, tail


def _reference_pairings(poly, cs):
    power, tail = _fresh_powers(cs)
    search = functools.partial(_reference_schreier_syllables, cs.tri)
    h_gen = cover_pow(cs.D, cs.tri.p)
    order = [i for i, f in enumerate(poly.faces) if not f.is_slab]
    order += [i for i, f in enumerate(poly.faces) if f.is_slab]
    loop_lookup = {frozenset(f.loop): i for i, f in enumerate(poly.faces)}
    t_range = range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1)
    paired = {}
    for fi in order:
        if fi in paired:
            continue
        face_i = poly.faces[fi]
        loop_i = list(face_i.loop)
        verts_i = poly.vertices[loop_i]
        w_inv = cover_inv(face_i.wall.g)
        found = None
        for t in t_range:
            g1 = cover_mul(cover_pow(cs.D, t), w_inv)
            for u in range(-4, 5):
                g2 = cover_pow(h_gen, u)
                g2_inv = cover_inv(g2)
                if not _scalar_quick_check(g1, g2_inv, verts_i[0], poly.vertices):
                    continue
                image = _chart_image(g1, g2_inv, verts_i)
                if image is None:
                    continue
                matched = _match_vertices(image, poly.vertices)
                if matched is None:
                    continue
                fj = loop_lookup.get(frozenset(matched))
                if fj is None or fj in paired:
                    continue
                if poly.faces[fj].is_slab != face_i.is_slab:
                    continue
                vmap = dict(zip(loop_i, matched))
                if fj == fi and all(a == b for a, b in vmap.items()):
                    continue
                if not _cyclic_adjacent(loop_i, list(poly.faces[fj].loop), vmap):
                    continue
                cert = gamma1_certificate(g1, cs, power, tail, search)
                if cert is None:
                    continue
                found = (fj, g1, g2, vmap, cert)
                break
            if found:
                break
        if not found:
            continue
        fj, g1, g2, vmap, (count, word) = found
        if fj != fi:
            g1_inv, g2_inv = cover_inv(g1), cover_inv(g2)
            back = _chart_image(g1_inv, g2, poly.vertices[list(poly.faces[fj].loop)])
            assert back is not None
            rmap = {b: a for a, b in vmap.items()}
            assert _match_vertices(back, poly.vertices) == [
                rmap[v] for v in poly.faces[fj].loop
            ]
            cert_back = gamma1_certificate(g1_inv, cs, power, tail, search)
            if cert_back is None:
                continue
            paired[fj] = Pairing(
                fj, fi, g1_inv, g2_inv, tuple(sorted(rmap.items())), *cert_back
            )
        paired[fi] = Pairing(fi, fj, g1, g2, tuple(sorted(vmap.items())), count, word)
    unpaired = tuple(
        poly.faces[i].label for i in range(len(poly.faces)) if i not in paired
    )
    return PairingReport(tuple(paired[i] for i in sorted(paired)), unpaired)


def _per_face_pairings(poly, cs):
    """The pairing scan as it ran before it was batched over faces: per
    face, a quick check of the first vertex over the full (t, u) grid, one
    loop check per survivor and the inverse check inside the walk, with
    every axis power built by `cover_pow` and the certificate's powers
    recomputed at every use."""
    power, tail = _fresh_powers(cs)
    tree = SchreierTree(cs.tri)
    h_gen = cover_pow(cs.D, cs.tri.p)
    t_range = range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1)
    d_powers = [cover_pow(cs.D, t) for t in t_range]
    assert all(d.z == 0 for d in d_powers)
    w_t = np.array([d.w for d in d_powers])
    phi_t = np.array([d.phi for d in d_powers])
    h_powers = [cover_pow(h_gen, u) for u in range(-4, 5)]
    h_inverses = [cover_inv(g2) for g2 in h_powers]
    w_u = np.array([g.w for g in h_inverses])
    phi_u = np.array([g.phi for g in h_inverses])
    order = [i for i, f in enumerate(poly.faces) if not f.is_slab]
    order += [i for i, f in enumerate(poly.faces) if f.is_slab]
    loop_lookup = {frozenset(f.loop): i for i, f in enumerate(poly.faces)}
    vertex_order = _window_order(poly.vertices)
    paired = {}
    for fi in order:
        if fi in paired:
            continue
        face_i = poly.faces[fi]
        loop_i = list(face_i.loop)
        verts_i = poly.vertices[loop_i]
        w_inv = cover_inv(face_i.wall.g)
        # the row cover_mul(D^t, w_inv) over t: D^t has z = 0
        quick_on, quick = _chart_images(
            (np.conjugate(w_t) * w_inv.z)[:, None], (w_t * w_inv.w)[:, None],
            (phi_t + w_inv.phi)[:, None], w_u, phi_u, verts_i[0],
        )
        near = _nearest_vertices(
            quick, poly.vertices, _ORACLE_QUICK_TOL, vertex_order
        ) >= 0
        found = None
        for ti, ui in np.argwhere(quick_on)[near].tolist():
            g1 = cover_mul(d_powers[ti], w_inv)
            g2, g2_inv = h_powers[ui], h_inverses[ui]
            on_sheet, image = _chart_images(
                g1.z, g1.w, g1.phi, g2_inv.w, g2_inv.phi, verts_i
            )
            if not on_sheet.all():
                continue
            matched = _nearest_vertices(
                image, poly.vertices, PAIRING_MATCH_TOL, vertex_order
            ).tolist()
            if -1 in matched:
                continue
            fj = loop_lookup.get(frozenset(matched))
            if fj is None or fj in paired:
                continue
            if poly.faces[fj].is_slab != face_i.is_slab:
                continue
            vmap = dict(zip(loop_i, matched))
            if fj == fi and all(a == b for a, b in vmap.items()):
                continue
            if not _cyclic_adjacent(loop_i, list(poly.faces[fj].loop), vmap):
                continue
            cert = gamma1_certificate(g1, cs, power, tail, tree.syllables)
            if cert is None:
                continue
            found = (fj, g1, g2, g2_inv, vmap, cert)
            break
        if not found:
            continue
        fj, g1, g2, g2_inv, vmap, (count, word) = found
        if fj != fi:
            g1_inv = cover_inv(g1)
            loop_j = list(poly.faces[fj].loop)
            on_sheet, back = _chart_images(
                g1_inv.z, g1_inv.w, g1_inv.phi, g2.w, g2.phi, poly.vertices[loop_j]
            )
            if not on_sheet.all():
                raise RuntimeError("pairing inverse left the chart sheet")
            rmap = {b: a for a, b in vmap.items()}
            back_match = _nearest_vertices(
                back, poly.vertices, PAIRING_MATCH_TOL, vertex_order
            )
            if any(rmap[v] != m for v, m in zip(loop_j, back_match.tolist())):
                raise RuntimeError("pairing inverse does not invert the vertex map")
            cert_back = gamma1_certificate(g1_inv, cs, power, tail, tree.syllables)
            if cert_back is None:
                continue
            paired[fj] = Pairing(
                fj, fi, g1_inv, g2_inv, tuple(sorted(rmap.items())), *cert_back
            )
        paired[fi] = Pairing(fi, fj, g1, g2, tuple(sorted(vmap.items())), count, word)
    unpaired = tuple(
        poly.faces[i].label for i in range(len(poly.faces)) if i not in paired
    )
    return PairingReport(tuple(paired[i] for i in sorted(paired)), unpaired)

def _chart_image(g1, g2_inv, pts):
    """Scalar chart map: the chart coordinates of g1 . p . g2^{-1}, one
    `cover_mul` pair per point, or None once an image leaves the sheet
    (Re w <= 1e-9 or |phi| >= pi/2)."""
    out = np.zeros_like(pts)
    for row, (x1, x2, s) in enumerate(pts):
        p = CoverElement(complex(x1, x2), complex(1.0, s), math.atan(s))
        q = cover_mul(cover_mul(g1, p), g2_inv)
        if q.w.real <= 1e-9 or abs(q.phi) >= math.pi / 2.0:
            return None
        out[row, 0] = q.z.real / q.w.real
        out[row, 1] = q.z.imag / q.w.real
        out[row, 2] = q.w.imag / q.w.real
    return out


def _match_vertices(image, vertices):
    """Scalar match: injective map image row -> nearest vertex index, at
    PAIRING_MATCH_TOL, or None."""
    mapping = []
    for row in image:
        dists = np.linalg.norm(vertices - row, axis=1)
        best = int(np.argmin(dists))
        if dists[best] > PAIRING_MATCH_TOL:
            return None
        mapping.append(best)
    if len(set(mapping)) != len(mapping):
        return None
    return mapping


def _scalar_quick_check(g1, g2_inv, vertex, vertices, tol=_ORACLE_QUICK_TOL):
    quick = _chart_image(g1, g2_inv, vertex[None, :])
    if quick is None:
        return False
    return np.min(np.linalg.norm(vertices - quick[0], axis=1)) <= tol


def _element_bits(g):
    return (
        np.array([g.z, g.w], dtype=complex).tobytes(),
        np.float64(g.phi).tobytes(),
        g.axis_turns,
    )


def _report_bits(rep):
    return (
        [
            (p.face_i, p.face_j, _element_bits(p.g1), _element_bits(p.g2),
             p.vertex_map, p.syllables, p.word)
            for p in rep.pairings
        ],
        rep.unpaired,
    )


def _polyhedron(series, k):
    cs = level_constraints(series, k)
    return cs, build_polyhedron(cs, enumerate_vertices(cs))


@pytest.mark.parametrize(
    "series,k,budget", [(s, k, 8) for s, k in ORACLE_LEVELS] + [("E", 1, 1)]
)
def test_find_pairings_matches_reference_scan(series, k, budget, monkeypatch):
    """The rule of `_partner_wall` gives the report of the full (t, u)
    scan bit for bit.  At budget 1 they part: the scan finds other
    one-syllable pairings, while the rule's words are longer, so both
    leave faces unpaired."""
    monkeypatch.setattr(domain, "WORD_BUDGET", budget)
    cs, poly = _polyhedron(series, k)
    got = find_pairings(poly, cs)
    ref = _reference_pairings(poly, cs)
    if budget == 1:
        assert got.unpaired and ref.unpaired
        return
    assert got == ref
    assert _report_bits(got) == _report_bits(ref)
    assert got.unpaired == () and len(got.pairings) == len(poly.faces)


@pytest.mark.parametrize(
    "series,k,budget",
    [(s, k, 8) for s, k in ORACLE_LEVELS + [("Z", 14), ("E", 40), ("Z", 50)]]
    + [("E", 1, 1)],
)
def test_find_pairings_matches_the_per_face_scan(series, k, budget, monkeypatch):
    monkeypatch.setattr(domain, "WORD_BUDGET", budget)
    cs, poly = _polyhedron(series, k)
    got = find_pairings(poly, cs)
    ref = _per_face_pairings(poly, cs)
    if budget == 1:
        # the scan pairs some faces by other one-syllable words; the rule does not
        assert got.unpaired and ref.unpaired
        return
    assert _report_bits(got) == _report_bits(ref)
    assert got.unpaired == ()


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_word_budget_four_pairs_as_the_default(series, k, monkeypatch):
    """A word has at most 4 syllables by construction: a budget of 4
    gives the default's report bit for bit, and 3 leaves some face
    unpaired at the oracle levels."""
    assert domain.WORD_BUDGET == 8
    cs, poly = _polyhedron(series, k)
    default = find_pairings(poly, cs)
    monkeypatch.setattr(domain, "WORD_BUDGET", 4)
    assert _report_bits(find_pairings(poly, cs)) == _report_bits(default)
    monkeypatch.setattr(domain, "WORD_BUDGET", 3)
    assert find_pairings(poly, cs).unpaired


@pytest.mark.parametrize(
    "series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40), ("Z", 50), ("E", 80)]
)
def test_words_equal_the_word_search_oracle(series, k, monkeypatch):
    """Every certificate that `find_pairings` asks for, a face's and its
    partner's inverse, accepted or not, is the word search's
    (`word_oracle`): the same (syllables, word), or None on both sides."""
    cs, poly = _polyhedron(series, k)
    power, tail = _fresh_powers(cs)
    tree = SchreierTree(cs.tri)
    calls = []

    def recorded(*args):
        calls.append((args[2], _certificate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(domain, "_certificate", recorded)
    report = find_pairings(poly, cs)
    assert report.unpaired == ()
    for g1, got in calls:
        assert got == gamma1_certificate(g1, cs, power, tail, tree.syllables)
    assert sum(got is not None for _, got in calls) == len(report.pairings)
    for p in report.pairings:
        assert (p.syllables, p.word) == gamma1_certificate(
            p.g1, cs, power, tail, tree.syllables
        )


@pytest.mark.parametrize(
    "series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40), ("Z", 50), ("E", 80), ("E", 1000)]
)
def test_integer_certificates_equal_the_fraction_forms(series, k, monkeypatch):
    """Every left factor that `find_pairings` asks for, per (row, t), is
    the `Fraction` form's (`word_oracle`) once scaled by the turn unit
    U = 1/(2 p_lcm), and every certificate it asks for, a face's and its
    partner's inverse, accepted or not, equals the `Fraction` form's on
    the scaled factor: the same (syllables, word), or None on both sides."""
    cs, poly = _polyhedron(series, k)
    unit = Fraction(1, 2 * cs.config.p_lcm)
    left_factor, certificate = domain._left_factor, domain._certificate
    factors, certificates = [], []

    def recorded_factor(*args):
        factors.append((args[1:], left_factor(*args)))
        return factors[-1][1]

    def recorded_certificate(*args):
        certificates.append((args[1:], certificate(*args)))
        return certificates[-1][1]

    monkeypatch.setattr(domain, "_left_factor", recorded_factor)
    monkeypatch.setattr(domain, "_certificate", recorded_certificate)
    report = find_pairings(poly, cs)
    assert report.unpaired == ()
    for (row, t), (alpha, s, beta) in factors:
        assert all(type(x) is int for x in (alpha, s, beta))
        assert (alpha * unit, s, beta * unit) == fraction_left_factor(cs, row, t)
    for ((alpha, s, beta), g1, power), got in certificates:
        assert got == fraction_certificate(cs, (alpha * unit, s, beta * unit), g1, power)
    assert sum(got is not None for _, got in certificates) == len(report.pairings)


def test_e910_builds_certified():
    """The word search failed from E910 up: it left 3,652 of the 3,654
    faces unpaired there.  The words read off the walls pair them all."""
    build = level_build("E", 910)
    assert len(build.poly.faces) == 3654
    assert build.pairings.unpaired == () and build.certified


@pytest.mark.parametrize("series,k", [("Z", 1400), ("E", 3713)])
def test_builds_certified_where_an_absolute_incidence_test_failed(series, k):
    """Tested as |value + 1| <= PLANE_INCIDENCE_TOL on the raw chart
    functional, 133 (Z1400) and 11 (E3713) of the (vertex, wall)
    incidences, on walls with |n| near 1,000, read above the tolerance:
    vertices lost a wall and `build_polyhedron` raised on a wall's
    skeleton degrees.  In
    unit-normal distance the build is certified, with the template's
    counts: V = 8p, E = 14p, F = 6p + 2 (Z) and V = 4p, E = 8p, F = 4p + 2
    (E), p = 2k + 3 and k + 3."""
    build = level_build(series, k)
    assert build.pairings.unpaired == () and build.certified
    p = build.cs.tri.p
    counts = (8 * p, 14 * p, 6 * p + 2) if series == "Z" else (4 * p, 8 * p, 4 * p + 2)
    poly = build.poly
    assert (len(poly.vertices), len(poly.edges), len(poly.faces)) == counts


def test_a_wall_off_its_data_fails_the_float_check():
    """A wall whose g is not the element its (m, letter) data names: with
    exp_c moved by k, each group wall's data names g C^k, also a group
    element, so the exact arithmetic still gives a word and only the float
    check tells the two apart.  It refuses every group face's word, and
    the slab faces, whose data do not read exp_c, stay paired.  A g1
    moved off the word's product fails it too."""
    cs, poly = _polyhedron("E", 2)
    moved = dataclasses.replace(cs, exp_c=cs.exp_c + cs.k)
    assert find_pairings(poly, moved).unpaired == tuple(
        f.label for f in poly.faces if not f.is_slab
    )
    power = _fresh_powers(cs)[0]
    labels = [w.label for w in cs.all_walls()]
    checked = set()
    for p in find_pairings(poly, cs).pairings:
        face = poly.faces[p.face_i]
        t = round(cover_mul(p.g1, face.wall.g).phi / cs.D.phi)
        if cover_mul(cover_pow(cs.D, t), cover_inv(face.wall.g)) != p.g1:
            continue  # a partner's inverse, not a predicted left factor
        checked.add(face.is_slab)
        row = labels.index(face.wall.label)
        word = (p.syllables, p.word)
        assert _certificate(cs, _left_factor(cs, row, t), p.g1, power) == word
        off = _left_factor(moved, row, t)
        if face.is_slab:
            assert _certificate(moved, off, p.g1, power) == word
            continue
        assert _certificate(moved, off, p.g1, power) is None
        assert _certificate(moved, off, cover_mul(p.g1, central(-cs.k)), power) is not None
        nudged = dataclasses.replace(p.g1, z=p.g1.z + 1e-6)
        assert _certificate(cs, _left_factor(cs, row, t), nudged, power) is None
    assert checked == {False, True}


def _forward_map(cs, poly, monkeypatch):
    """`find_pairings`' report and its forward map, the first `_map_loops`
    call: the first faces with their left elements g1 and right elements
    g2^-1, and the on-sheet mask and chart images of its `_chart_images`
    call."""
    real_map, real_images = domain._map_loops, domain._chart_images
    maps, images = [], []

    def map_loops(poly, faces, left, right, vertex_order):
        maps.append((list(faces), list(left), list(right)))
        return real_map(poly, faces, left, right, vertex_order)

    def chart_images(*args):
        images.append(real_images(*args))
        return images[-1]

    monkeypatch.setattr(domain, "_map_loops", map_loops)
    monkeypatch.setattr(domain, "_chart_images", chart_images)
    report = find_pairings(poly, cs)
    monkeypatch.setattr(domain, "_map_loops", real_map)
    monkeypatch.setattr(domain, "_chart_images", real_images)
    return report, maps[0], images[0]


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 4)])
def test_quick_survivors_keep_every_scalar_survivor(series, k, monkeypatch):
    """Each first face's predicted (t, u) = (p u, u), u = -|u| of
    `_partner_wall`, survives the scalar first-vertex check of the full
    (t, u) grid (|t| <= 2 p_lcm, |u| <= 4) at PAIRING_MATCH_TOL, and its
    left factor is the grid's D^t g^-1 bit for bit; the check keeps few
    candidates besides."""
    cs, poly = _polyhedron(series, k)
    report, (faces, left, right), _ = _forward_map(cs, poly, monkeypatch)
    assert report.unpaired == ()
    h_gen = cover_pow(cs.D, cs.tri.p)
    h_inverses = {u: cover_inv(cover_pow(h_gen, u)) for u in range(-4, 5)}
    t_range = range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1)
    n_survivors = 0
    for fi, g1, g2_inv in zip(faces, left, right):
        face = poly.faces[fi]
        u = -_partner_wall(cs, face.wall.label)[1]
        w_inv = cover_inv(face.wall.g)
        assert cover_mul(cover_pow(cs.D, cs.tri.p * u), w_inv) == g1
        assert h_inverses[u] == g2_inv
        survivors = [
            (t, uu)
            for t in t_range
            for uu, g in h_inverses.items()
            if _scalar_quick_check(
                cover_mul(cover_pow(cs.D, t), w_inv), g,
                poly.vertices[face.loop[0]], poly.vertices, PAIRING_MATCH_TOL,
            )
        ]
        assert (cs.tri.p * u, u) in survivors, face.label
        n_survivors += len(survivors)
    assert n_survivors < len(faces) * len(t_range) * len(h_inverses) // 10


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40)])
def test_sheet_windows_hold_every_on_sheet_candidate(series, k, monkeypatch):
    """Every predicted (g1, g2) keeps its first face's whole loop on the
    principal sheet, with room: the scalar image of each loop point
    (`_chart_image`'s cover_mul pair) has sheet angle arctan s of the
    vertex it matches, the angle of that vertex itself, up to rounding,
    and stays at least 0.5 inside |phi| < pi/2 (pi/2 - |phi| is 1.07 at
    least, at E80, measured at every admissible k <= 50 of both series and
    at E80).  So no first face needs a sheet window of t."""
    cs, poly = _polyhedron(series, k)
    report, (faces, left, right), (on_sheet, image) = _forward_map(cs, poly, monkeypatch)
    assert report.unpaired == () and on_sheet.all()
    match = _nearest_vertices(image, poly.vertices, PAIRING_MATCH_TOL)
    assert (match >= 0).all()
    phi = []
    for fi, g1, g2_inv in zip(faces, left, right):
        for x1, x2, s in poly.vertices[list(poly.faces[fi].loop)]:
            p = CoverElement(complex(x1, x2), complex(1.0, s), math.atan(s))
            phi.append(cover_mul(cover_mul(g1, p), g2_inv).phi)
    phi = np.array(phi)
    assert np.abs(phi - np.arctan(poly.vertices[match, 2])).max() <= 1e-9
    assert np.abs(phi).max() < math.pi / 2 - 0.5


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40)])
def test_pairing_images_lie_on_a_vertex_or_far_from_every_vertex(series, k, monkeypatch):
    """PAIRING_MATCH_TOL = 1e-7 lies between two populations: the
    predicted image of every first face's loop point lies within 1e-12 of
    its nearest vertex, and every other vertex lies more than 1e-3 from
    it.  Measured at every admissible k <= 50 of both series and at E80:
    at most 8.4e-14 (Z49), and the nearest other vertex at least 1.59e-2
    away (Z50)."""
    cs, poly = _polyhedron(series, k)
    report, _, (on_sheet, image) = _forward_map(cs, poly, monkeypatch)
    assert report.unpaired == () and on_sheet.all()
    dist = np.linalg.norm(image[:, None, :] - poly.vertices[None, :, :], axis=2)
    nearest, other = np.sort(dist, axis=1)[:, :2].T
    assert nearest.max() <= 1e-12 and other.min() > 1e-3


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 14), ("E", 40)])
def test_loop_check_matches_a_scalar_map_per_survivor(series, k, monkeypatch):
    """The forward map, one array `_chart_images` call over every first
    face's loop, against the scalar map under each first face's predicted
    (g1, g2^-1), one cover_mul pair per point (`_chart_image`): every
    point on the sheet on both sides, the same images up to rounding
    (1.42e-14 at most, measured at every admissible k <= 50 of both series
    and at E80), and so the same matches, all onto vertices."""
    cs, poly = _polyhedron(series, k)
    report, (faces, left, right), (on_sheet, image) = _forward_map(cs, poly, monkeypatch)
    assert report.unpaired == () and on_sheet.all()
    ref = [
        _chart_image(g1, g2_inv, poly.vertices[list(poly.faces[fi].loop)])
        for fi, g1, g2_inv in zip(faces, left, right)
    ]
    assert all(r is not None for r in ref)
    ref = np.vstack(ref)
    assert np.abs(image - ref).max() <= PAIRING_MATCH_TOL / 100
    match = _nearest_vertices(image, poly.vertices, PAIRING_MATCH_TOL)
    assert np.array_equal(match, _nearest_vertices(ref, poly.vertices, PAIRING_MATCH_TOL))
    assert (match >= 0).all() and len(match) == sum(len(f.loop) for f in poly.faces) // 2


def test_a_wrong_partner_leaves_both_faces_unpaired(monkeypatch, tmp_path, capsys):
    """A rule that names a wrong partner wall for a[0] has no fallback:
    a[0], whose image lands on a face of another wall, and b[9], the wall
    the rule no longer claims and whose own prediction then fails, are
    reported unpaired, every other face is paired, and `build` exits 1."""
    real = domain._partner_wall

    def wrong(cs, label):
        return ("b[0]", real(cs, label)[1]) if label == "a[0]" else real(cs, label)

    monkeypatch.setattr(domain, "_partner_wall", wrong)
    cs, poly = _polyhedron("E", 2)
    report = find_pairings(poly, cs)
    assert report.unpaired == ("a[0]", "b[9]")
    assert len(report.pairings) == len(poly.faces) - 2
    argv = ["build", "--series", "E", "--k", "2", "--out", str(tmp_path), "--formats", "json"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["unpaired"] == ["a[0]", "b[9]"]


def test_the_rule_is_an_involution_on_the_walls():
    """`_partner_wall` pairs the walls: each wall's partner names it back
    with the same |u|, and no wall is its own partner."""
    for series, k in ORACLE_LEVELS + [("Z", 14), ("E", 40)]:
        cs = level_constraints(series, k)
        for wall in cs.all_walls():
            partner, size = _partner_wall(cs, wall.label)
            assert partner != wall.label
            assert _partner_wall(cs, partner) == (wall.label, size)


def _turned_inverse_check(monkeypatch, turns):
    """Wrap `_check_inverses` so that its i-th entry's g1^-1 is turned by
    the axis rotation turns[i] (None leaves it); returns the entry counts
    of its calls."""
    real = domain._check_inverses
    calls = []

    def check(poly, inverses, vertex_order):
        calls.append(len(inverses))
        inverses = list(inverses)
        for i, turn in enumerate(turns):
            if turn is not None:
                fj, g1_inv, g2, rmap = inverses[i]
                inverses[i] = (fj, cover_mul(axis_rotation(turn), g1_inv), g2, rmap)
        return real(poly, inverses, vertex_order)

    monkeypatch.setattr(domain, "_check_inverses", check)
    return calls


@pytest.mark.parametrize(
    "turns,message",
    [
        # a full turn C shifts phi by -pi: every point leaves the sheet
        ((None, 1), "pairing inverse left the chart sheet"),
        # a small turn moves every image off its vertex, on the sheet
        ((None, Fraction(1, 10**4)), "pairing inverse does not invert the vertex map"),
        ((Fraction(1, 10**4), 1), "pairing inverse does not invert the vertex map"),
        ((1, Fraction(1, 10**4)), "pairing inverse left the chart sheet"),
    ],
)
def test_inverse_check_raises_for_the_first_failing_pair(monkeypatch, turns, message):
    """The deferred, batched inverse check raises the message of the first
    failing pair in walk order, whatever fails after it."""
    cs, poly = _polyhedron("E", 1)
    calls = _turned_inverse_check(monkeypatch, turns)
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        find_pairings(poly, cs)
    assert calls == [len(poly.faces) // 2]


def test_pairing_scan_memory_is_bounded():
    """The Python-heap peak of `find_pairings` at Z20: 0.53 MiB measured,
    one forward map over half the loops, where the (face, t, u) scan it
    replaced, over a grid of 1.2 million rows, peaked at 2.3 MiB."""
    cs, poly = _polyhedron("Z", 20)
    tracemalloc.start()
    try:
        report = find_pairings(poly, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.unpaired == ()
    assert peak < 2**20


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 4)])
def test_chart_images_match_the_scalar_map(series, k):
    """The broadcast chart map against one cover_mul pair per point: the
    same sheet verdict on every loop, and the same images up to rounding."""
    cs, poly = _polyhedron(series, k)
    h_gen = cover_pow(cs.D, cs.tri.p)
    n_on = n_off = 0
    for face in poly.faces:
        w_inv = cover_inv(face.wall.g)
        pts = poly.vertices[list(face.loop)]
        for t in range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1, 3):
            g1 = cover_mul(cover_pow(cs.D, t), w_inv)
            for u in range(-4, 5):
                g2_inv = cover_inv(cover_pow(h_gen, u))
                ref = _chart_image(g1, g2_inv, pts)
                on_sheet, image = _chart_images(
                    g1.z, g1.w, g1.phi, g2_inv.w, g2_inv.phi, pts
                )
                assert on_sheet.shape == (len(pts),)
                assert len(image) == on_sheet.sum()
                if ref is None:
                    assert not on_sheet.all()
                    n_off += 1
                else:
                    assert on_sheet.all()
                    np.testing.assert_allclose(image, ref, rtol=1e-12, atol=1e-12)
                    n_on += 1
    assert n_on and n_off


def test_nearest_vertices_matches_a_full_distance_scan():
    rng = np.random.default_rng(5)
    vertices = rng.uniform(-1.0, 1.0, size=(40, 3))
    image = np.vstack([
        vertices[rng.integers(0, 40, 30)] + rng.normal(scale=1e-3, size=(30, 3)),
        rng.uniform(-1.5, 1.5, size=(30, 3)),
        rng.uniform(5.0, 6.0, size=(10, 3)),
    ])
    order = _window_order(vertices)
    for tol in (1e-8, 2e-3, 0.1):
        dists = np.linalg.norm(image[:, None, :] - vertices[None, :, :], axis=2)
        ref = np.where(dists.min(axis=1) <= tol, dists.argmin(axis=1), -1)
        got = _nearest_vertices(image, vertices, tol)
        assert np.array_equal(got, ref)
        assert np.array_equal(_nearest_vertices(image, vertices, tol, order), ref)
    assert (got >= 0).any() and (got < 0).any()


def test_nearest_vertices_breaks_ties_to_the_lowest_index():
    """Repeated vertices and rows equally far from two vertices go to the
    lowest index, as the argmin of a full distance row does, whichever
    way a passed-in sort order puts equal window keys."""
    rng = np.random.default_rng(7)
    base = rng.uniform(-1.0, 1.0, size=(20, 3))
    vertices = np.vstack([base, base[::-1], base[:5]])
    shift = np.array([0.0, 0.0, 1e-9])
    image = np.vstack([base, base + shift, base - shift, (base[:10] + base[10:]) / 2])
    index = np.arange(len(vertices))
    # ties in the window key in ascending and in descending index order
    key = _window_key(vertices)
    orders = [np.lexsort((index, key)), np.lexsort((-index, key))]
    for tol in (1e-8, 0.5, 2.0):
        dists = np.linalg.norm(image[:, None, :] - vertices[None, :, :], axis=2)
        ref = np.where(dists.min(axis=1) <= tol, dists.argmin(axis=1), -1)
        assert np.array_equal(_nearest_vertices(image, vertices, tol), ref)
        for order in orders:
            assert np.array_equal(_nearest_vertices(image, vertices, tol, order), ref)
    assert (_nearest_vertices(base, vertices, 1e-8) == np.arange(20)).all()


def test_cyclic_adjacent_rejects_every_map_onto_a_shorter_loop():
    """A repeated match fails the cycle test, so `find_pairings` needs no
    injectivity check of its own: no map of a 4-loop onto a 3-loop passes,
    and the two orientations of a 4-loop onto a 4-loop do."""
    loop_i, loop_j = [0, 1, 2, 3], [4, 5, 6]
    for images in itertools.product(loop_j, repeat=4):
        assert not _cyclic_adjacent(loop_i, loop_j, dict(zip(loop_i, images)))
    for images in ([5, 6, 7, 4], [7, 6, 5, 4]):
        assert _cyclic_adjacent(loop_i, [4, 5, 6, 7], dict(zip(loop_i, images)))


def test_quick_survivors_reject_a_bracket_off_the_principal_branch():
    """The forward map raises where the scalar cocycle check would: a
    face whose wall element makes its predicted g1 = h^u g^-1 an element
    with |z| > |w|, no group element, whose bracket with the face's first
    vertex is 1 - 10 = -9."""
    cs, poly = _polyhedron("E", 1)
    face = poly.faces[0]
    x1, x2, s = poly.vertices[face.loop[0]]
    p = CoverElement(complex(x1, x2), complex(1.0, s), math.atan(s))
    bad = CoverElement((-10.0 * p.w / p.z).conjugate(), 1.0 + 0j, 0.0)
    with pytest.raises(ArithmeticError, match="principal branch"):
        cover_mul(bad, p)
    u = -_partner_wall(cs, face.wall.label)[1]
    h_u = cover_pow(cover_pow(cs.D, cs.tri.p), u)
    # g^-1 = h^-u bad, so g1 = h^u g^-1 is bad up to rounding
    g = cover_inv(cover_mul(cover_inv(h_u), bad))
    broken = dataclasses.replace(face, wall=dataclasses.replace(face.wall, g=g))
    faces = (broken,) + poly.faces[1:]
    with pytest.raises(ArithmeticError, match="principal branch"):
        find_pairings(dataclasses.replace(poly, faces=faces), cs)


def test_find_pairings_rejects_an_axis_power_off_the_axis():
    """The left-factor rows take D^t as a rotation about the origin."""
    cs, poly = _polyhedron("E", 1)
    tilted = dataclasses.replace(cs, D=CoverElement(1e-9 + 0j, cs.D.w, cs.D.phi))
    assert find_pairings(poly, cs).unpaired == ()
    with pytest.raises(RuntimeError, match=r"D\^t has z != 0"):
        find_pairings(poly, tilted)


def _schreier_targets(series, k):
    """The constraint set, and the word-search targets at one level: the
    certified targets in the order of `find_pairings`' report, the base
    point, and points off the orbit."""
    cs, poly = _polyhedron(series, k)
    report = find_pairings(poly, cs)
    certified = [
        mobius_apply(GroupElement(p.g1.z, p.g1.w), 0j) for p in report.pairings
    ]
    return cs, certified, [0j, 4e-8 - 5e-8j], [0.123 + 0.456j, -0.3 - 0.2j]


def test_one_reference_search_answers_each_target_as_alone():
    cs, certified, root, off_orbit = _schreier_targets("E", 1)
    targets = certified + root + off_orbit
    want = [_reference_schreier_syllables(cs.tri, target) for target in targets]
    assert _reference_schreier_syllables_many(cs.tri, targets) == want
    assert _reference_schreier_syllables_many(cs.tri, off_orbit) == [None, None]


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_schreier_tree_matches_a_fresh_search(series, k):
    """One tree, grown on demand, answers every query as a fresh search
    would: the certified targets in the order of `find_pairings`' report,
    the base point, points off the orbit, and the certified targets again
    on the tree grown to full depth."""
    cs, certified, root, off_orbit = _schreier_targets(series, k)
    tree = SchreierTree(cs.tri)
    for target in certified + root:
        assert tree.syllables(target) == _reference_schreier_syllables(cs.tri, target)
    # each off-orbit target costs a whole depth-8 walk: one walk answers both
    want = _reference_schreier_syllables_many(cs.tri, off_orbit)
    assert [tree.syllables(target) for target in off_orbit] == want
    for target in certified:
        assert tree.syllables(target) == _reference_schreier_syllables(cs.tri, target)
    assert len(tree.levels) == 8
    assert all(tree.syllables(x) == [] for x in root)
    assert all(tree.syllables(x) is None for x in off_orbit)


def test_schreier_tree_finds_a_depth_two_target_on_a_grown_tree():
    cs = level_constraints("Z", 4)
    full = SchreierTree(cs.tri)
    assert full.syllables(0.123 + 0.456j) is None
    (level1, _), (level2, _) = full.levels[:2]
    # two depth-2 targets that are not within 1e-7 of a depth-1 node
    b, c = [y for y in level2 if np.min(np.abs(level1 - y)) > 1e-6][:2]
    tree = SchreierTree(cs.tri)
    first = tree.syllables(level1[0])
    assert len(first) == 1 and len(tree.levels) == 1
    for target in (c, b):
        got = tree.syllables(target)
        assert len(got) == 2 and len(tree.levels) == 2
        assert got == _reference_schreier_syllables(cs.tri, target)
