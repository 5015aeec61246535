import dataclasses
import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lorentzdomains.cli import build_domain
from lorentzdomains.cover import (
    CoverElement,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
    lifted_generators,
)
from lorentzdomains.disc import GroupElement, group_mul, mobius_apply
from lorentzdomains.domain import (
    _COND_LIMIT,
    _DET_FLOOR,
    EDGE_PROBE_TOL,
    MEMBERSHIP_TOL,
    PAIRING_MATCH_TOL,
    PAIRING_QUICK_TOL,
    VERTEX_MERGE_TOL,
    AffineFunctional,
    Pairing,
    PairingReport,
    _EDGE_PROBE_TS,
    _LABEL_ORDER,
    _SchreierTree,
    _chart_images,
    _chart_parts,
    _cyclic_adjacent,
    _gamma1_certificate,
    _nearest_vertices,
    _newell_normal,
    _plane_probe_grid,
    _sector_triples,
    _sigma_permutation,
    _window_phase,
    _window_probe_grid,
    active_walls,
    build_polyhedron,
    detect_symmetry,
    edge_cycle_check,
    enumerate_vertices,
    find_pairings,
    linearize,
    membership_mask,
    series_constraints,
)
from lorentzdomains.halfspaces import batch_wall

from halfspace_oracle import chart_point, pairing_form

# frozen combinatorics of the verified builds; p1 is the primary rotation
# order (k+3 resp. 2k+3) and every count below is linear in it
E_COUNTS = {1: (16, 32, 18), 2: (20, 40, 22), 4: (28, 56, 30), 5: (32, 64, 34)}
Z_COUNTS = {1: (40, 70, 32), 2: (56, 98, 44)}


@pytest.fixture(scope="module")
def e2():
    cs = series_constraints("E", 2)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    rep = find_pairings(poly, cs)
    return cs, poly, rep


@pytest.fixture(scope="module")
def z1():
    cs = series_constraints("Z", 1)
    poly = build_polyhedron(cs, enumerate_vertices(cs))
    rep = find_pairings(poly, cs)
    return cs, poly, rep


def test_series_constraints_rejects_bad_level():
    with pytest.raises(ValueError):
        series_constraints("E", 3)
    with pytest.raises(ValueError):
        series_constraints("Z", 6)
    with pytest.raises(ValueError):
        series_constraints("X", 1)


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


def test_counts_scale_with_rotation_order():
    for series, table in (("E", E_COUNTS), ("Z", Z_COUNTS)):
        for k, (v, e, f) in table.items():
            cs = series_constraints(series, k)
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
        cs = series_constraints("E", 2)
        poly = build_polyhedron(cs, enumerate_vertices(cs))
        runs.append(poly)
    assert runs[0].vertices.tobytes() == runs[1].vertices.tobytes()
    assert [f.loop for f in runs[0].faces] == [f.loop for f in runs[1].faces]
    assert [f.label for f in runs[0].faces] == [f.label for f in runs[1].faces]


def test_linearize_matches_pairing_form():
    """The affine functional is the chart restriction of the invariant form."""
    cs = series_constraints("E", 2)
    rng = np.random.default_rng(7)
    g = cs.groups[0][0].g
    fn = linearize(g)
    stored = cs.groups[0][0].functional
    assert fn.normal.tobytes() == stored.normal.tobytes() and fn.constant == stored.constant
    for _ in range(50):
        x1, x2, s = rng.uniform(-0.5, 0.5, size=3)
        p = chart_point(x1, x2, s)
        direct = pairing_form(g, p)
        assert abs(fn.value(np.array([[x1, x2, s]]))[0] - direct) < 1e-12


def _reference_window_phase(g, fn, config):
    """The window check as it ran per wall before the slab grid was shared:
    the grid and the wall plane sample in one array."""
    h = math.tan(math.pi * config.k / (2 * config.p_lcm))
    rho = math.sqrt(1.0 + h * h)
    xs = np.linspace(-rho, rho, 21)
    ss = np.linspace(-h, h, 9)
    g1, g2, g3 = np.meshgrid(xs, xs, ss, indexing="ij")
    pts = [np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])]
    n = fn.normal
    rhs = -1.0 - fn.constant
    j = int(np.argmax(np.abs(n)))
    if abs(n[j]) > 1e-12:
        u_axis, v_axis = [i for i in range(3) if i != j]
        uu, vv = np.meshgrid(np.linspace(-rho, rho, 25), np.linspace(-rho, rho, 25))
        plane = np.zeros((uu.size, 3))
        plane[:, u_axis] = uu.ravel()
        plane[:, v_axis] = vv.ravel()
        plane[:, j] = (rhs - plane @ n) / n[j]
        pts.append(plane)
    out = np.vstack(pts)
    out = out[np.abs(out[:, 2]) <= h + 1e-12]
    out = out[out[:, 0] ** 2 + out[:, 1] ** 2 < (1.0 + out[:, 2] ** 2) * (1.0 - 1e-12)]
    val, phi = batch_wall(g, *_chart_parts(out))
    active = val <= -1.0 + 1e-6
    return float(np.max(np.abs(phi[active]))) if np.any(active) else 0.0


@pytest.mark.parametrize("series, k", [(s, k) for s in "EZ" for k in (1, 2, 4, 5)])
def test_shared_probe_grid_gives_the_per_wall_window_phase(series, k):
    cs = series_constraints(series, k)
    grid = _chart_parts(_window_probe_grid(cs.config))
    uv = _plane_probe_grid(cs.config)
    n_active = 0
    for wall in cs.all_walls():
        got = _window_phase(wall.g, wall.functional, grid, uv, cs.config)
        want = _reference_window_phase(wall.g, wall.functional, cs.config)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), wall.label
        n_active += got > 0.0
    assert n_active == len(cs.all_walls())


def test_series_constraints_names_a_wall_whose_window_opens(monkeypatch):
    """Two extra central factors leave every wall plane where it was but
    move its I-side onto another sheet, so the window is shut there."""
    import lorentzdomains.domain as domain

    monkeypatch.setattr(domain, "central", lambda n: central(n + 2))
    with pytest.raises(RuntimeError, match=r"activates inside the slab for wall a\[0\] "):
        series_constraints("E", 2)


def test_linearize_identity_is_constant():
    fn = AffineFunctional(normal=np.zeros(3), constant=-1.0)
    vals = fn.value(np.random.default_rng(0).uniform(-1, 1, size=(10, 3)))
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


def _reference_membership(cs, pts, tol):
    pts = np.asarray(pts, dtype=float)
    cone_ok = pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (1.0 - 1e-12)
    out = np.zeros(len(pts), dtype=bool)
    sub = pts[cone_ok]
    Z, W, PHI = _chart_parts(sub)
    vals, windows = {}, {}
    for wall in cs.all_walls():
        val, phi = batch_wall(wall.g, Z, W, PHI)
        vals[wall.label] = val
        windows[wall.label] = np.abs(phi) < math.pi / 2.0
    exact = np.ones(len(sub), dtype=bool)
    linear = np.ones(len(sub), dtype=bool)
    for wall in cs.slab:
        exact &= ~((vals[wall.label] < -1.0 - tol) & windows[wall.label])
        linear &= ~(wall.functional.value(sub) < -1.0 - tol)
    for grp in cs.groups:
        cap_exact = np.zeros(len(sub), dtype=bool)
        cap_linear = np.zeros(len(sub), dtype=bool)
        for wall in grp:
            cap_exact |= (vals[wall.label] <= -1.0 + tol) & windows[wall.label]
            cap_linear |= wall.functional.value(sub) <= -1.0 + tol
        exact &= cap_exact
        linear &= cap_linear
    assert np.array_equal(exact, linear)
    out[cone_ok] = exact
    return out


def _reference_vertices(cs):
    walls = cs.all_walls()
    normals = np.array([w.normal_hat for w in walls])
    offsets = np.array([w.offset for w in walls])
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
    act = active_walls(cs, candidates)
    keep = [
        col for col in range(len(candidates))
        if act[:, col].sum() >= 3
        and np.linalg.matrix_rank(normals[act[:, col]], tol=1e-8) == 3
    ]
    candidates = candidates[keep]
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


def _probe_points(cs, rng, n=3000):
    """Points inside the slab, beyond it, outside the cone, and on every wall plane."""
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
        for tol in (MEMBERSHIP_TOL, EDGE_PROBE_TOL)
        for f in (0.5, 1.5)
        for sign in (-1.0, 1.0)
    ]
    on_walls = []
    for wall in cs.all_walls():
        seed = inside[rng.integers(0, n, 40)]
        plane = seed - np.outer(seed @ wall.normal_hat - wall.offset, wall.normal_hat)
        normal = wall.functional.normal
        for delta in shifts:
            on_walls.append(plane + (delta / (normal @ normal)) * normal)
    return np.vstack([inside, beyond, off_cone] + on_walls)


def _reference_active(cs, pts, tol):
    """Active incidences and on-plane incidences from the full tables."""
    Z, W, PHI = _chart_parts(np.asarray(pts, dtype=float))
    walls = cs.all_walls()
    vals = np.empty((len(walls), len(Z)))
    windows = np.empty_like(vals, dtype=bool)
    for i, wall in enumerate(walls):
        val, phi = batch_wall(wall.g, Z, W, PHI)
        vals[i] = val
        windows[i] = np.abs(phi) < math.pi / 2.0
    on_plane = (np.abs(vals + 1.0) <= tol) & windows
    active = np.zeros_like(on_plane)
    n_group_walls = len(walls) - len(cs.slab)
    active[n_group_walls:] = on_plane[n_group_walls:]
    start = 0
    for grp in cs.groups:
        rows = slice(start, start + len(grp))
        strict = ((vals[rows] < -1.0 - tol) & windows[rows]).any(axis=0)
        active[rows] = on_plane[rows] & ~strict
        start += len(grp)
    return active, on_plane


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_active_walls_matches_full_table(series, k):
    cs = series_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    # wall values are defined on the cone only
    pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (1.0 - 1e-12)]
    for tol in (MEMBERSHIP_TOL, EDGE_PROBE_TOL):
        got = active_walls(cs, pts, tol=tol)
        ref, on_plane = _reference_active(cs, pts, tol)
        assert got.tobytes() == ref.tobytes()
        # both rules fire: incidences kept, and on-plane ones a sibling hides
        assert got.any() and (on_plane & ~got).any()


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_membership_mask_matches_full_table(series, k):
    cs = series_constraints(series, k)
    pts = _probe_points(cs, np.random.default_rng(k))
    for tol in (MEMBERSHIP_TOL, EDGE_PROBE_TOL):
        got = membership_mask(cs, pts, tol=tol)
        ref = _reference_membership(cs, pts, tol)
        assert got.tobytes() == ref.tobytes()
        assert 0 < got.sum() < len(pts)


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 10), ("E", 11)])
def test_enumerate_vertices_matches_reference(series, k):
    """The sector scan against every triple of the full scan, bit for bit."""
    cs = series_constraints(series, k)
    got = enumerate_vertices(cs)
    ref = _reference_vertices(cs)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()


def _reference_polyhedron(cs, vertices):
    """The face assembly as it ran before the edges came from one probe
    array: one rank check and one probe list per vertex pair, the walls
    alive on a segment gathered per pair, and each wall's adjacency found
    by scanning every edge.  Returns the sorted undirected edges of the
    face loops and the (label, loop) list in face order."""
    walls = cs.all_walls()
    incidence = active_walls(cs, vertices)
    pair_shared, probe_pts, probe_owner = {}, [], []
    inc = incidence.astype(np.int64)
    for i, j in np.argwhere(np.triu(inc.T @ inc >= 2, 1)).tolist():
        shared = np.flatnonzero(incidence[:, i] & incidence[:, j])
        span = np.array([walls[w].normal_hat for w in shared])
        if np.linalg.matrix_rank(span, tol=1e-8) < 2:
            continue
        pair_shared[(i, j)] = tuple(shared)
        for t in _EDGE_PROBE_TS:
            probe_pts.append(vertices[i] + t * (vertices[j] - vertices[i]))
            probe_owner.append((i, j))
    probe_pts = np.array(probe_pts)
    ok = membership_mask(cs, probe_pts, tol=EDGE_PROBE_TOL)
    probe_act = active_walls(cs, probe_pts, tol=EDGE_PROBE_TOL)
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
        span = np.array([walls[w].normal_hat for w in alive])
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
        outward = wall.normal_hat if wall.side == "I" else -wall.normal_hat
        for li, loop in enumerate(loops):
            if _newell_normal(vertices, loop) @ outward < 0:
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


@pytest.mark.parametrize("series,k", ORACLE_LEVELS + [("Z", 10), ("E", 11)])
def test_build_polyhedron_matches_reference(series, k):
    """The edges read from one probe array against the per-pair assembly."""
    cs = series_constraints(series, k)
    vertices = enumerate_vertices(cs)
    poly = build_polyhedron(cs, vertices)
    edges, faces = _reference_polyhedron(cs, vertices)
    assert poly.edges == edges
    assert [(f.label, f.loop) for f in poly.faces] == faces


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 1)])
def test_sector_orbits_cover_every_triple(series, k):
    """The sector is the triples whose first wall lies in group 0, and
    its sigma-orbits hold every triple of the full scan."""
    cs = series_constraints(series, k)
    n, L = len(cs.all_walls()), len(cs.groups[0])
    sector = _sector_triples(L, n)
    combos = np.array(list(itertools.combinations(range(n), 3)))
    assert np.array_equal(sector, combos[combos[:, 0] < L])
    perm = _sigma_permutation(cs)
    images = [sector]
    for _ in range(cs.period - 1):
        images.append(perm[images[-1]])
    assert np.array_equal(np.unique(np.sort(np.vstack(images), axis=1), axis=0), combos)


def _with_group(cs, m, walls):
    groups = list(cs.groups)
    groups[m] = tuple(walls)
    return dataclasses.replace(cs, groups=tuple(groups))


def _shift_offset(wall, delta):
    fn = wall.functional
    return dataclasses.replace(
        wall, functional=AffineFunctional(fn.normal, fn.constant - delta)
    )


def test_sigma_guard_rejects_a_pruned_group():
    cs = series_constraints("Z", 2)
    with pytest.raises(RuntimeError, match=r"only 13 of 14 union groups"):
        enumerate_vertices(dataclasses.replace(cs, groups=cs.groups[1:]))


def test_sigma_guard_rejects_a_missing_letter():
    cs = series_constraints("Z", 2)
    expected = r"union group 3 has walls \['a\[3\]', 'b\[3\]'\], not abc"
    with pytest.raises(RuntimeError, match=expected):
        enumerate_vertices(_with_group(cs, 3, cs.groups[3][:2]))


@pytest.mark.parametrize("series,k", [("E", 4), ("Z", 4)])
def test_sigma_guard_names_a_moved_wall(series, k):
    cs = series_constraints(series, k)
    grp = list(cs.groups[3])
    scale = float(np.linalg.norm(grp[1].functional.normal))
    # the offset moves by delta / scale; 1e-14 is inside the bound
    grp[1] = _shift_offset(grp[1], 1e-14 * scale)
    assert np.array_equal(_sigma_permutation(_with_group(cs, 3, grp)),
                          _sigma_permutation(cs))
    grp[1] = _shift_offset(cs.groups[3][1], 1e-10 * scale)
    with pytest.raises(RuntimeError, match=r"b\[3\].*residual 1e-10 > 1e-12"):
        enumerate_vertices(_with_group(cs, 3, grp))


def test_build_domain_past_z24():
    """Z25 has 5.4M plane triples; its sector holds 151,210 of them."""
    build = build_domain("Z", 25)
    G = build.cs.period
    assert len(build.poly.vertices) == 4 * G == 424
    assert len(build.poly.faces) == 3 * G + 2 == 320
    assert build.pairings.unpaired == ()
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
    det = abs(np.linalg.det(A))
    assume(det > 1e-7)
    assert np.linalg.cond(A) <= 3.0 * math.sqrt(3.0) / det * (1.0 + 1e-6)


def test_membership_mask_raises_on_model_disagreement():
    """A point kept by the linear model alone still reaches the agreement check."""
    cs = series_constraints("E", 2)
    wall = cs.groups[0][0]
    loose = AffineFunctional(wall.functional.normal, wall.functional.constant - 0.05)
    groups = ((dataclasses.replace(wall, functional=loose),) + cs.groups[0][1:],)
    broken = dataclasses.replace(cs, groups=groups + cs.groups[1:])
    pts = _probe_points(cs, np.random.default_rng(0))
    assert membership_mask(cs, pts).any()
    with pytest.raises(RuntimeError, match="disagrees"):
        membership_mask(broken, pts)


# ---------------------------------------------------------------------------
# reference pairing scan: every (t, u) candidate built from scratch with
# cover_pow and checked by the scalar chart map (one cover_mul pair per
# point) and the scalar nearest-vertex match, and every word found by a
# fresh breadth-first search; the table-driven scan with its broadcast
# chart map and shared Schreier tree must reproduce its report


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


def _reference_pairings(poly, cs, max_word_len=8):
    gens = lifted_generators(cs.config)
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
                cert = _gamma1_certificate(g1, cs, gens, max_word_len, search)
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
            cert_back = _gamma1_certificate(g1_inv, cs, gens, max_word_len, search)
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


def _scalar_quick_check(g1, g2_inv, vertex, vertices):
    quick = _chart_image(g1, g2_inv, vertex[None, :])
    if quick is None:
        return False
    return np.min(np.linalg.norm(vertices - quick[0], axis=1)) <= PAIRING_QUICK_TOL


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
    cs = series_constraints(series, k)
    return cs, build_polyhedron(cs, enumerate_vertices(cs))


@pytest.mark.parametrize(
    "series,k,budget", [(s, k, 8) for s, k in ORACLE_LEVELS] + [("E", 1, 1)]
)
def test_find_pairings_matches_reference_scan(series, k, budget):
    cs, poly = _polyhedron(series, k)
    got = find_pairings(poly, cs, max_word_len=budget)
    ref = _reference_pairings(poly, cs, max_word_len=budget)
    assert got == ref
    assert _report_bits(got) == _report_bits(ref)
    if budget == 1:
        assert got.unpaired
    else:
        assert got.unpaired == () and len(got.pairings) == len(poly.faces)


@pytest.mark.parametrize("series,k", [("E", 2), ("Z", 4)])
def test_quick_survivors_keep_every_scalar_survivor(series, k):
    """The broadcast prefilter never drops a candidate the scalar check keeps."""
    cs, poly = _polyhedron(series, k)
    t_range = range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1)
    h_gen = cover_pow(cs.D, cs.tri.p)
    h_inverses = [cover_inv(cover_pow(h_gen, u)) for u in range(-4, 5)]
    w_t = np.array([cover_pow(cs.D, t).w for t in t_range])
    phi_t = np.array([cover_pow(cs.D, t).phi for t in t_range])
    w_u = np.array([g.w for g in h_inverses])
    phi_u = np.array([g.phi for g in h_inverses])
    n_scalar = n_broadcast = 0
    for face in poly.faces:
        w_inv = cover_inv(face.wall.g)
        g1_row = [cover_mul(cover_pow(cs.D, t), w_inv) for t in t_range]
        vertex = poly.vertices[face.loop[0]]
        # the rows find_pairings passes: cover_mul's rotation branch as arrays
        on_sheet, image = _chart_images(
            (np.conjugate(w_t) * w_inv.z)[:, None], (w_t * w_inv.w)[:, None],
            (phi_t + w_inv.phi)[:, None], w_u, phi_u, vertex,
        )
        mask = np.zeros(on_sheet.shape, dtype=bool)
        mask[on_sheet] = _nearest_vertices(image, poly.vertices, PAIRING_QUICK_TOL) >= 0
        assert mask.shape == (len(t_range), len(h_inverses))
        for ti, g1 in enumerate(g1_row):
            for ui, g2_inv in enumerate(h_inverses):
                if _scalar_quick_check(g1, g2_inv, vertex, poly.vertices):
                    assert mask[ti, ui], (face.label, ti, ui)
                    n_scalar += 1
        n_broadcast += int(mask.sum())
    # every face has a partner, and the prefilter drops most candidates
    assert len(poly.faces) <= n_scalar <= n_broadcast
    assert n_broadcast < len(poly.faces) * len(t_range) * len(h_inverses) // 10


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
    for tol in (1e-8, 2e-3, 0.1):
        dists = np.linalg.norm(image[:, None, :] - vertices[None, :, :], axis=2)
        ref = np.where(dists.min(axis=1) <= tol, dists.argmin(axis=1), -1)
        got = _nearest_vertices(image, vertices, tol)
        assert np.array_equal(got, ref)
    assert (got >= 0).any() and (got < 0).any()


def test_quick_survivors_reject_a_bracket_off_the_principal_branch():
    """The broadcast raises where the scalar cocycle check would."""
    cs, poly = _polyhedron("E", 1)
    x1, x2, s = vertex = poly.vertices[poly.faces[0].loop[0]]
    p = CoverElement(complex(x1, x2), complex(1.0, s), math.atan(s))
    # |z| > |w| is no group element: its bracket with p is 1 - 10 = -9
    bad = CoverElement((-10.0 * p.w / p.z).conjugate(), 1.0 + 0j, 0.0)
    with pytest.raises(ArithmeticError, match="principal branch"):
        cover_mul(bad, p)
    with pytest.raises(ArithmeticError, match="principal branch"):
        _chart_images(
            np.array([[cs.D.z], [bad.z]]),
            np.array([[cs.D.w], [bad.w]]),
            np.array([[cs.D.phi], [bad.phi]]),
            np.array([cs.D.w]),
            np.array([cs.D.phi]),
            vertex,
        )


def test_find_pairings_rejects_an_axis_power_off_the_axis():
    """The left-factor rows take D^t as a rotation about the origin."""
    cs, poly = _polyhedron("E", 1)
    tilted = dataclasses.replace(cs, D=CoverElement(1e-9 + 0j, cs.D.w, cs.D.phi))
    assert find_pairings(poly, cs).unpaired == ()
    with pytest.raises(RuntimeError, match=r"D\^t has z != 0"):
        find_pairings(poly, tilted)


@pytest.mark.parametrize("series,k", ORACLE_LEVELS)
def test_schreier_tree_matches_a_fresh_search(series, k):
    """One tree, grown on demand, answers every query as a fresh search
    would: the certified targets in the order `find_pairings` asks them,
    the base point, points off the orbit, and the certified targets again
    on the tree grown to full depth."""
    cs, poly = _polyhedron(series, k)
    report = find_pairings(poly, cs)
    certified = [
        mobius_apply(GroupElement(p.g1.z, p.g1.w), 0j) for p in report.pairings
    ]
    root = [0j, 4e-8 - 5e-8j]
    off_orbit = [0.123 + 0.456j, -0.3 - 0.2j]
    tree = _SchreierTree(cs.tri)
    for target in certified + root + off_orbit + certified:
        assert tree.syllables(target) == _reference_schreier_syllables(cs.tri, target)
    assert len(tree.levels) == 8
    assert all(tree.syllables(x) == [] for x in root)
    assert all(tree.syllables(x) is None for x in off_orbit)


def test_schreier_tree_finds_a_depth_two_target_on_a_grown_tree():
    cs = series_constraints("Z", 4)
    full = _SchreierTree(cs.tri)
    assert full.syllables(0.123 + 0.456j) is None
    (level1, _), (level2, _) = full.levels[:2]
    # two depth-2 targets that are not within 1e-7 of a depth-1 node
    b, c = [y for y in level2 if np.min(np.abs(level1 - y)) > 1e-6][:2]
    tree = _SchreierTree(cs.tri)
    first = tree.syllables(level1[0])
    assert len(first) == 1 and len(tree.levels) == 1
    for target in (c, b):
        got = tree.syllables(target)
        assert len(got) == 2 and len(tree.levels) == 2
        assert got == _reference_schreier_syllables(cs.tri, target)
