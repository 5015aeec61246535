"""Fundamental polyhedron construction in the slab chart.

The chart identifies the affine tangent hyperplane at the identity with
coordinates (x1, x2, s) <-> (z, w) = (x1 + i x2, 1 + i s).  Every wall of
the domain restricts to an affine functional there, so the domain is cut
out by finitely many planes (two slab planes plus one plane per group
element of the indexed families), with the subtlety that family members
enter through unions, not intersections: a point belongs to the domain
when every indexed union captures it.

The construction pipeline is

    series_constraints -> enumerate_vertices -> build_polyhedron
        -> find_pairings / detect_symmetry -> edge_cycle_check

with honesty checks at each stage: the linear functionals are validated
against the exact sheet-aware membership predicate, the face complex must
close up to a manifold sphere, and every claimed pairing carries both a
geometric vertex-matching certificate and a word certificate placing the
left factor in the acting group.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cover import (
    COVER_IDENTITY,
    CoverElement,
    as_central_power,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
    lift_level,
    lifted_generators,
    R_param,
)
from .disc import (
    GroupElement,
    TriangleGroupData,
    build_triangle_group,
    group_mul,
    mobius_apply,
)
from .halfspaces import batch_wall, wall_masks

VERTEX_MERGE_TOL = 1e-8
PLANE_INCIDENCE_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
EDGE_PROBE_TOL = 1e-7
PAIRING_MATCH_TOL = 1e-7
PAIRING_QUICK_TOL = 1e-6
WINDOW_GUARD = 1e-9
_DET_FLOOR = 1e-12
_COND_LIMIT = 1e8
_SIGMA_TOL = 1e-12
_SEED_SLACK = 2.0
_SEED_MEMBERSHIP_TOL = 1e-6
_SEED_INCIDENCE_TOL = 1e-7
_EDGE_PROBE_TS = (0.25, 0.5, 0.75)
_STAB_TURN_TOL = 1e-6

_LABEL_ORDER = {"a": 0, "b": 1, "c": 2, "slab": 3}
# wall letters of one union group; each letter after a adds a trailing D
_SERIES_LETTERS = {"E": "ab", "Z": "abc"}

@dataclass(frozen=True)
class AffineFunctional:
    """value(x) = normal . (x1, x2, s) + constant; wall sits at value == -1."""

    normal: np.ndarray
    constant: float

    def value(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.normal + self.constant


def linearize(g: CoverElement, config) -> AffineFunctional:
    """Restrict the functional of the wall E_g to the slab chart.

    <pi(g), p> = Re(z_g) x1 + Im(z_g) x2 - Im(w_g) s - Re(w_g) on points
    p = (x1 + i x2, 1 + i s).  Side I keeps value <= -1, side H keeps
    value >= -1.  The functional does not depend on the level `config`;
    whether it represents the wall inside the slab (the sheet window stays
    inactive on the I-side) is checked by `series_constraints` for every
    wall it builds, through `_assert_window_inactive`.
    """
    return AffineFunctional(
        normal=np.array([g.z.real, g.z.imag, -g.w.imag]),
        constant=-g.w.real,
    )


def _slab_half_width(config) -> float:
    return math.tan(math.pi * config.k / (2 * config.p_lcm))


def _chart_parts(pts: np.ndarray):
    Z = pts[:, 0] + 1j * pts[:, 1]
    W = 1.0 + 1j * pts[:, 2]
    PHI = np.arctan(pts[:, 2])
    return Z, W, PHI


def _in_slab_cone(pts: np.ndarray, h: float) -> np.ndarray:
    """The chart points of pts in the closed slab |s| <= h, inside the cone."""
    pts = pts[np.abs(pts[:, 2]) <= h + 1e-12]
    inside_cone = pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (
        1.0 - 1e-12
    )
    return pts[inside_cone]


def _window_probe_grid(config) -> np.ndarray:
    """The 21 x 21 x 9 grid over the slab, inside the cone; it depends only
    on the level, so `series_constraints` builds it once for all walls."""
    h = _slab_half_width(config)
    rho = math.sqrt(1.0 + h * h)
    xs = np.linspace(-rho, rho, 21)
    ss = np.linspace(-h, h, 9)
    g1, g2, g3 = np.meshgrid(xs, xs, ss, indexing="ij")
    return _in_slab_cone(np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()]), h)


def _plane_probe_grid(config):
    """The 25 x 25 (u, v) grid over [-rho, rho]^2 that `_wall_plane_points`
    lifts onto each wall plane; built once per `series_constraints` call."""
    h = _slab_half_width(config)
    rho = math.sqrt(1.0 + h * h)
    uu, vv = np.meshgrid(np.linspace(-rho, rho, 25), np.linspace(-rho, rho, 25))
    return uu.ravel(), vv.ravel()


def _wall_plane_points(fn: AffineFunctional, uv, config) -> np.ndarray:
    """The (u, v) grid `uv` lifted onto the wall plane, inside the slab and
    the cone."""
    n = fn.normal
    # parametrize the wall plane n.x = -1 - constant by its two best axes
    rhs = -1.0 - fn.constant
    j = int(np.argmax(np.abs(n)))
    if abs(n[j]) <= 1e-12:
        return np.empty((0, 3))
    u_axis, v_axis = [i for i in range(3) if i != j]
    plane = np.zeros((uv[0].size, 3))
    plane[:, u_axis], plane[:, v_axis] = uv
    plane[:, j] = (rhs - plane @ n) / n[j]
    return _in_slab_cone(plane, _slab_half_width(config))


def _window_phase(g: CoverElement, fn: AffineFunctional, grid, uv, config) -> float:
    """The largest |phi(g^{-1} p)| over the probe points p on the I-side of
    the wall (value <= -1 + 1e-6), or 0 when there is none.

    The probe points are `grid`, the chart parts of `_window_probe_grid`,
    and the points of `_wall_plane_points` on the `_plane_probe_grid` `uv`.
    """
    worst = 0.0
    for Z, W, PHI in (grid, _chart_parts(_wall_plane_points(fn, uv, config))):
        val, phi = batch_wall(g, Z, W, PHI)
        worst = max(worst, np.max(np.abs(phi[val <= -1.0 + 1e-6]), initial=0.0))
    return worst


def _assert_window_inactive(
    label: str, g: CoverElement, fn: AffineFunctional, grid, uv, config
) -> None:
    """Raise RuntimeError when the sheet window of the wall activates inside
    the slab: the linear picture would then misrepresent the set."""
    worst = _window_phase(g, fn, grid, uv, config)
    if worst >= math.pi / 2.0 - WINDOW_GUARD:
        raise RuntimeError(
            f"sheet window activates inside the slab for wall {label} "
            f"(z={g.z:.6g}, w={g.w:.6g}, phi={g.phi:.6g}): max |phi| = {worst:.6g}"
        )


@dataclass(frozen=True)
class Wall:
    label: str
    g: CoverElement
    side: str  # "I" or "H"
    functional: AffineFunctional
    # unit-normal form of the wall plane, normal_hat . x = offset
    normal_hat: np.ndarray = field(init=False)
    offset: float = field(init=False)

    def __post_init__(self):
        n = self.functional.normal
        scale = float(np.linalg.norm(n))
        if scale < 1e-12:
            raise ValueError(f"degenerate wall functional for {self.label}")
        object.__setattr__(self, "normal_hat", n / scale)
        object.__setattr__(self, "offset", (-1.0 - self.functional.constant) / scale)


@dataclass(frozen=True)
class ConstraintSet:
    series: str
    k: int
    period: int
    config: object
    tri: TriangleGroupData
    D: CoverElement
    groups: tuple  # tuple of tuples of Wall, one tuple per union index m
    slab: tuple  # the two H-side Walls

    def all_walls(self):
        out = [w for grp in self.groups for w in grp]
        out.extend(self.slab)
        return out


def _wall_range_on_slab(fn: AffineFunctional, config) -> tuple[float, float]:
    """Range of the wall functional over the closed slab cylinder."""
    h = _slab_half_width(config)
    rho = math.sqrt(1.0 + h * h)
    n = fn.normal
    radial = math.hypot(n[0], n[1]) * rho
    axial = abs(n[2]) * h
    return fn.constant - radial - axial, fn.constant + radial + axial


def series_constraints(series: str, k: int) -> ConstraintSet:
    """Constraint families of the fundamental domain for one series level.

    The base element is a0 = R_v(8 pi / 3) D^(2 lam p - 1) C^(-2(lam k + 2)/3)
    for series E, with D-exponent 2 lam p - 2 for series Z, where p is the
    triangle order.
    The indexed family comes from conjugation by half-step rotations about
    the origin, b by a trailing D (and c by one more for series Z); the
    family is exactly periodic with period 2 p because the full-turn
    conjugator is central, so only one period of indices is kept, further
    pruned to members whose wall plane meets the closed slab.

    Each member linearized, pruned or kept, and both slab walls must keep
    the sheet window inactive throughout their I-side region of the slab,
    else RuntimeError names the wall: the linear picture would
    misrepresent the set.  That is probed on one grid over the slab and on
    a sampling of the wall's own plane by one (u, v) grid, both built once
    per call.
    """
    from .reduction import series_signature

    p_tri, q, r = series_signature(series, k)
    config = lift_level(p_tri, q, r, k)
    tri = build_triangle_group(p_tri, q, r)
    gens = lifted_generators(config)
    D = gens["D"]
    lam = config.lam
    exp_d = 2 * lam * p_tri - (1 if series == "E" else 2)
    num = 2 * (lam * k + 2)
    if num % 3 != 0:
        raise AssertionError("central exponent must be integral for admissible k")
    exp_c = -(num // 3)
    a0 = cover_mul(
        cover_mul(R_param(tri.v, 8.0 * math.pi / 3.0), cover_pow(D, exp_d)),
        central(exp_c),
    )

    step = axis_rotation(Fraction(1, 2 * p_tri))
    period = 2 * p_tri
    full_turn = cover_pow(step, period)
    if as_central_power(full_turn) != 1:
        raise AssertionError("conjugator full turn is not the central generator")

    letters = _SERIES_LETTERS[series]
    grid = _chart_parts(_window_probe_grid(config))
    uv = _plane_probe_grid(config)
    groups = []
    for m in range(period):
        conj = cover_pow(step, m)
        conj_inv = cover_pow(step, -m)
        a_m = cover_mul(cover_mul(conj, a0), conj_inv)
        members = [a_m]
        for _ in letters[1:]:
            members.append(cover_mul(members[-1], D))
        walls = []
        group_auto_true = False
        for letter, g in zip(letters, members):
            label = f"{letter}[{m}]"
            fn = linearize(g, config)
            _assert_window_inactive(label, g, fn, grid, uv, config)
            lo, hi = _wall_range_on_slab(fn, config)
            if hi < -1.0:
                # member holds on the whole slab; the union imposes nothing
                group_auto_true = True
                break
            if lo > -1.0:
                continue
            walls.append(Wall(label, g, "I", fn))
        if group_auto_true or not walls:
            continue
        groups.append(tuple(walls))
    if not groups:
        raise ValueError(f"empty constraint set for series {series}, k={k}")

    slab_walls = []
    for g, name in ((D, "slab[D]"), (cover_inv(D), "slab[D^-1]")):
        fn = linearize(g, config)
        _assert_window_inactive(name, g, fn, grid, uv, config)
        slab_walls.append(Wall(name, g, "H", fn))
    return ConstraintSet(
        series=series,
        k=k,
        period=period,
        config=config,
        tri=tri,
        D=D,
        groups=tuple(groups),
        slab=tuple(slab_walls),
    )


def membership_mask(cs: ConstraintSet, pts: np.ndarray, tol: float = MEMBERSHIP_TOL):
    """Exact sheet-aware membership of chart points in the domain.

    Membership is a conjunction of terms: the two slab walls (H side), then
    one term per union group, which holds where any of its members (I side)
    holds.  Each term is decided twice, by the exact predicate (form value
    and sheet window) and by the linear chart functional, and the two
    conjunctions must agree on every point, else the linear model is wrong
    and this raises.  The conjunction short-circuits: a term is evaluated
    only on the points where the exact or the linear verdict is still True,
    and a point is dropped once both are False, since no later term can
    change either.  The masks and the agreement check are thus those of the
    full walls-by-points table, at the cost of one vector per term.
    Dropping points skips no bracket check of `batch_wall` that could fire:
    every wall element has |z_g| < |w_g| and every cone point |Z| < |W|, so
    the cocycle bracket has positive real part on the whole cone.
    """
    pts = np.asarray(pts, dtype=float)
    cone_ok = pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (1.0 - 1e-12)
    live = np.flatnonzero(cone_ok)  # original rows of the undecided points
    sub = pts[live]
    Z, W, PHI = _chart_parts(sub)
    exact = np.ones(len(live), dtype=bool)
    linear = np.ones(len(live), dtype=bool)
    for members in [(wall,) for wall in cs.slab] + list(cs.groups):
        cap_exact = np.zeros(len(live), dtype=bool)
        cap_linear = np.zeros(len(live), dtype=bool)
        for wall in members:
            holds, strict, _ = wall_masks(*batch_wall(wall.g, Z, W, PHI), tol)
            lin = wall.functional.value(sub)
            if wall.side == "H":
                cap_exact |= ~strict
                cap_linear |= ~(lin < -1.0 - tol)
            else:
                cap_exact |= holds
                cap_linear |= lin <= -1.0 + tol
        exact &= cap_exact
        linear &= cap_linear
        undecided = exact | linear
        if not undecided.all():
            live, sub, Z, W, PHI, exact, linear = (
                a[undecided] for a in (live, sub, Z, W, PHI, exact, linear)
            )
    if np.any(exact != linear):
        bad = sub[exact != linear]
        raise RuntimeError(
            "linear chart model disagrees with the sheet-aware predicate "
            f"at {bad[0]}; the phi window is active inside the slab"
        )
    out = np.zeros(len(pts), dtype=bool)
    out[live[exact]] = True
    return out


def active_walls(cs: ConstraintSet, pts: np.ndarray, tol: float = PLANE_INCIDENCE_TOL):
    """Boolean matrix (walls x points, rows in `all_walls()` order) of
    active boundary incidences, filled one group at a time.

    A wall is active where the point is on it (`wall_masks` at tol) and no
    sibling of its union group holds strictly: there the group is slack and
    the plane is invisible to the boundary.  Each slab wall is a group of
    one, so for the slab walls the sibling condition is void.
    """
    pts = np.asarray(pts, dtype=float)
    Z, W, PHI = _chart_parts(pts)
    active = np.empty((len(cs.all_walls()), len(pts)), dtype=bool)
    row = 0
    for members in list(cs.groups) + [(wall,) for wall in cs.slab]:
        slack = np.zeros(len(pts), dtype=bool)
        for wall in members:
            _, strict, active[row] = wall_masks(*batch_wall(wall.g, Z, W, PHI), tol)
            slack |= strict
            row += 1
        active[row - len(members):row] &= ~slack
    return active


def _sigma_permutation(cs: ConstraintSet) -> np.ndarray:
    """The wall permutation of sigma, checked to be a symmetry of the planes.

    sigma rotates the chart by pi/p about the s-axis (p the triangle
    order).  It carries wall (m, letter) to ((m + 1) mod period, letter),
    in `all_walls()` order, and fixes the two slab walls.  That needs every
    union group present with all its letters, and each rotated unit normal
    and offset to match its image's within _SIGMA_TOL (measured error at
    most 1.4e-15); else this raises RuntimeError naming the wall.
    """
    letters = _SERIES_LETTERS[cs.series]
    if len(cs.groups) != cs.period:
        raise RuntimeError(
            f"only {len(cs.groups)} of {cs.period} union groups meet the slab; "
            "the wall set is not invariant under sigma"
        )
    for m, grp in enumerate(cs.groups):
        labels = [w.label for w in grp]
        if labels != [f"{c}[{m}]" for c in letters]:
            raise RuntimeError(f"union group {m} has walls {labels}, not {letters}")
    walls = cs.all_walls()
    n_group = cs.period * len(letters)
    index = np.arange(len(walls))
    perm = np.where(index < n_group, (index + len(letters)) % n_group, index)
    normals = np.array([w.normal_hat for w in walls])
    offsets = np.array([w.offset for w in walls])
    c, s = math.cos(math.pi / cs.tri.p), math.sin(math.pi / cs.tri.p)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    resid = np.maximum(
        np.abs(normals @ rot.T - normals[perm]).max(axis=1),
        np.abs(offsets - offsets[perm]),
    )
    worst = int(np.argmax(resid))
    if resid[worst] > _SIGMA_TOL:
        raise RuntimeError(
            f"sigma does not carry wall {walls[worst].label} to "
            f"{walls[perm[worst]].label}: residual {resid[worst]:.3g} > {_SIGMA_TOL:g}"
        )
    return perm


def _sector_triples(n_first: int, n: int) -> np.ndarray:
    """The index triples i < j < l < n with i < n_first."""
    rows = []
    for i in range(n_first):
        j, l = np.triu_indices(n - 1 - i, 1)
        rows.append(np.column_stack([np.full(len(j), i), i + 1 + j, i + 1 + l]))
    return np.vstack(rows)


def _solve_triples(normals, offsets, triples, slack: float = 1.0):
    """The triples whose planes meet in one well-conditioned point, and the
    points.

    A triple is dropped when |det| <= _DET_FLOOR / slack or cond >=
    _COND_LIMIT * slack.  The rows are unit normals, so the largest singular
    value is at most sqrt(3) and cond(A) <= 3 sqrt(3) / |det A|; the SVD
    behind `np.linalg.cond` runs only on the triples that bound cannot
    clear (with a factor 6 of slack for rounding).  Each system is solved
    on its own, so a triple's point does not depend on the other rows.
    """
    A = normals[triples]
    dets = np.abs(np.linalg.det(A))
    keep = np.flatnonzero(dets > _DET_FLOOR / slack)
    cond_limit = _COND_LIMIT * slack
    doubtful = np.flatnonzero(dets[keep] * cond_limit <= 6.0 * 3.0 * math.sqrt(3.0))
    good = np.ones(len(keep), dtype=bool)
    good[doubtful] = np.linalg.cond(A[keep[doubtful]]) < cond_limit
    keep = keep[good]
    b = offsets[triples[keep]]
    return triples[keep], np.linalg.solve(A[keep], b[..., None])[..., 0]


def _pinned(cs, normals, pts, membership_tol, incidence_tol, rank_tol):
    """Indices of the points in the domain (`membership_mask` at
    membership_tol) pinned by active walls (`active_walls` at
    incidence_tol) of rank 3 (`matrix_rank` at rank_tol)."""
    inside = np.flatnonzero(membership_mask(cs, pts, tol=membership_tol))
    act = active_walls(cs, pts[inside], tol=incidence_tol)
    return [
        inside[i] for i in np.flatnonzero(act.sum(axis=0) >= 3)
        if np.linalg.matrix_rank(normals[act[:, i]], tol=rank_tol) == 3
    ]


def enumerate_vertices(cs: ConstraintSet) -> np.ndarray:
    """Vertices of the domain: all valid triple-plane intersections.

    Planes are the wall planes of every family member and the two slab
    planes.  A triple of planes yields a vertex when it is regular
    (`_solve_triples`), its point lies in the cone and passes the
    membership predicate, and the point is pinned by rank-3 many active
    walls.  The vertices are merged at VERTEX_MERGE_TOL, first candidate in
    (s, x1, x2) order wins (ties in triple order), and returned in that
    order.

    Only O(W^2) of the C(W, 3) triples are solved.  There are only two
    slab walls, so some power of the rotation sigma (`_sigma_permutation`)
    moves a group wall of any triple into union group 0: every sigma-orbit
    of triples meets the sector of the triples whose first wall lies in
    group 0, which is generated directly (L W^2 / 2 triples for L letters
    per group).  A seed pass keeps the sector triples that survive every
    filter at a looser setting: determinant floor and condition limit by
    a factor _SEED_SLACK, membership at _SEED_MEMBERSHIP_TOL, incidence at
    _SEED_INCIDENCE_TOL and rank at 1e-8 / _SEED_SLACK.  This is a
    superset: sigma moves each plane by at most _SIGMA_TOL (about 1e-15
    measured) and the wall values at a rotated point by rounding of the
    same order, far inside every loosening, and a looser filter keeps
    more (a wall is active where it is on the plane and no sibling holds
    strictly, and both widen with the tolerance).  So the sector image of
    every triple the full scan keeps is a seed.  The cone test is not
    loosened: the vertices lie at least 6% inside the cone up to E80.
    The seeds' sigma-orbits, sorted and deduplicated into
    itertools.combinations order, then go through the filters at their
    usual setting.  Every filter acts on each triple alone, so the
    survivors, their points and their order are those of the full scan,
    and so is the merge.  Every level tried has 14 seeds (E) or 44 (Z).
    """
    walls = cs.all_walls()
    normals = np.array([w.normal_hat for w in walls])
    offsets = np.array([w.offset for w in walls])

    perm = _sigma_permutation(cs)
    seeds, pts = _solve_triples(
        normals, offsets, _sector_triples(len(cs.groups[0]), len(walls)), _SEED_SLACK
    )
    seeds = seeds[_pinned(
        cs, normals, pts, _SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL, 1e-8 / _SEED_SLACK
    )]
    images = [seeds]
    for _ in range(cs.period - 1):
        images.append(perm[images[-1]])
    triples = np.unique(np.sort(np.vstack(images), axis=1), axis=0)

    _, candidates = _solve_triples(normals, offsets, triples)
    candidates = candidates[
        _pinned(cs, normals, candidates, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL, 1e-8)
    ]
    if not len(candidates):
        raise ValueError("no vertices found; the constraint set is degenerate")

    order = np.lexsort(
        (
            np.round(candidates[:, 1], 10),
            np.round(candidates[:, 0], 10),
            np.round(candidates[:, 2], 10),
        )
    )
    merged = np.empty((len(order), 3))
    n = 0
    for p in candidates[order]:
        if n and np.min(np.linalg.norm(merged[:n] - p, axis=1)) <= VERTEX_MERGE_TOL:
            continue
        merged[n] = p
        n += 1
    return merged[:n].copy()


@dataclass(frozen=True)
class Face:
    label: str
    wall: Wall
    loop: tuple

    @property
    def is_slab(self) -> bool:
        return self.label.startswith("slab")


@dataclass
class Polyhedron:
    vertices: np.ndarray
    faces: tuple
    edges: tuple

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)


def _newell_normal(verts: np.ndarray, loop) -> np.ndarray:
    n = np.zeros(3)
    for i, j in zip(loop, loop[1:] + loop[:1]):
        a, c = verts[i], verts[j]
        n[0] += (a[1] - c[1]) * (a[2] + c[2])
        n[1] += (a[2] - c[2]) * (a[0] + c[0])
        n[2] += (a[0] - c[0]) * (a[1] + c[1])
    return n


def build_polyhedron(cs: ConstraintSet, vertices: np.ndarray) -> Polyhedron:
    """Assemble the face complex and validate that it is a closed surface.

    Faces are extracted per wall by walking the 1-skeleton: two vertices
    are adjacent when they share two walls and the open segment between
    them stays in the domain (probed at quartile points).  Every vertex of
    a wall's skeleton must have degree exactly two there, every edge must
    lie in exactly two faces with opposite orientations, and the Euler
    characteristic must be 2; violations are hard errors, not warnings.
    """
    if len(vertices) == 0:
        raise ValueError("cannot build a polyhedron without vertices")
    walls = cs.all_walls()
    nv = len(vertices)
    incidence = active_walls(cs, vertices)

    pair_shared: dict[tuple[int, int], tuple] = {}
    probe_pts = []
    probe_owner = []
    # the vertex pairs sharing two walls, in itertools.combinations order
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
    # an edge is a segment along which at least two independent walls stay
    # active and the segment stays in the domain; its tag set is exactly
    # the walls active on the open segment, not merely at the endpoints
    seg_walls: dict[tuple[int, int], tuple] = {}
    if probe_pts:
        probe_pts = np.array(probe_pts)
        ok = membership_mask(cs, probe_pts, tol=EDGE_PROBE_TOL)
        probe_act = active_walls(cs, probe_pts, tol=EDGE_PROBE_TOL)
        rows_of: dict[tuple[int, int], list[int]] = {}
        for row, owner in enumerate(probe_owner):
            rows_of.setdefault(owner, []).append(row)
        for owner, rows in rows_of.items():
            if not all(ok[r] for r in rows):
                continue
            alive = [
                w for w in pair_shared[owner]
                if all(probe_act[w, r] for r in rows)
            ]
            if len(alive) < 2:
                continue
            span = np.array([walls[w].normal_hat for w in alive])
            if np.linalg.matrix_rank(span, tol=1e-8) < 2:
                continue
            seg_walls[owner] = tuple(alive)
    edges = set(seg_walls)

    faces = []
    for wi, wall in enumerate(walls):
        adj: dict[int, list[int]] = {}
        for (i, j) in edges:
            if wi in seg_walls[(i, j)]:
                adj.setdefault(i, []).append(j)
                adj.setdefault(j, []).append(i)
        if not adj:
            continue
        bad = {v: ns for v, ns in adj.items() if len(ns) != 2}
        if bad:
            raise RuntimeError(
                f"wall {wall.label}: 1-skeleton vertex degrees {sorted(bad)} != 2"
            )
        seen = set()
        loops = []
        for start in sorted(adj):
            if start in seen:
                continue
            loop = [start]
            seen.add(start)
            prev, cur = None, start
            while True:
                nxt = [v for v in adj[cur] if v != prev]
                nxt = nxt[0] if nxt else adj[cur][0]
                if nxt == start:
                    break
                loop.append(nxt)
                seen.add(nxt)
                prev, cur = cur, nxt
            if len(loop) < 3:
                raise RuntimeError(f"wall {wall.label}: degenerate loop {loop}")
            loops.append(loop)
        outward = wall.normal_hat if wall.side == "I" else -wall.normal_hat
        for li, loop in enumerate(loops):
            newell = _newell_normal(vertices, loop)
            sense = float(newell @ outward)
            if abs(sense) < 1e-12:
                raise RuntimeError(f"wall {wall.label}: flat degenerate loop")
            if sense < 0:
                loop = loop[::-1]
            pivot = loop.index(min(loop))
            loop = loop[pivot:] + loop[:pivot]
            label = wall.label if len(loops) == 1 else f"{wall.label}#{li}"
            faces.append(Face(label=label, wall=wall, loop=tuple(loop)))

    faces.sort(
        key=lambda f: (
            _LABEL_ORDER.get(f.label.split("[")[0], 9),
            f.label,
        )
    )

    directed = {}
    for fi, face in enumerate(faces):
        for i, j in zip(face.loop, face.loop[1:] + face.loop[:1]):
            if (i, j) in directed:
                raise RuntimeError(
                    f"directed edge {(i, j)} traversed twice; not orientable"
                )
            directed[(i, j)] = fi
    used_edges = set()
    for (i, j) in directed:
        if (j, i) not in directed:
            raise RuntimeError(f"edge {(i, j)} lacks its reversed twin; not closed")
        used_edges.add((min(i, j), max(i, j)))
    # so each edge lies in exactly two faces, one per direction of travel

    touched = {v for f in faces for v in f.loop}
    if touched != set(range(nv)):
        raise RuntimeError("stray vertices not used by any face")

    poly = Polyhedron(
        vertices=vertices,
        faces=tuple(faces),
        edges=tuple(sorted(used_edges)),
    )
    if poly.euler_characteristic != 2:
        raise RuntimeError(
            f"Euler characteristic {poly.euler_characteristic} != 2"
        )
    return poly


def detect_symmetry(poly: Polyhedron, cs: ConstraintSet) -> Optional[float]:
    """Smallest chart rotation about the s-axis mapping vertices to vertices."""
    for psi in (math.pi / cs.tri.p, 2.0 * math.pi / cs.tri.p):
        c, s = math.cos(psi), math.sin(psi)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        image = poly.vertices @ rot.T
        ok = True
        for p in image:
            if np.min(np.linalg.norm(poly.vertices - p, axis=1)) > 1e-8:
                ok = False
                break
        if ok:
            return psi
    return None


# ---------------------------------------------------------------------------
# pairings


@dataclass(frozen=True)
class Pairing:
    face_i: int
    face_j: int
    g1: CoverElement
    g2: CoverElement
    vertex_map: tuple  # (vertex index on face_i, vertex index on face_j) pairs
    syllables: int
    word: str


@dataclass(frozen=True)
class PairingReport:
    pairings: tuple
    unpaired: tuple

    def partner_of(self):
        return {p.face_i: p for p in self.pairings}


class _SchreierTree:
    """Breadth-first tree of the base point's orbit, grown level by level.

    The moves are whole generator powers rot_u^t, rot_v^t (each a single
    syllable), never two of the same letter in a row, so a node's level
    is its syllable count.  A node is kept only when its position, rounded
    to 6 digits, was not seen before; once 100,000 positions are seen,
    new nodes still count but are not expanded.  The discovery order does
    not depend on any target, so one tree serves every certificate of a
    `find_pairings` call, and it grows to depth 8 only as far as some
    target asks.
    """

    def __init__(self, tri: TriangleGroupData, depth: int = 8):
        self.moves = []
        for letter, gen, order in (("u", tri.gen_u, tri.p), ("v", tri.gen_v, tri.q)):
            acc = GroupElement(0j, 1.0 + 0j)
            for t in range(1, order):
                acc = group_mul(acc, gen)  # gen^t
                self.moves.append((letter, t if 2 * t <= order else t - order, acc))
        self.depth = depth
        self.frontier = [(0j, ())]
        self.seen = {(0.0, 0.0)}
        self.levels = []  # per level: (positions, paths) in discovery order

    def _grow(self):
        positions, paths, nxt = [], [], []
        for x, path in self.frontier:
            for letter, power, g in self.moves:
                if path and path[-1][0] == letter:
                    continue
                y = mobius_apply(g, x)
                key = (round(y.real, 6), round(y.imag, 6))
                if key in self.seen:
                    continue
                self.seen.add(key)
                path2 = path + ((letter, power),)
                positions.append(y)
                paths.append(path2)
                if len(self.seen) < 100_000:
                    nxt.append((y, path2))
        self.frontier = nxt
        self.levels.append((np.array(positions, dtype=complex), paths))

    def syllables(self, target: complex):
        """Generator word carrying the base point to `target` in the disc:
        the path of the earliest-discovered node within 1e-7 of it, as a
        syllable list in product order, [] at the base point, or None when
        no node within the depth bound is that close."""
        if abs(target) < 1e-7:
            return []
        for level in range(self.depth):
            if level == len(self.levels):
                self._grow()
            positions, paths = self.levels[level]
            hit = np.flatnonzero(np.abs(positions - target) < 1e-7)
            if hit.size:
                # moves compose as functions, so the group word reads
                # right to left; return it in product order
                return list(reversed(paths[hit[0]]))
        return None


def _gamma1_certificate(
    g1: CoverElement, cs: ConstraintSet, gens: dict, budget: int, syllables_to
):
    """Express g1 as a word in the acting group's generators, or None.

    The disc image of the base point is pulled back by a Schreier word in
    the lifted u/v generators (`gens` is `lifted_generators(cs.config)`;
    `syllables_to(target)` finds the word, as `_SchreierTree.syllables`);
    the residue must be a power of the lifted stabilizer generator D^3
    times a central element C^(k j).  Syllable count (each generator power
    is one syllable) must fit the budget.
    """
    p_tri = cs.tri.p
    k = cs.k
    target = mobius_apply(GroupElement(g1.z, g1.w), 0j)
    syllables = syllables_to(target)
    if syllables is None:
        return None
    word = COVER_IDENTITY
    for letter, power in syllables:
        word = cover_mul(word, cover_pow(gens[letter], power))
    resid = cover_mul(cover_inv(word), g1)
    if abs(resid.z) > 1e-7 * max(1.0, abs(resid.w)):
        return None
    turns = -resid.phi / math.pi
    scaled = turns * p_tri
    n_near = round(scaled)
    if abs(scaled - n_near) > _STAB_TURN_TOL:
        return None
    if n_near % k != 0:
        return None
    m_total = n_near // k
    t = m_total % p_tri
    j = (m_total - t) // p_tri
    check = cover_mul(word, cover_mul(cover_pow(gens["D"], 3 * t), central(k * j)))
    if abs(check.z - g1.z) > 1e-6 * max(1.0, abs(g1.w)) or abs(
        check.phi - g1.phi
    ) > 1e-6:
        return None
    count = len(syllables) + (1 if t else 0) + (1 if j else 0)
    if count > budget:
        return None
    parts = [f"{letter}^{power}" if power != 1 else letter for letter, power in syllables]
    if t:
        parts.append(f"(D^3)^{t}" if t != 1 else "D^3")
    if j:
        parts.append(f"(C^{k})^{j}" if j != 1 else f"C^{k}")
    return count, " ".join(parts) if parts else "e"


def _chart_image(g1: CoverElement, g2_inv: CoverElement, pts: np.ndarray):
    """Chart coordinates of g1 . p . g2^{-1} for chart points, or None.

    The image of a chart point is a cone point on some ray; it projects
    back to the chart by scaling to Re w = 1, which is admissible only if
    Re w stays positive and the lifted argument stays on the principal
    sheet — otherwise the image left the slab's sheet and the candidate
    pairing is geometric nonsense.
    """
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


def _match_vertices(image: np.ndarray, vertices: np.ndarray):
    """Injective map image row -> nearest vertex index, at PAIRING_MATCH_TOL."""
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


def _cyclic_adjacent(loop_i, loop_j, mapping: dict) -> bool:
    """The vertex bijection must carry the boundary cycle to the boundary cycle."""
    n = len(loop_i)
    img = [mapping[v] for v in loop_i]
    pos = {v: i for i, v in enumerate(loop_j)}
    idx = [pos[v] for v in img]
    deltas = {(idx[(i + 1) % n] - idx[i]) % n for i in range(n)}
    return deltas == {1} or deltas == {n - 1}


def _quick_survivors(vertex, z1, w1, phi1, g2_inv_row, vertices: np.ndarray):
    """Candidates (t, u) whose image of one chart point lands near a vertex.

    Broadcast form of the scalar quick check: `_chart_image(g1, g2_inv,
    [vertex])` for every g1 = (z1[t], w1[t], phi1[t]) and every g2_inv in
    `g2_inv_row` (index u), then the distance to the nearest vertex at
    PAIRING_QUICK_TOL.  Every g2_inv rotates about the origin (z = 0), so
    the right factor only rotates the left product: the image is one row
    of `cover_mul(g1, p)` times one column of w factors.  Returns a
    (t, u) boolean mask.  It is a prefilter only: a candidate the full
    scalar check accepts has its first image within PAIRING_MATCH_TOL of a
    vertex, ten times inside PAIRING_QUICK_TOL, and there the sheet guard
    is far from its limits, so rounding differences between numpy and
    scalar complex arithmetic cannot drop it.
    """
    x1, x2, s = vertex
    z2, w2, phi2 = complex(x1, x2), complex(1.0, s), math.atan(s)
    # cover_mul(g1, p), one entry per t
    z3 = np.conjugate(w1) * z2 + z1 * w2
    w3 = np.conjugate(z1) * z2 + w1 * w2
    bracket = 1.0 + (np.conjugate(z1) * z2) / (w1 * w2)
    if not (bracket.real > 0.0).all():
        raise ArithmeticError("cocycle bracket left the principal branch")
    phi3 = phi1 + phi2 + np.angle(bracket)
    # times g2_inv, one column per u
    w_right = np.array([g.w for g in g2_inv_row])
    qz = z3[:, None] * w_right
    qw = w3[:, None] * w_right
    qphi = phi3[:, None] + np.array([g.phi for g in g2_inv_row])
    on_sheet = np.flatnonzero((qw.real > 1e-9) & (np.abs(qphi) < math.pi / 2.0))
    qz, qw = qz.ravel()[on_sheet], qw.ravel()[on_sheet]
    image = np.column_stack([qz.real / qw.real, qz.imag / qw.real, qw.imag / qw.real])
    # an image outside the vertices' bounding box, widened by the
    # tolerance, is farther than the tolerance from every vertex
    lo = vertices.min(axis=0) - PAIRING_QUICK_TOL
    hi = vertices.max(axis=0) + PAIRING_QUICK_TOL
    boxed = np.flatnonzero(((image >= lo) & (image <= hi)).all(axis=1))
    dists = np.linalg.norm(vertices[None, :, :] - image[boxed, None, :], axis=2)
    keep = np.zeros(qphi.size, dtype=bool)
    keep[on_sheet[boxed]] = dists.min(axis=1) <= PAIRING_QUICK_TOL
    return keep.reshape(qphi.shape)


def find_pairings(poly: Polyhedron, cs: ConstraintSet, max_word_len: int = 8):
    """Discover the side-face identifications of the domain.

    Every side face lies on a wall of the prism over one orbit point; the
    identification carrying it into the domain again must send that prism
    onto the central one, so its left factor has the form (wall-rotation
    power) * (wall element inverse), while the right factor ranges over
    small powers of the second acting group's generator.  Candidates are
    scanned in that two-parameter family (t over the axis powers D^t, u
    over the powers h^u); one is accepted when the chart image of the
    face's vertex loop is another face's loop (bijectively, respecting the
    cycle) and the left factor admits a word certificate in the acting
    group within the syllable budget.  The partner face is then assigned
    the inverse map, provided the inverse's left factor has a word
    certificate within the budget too; otherwise neither face is paired.
    Faces left unpaired are reported, never silently dropped.

    The axis powers, the powers of h with their inverses, the lifted
    generators and the word search (`_SchreierTree`) are built once per
    call.  Every D^t rotates about the origin (z = 0, else RuntimeError),
    so each face's row of left factors D^t * w_inv is the arrays
    (conj(w_t) z, w_t w, phi_t + phi) of `cover_mul`'s rotation branch.
    A broadcast prefilter (`_quick_survivors`) maps the face's first
    vertex under every (t, u) at once and keeps the candidates landing
    within PAIRING_QUICK_TOL of a vertex; only those get their scalar
    `cover_mul` left factor and go through the scalar check on all
    vertices, t first, then u, and the first that passes wins.

    The two slab faces fall out of the same scan: their wall elements are
    the axis steps D and D^-1, so the family degenerates to pure axis
    powers, and the certificate only accepts the ones lying in the acting
    groups.  That is the top-to-bottom gluing.
    """
    gens = lifted_generators(cs.config)
    tree = _SchreierTree(cs.tri)
    h_gen = cover_pow(cs.D, cs.tri.p)
    t_range = range(-2 * cs.config.p_lcm, 2 * cs.config.p_lcm + 1)
    d_powers = [cover_pow(cs.D, t) for t in t_range]
    if any(d.z != 0 for d in d_powers):
        raise RuntimeError(
            "an axis power D^t has z != 0: the left-factor rows need z = 0"
        )
    w_t = np.array([d.w for d in d_powers])
    phi_t = np.array([d.phi for d in d_powers])
    h_powers = [cover_pow(h_gen, u) for u in range(-4, 5)]
    h_inverses = [cover_inv(g2) for g2 in h_powers]
    order = [i for i, f in enumerate(poly.faces) if not f.is_slab]
    order += [i for i, f in enumerate(poly.faces) if f.is_slab]
    loop_lookup = {frozenset(f.loop): i for i, f in enumerate(poly.faces)}
    paired: dict[int, Pairing] = {}
    for fi in order:
        if fi in paired:
            continue
        face_i = poly.faces[fi]
        loop_i = list(face_i.loop)
        verts_i = poly.vertices[loop_i]
        w_inv = cover_inv(face_i.wall.g)
        # the row cover_mul(D^t, w_inv) over t: D^t has z = 0
        survivors = _quick_survivors(
            verts_i[0], np.conjugate(w_t) * w_inv.z, w_t * w_inv.w, phi_t + w_inv.phi,
            h_inverses, poly.vertices,
        )
        found = None
        for ti, ui in np.argwhere(survivors):
            g1 = cover_mul(d_powers[ti], w_inv)
            g2, g2_inv = h_powers[ui], h_inverses[ui]
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
            cert = _gamma1_certificate(g1, cs, gens, max_word_len, tree.syllables)
            if cert is None:
                continue
            found = (fj, g1, g2, g2_inv, vmap, cert)
            break
        if not found:
            continue
        fj, g1, g2, g2_inv, vmap, (count, word) = found
        if fj != fi:
            g1_inv = cover_inv(g1)
            back = _chart_image(g1_inv, g2, poly.vertices[list(poly.faces[fj].loop)])
            if back is None:
                raise RuntimeError("pairing inverse left the chart sheet")
            back_match = _match_vertices(back, poly.vertices)
            rmap = {b: a for a, b in vmap.items()}
            if back_match is None or any(
                rmap[v] != m
                for v, m in zip(poly.faces[fj].loop, back_match)
            ):
                raise RuntimeError("pairing inverse does not invert the vertex map")
            cert_back = _gamma1_certificate(
                g1_inv, cs, gens, max_word_len, tree.syllables
            )
            if cert_back is None:
                # no word for the inverse within the budget: both faces
                # stay unpaired and are reported as such
                continue
            paired[fj] = Pairing(
                fj, fi, g1_inv, g2_inv,
                tuple(sorted(rmap.items())),
                cert_back[0], cert_back[1],
            )
        paired[fi] = Pairing(fi, fj, g1, g2, tuple(sorted(vmap.items())), count, word)
    unpaired = tuple(
        poly.faces[i].label for i in range(len(poly.faces)) if i not in paired
    )
    pairings = tuple(paired[i] for i in sorted(paired))
    return PairingReport(pairings=pairings, unpaired=unpaired)


def edge_cycle_check(poly: Polyhedron, report: PairingReport):
    """Develop the domain around every edge class; each cycle must close.

    An identification can carry the shared edge of two glued faces to
    itself, so the combinatorial state repeats long before the development
    has wrapped all the way around the edge.  The walk therefore composes
    pairings until the accumulated pair is central; that composite is the
    holonomy of one full turn and its two factors must be equal central
    powers, else the identifications do not define a quotient.  Chains that
    reach an unpaired face are skipped as boundary chains; with a complete
    pairing report there are none.  Returns one (central exponent, cycle
    length) record per edge class.
    """
    partner = report.partner_of()
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fi, face in enumerate(poly.faces):
        for i, j in zip(face.loop, face.loop[1:] + face.loop[:1]):
            edge_faces.setdefault((min(i, j), max(i, j)), []).append(fi)

    visited = set()
    records = []
    for edge, inc in edge_faces.items():
        for f0 in inc:
            if (f0, edge) in visited:
                continue
            g_tot1, g_tot2 = COVER_IDENTITY, COVER_IDENTITY
            f, e = f0, edge
            steps = 0
            boundary = False
            while True:
                visited.add((f, e))
                pr = partner.get(f)
                if pr is None:
                    boundary = True
                    break
                vmap = dict(pr.vertex_map)
                e2 = (min(vmap[e[0]], vmap[e[1]]), max(vmap[e[0]], vmap[e[1]]))
                g_tot1 = cover_mul(pr.g1, g_tot1)
                g_tot2 = cover_mul(pr.g2, g_tot2)
                others = [x for x in edge_faces[e2] if x != pr.face_j]
                if len(others) != 1:
                    raise RuntimeError(f"edge {e2} has ambiguous continuation")
                steps += 1
                f, e = others[0], e2
                try:
                    n1, n2 = as_central_power(g_tot1), as_central_power(g_tot2)
                    break
                except ArithmeticError:
                    if steps > 200:
                        raise RuntimeError("edge cycle failed to close") from None
            if boundary:
                continue
            if (f, e) != (f0, edge):
                raise RuntimeError(
                    "central edge holonomy did not return to its start state"
                )
            if n1 != n2:
                raise RuntimeError(
                    f"edge cycle composition ({n1}, {n2}) is not a diagonal centre"
                )
            records.append((n1, steps))
    return records
