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

with honesty checks at each stage: every wall must meet the premise under
which its linear functional decides the exact sheet-aware predicate (see
`membership_mask`), the face complex must close up to a manifold sphere,
and every claimed pairing carries both a geometric vertex-matching
certificate and a word certificate placing the left factor in the acting
group.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cover import (
    CENTRAL_Z_TOL,
    COVER_IDENTITY,
    CoverElement,
    LevelConfig,
    as_central_power,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
    R_param,
    series_signature,
)
from .disc import TriangleGroupData
from .halfspaces import _chart_cone, _cover_product

VERTEX_MERGE_TOL = 1e-8
PLANE_INCIDENCE_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
PAIRING_MATCH_TOL = 1e-7
_DET_FLOOR = 1e-12
_COND_LIMIT = 1e8
_SIGMA_TOL = 1e-12
_ORBIT_TOL = 1e-11
_SEED_SLACK = 2.0
_SEED_MEMBERSHIP_TOL = 1e-6
_SEED_INCIDENCE_TOL = 1e-7
# Most syllables of a pairing certificate.  A word u^a v^s (D^3)^tau
# (C^k)^j has at most 4 by construction (`_certificate`); at 3 some face
# stays unpaired at every admissible k <= 50 of either series.
WORD_BUDGET = 8

_LABEL_ORDER = {"a": 0, "b": 1, "c": 2, "slab": 3}
# wall letters of one union group; each letter after a adds a trailing D
_SERIES_LETTERS = {"E": "ab", "Z": "abc"}

def _parts(gs):
    """The z, w and phi arrays of a list of cover elements."""
    return (
        np.array([g.z for g in gs], dtype=complex),
        np.array([g.w for g in gs], dtype=complex),
        np.array([g.phi for g in gs], dtype=float),
    )


def linearize(gs):
    """Restrict the functionals of the walls E_g, g in gs, to the slab chart:
    the normals (W, 3) and constants (W,) of value = normal . x + constant.

    <pi(g), p> = Re(z_g) x1 + Im(z_g) x2 - Im(w_g) s - Re(w_g) on points
    p = (x1 + i x2, 1 + i s).  The wall sits at value == -1; side I keeps
    value <= -1, side H keeps value >= -1.  The functional does not depend
    on the level.  It decides the exact wall rule on the whole cone wherever
    the premise of the lemma in `membership_mask` holds, and
    `series_constraints` checks that premise for every wall it builds.
    """
    z, w, _ = _parts(gs)
    return np.column_stack([z.real, z.imag, -w.imag]), -w.real


def _in_slab_cone(pts: np.ndarray) -> np.ndarray:
    """Which chart points lie inside the cone, with a relative margin
    1e-12: x1^2 + x2^2 < 1 + s^2, that is |Z| < |W|."""
    return pts[:, 0] ** 2 + pts[:, 1] ** 2 < (1.0 + pts[:, 2] ** 2) * (1.0 - 1e-12)


@dataclass(frozen=True)
class Wall:
    label: str
    g: CoverElement
    side: str  # "I" or "H"


@dataclass(frozen=True)
class ConstraintSet:
    """The walls of one series level and their plane table, one row per
    wall in `all_walls()` order, derived from the walls' elements when the
    set is made (`dataclasses.replace` derives it afresh): the functionals
    normals . x + constants (`linearize`) and the unit-normal planes
    unit_normals . x = offsets.  A degenerate normal raises RuntimeError.

    config is the level's lift (`lift_level`), and tri and D are its own
    triangle group and generator D, not copies: every later stage reads
    the level's group data from here."""

    series: str
    k: int
    period: int
    config: LevelConfig
    tri: TriangleGroupData
    D: CoverElement
    groups: tuple  # tuple of tuples of Wall, one tuple per union index m
    slab: tuple  # the two H-side Walls
    exp_d: int  # a0 = R_v(8 pi / 3) D^exp_d C^exp_c
    exp_c: int
    normals: np.ndarray = field(init=False, repr=False, compare=False)
    constants: np.ndarray = field(init=False, repr=False, compare=False)
    unit_normals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        walls = self.all_walls()
        normals, constants = linearize([w.g for w in walls])
        # a stack of dot products rounds as `np.linalg.norm` of each row
        scale = np.sqrt((normals[:, None, :] @ normals[:, :, None])[:, 0, 0])
        small = np.flatnonzero(scale < 1e-12)
        if len(small):
            raise RuntimeError(f"degenerate wall functional for {walls[small[0]].label}")
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "unit_normals", normals / scale[:, None])
        object.__setattr__(self, "offsets", (-1.0 - constants) / scale)

    def all_walls(self):
        out = [w for grp in self.groups for w in grp]
        out.extend(self.slab)
        return out


def series_constraints(series: str, config: LevelConfig) -> ConstraintSet:
    """Constraint families of the fundamental domain for one series level,
    from the level's lift `config` (`lift_level` of `series_signature`).

    The base element is a0 = R_v(8 pi / 3) D^(2 lam p - 1) C^(-2(lam k + 2)/3)
    for series E, with D-exponent 2 lam p - 2 for series Z, where p is the
    triangle order.
    The indexed family comes from conjugation by half-step rotations about
    the origin, b by a trailing D (and c by one more for series Z); the
    family is exactly periodic with period 2 p because the full-turn
    conjugator is central, so one period of indices is kept: 2 p union
    groups, each with every letter of the series.

    Every wall must meet the premise of the lemma in `membership_mask`,
    |phi_g| < pi/2 and |z_g| < |w_g|, under which its chart functional
    decides its exact rule on the whole cone; else RuntimeError names the
    wall and its margin pi/2 - |phi_g|.  The check is in closed form, on
    each wall's (z, w, phi) alone.  A wall stores only (label, g, side);
    the set derives its plane table from the g's once (`ConstraintSet`).
    The level k, the triangle group and D are the lift's own; a lift of
    another series' signature raises ValueError.
    """
    k, p_tri = config.k, config.p_tri
    if series_signature(series, k) != config.signature:
        raise ValueError(f"the lift {config.signature} is not of series {series!r} at k={k}")
    tri, D = config.tri, config.gens["D"]
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
    groups = []
    for m in range(period):
        conj = cover_pow(step, m)
        conj_inv = cover_pow(step, -m)
        a_m = cover_mul(cover_mul(conj, a0), conj_inv)
        members = [a_m]
        for _ in letters[1:]:
            members.append(cover_mul(members[-1], D))
        groups.append(tuple(
            Wall(f"{letter}[{m}]", g, "I")
            for letter, g in zip(letters, members)
        ))

    slab_walls = tuple(
        Wall(name, g, "H")
        for g, name in ((D, "slab[D]"), (cover_inv(D), "slab[D^-1]"))
    )
    cs = ConstraintSet(
        series=series,
        k=k,
        period=period,
        config=config,
        tri=tri,
        D=D,
        groups=tuple(groups),
        slab=slab_walls,
        exp_d=exp_d,
        exp_c=exp_c,
    )
    for wall in cs.all_walls():
        g = wall.g
        margin = math.pi / 2.0 - abs(g.phi)
        if not (margin > 0.0 and abs(g.z) < abs(g.w)):
            raise RuntimeError(
                f"sheet window premise fails for wall {wall.label} "
                f"(z={g.z:.6g}, w={g.w:.6g}, phi={g.phi:.6g}): margin "
                f"pi/2 - |phi| = {margin:.6g}, |z|/|w| = {abs(g.z) / abs(g.w):.6g}"
            )
    return cs


def _terms(cs: ConstraintSet):
    """The membership terms in the order `_wall_pass` runs them, the two
    slab walls, then the union groups, each as (its rows of the plane
    table, a slice of `all_walls()` order, and its side)."""
    ends = np.cumsum([0] + [len(grp) for grp in cs.groups]).tolist()
    terms = [(slice(ends[-1] + i, ends[-1] + i + 1), w.side) for i, w in enumerate(cs.slab)]
    return terms + [(slice(a, b), grp[0].side) for a, b, grp in zip(ends, ends[1:], cs.groups)]


def _term_holds(lin: np.ndarray, side: str, tol: float, axis: int = 0) -> np.ndarray:
    """Per membership term and point, whether the term holds at tol, from
    the chart functional values lin of its walls, a term's walls along
    axis: a union group (side I) where any member reads <= -1 + tol, a
    slab wall (H, a group of one) where it does not read < -1 - tol."""
    return (~(lin < -1.0 - tol) if side == "H" else lin <= -1.0 + tol).any(axis)


def _term_incidence(lin: np.ndarray, row_tol: np.ndarray, axis: int = 0):
    """Per wall of membership terms, from the chart functional values lin
    (a term's walls along axis) and the wall tolerances row_tol
    (`_row_tol`, broadcast against lin): whether it is on its plane,
    |value + 1| <= row_tol, and whether it is active, on it where no wall
    of its term holds strictly (value < -1 - row_tol); there the group is
    slack and the plane is invisible to the boundary.  For a slab wall, a
    group of one, that condition is void."""
    on = np.abs(lin + 1.0) <= row_tol
    return on, on & ~(lin < -1.0 - row_tol).any(axis, keepdims=True)


def _row_tol(cs: ConstraintSet, incidence_tol: float) -> np.ndarray:
    """Per wall, incidence_tol in unit-normal distance: incidence_tol
    max(1, |n|), n its chart normal (absolute below |n| = 1)."""
    return incidence_tol * np.maximum(1.0, np.linalg.norm(cs.normals, axis=1))


def _wall_pass(cs: ConstraintSet, pts: np.ndarray, tol: float, incidence_tol=None):
    """Membership of chart points at tol and, when incidence_tol is given,
    the active incidences at incidence_tol of the points that end inside,
    from the chart functionals of each membership term (`_term_holds`,
    `_term_incidence`).

    Returns the mask and the incidences as (point, wall) index arrays, a
    point a row of pts and a wall a row in `all_walls()` order, sorted by
    point and then by wall (None without incidence_tol).  A wall is active
    at a point on it (|value + 1| <= e) where no member of its union group
    holds strictly (value < -1 - e).  e = incidence_tol max(1, |n|) per
    wall (`_row_tol`), n its chart normal: incidence is tested in
    unit-normal distance (absolutely where |n| < 1), as the normals grow
    with k (|n| up to 143 at E400, 713 at
    Z1000 and 1,322 at E3713) and the rounding of value with them.  Over
    the vertices at Z14, E40, Z50, E400, Z449, E1000, Z1000, Z1400, E3713,
    E3715 and Z1856, a wall through a vertex lies at most 2.4e-12 from it
    in unit-normal distance (Z1856) and every other wall at least 7.4e-7
    (E3713).  Raw, a wall through a vertex reads up to 3.2e-9 (Z1856): an
    absolute test at 1e-9 lost incidences, and the builds, at Z1400,
    Z1550, Z1856, E3500 and E3713.  The incidences are kept
    as index pairs throughout, so no walls-by-points table is built.  See
    `membership_mask` for the terms and the lemma; the live points are
    compacted only once an eighth of them is decided (a decided point
    stays decided whatever later terms say).

    The seed pass runs it (`_pinned`).  The vertex search decides its
    keepers once per sigma-orbit by the same rules (`_pin_orbits`), and
    `build_polyhedron` reads the incidences the search decided, so no
    build runs it over the vertices; a full pass over the vertices is the
    test oracle of the per-orbit incidences.
    """
    pts = np.asarray(pts, dtype=float)
    live = np.flatnonzero(_in_slab_cone(pts))  # original rows of the undecided points
    sub = pts[live]
    inside = np.ones(len(live), dtype=bool)
    hit_walls, hit_points = [], []
    if incidence_tol is not None:
        row_tol = _row_tol(cs, incidence_tol)[:, None]
    for rows, side in _terms(cs):
        lin = (sub @ cs.normals[rows, :, None])[..., 0]
        lin += cs.constants[rows, None]  # in place: one (L, n) array per term
        inside &= _term_holds(lin, side, tol)
        if incidence_tol is not None:
            on_rows, cols = np.nonzero(_term_incidence(lin, row_tol[rows])[1] & inside)
            hit_walls.append(rows.start + on_rows)
            hit_points.append(live[cols])
        keep = np.flatnonzero(inside)
        if 8 * len(keep) <= 7 * len(live):
            live, sub, inside = live[keep], sub[keep], inside[keep]
    out = np.zeros(len(pts), dtype=bool)
    out[live[inside]] = True
    if incidence_tol is None:
        return out, None
    wall, point = np.concatenate(hit_walls), np.concatenate(hit_points)
    kept = np.flatnonzero(out[point])
    kept = kept[np.lexsort((wall[kept], point[kept]))]
    return out, (point[kept], wall[kept])


def membership_mask(cs: ConstraintSet, pts: np.ndarray, tol: float = MEMBERSHIP_TOL):
    """Exact sheet-aware membership of chart points in the domain, read
    from the chart functionals of the plane table of `cs` alone.

    Membership is a conjunction of terms: the two slab walls (H side), then
    one term per union group, which holds where any of its members (I side)
    holds.  The exact rule of a wall g at a cone point p
    (`halfspaces.wall_masks` on `batch_wall`) holds where
    val = <g, p> <= -1 + tol, strictly where val < -1 - tol, and puts p on
    the wall where |val + 1| <= tol, each only inside the window
    |phi| < pi/2 of the sheet coordinate phi = phi(g^{-1} p).  The chart
    functional, the wall's row of the table, is val up to rounding
    (2.8e-14 at most, measured), and the window decides nothing, by this
    lemma.

    Lemma.  Write p = (Z, W) = (x1 + i x2, 1 + i s) and
    w' = conj(w_g) W - conj(z_g) Z, the w of g^{-1} p that `batch_wall`
    forms (`_cover_product`).  Then val = -Re w', and
    phi = -phi_g + arctan s + arg(1 - conj(z_g) Z / (conj(w_g) W)) is
    arg w' mod 2 pi.  Suppose |phi_g| < pi/2 and |z_g| < |w_g|.  On the
    cone |Z| < |W|, so the bracket has positive real part and
    |phi| < |phi_g| + |arctan s| + pi/2 < 3 pi/2.  Every mask above needs
    val <= -1 + tol < 0, so Re w' > 0 and the principal arg w' lies in
    (-pi/2, pi/2); it is the only value of arg w' within 3 pi/2 of 0, so
    phi is that value and the window is open wherever a mask can hold, at
    every cone point, in the slab or not.

    `series_constraints` checks the premise for every wall.  Over every
    admissible k <= 50 of both series the smallest margin pi/2 - |phi_g|
    is 0.58 (the E50 slab walls; 0.54 at E200), and the largest
    |z_g| / |w_g| is 0.9995 (Z50).

    The conjunction short-circuits: a point that fails a term stays outside
    whatever later terms say, and is dropped, so the mask is that of the
    full walls-by-points table at the cost of one (L, n) array per term,
    from its L rows of the table.  The terms run in `_wall_pass`, which the
    seed pass calls directly (`_pinned`) to get the active incidences from
    the same values.
    """
    return _wall_pass(cs, pts, tol)[0]


def _s_axis_rotation(psi: float) -> np.ndarray:
    """The matrix of the chart rotation through psi about the s-axis."""
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _sigma_power(cs: ConstraintSet, rows, m):
    """The walls that sigma^m carries the walls `rows` to, in
    `all_walls()` order, with m broadcast against rows: a group wall moves
    m union groups on, mod the period, and a slab wall stays.  This is the
    permutation of `_sigma_permutation` to the power m."""
    n_letters = len(cs.groups[0])
    n_group = n_letters * len(cs.groups)
    return np.where(rows < n_group, (rows + n_letters * m) % n_group, rows)


def _sigma_rotate(cs: ConstraintSet, pts: np.ndarray, m) -> np.ndarray:
    """Chart points turned by sigma^m, the rotation through m pi/p about
    the s-axis, with m broadcast against the rows of pts."""
    psi = np.asarray(m) * (math.pi / cs.tri.p)
    c, s = np.cos(psi), np.sin(psi)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([c * x - s * y, s * x + c * y, pts[:, 2]])


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
            f"only {len(cs.groups)} of {cs.period} union groups are present; "
            "the wall set is not invariant under sigma"
        )
    for m, grp in enumerate(cs.groups):
        labels = [w.label for w in grp]
        if labels != [f"{c}[{m}]" for c in letters]:
            raise RuntimeError(f"union group {m} has walls {labels}, not {letters}")
    walls = cs.all_walls()
    perm = _sigma_power(cs, np.arange(len(walls)), 1)
    normals, offsets = cs.unit_normals, cs.offsets
    rot = _s_axis_rotation(math.pi / cs.tri.p)
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


def _ranks(normals: np.ndarray, point: np.ndarray, wall: np.ndarray, tol: float, n: int):
    """Per point 0..n-1 of the (point, wall) incidence pairs, sorted by
    point and then by wall, the rank of the rows normals[its walls]: the
    singular values above tol, as `np.linalg.matrix_rank` counts them (0
    for a point without pairs).  The points with equally many walls are
    stacked into one `np.linalg.svd` call, which runs the same LAPACK
    routine on each matrix, so every rank is that of the per-matrix call."""
    per_pair = np.bincount(point, minlength=n)[point]
    rank = np.zeros(n, dtype=int)
    for c in np.unique(per_pair).tolist():
        sel = per_pair == c
        # each point's c walls are consecutive pairs, in ascending order
        singular = np.linalg.svd(normals[wall[sel].reshape(-1, c)], compute_uv=False)
        rank[point[sel][::c]] = (singular > tol).sum(axis=1)
    return rank


def _rank_three(cs, point, wall, rank_tol, n):
    """Per point 0..n-1 of the (point, wall) incidence pairs, whether its
    active walls have rank 3 (`_ranks` at rank_tol); only the points with
    at least three incidences are ranked."""
    many = np.bincount(point, minlength=n)[point] >= 3
    return _ranks(cs.unit_normals, point[many], wall[many], rank_tol, n) == 3


def _pinned(cs, pts, membership_tol, incidence_tol, rank_tol):
    """Indices of the points in the domain (membership at membership_tol)
    pinned by active walls (incidence at incidence_tol) of rank 3
    (`_rank_three` at rank_tol), all from one `_wall_pass`."""
    point, wall = _wall_pass(cs, pts, membership_tol, incidence_tol)[1]
    return np.flatnonzero(_rank_three(cs, point, wall, rank_tol, len(pts)))


def _decide_terms(cs: ConstraintSet, pts: np.ndarray, rows: np.ndarray, power, tol, incidence_tol):
    """Membership and incidence of chart points on whole membership terms,
    by the rules of `_wall_pass` (`_term_holds`, `_term_incidence`), each
    point on its own chart values of the sigma^power images of `rows` (the
    rows of whole terms, ascending; power broadcast against the points).
    Returns, per point and term, whether the term holds at tol and whether
    a wall of it is on its plane; the (points, rows) mask of the active
    walls of the points where every one of those terms holds; the walls,
    row for row; and the rows per term.  The terms are those of `_terms`
    in `all_walls()` order: the union groups, whose walls
    `_sigma_permutation` has checked to be the same letters in order, one
    table (points, groups, letters), then each slab wall alone."""
    walls = _sigma_power(cs, rows, np.asarray(power)[:, None])
    lin = (cs.normals[walls] @ pts[:, :, None])[..., 0]
    lin += cs.constants[walls]
    row_tol = _row_tol(cs, incidence_tol)[walls]
    n_letters = len(cs.groups[0])
    split = np.searchsorted(rows, n_letters * len(cs.groups))  # the slab rows come last
    holds, near, active = [], [], []
    for part, side, width in ((slice(None, split), "I", n_letters), (slice(split, None), "H", 1)):
        shape = (len(pts), -1, width)
        values = lin[:, part].reshape(shape)
        holds.append(_term_holds(values, side, tol, axis=2))
        on, act = _term_incidence(values, row_tol[:, part].reshape(shape), axis=2)
        near.append(on.any(axis=2))
        active.append(act.reshape(len(pts), -1))
    holds = np.hstack(holds)
    active = np.hstack(active) & holds.all(axis=1)[:, None]
    size = np.r_[np.full(split // n_letters, n_letters), np.ones(len(rows) - split, dtype=int)]
    return holds, np.hstack(near), active, walls, size


# A fixed unit direction off every symmetry axis of the vertex sets: they
# are mirror-symmetric, so many points share x1, and a window on x1 scans
# about two pairs for each close one (Z1000).
_WINDOW_DIRECTION = np.array([1.0, 1.0 / math.e, 1.0 / math.pi])


def _window_key(points: np.ndarray) -> np.ndarray:
    """The projections that `_close_pairs` windows on: points (n, d), d = 2
    or 3, on the first d coordinates of _WINDOW_DIRECTION, normalised."""
    u = _WINDOW_DIRECTION[: points.shape[1]]
    return points @ (u / np.linalg.norm(u))


def _window_order(points: np.ndarray) -> np.ndarray:
    """The argsort of `_window_key(points)`, the `order` of `_close_pairs`."""
    return np.argsort(_window_key(points))


def _close_pairs(rows: np.ndarray, points: np.ndarray, tol: float, order=None):
    """The (row, point) index pairs whose projections on a unit direction
    (`_window_key`) differ by at most 2 tol, with the distance
    |points[point] - rows[row]| of each.

    The points are sorted by their projection (`order`, from
    `_window_order(points)`, when the caller has it) and each row's window
    found by `searchsorted`, so every pair within tol is among them: a
    projection moves no more than the distance, and the margin of 2 tol
    covers the rounding of the difference for coordinates far below
    tol / eps in size.
    """
    x = _window_key(points)
    if order is None:
        order = np.argsort(x)
    x = x[order]
    key = _window_key(rows)
    lo = np.searchsorted(x, key - 2.0 * tol, side="left")
    count = np.searchsorted(x, key + 2.0 * tol, side="right") - lo
    row = np.repeat(np.arange(len(rows)), count)
    point = order[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())]
    return row, point, np.linalg.norm(points[point] - rows[row], axis=1)


def _merge_vertices(candidates: np.ndarray, tol: float) -> np.ndarray:
    """Which candidates, in order, the greedy merge keeps: a candidate is
    dropped when it lies within tol of an earlier kept one.  Returns the
    kept mask.

    The close pairs (`_close_pairs`) decide it in rounds.  A candidate is
    dropped once an earlier close one is kept, and kept once every earlier
    close one is dropped; the first undecided candidate is decided in each
    round, so chains of candidates resolve as in the sequential loop.
    """
    row, point, dist = _close_pairs(candidates, candidates, tol)
    close = (point < row) & (dist <= tol)
    later, earlier = row[close], point[close]
    kept = np.zeros(len(candidates), dtype=bool)
    decided = np.zeros(len(candidates), dtype=bool)
    while not decided.all():
        blocked = np.zeros(len(candidates), dtype=bool)
        blocked[later[kept[earlier]]] = True
        pending = np.zeros(len(candidates), dtype=bool)
        pending[later[~decided[earlier]]] = True
        keep = ~decided & ~blocked & ~pending
        kept |= keep
        decided |= keep | blocked
    return kept


def _seed_window(cs: ConstraintSet) -> np.ndarray:
    """The walls the seed triples are drawn from, ascending in
    `all_walls()` order, group 0 first: the union groups at offsets
    {0, +-1} (E) or {0, +-1, +-k, +-(k + 1)} (Z) from group 0, mod the
    period, and the slab pair; 8 walls for E, 23 for Z (17 at Z1).

    An observation, not a theorem: the seeds from the window equal those
    of the whole sector (kept as a test oracle) bit for bit at every
    admissible k <= 50 of both series and at E80, E173, Z110, E400 and
    Z160.
    """
    steps = (0, 1) if cs.series == "E" else (0, 1, cs.k, cs.k + 1)
    groups = np.unique(np.array(steps + tuple(-m for m in steps)) % cs.period)
    n_letters = len(cs.groups[0])
    n_group = n_letters * len(cs.groups)
    group_walls = (n_letters * groups[:, None] + np.arange(n_letters)).ravel()
    return np.concatenate([group_walls, [n_group, n_group + 1]])


def _seed_triples(cs: ConstraintSet) -> np.ndarray:
    """The seeds of `enumerate_vertices`: the triples of `_seed_window`
    walls whose first wall lies in union group 0 that pass every filter
    at its seed setting, in lexicographic order."""
    window = _seed_window(cs)
    combos = np.array(list(itertools.combinations(range(len(window)), 3)))
    triples = window[combos[combos[:, 0] < len(cs.groups[0])]]
    triples, pts = _solve_triples(cs.unit_normals, cs.offsets, triples, _SEED_SLACK)
    return triples[_pinned(
        cs, pts, _SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL, 1e-8 / _SEED_SLACK
    )]


def _triple_keys(triples: np.ndarray, n_walls: int) -> np.ndarray:
    """One integer per sorted wall triple, ascending in the lexicographic
    order of the triples."""
    return (triples[:, 0] * n_walls + triples[:, 1]) * n_walls + triples[:, 2]


def _orbit_candidates(cs: ConstraintSet, seeds: np.ndarray):
    """The candidates of `enumerate_vertices` in (s, x1, x2) order (ties
    in triple order), each with its label (m, s): it is solved from the
    sorted triple sigma^m (seed s), m the first power and then s the first
    seed that gives the triple.  The seeds' sigma-orbits come from one
    broadcast of the powers of sigma (`_sigma_power`); one integer key per
    sorted triple deduplicates them into lexicographic order, and the
    regular triples are solved (`_solve_triples`)."""
    n_walls, period = len(cs.all_walls()), cs.period
    images = np.sort(_sigma_power(cs, seeds, np.arange(period)[:, None, None]), axis=2)
    keys, first = np.unique(_triple_keys(images.reshape(-1, 3), n_walls), return_index=True)
    triples = np.column_stack([keys // n_walls**2, keys // n_walls % n_walls, keys % n_walls])
    solved, candidates = _solve_triples(cs.unit_normals, cs.offsets, triples)
    first = first[np.searchsorted(keys, _triple_keys(solved, n_walls))]
    order = np.lexsort(
        (
            np.round(candidates[:, 1], 10),
            np.round(candidates[:, 0], 10),
            np.round(candidates[:, 2], 10),
        )
    )
    return (candidates[order], *np.divmod(first[order], len(seeds)))


def _orbit_match(cs: ConstraintSet, pts: np.ndarray, label_m, label_s):
    """Per point, its representative (a row of pts) and the power n of
    sigma with point = sigma^n rep within _ORBIT_TOL.

    A point of label (m, s) is sigma^m of the point of seed s, up to
    rounding, so sigma^-m turns it back to the seed's own frame.  In that
    frame the first point of each seed stands for its seed, and a seed
    joins the first seed (in seed order) that some sigma^d carries onto it
    within _ORBIT_TOL, d read off their angles about the s-axis: seeds on
    one vertex orbit join one representative, the first point of its
    first seed.  Every point is then checked against its representative
    turned by its power, and one that lies farther than _ORBIT_TOL raises
    RuntimeError naming it (its row) and the residual; there is no other
    path."""
    period, step = cs.period, math.pi / cs.tri.p
    _, first = np.unique(label_s, return_index=True)
    base = _sigma_rotate(cs, pts[first], -label_m[first])
    angle = np.arctan2(base[:, 1], base[:, 0])
    turn = np.rint((angle[None, :] - angle[:, None]) / step).astype(int) % period
    a, b = np.divmod(np.arange(len(first) ** 2), len(first))
    gap = np.linalg.norm(_sigma_rotate(cs, base[a], turn[a, b]) - base[b], axis=1)
    root = np.argmax(gap.reshape(len(first), -1) <= _ORBIT_TOL, axis=0)
    seed = np.searchsorted(label_s[first], label_s)
    rep = first[root[seed]]
    power = (label_m + turn[root[seed], seed] - label_m[rep]) % period
    resid = np.linalg.norm(pts - _sigma_rotate(cs, pts[rep], power), axis=1)
    worst = int(np.argmax(resid))
    if resid[worst] > _ORBIT_TOL:
        raise RuntimeError(
            f"vertex {worst} at {pts[worst].tolist()} lies {resid[worst]:.3g} from "
            f"sigma^{power[worst]} of vertex {rep[worst]}: beyond {_ORBIT_TOL:g}"
        )
    return rep, power


def _pin_orbits(cs: ConstraintSet, pts: np.ndarray, of: np.ndarray, power: np.ndarray):
    """Which of the points `_pinned` keeps at the vertex setting
    (membership at MEMBERSHIP_TOL, incidence at PLANE_INCIDENCE_TOL, rank
    at 1e-8), and the (point, wall) incidence pairs of those it keeps,
    each point being sigma^power of its representative (row `of`).

    One walls-by-representatives table (`_decide_terms` on every row)
    decides each representative's cone test and far terms, those with no
    wall on its plane, and so those of its whole orbit; each point decides
    its near terms, the sigma^power images of its representative's, on
    its own chart values (`_decide_terms` on their rows).  A point
    whose active walls are the images of its representative's has its
    rank; the others are ranked (`_rank_three`)."""
    reps = np.unique(of)
    every = np.arange(len(cs.all_walls()))
    holds, near, _, _, size = _decide_terms(
        cs, pts[reps], every, np.zeros(len(reps), dtype=int), MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL
    )
    far_ok = _in_slab_cone(pts[reps]) & (holds | near).all(axis=1)
    near = np.repeat(near, size, axis=1)
    good = np.zeros(len(pts), dtype=bool)
    point, wall = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for i, r in enumerate(reps.tolist()):
        if not near[i].any():
            continue  # no wall on its plane: nothing pins the orbit
        members = np.flatnonzero(of == r)
        holds, _, active, walls, _ = _decide_terms(
            cs, pts[members], every[near[i]], power[members], MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL
        )
        own = np.searchsorted(members, r)
        # the representative and the points whose active walls are not the images of its own
        check = np.flatnonzero(~(active == active[own]).all(axis=1) | (members == r))
        at, col = np.nonzero(active[check])
        rank_three = _rank_three(cs, at, walls[check][at, col], 1e-8, len(check))
        ranked = np.full(len(members), rank_three[np.searchsorted(check, own)])
        ranked[check] = rank_three
        good[members] = far_ok[i] & holds.all(axis=1) & ranked
        at, col = np.nonzero(active & good[members][:, None])
        point.append(members[at])
        wall.append(walls[at, col])
    return good, (np.concatenate(point), np.concatenate(wall))


@dataclass(frozen=True)
class VertexSet:
    """The vertices of `enumerate_vertices`, with their active walls and
    sigma-orbits.  point and wall are the (vertex, wall) incidence pairs,
    sorted by vertex and then by wall; orbit numbers each vertex's
    sigma-orbit, and power is the n with vertex = sigma^n (the orbit's
    representative)."""

    points: np.ndarray
    point: np.ndarray
    wall: np.ndarray
    orbit: np.ndarray
    power: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def enumerate_vertices(cs: ConstraintSet) -> VertexSet:
    """Vertices of the domain: all valid triple-plane intersections, with
    their active walls and sigma-orbits (`VertexSet`).

    Planes are the wall planes of every family member and the two slab
    planes.  A triple of planes yields a vertex when it is regular
    (`_solve_triples`), its point lies in the cone and passes the
    membership predicate, and the point is pinned by rank-3 many active
    walls: what `_pinned` decides at MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL
    and rank tolerance 1e-8, here decided per sigma-orbit (below).  No
    table of walls by vertices is built.  The vertices are merged at
    VERTEX_MERGE_TOL, first candidate in (s, x1, x2) order wins (ties in
    triple order), and returned in that order; the greedy merge is
    decided on the close pairs of a sorted window (`_merge_vertices`), not
    by a loop over the candidates.

    The merge runs first and only its keepers are pinned.  A keeper that
    fails the pin is dropped, the rest merged again, and the new keepers
    pinned, until every keeper passes.  That is the merge of the pinned
    candidates.  Lemma: removing candidates that a greedy merge did not
    keep does not change it, since each candidate's fate depends only on
    the earlier kept ones.  The pin decides each point on its own, so the
    candidates that fail it are either dropped keepers or candidates the
    final merge does not keep, and removing the latter changes nothing.
    At Z14 the 1,364 candidates merge to 248 keepers, all pinned, in one
    round.

    The keepers are pinned per sigma-orbit.  Each candidate is solved from
    sigma^m of a seed triple (its label), so `_orbit_match` gives each
    keeper a representative and the power n with keeper = sigma^n
    (representative) within _ORBIT_TOL = 1e-11, in O(V), and raises
    RuntimeError naming any keeper that lies farther; there is no other
    path.  A keeper lies at most 2.5e-12 from its turned representative
    (Z1856; 2.2e-12 at E3713, 1.2e-12 at Z1000).  A round after the first
    matches only its stand-ins, so when there was one, the final keepers
    are matched once more, all together: a stand-in then joins the orbit
    of the keeper it replaces, whose power it fills (`detect_symmetry`
    reads the orbits).  `_pin_orbits` decides what is far
    from every threshold once per orbit, from one walls-by-representatives
    table (2 representatives for E, 4 for Z), and what is not at each
    keeper, on its own chart values.  The argument: sigma carries each
    plane onto its image within _SIGMA_TOL per step, so in unit-normal
    distance the wall sigma^n w reads at a keeper x within
    _ORBIT_TOL + n _SIGMA_TOL (1 + |x|) of w at the representative: 1.6e-8
    at most from the tolerances (n < period <= 7,436, |x| <= 1.15), and
    3.2e-11 from the measured step residual (1.4e-15).  Every decision
    carried to the orbit has a wider margin: the cone (a vertex lies at
    least 1.6e-3 inside, in 1 + s^2 - x1^2 - x2^2), a far term, one with
    no wall on its plane at the representative (each such wall lies at
    least 7.4e-7 from the vertex, so the term's verdict, and its having
    no wall on its plane, hold at every keeper), and the rank (the
    smallest singular value of a vertex's active normals is at least
    0.14, against 1e-8; a turn keeps it).  That is a factor of 46 or more from
    the tolerances, 2.3e4 from the measured residuals.  The near terms
    are decided at each keeper instead: their incidences clear the bound
    (a wall on its plane reads at most 2.8e-12 and any other at least
    7.4e-7, against 1e-9), but MEMBERSHIP_TOL is tested on the raw
    functional, so in unit-normal distance a term held only by walls on
    their planes holds with margin MEMBERSHIP_TOL / |n| less the reading:
    7.6e-13 at E3713 and E3715 and 1.2e-17 at Z1400, inside the bound,
    and at Z1400 and Z1856 some keepers fail it that their
    representatives pass (8 and 137; stand-ins replace them).  (Margins over the vertices of every admissible
    k <= 50 and of E80, E173, Z110, Z160, E400, E1000, Z449, E3713,
    Z1000, E3715, Z1400 and Z1856.)

    Only O(W) of the C(W, 3) triples are solved.  There are only two
    slab walls, so some power of the rotation sigma (`_sigma_permutation`)
    moves a group wall of any triple into union group 0: every sigma-orbit
    of triples meets the sector of the triples whose first wall lies in
    group 0.  A seed pass (`_seed_triples`) keeps the triples of that
    sector that survive every filter at a looser setting: determinant
    floor and condition limit by a factor _SEED_SLACK, membership at
    _SEED_MEMBERSHIP_TOL, incidence at _SEED_INCIDENCE_TOL and rank at
    1e-8 / _SEED_SLACK.  Run over the whole sector this is a superset:
    sigma moves each plane by at most _SIGMA_TOL (about 1e-15 measured)
    and the wall values at a rotated point by rounding of the same order,
    far inside every loosening, and a looser filter keeps more (a wall is
    active where it is on the plane and no sibling holds strictly, and
    both widen with the tolerance).  So the sector image of every triple
    the full scan keeps is a seed.  The cone test is not loosened: the
    vertices lie at least 6% inside the cone up to E80.

    The seed pass solves only the sector triples whose other two walls
    lie in a fixed window next to group 0 (`_seed_window`), at most 631 at
    any level, and passes their points to one `_pinned` call over all the
    walls, whose `_wall_pass` runs the slab pair and union group 0 first
    and drops each point at the first term it fails.  The window is
    measured, not proved, and
    closure does not guard it: a window of group 0 and the slab pair alone
    finds 4 of the 44 seeds at Z14, yet its vertices (off in the last
    bits) close up into a sphere with every face paired.  Until the build
    checks its volume against the covolume, the guards are the test that
    the window's seeds equal the whole sector's bit for bit, and the
    pinned artifact bytes.

    The seeds' sigma-orbits, sorted and deduplicated into
    itertools.combinations order (`_orbit_candidates`), then go through the
    filters at their usual setting.  Every filter acts on each triple
    alone, so the survivors, their points and their order are those of
    the full scan, and so is the merge.  Every level tried has 14 seeds
    (E) or 44 (Z).
    """
    _sigma_permutation(cs)  # sigma must permute the walls' planes
    candidates, label_m, label_s = _orbit_candidates(cs, _seed_triples(cs))
    alive = np.ones(len(candidates), dtype=bool)
    rep = np.full(len(candidates), -1)  # per decided candidate, its representative
    power = np.zeros(len(candidates), dtype=int)  # and the power of sigma to it
    pairs = []  # (candidate, wall) incidences of the pinned candidates, per round
    kept = new = np.flatnonzero(_merge_vertices(candidates, VERTEX_MERGE_TOL))
    while len(new):
        of, power[new] = _orbit_match(cs, candidates[new], label_m[new], label_s[new])
        rep[new] = new[of]
        good, found = _pin_orbits(cs, candidates[new], of, power[new])
        pairs.append((new[found[0]], found[1]))
        if good.all():
            break
        alive[new[~good]] = False
        kept = np.flatnonzero(alive)[_merge_vertices(candidates[alive], VERTEX_MERGE_TOL)]
        new = kept[rep[kept] < 0]
    if not len(kept):
        raise RuntimeError("no vertices found; the constraint set is degenerate")
    if len(pairs) > 1:  # the stand-ins of later rounds join the orbits of the first
        of, power[kept] = _orbit_match(cs, candidates[kept], label_m[kept], label_s[kept])
        rep[kept] = kept[of]
    at = np.full(len(candidates), -1)
    at[kept] = np.arange(len(kept))
    candidate, wall = (np.concatenate(x) for x in zip(*pairs))
    keep = at[candidate] >= 0  # a pinned candidate a later merge dropped has none
    point, wall = at[candidate[keep]], wall[keep]
    order = np.argsort(point * len(cs.all_walls()) + wall)
    orbit = np.unique(rep[kept], return_inverse=True)[1]
    return VertexSet(candidates[kept], point[order], wall[order], orbit, power[kept])


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
    """The face complex of a build.  orbit and power are its vertices'
    sigma-orbits as `enumerate_vertices` matched them (`VertexSet`)."""

    vertices: np.ndarray
    faces: tuple
    edges: tuple
    orbit: np.ndarray = field(compare=False, repr=False)
    power: np.ndarray = field(compare=False, repr=False)

    @property
    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces)


def _pairs_within(rows: np.ndarray, size: np.ndarray, values: np.ndarray):
    """Per run of `size` consecutive entries of values starting at each of
    rows, every two of its entries (i < j in run order), and the run's
    first row; runs of one entry give none."""
    first, second, run = ([np.empty(0, dtype=int)] for _ in range(3))
    for c in np.unique(size[size >= 2]).tolist():
        at = rows[size == c]
        i, j = np.triu_indices(c, 1)
        first.append(values[at[:, None] + i].ravel())
        second.append(values[at[:, None] + j].ravel())
        run.append(np.repeat(at, len(i)))
    return np.concatenate(first), np.concatenate(second), np.concatenate(run)


def _skeleton_loops(walls, skeleton: np.ndarray, nv: int):
    """The loops of every wall's 1-skeleton, given as the keys
    (wall nv + i) nv + j of its edges (i < j), without repeats.  Returns
    each loop's wall and vertices, loop after loop, and where each loop
    starts: walls ascending, and a wall's loops by least vertex, each from
    it.  A vertex of degree other than two on a wall raises RuntimeError
    naming the wall and those vertices, the least such wall first.

    Each (wall, vertex) node has two neighbours.  Directed edge 2 n + e
    leaves node n to its e-th neighbour, and its successor leaves that
    neighbour by the other side; one walk per loop follows the successor
    array from the loop's least node."""
    node = np.r_[skeleton // nv, skeleton // nv**2 * nv + skeleton % nv]
    neighbour = np.r_[skeleton % nv, skeleton // nv % nv]
    order = np.lexsort((neighbour, node))
    nodes, degree = np.unique(node[order], return_counts=True)
    if (degree != 2).any():
        bad = nodes[degree != 2]
        first = bad[0] // nv
        raise RuntimeError(
            f"wall {walls[first].label}: 1-skeleton vertex degrees "
            f"{(bad[bad // nv == first] % nv).tolist()} != 2"
        )
    near = np.searchsorted(nodes, (nodes // nv * nv)[:, None] + neighbour[order].reshape(-1, 2))
    after = (2 * near + (near[near, 0] == np.arange(len(nodes))[:, None])).ravel().tolist()
    seen, seq, starts = bytearray(len(nodes)), [], []
    for n in range(len(nodes)):
        if seen[n]:
            continue
        starts.append(len(seq))
        e = 2 * n
        while True:
            seq.append(e >> 1)
            seen[e >> 1] = 1
            e = after[e]
            if e == 2 * n:
                break
    seq = nodes[np.array(seq, dtype=int)]
    return seq // nv, seq % nv, np.array(starts, dtype=int)


def build_polyhedron(cs: ConstraintSet, vertices: VertexSet) -> Polyhedron:
    """Assemble the face complex and validate that it is a closed surface.

    The walls at each vertex are its active walls, the (vertex, wall)
    pairs `enumerate_vertices` decided (`VertexSet`); no wall pass runs
    here.  Every two walls at a vertex meet there, and two vertices where
    the same two walls meet form an edge on every wall the two share;
    each wall's 1-skeleton is those edges.  The two ends of an edge lie on
    both its walls, so these pairs hold every edge.  A pair that is not an
    edge joins two vertices of one face that its boundary does not join,
    so in that wall's skeleton its ends get a third neighbour and the
    degree check below raises.  (At E1, Z5, Z14, E40, Z50, E173 and E400
    two walls meet at one vertex or along one edge, never at more than two
    vertices, and every edge lies on exactly two walls.)  Every vertex of a
    wall's skeleton must have degree exactly two there, every edge must lie
    in exactly two faces with opposite orientations, and the Euler
    characteristic must be 2; violations are hard errors, not warnings.
    With degree two, a wall's loops run along all its pairs: the pairs are
    the edges.

    All of it runs in arrays: the wall pairs met at each vertex, sorted on
    one integer key, give the meet table; the skeleton is the (wall,
    vertex, vertex) rows of its runs without repeats, and its loops are
    walked on a successor array (`_skeleton_loops`).  Each loop's Newell
    normal, one sum per loop, against its wall's outward normal orients
    it, and the directed-edge and stray-vertex checks are sorts.  A wall
    with more than one loop labels them wall#0, wall#1, ... by least
    vertex.
    """
    if len(vertices) == 0:
        raise RuntimeError("cannot build a polyhedron without vertices")
    walls = cs.all_walls()
    pts, point, wall = vertices.points, vertices.point, vertices.wall
    nv, n_walls = len(pts), len(walls)
    # the meet table: per two walls at a vertex, the pair's key and the vertex, by key then vertex
    count = np.bincount(point, minlength=nv)
    w1, w2, at = _pairs_within(np.cumsum(count) - count, count, wall)
    order = np.lexsort((point[at], w1 * n_walls + w2))
    key, meet = (w1 * n_walls + w2)[order], point[at][order]
    # two vertices where the same two walls meet: an edge, on both walls
    runs = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    i, j, run = _pairs_within(runs, np.diff(np.r_[runs, len(key)]), meet)
    edge_keys = np.unique(i * nv + j)
    edges = tuple(zip((edge_keys // nv).tolist(), (edge_keys % nv).tolist()))
    on = np.r_[key[run] // n_walls, key[run] % n_walls]
    loop_wall, loop_vertex, first = _skeleton_loops(
        walls, np.unique((on * nv + np.tile(i, 2)) * nv + np.tile(j, 2)), nv
    )

    bounds = np.r_[first, len(loop_vertex)]
    nxt = np.arange(1, len(loop_vertex) + 1)
    nxt[bounds[1:] - 1] = first
    a, c = pts[loop_vertex], pts[loop_vertex[nxt]]
    newell = np.add.reduceat(np.column_stack([
        (a[:, 1] - c[:, 1]) * (a[:, 2] + c[:, 2]),
        (a[:, 2] - c[:, 2]) * (a[:, 0] + c[:, 0]),
        (a[:, 0] - c[:, 0]) * (a[:, 1] + c[:, 1]),
    ]), first, axis=0)
    face_wall = loop_wall[first]
    inward = np.array([w.side != "I" for w in walls])[face_wall]
    sense = (newell * cs.unit_normals[face_wall]).sum(axis=1) * np.where(inward, -1.0, 1.0)
    flat = np.abs(sense) < 1e-12
    if flat.any():
        raise RuntimeError(f"wall {walls[face_wall[np.argmax(flat)]].label}: flat degenerate loop")

    faces = []
    loops_on = np.bincount(face_wall, minlength=n_walls)
    index = np.arange(len(first)) - np.searchsorted(face_wall, face_wall)
    vertex_list = loop_vertex.tolist()
    for w, li, lo, hi, forward in zip(
        face_wall.tolist(), index.tolist(), first.tolist(), bounds[1:].tolist(),
        (sense > 0).tolist(),
    ):
        loop = vertex_list[lo:hi]
        if not forward:
            loop = loop[:1] + loop[:0:-1]
        label = walls[w].label if loops_on[w] == 1 else f"{walls[w].label}#{li}"
        faces.append(Face(label=label, wall=walls[w], loop=tuple(loop)))
    faces.sort(key=lambda f: (_LABEL_ORDER.get(f.label.split("[")[0], 9), f.label))

    # every directed edge once, with its reversed twin: each edge lies in two faces
    size = np.array([len(f.loop) for f in faces], dtype=int)
    tail = np.fromiter(itertools.chain.from_iterable(f.loop for f in faces), int, size.sum())
    head_at = np.arange(1, len(tail) + 1)
    head_at[np.cumsum(size) - 1] = np.cumsum(size) - size
    head = tail[head_at]
    directed = tail * nv + head
    order = np.argsort(directed, kind="stable")
    twice = order[1:][directed[order][1:] == directed[order][:-1]]
    if len(twice):
        e = int(twice.min())
        raise RuntimeError(
            f"directed edge {(int(tail[e]), int(head[e]))} traversed twice; not orientable"
        )
    lonely = np.flatnonzero(~np.isin(head * nv + tail, directed))
    if len(lonely):
        e = int(lonely[0])
        raise RuntimeError(
            f"edge {(int(tail[e]), int(head[e]))} lacks its reversed twin; not closed"
        )
    if len(np.unique(tail)) != nv:
        raise RuntimeError("stray vertices not used by any face")

    poly = Polyhedron(
        vertices=pts, faces=tuple(faces), edges=edges,
        orbit=vertices.orbit, power=vertices.power,
    )
    if poly.euler_characteristic != 2:
        raise RuntimeError(
            f"Euler characteristic {poly.euler_characteristic} != 2"
        )
    return poly


def _nearest_vertices(image: np.ndarray, vertices: np.ndarray, tol: float, order=None):
    """Per image row, the index of the nearest vertex, or -1 when none lies
    within tol; of equally near vertices, the lowest index.

    Distances are measured only on the pairs of `_close_pairs` (with the
    vertices' sort `order`, when given), which hold every vertex within
    tol of a row, so this is the argmin of the row's full distance scan
    followed by the threshold.
    """
    row, vertex, dist = _close_pairs(image, vertices, tol, order)
    near = dist <= tol
    row, vertex, dist = row[near], vertex[near], dist[near]
    # per row, the smallest distance first, ties to the lowest index
    best = np.lexsort((vertex, dist, row))
    best = best[np.unique(row[best], return_index=True)[1]]
    out = np.full(len(image), -1)
    out[row[best]] = vertex[best]
    return out


def detect_symmetry(poly: Polyhedron, cs: ConstraintSet) -> Optional[float]:
    """The rotation sigma, through pi/p about the s-axis, when it maps the
    vertices onto themselves, read off the build's own orbit match, else
    None.  `enumerate_vertices` checked every vertex within _ORBIT_TOL of
    sigma^n of its orbit's representative (`_orbit_match`); when each
    orbit holds every power n = 0, ..., period - 1 once, sigma carries
    each vertex to within 2 _ORBIT_TOL of the next power's, so the vertex
    set is sigma-invariant."""
    slots = (int(poly.orbit.max()) + 1) * cs.period
    held = np.bincount(poly.orbit * cs.period + poly.power, minlength=slots)
    return math.pi / cs.tri.p if (held == 1).all() else None


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


def _left_factor(cs: ConstraintSet, row: int, t: int):
    """The left factor g1 = D^t g^-1 of the wall g at `row` (in
    `all_walls()` order), exactly: (alpha, s, beta) with
    g1 = T(alpha U) v^s T(beta U), T = `axis_rotation`, v the lifted
    generator about the vertex v, s in {-1, 0, 1}, and alpha and beta
    integers in the level's turn unit U = 1/(2 p_lcm).  In that unit a
    whole turn is 2 p_lcm, the turns d = k/p_lcm of D are 2k and the half
    step 1/(2p) is p_lcm/p (p divides p_lcm), so every term below is a
    whole number of units.

    A slab wall D^+-1 gives s = 0 and g1 = T((t -+ 1) d).  A group wall
    (m, l) = divmod(row, letters) is step^m a0 step^-m D^l with
    a0 = R_v(8 pi/3) D^e C^c (e = exp_d, c = exp_c, step = T(1/(2p))), so
    g1 = T(delta) step^m R_v(-8 pi/3) step^-m with delta = (t - l - e) d
    - c.  Three relations give the form: R_v(-8 pi/3) = v^-1 C^(y - 1),
    y the central correction of v = R_v(2 pi/3) C^y; step R_v step^-1 =
    R_w, as |v| = |w|; and R_u R_v R_w = C^mu with R_u = T(1/p).  For m
    even, alpha = delta + m/(2p) + y - 1, s = -1, beta = -m/(2p); for m
    odd, alpha = delta + (m + 1)/(2p) - mu - y - 1, s = 1,
    beta = -(m - 1)/(2p).
    """
    turn, d, half = 2 * cs.config.p_lcm, 2 * cs.k, cs.config.p_lcm // cs.tri.p
    n_group = len(cs.groups) * len(cs.groups[0])
    if row >= n_group:
        return (t - 1 if row == n_group else t + 1) * d, 0, 0
    m, letter = divmod(row, len(cs.groups[0]))
    delta = (t - letter - cs.exp_d) * d - cs.exp_c * turn
    y, mu = cs.config.central_corrections[1], cs.config.mu
    if m % 2 == 0:
        return delta + m * half + (y - 1) * turn, -1, -m * half
    return delta + (m + 1) * half - (mu + y + 1) * turn, 1, -(m - 1) * half


def _certificate(cs: ConstraintSet, factor, g1: CoverElement, power):
    """The word of the left factor g1 = T(alpha U) v^s T(beta U) (`factor`,
    as `_left_factor` gives it, in its turn unit U = 1/(2 p_lcm)) in the
    acting group's generators, as (syllables, word), or None when g1 is
    not in the group, the word has more than WORD_BUDGET syllables, or
    the float g1 is not the word's product.

    u = T(1/p + x) and D^3 = T(k/p) rotate about the origin.  For s != 0,
    g1 is in the group only if p alpha U is an integer; then, with
    a = p alpha U mod p in (-p/2, p/2], T(alpha U) = u^a C^(alpha U - a/p
    - a x) and g1 = u^a v^s T(gamma U), gamma U = alpha U - a/p - a x +
    beta U.  For s = 0, a = 0 and gamma = alpha + beta.  T(gamma U) is in
    the group just when n = p gamma U is an integer divisible by k, and is
    then (D^3)^tau (C^k)^j with n/k = tau + p j, 0 <= tau < p.  So the
    word is u^a v^s (D^3)^tau (C^k)^j, one syllable per nonzero exponent,
    at most 4; every step is integer arithmetic on the units.  The float
    check: with P = u^a v^s (D^3)^tau, the word's product less its central
    syllable, from the lifted generators' powers (`power(letter, n)` is
    the n-th power of one, so a caller's cache builds each once however
    many words share it), P^-1 g1 must be C^(k j) at CENTRAL_Z_TOL
    max(1, |w_g1|)^2 (`as_central_power`): g1 is the word's product.
    """
    alpha, s, beta = factor
    p, k, turn = cs.tri.p, cs.k, 2 * cs.config.p_lcm
    if p * alpha % turn:
        return None
    a, gamma = 0, alpha + beta
    if s:
        a = p * alpha // turn % p
        a -= p if 2 * a > p else 0
        gamma -= a * (turn // p + cs.config.central_corrections[0] * turn)
    n, rest = divmod(p * gamma, turn)
    if rest or n % k:
        return None
    j, tau = divmod(n // k, p)
    syllables = [
        (x, e) for x, e in (("u", a), ("v", s), ("(D^3)", tau), (f"(C^{k})", j)) if e
    ]
    if len(syllables) > WORD_BUDGET:
        return None
    powers = [power(letter, e) for letter, e in (("u", a), ("v", s), ("D", 3 * tau)) if e]
    product = functools.reduce(cover_mul, powers) if powers else COVER_IDENTITY
    tol = CENTRAL_Z_TOL * max(1.0, abs(g1.w)) ** 2
    try:
        if as_central_power(cover_mul(cover_inv(product), g1), tol) != k * j:
            return None
    except ArithmeticError:
        return None
    word = " ".join(x.strip("()") if e == 1 else f"{x}^{e}" for x, e in syllables)
    return len(syllables), word or "e"


def _cone_points(z1, w1, phi1, pts: np.ndarray):
    """The cone points (qz, qw, qphi) of g1 . p for chart points p, the
    product of `cover_mul`, with g1 = (z1, w1, phi1) broadcast against the
    leading axes of pts (shape (..., 3)).  The chart point is the cone
    point (Z, W, PHI) of `_chart_cone`; qw and qphi are `_cover_product`'s,
    with its bracket check, and qz = conj(w1) Z + z1 W."""
    Z, W, PHI = _chart_cone(pts)
    qw, qphi = _cover_product(z1, w1, phi1, Z, W, PHI)
    return np.conjugate(w1) * Z + z1 * W, qw, qphi


def _chart_images(z1, w1, phi1, w2, phi2, pts: np.ndarray):
    """Chart images of g1 . p . g2 for chart points p, and which are admissible.

    g1 = (z1, w1, phi1) and g2 = (0, w2, phi2), a rotation about the
    origin.  The arguments broadcast against the leading axes of pts
    (shape (..., 3)).  The product is `cover_mul`'s (`_cone_points`, with
    its bracket check).  A cone point projects back to the chart by
    scaling to Re w = 1, which is admissible only if Re w > 1e-9 and the
    lifted argument stays on the principal sheet, |phi| < pi/2.  Returns
    that on-sheet mask and the (n, 3) chart images of its True entries in
    C order; the entries off the sheet are never projected.
    """
    qz, qw, qphi = _cone_points(z1, w1, phi1, pts)
    qz, qw, qphi = qz * w2, qw * w2, qphi + phi2
    on_sheet = (qw.real > 1e-9) & (np.abs(qphi) < math.pi / 2.0)
    qz, qw = qz[on_sheet], qw[on_sheet]
    return on_sheet, np.column_stack(
        [qz.real / qw.real, qz.imag / qw.real, qw.imag / qw.real]
    )


def _cyclic_adjacent(loop_i, loop_j, mapping: dict) -> bool:
    """The vertex map must carry the boundary cycle to the boundary cycle:
    its positions in loop_j step all by +1 or all by -1 mod n = len(loop_i),
    so they are n distinct positions and the map is injective.  A map onto
    a loop of m < n vertices, whose positions take at most m values, fails."""
    n = len(loop_i)
    img = [mapping[v] for v in loop_i]
    pos = {v: i for i, v in enumerate(loop_j)}
    idx = [pos[v] for v in img]
    deltas = {(idx[(i + 1) % n] - idx[i]) % n for i in range(n)}
    return deltas == {1} or deltas == {n - 1}


def _map_loops(poly: Polyhedron, faces, left, right, vertex_order):
    """Map each face's loop by its pair of elements, every loop at once:
    the chart images of left[i] . p . right[i] (right a rotation about the
    origin) for the points p of faces[i]'s loop, in one `_chart_images`
    and one `_nearest_vertices` call at PAIRING_MATCH_TOL.  Returns per
    point whether its image lies on the sheet and the index of the vertex
    it matches (-1 off the sheet or unmatched), and each loop's first row
    (one more, the end)."""
    size = [len(poly.faces[fi].loop) for fi in faces]
    index = itertools.chain.from_iterable(poly.faces[fi].loop for fi in faces)
    pts, first = poly.vertices[np.fromiter(index, int, sum(size))], np.cumsum([0] + size)
    z1, w1, phi1 = (np.repeat(a, size) for a in _parts(left))
    _, w2, phi2 = (np.repeat(a, size) for a in _parts(right))
    on_sheet, image = _chart_images(z1, w1, phi1, w2, phi2, pts)
    match = np.full(len(on_sheet), -1)
    match[on_sheet] = _nearest_vertices(image, poly.vertices, PAIRING_MATCH_TOL, vertex_order)
    return on_sheet, match, first


def _check_inverses(poly: Polyhedron, inverses: list, vertex_order):
    """The inverse check of `find_pairings`, every pair at once
    (`_map_loops`).  Each entry (face j, g1^-1, g2, back map) must carry
    face j's loop onto the sheet, else RuntimeError 'pairing inverse left
    the chart sheet', and each vertex v of it to back map[v], else
    RuntimeError 'pairing inverse does not invert the vertex map'.  The
    first failing entry raises, its sheet test first."""
    on_sheet, back, first = _map_loops(
        poly, [fj for fj, _, _, _ in inverses], [g for _, g, _, _ in inverses],
        [g for _, _, g, _ in inverses], vertex_order,
    )
    for (fj, _, _, rmap), a, b in zip(inverses, first, first[1:]):
        if not on_sheet[a:b].all():
            raise RuntimeError("pairing inverse left the chart sheet")
        # rmap is injective, so matching it forces an injective match
        if any(rmap[v] != m for v, m in zip(poly.faces[fj].loop, back[a:b])):
            raise RuntimeError("pairing inverse does not invert the vertex map")


def _partner_wall(cs: ConstraintSet, label: str):
    """The wall of the partner face of a face on the wall `label`, and the
    size |u| of the pairing's right factor h^u, h = D^p (p = `tri.p`),
    read off the label alone.  With lam = `config.lam`, lam' the lam of
    level p - 3 (lam for E, that of 2k for Z) and indices mod the period:

        a[m]     <-> b[m - 1] (E), c[m - 1] (Z)     |u| = 2 lam
        b[m] (Z) <-> b[m + p]                       |u| = 3
        slab[D]  <-> slab[D^-1]                     |u| = 2 lam'

    An observation, not a theorem: the scan it replaced, of every left
    factor D^t g^-1 (|t| <= 2 p_lcm) and right factor h^u (|u| <= 4),
    kept as a test oracle, pairs exactly these walls with t = p u.  The
    scan and the rule give the same artifacts bit for bit at every
    admissible k <= 50 of both series and at E80, E173, Z110, Z160, E400,
    Z449, E1000, Z1400 and E3713.
    """
    if label.startswith("slab"):
        lam = 1 if (cs.tri.p - 3) % 3 == 1 else 2
        return ("slab[D^-1]" if label == "slab[D]" else "slab[D]"), 2 * lam
    letter, m = label[0], int(label[2:-1])
    last = _SERIES_LETTERS[cs.series][-1]
    if letter == "a":
        return f"{last}[{(m - 1) % cs.period}]", 2 * cs.config.lam
    if letter == last:
        return f"a[{(m + 1) % cs.period}]", 2 * cs.config.lam
    return f"b[{(m + cs.tri.p) % cs.period}]", 3


def find_pairings(poly: Polyhedron, cs: ConstraintSet):
    """The side-face identifications of the domain, read off the wall
    labels and certified.

    Every side face lies on a wall g of the prism over one orbit point; the
    identification carrying it into the domain again sends that prism onto
    the central one.  `_partner_wall` names the partner's wall and |u|,
    and the pairing is (g1, g2) = (h^u g^-1, h^u), h = D^p: the left
    factor D^t g^-1 with t = p u, and a right factor in the second acting
    group.  The faces are walked in order, the non-slab faces first; of
    each pair of walls the one walked first takes u = -|u|, and its faces
    are the first faces.  Each first face's loop is mapped under its
    (g1, g2), all loops at once (`_map_loops`), and the pairing is accepted
    when, in turn: the image is the loop of a face not yet paired, that
    face lies on the predicted wall (never the face's own, so no face is
    mapped onto itself), the map respects the cycle
    (`_cyclic_adjacent`), and the left factor g1 and its inverse admit
    word certificates in the acting group of at most WORD_BUDGET syllables
    (at most 4 by construction).  The partner then takes the inverse
    (g1^-1, g2^-1).  A first face that fails leaves both faces unpaired:
    there is no search to fall back on, and unpaired faces are reported,
    never silently dropped.

    The certificate reads the word off the face's wall row and t in exact
    arithmetic (`_left_factor`, `_certificate`), and the inverse's word off
    the same data; no word is searched for.  Generator powers are built
    once per call.  Every D^t must rotate about the origin: D must have
    z = 0, else RuntimeError (powers of an element with z = 0 keep z = 0).

    Exactness.  PAIRING_MATCH_TOL decides a match far from both of its
    sides.  A mapped loop point lies at most 8.4e-14 from the vertex it
    matches, and every other vertex at least 1.59e-2 from it, at every
    admissible k <= 50 of both series and at E80; at most 2.83e-9 and at
    least 6.0e-4 (both Z1400) at E400, Z449, E1000, E2000, Z1000, Z1400
    and E3713.  The float check of `_certificate` passes with residual at
    most 2.45e-12 max(1, |w|)^2 (E3715) against its CENTRAL_Z_TOL
    max(1, |w|)^2.

    The inverse check (`_check_inverses`) maps the partner's loop back,
    which must land on the sheet and on the inverse vertex map, else
    RuntimeError.  It runs once, after the walk, on every pair that
    reached it, those whose inverse certificate fails included; it changes
    no pairing, and the first failing pair in walk order raises.

    The two slab faces are glued top to bottom the same way: their wall
    elements are the axis steps D and D^-1, so the pairing is a pure axis
    power, and the certificate accepts it only if it lies in the acting
    group.
    """
    if cs.D.z != 0:
        raise RuntimeError(
            "an axis power D^t has z != 0: the left-factor rows need z = 0"
        )
    gens = cs.config.gens
    power = functools.cache(lambda letter, n: cover_pow(gens[letter], n))
    row_of = {w.label: r for r, w in enumerate(cs.all_walls())}
    h_gen = cover_pow(cs.D, cs.tri.p)
    vertex_order = _window_order(poly.vertices)

    order = [i for i, f in enumerate(poly.faces) if not f.is_slab]
    order += [i for i, f in enumerate(poly.faces) if f.is_slab]
    first, second_walls = [], set()  # (face, partner wall, u) per first face
    for fi in order:
        wall = poly.faces[fi].wall.label
        if wall not in second_walls:
            partner, size = _partner_wall(cs, wall)
            second_walls.add(partner)
            first.append((fi, partner, -size))
    g2 = {u: cover_pow(h_gen, u) for u in {u for _, _, u in first}}
    g2_inv = {u: cover_inv(g) for u, g in g2.items()}
    g1 = [
        cover_mul(power("D", cs.tri.p * u), cover_inv(poly.faces[fi].wall.g))
        for fi, _, u in first
    ]
    _, matches, bounds = _map_loops(
        poly, [fi for fi, _, _ in first], g1,
        [g2_inv[u] for _, _, u in first], vertex_order,
    )

    loop_lookup = {frozenset(f.loop): i for i, f in enumerate(poly.faces)}
    paired: dict[int, Pairing] = {}
    inverses = []  # (face j, g1^-1, g2, back map) per pair, in walk order
    for (fi, partner, u), g1_i, lo, hi in zip(first, g1, bounds, bounds[1:]):
        face_i = poly.faces[fi]
        matched = matches[lo:hi].tolist()
        # an unmatched point (-1) keeps the image off every loop
        fj = loop_lookup.get(frozenset(matched))
        if fj is None or fj in paired or poly.faces[fj].wall.label != partner:
            continue
        loop_i = list(face_i.loop)
        vmap = dict(zip(loop_i, matched))
        if not _cyclic_adjacent(loop_i, list(poly.faces[fj].loop), vmap):
            continue
        t = cs.tri.p * u
        alpha, s, beta = factor = _left_factor(cs, row_of[face_i.wall.label], t)
        cert = _certificate(cs, factor, g1_i, power)
        if cert is None:
            continue
        g1_inv = cover_inv(g1_i)
        rmap = {b: a for a, b in vmap.items()}
        inverses.append((fj, g1_inv, g2[u], rmap))
        cert_back = _certificate(cs, (-beta, -s, -alpha), g1_inv, power)
        if cert_back is None:
            # no word for the inverse within WORD_BUDGET: both faces
            # stay unpaired and are reported as such
            continue
        paired[fj] = Pairing(
            fj, fi, g1_inv, g2_inv[u], tuple(sorted(rmap.items())), *cert_back
        )
        paired[fi] = Pairing(fi, fj, g1_i, g2[u], tuple(sorted(vmap.items())), *cert)
    _check_inverses(poly, inverses, vertex_order)
    unpaired = tuple(
        poly.faces[i].label for i in range(len(poly.faces)) if i not in paired
    )
    pairings = tuple(paired[i] for i in sorted(paired))
    return PairingReport(pairings=pairings, unpaired=unpaired)


def _centre_tests(z, w, phi, tol):
    """`as_central_power`'s three conditions on arrays of cover elements
    (z, w, phi) at tol (an array or a number): per element, the nearest
    central exponent n = round(-phi / pi) (a float), whether the element
    is C^n at tol, and its centre residual max(|z|, |phi + n pi|)."""
    n = np.rint(-phi / math.pi)
    off = np.abs(phi + n * math.pi)
    sign = np.where(n % 2, -1.0, 1.0)
    central = (np.abs(z) <= tol) & (off <= tol) & (np.abs(w - sign) <= 10 * tol)
    return n, central, np.maximum(np.abs(z), off)


def edge_cycle_check(poly: Polyhedron, report: PairingReport):
    """Develop the domain around every edge class; each cycle must close.

    A walk from a (face, edge) state applies the face's pairing, carries
    the edge by its vertex map and goes on from the other face at the image
    edge, composing the pairings (g1, g2).  Poincare's cycle condition asks
    that it come back on a diagonal central (C^n, C^n); the state can
    repeat sooner (a pairing may fix the shared edge of two glued faces),
    so the walk stops on the composite.  Every g2 is an exact axis
    rotation: the Gamma2 composite is C^n just when its summed `axis_turns`
    is the integer n.  Only there is g1 tested, central at tol =
    CENTRAL_Z_TOL max(1, max |w|)^2 over its factors, as rounding grows
    with them (`as_central_power`), and a central g1 must be C^n with the
    walk back at its start, else RuntimeError.  At every admissible k <=
    50, E80, E173, E400, Z110 and Z160, a closing g1 lies within 3.25e-9 of
    C^n (E400; at most 2e-15 max |w|^4) and every other one at least 1.27
    from the centre lattice; unscaled, CENTRAL_Z_TOL fails at E173
    (residual 1.14e-9) and Z110.  A walk that reaches an unpaired face (a
    boundary chain; none with a complete report) is skipped; one still open
    after 200 steps raises with its edge, steps, tolerance and last centre
    residual.  Returns one (central exponent, cycle length) record per
    walk: two per edge class, one per orientation.

    The walks run in arrays.  The states run edge by edge in the order the
    loops first reach the edges, each edge's two faces (`build_polyhedron`)
    in face order.  The transition, each paired state's next state, is
    built once; a state whose image edge is not an edge of its partner
    face raises 'ambiguous continuation' there, before any walk.  A walk
    starts at each state of a paired face that no earlier walk visited,
    and it visits its start's orbit under the transition: a cycle back to
    the start, or a path to an unpaired face (an orbit that is neither
    never returns to its start, and its walk fails).  So the starts are
    read off the transition alone, and then all walks step in lockstep:
    the Gamma1 composites by the array form of `cover_mul`
    (`halfspaces._cover_product`, and z), the Gamma2 turns as integers
    over the lcm of the g2 denominators, the centre tests by
    `_centre_tests`.  The records come out in walk order, and a failure
    raises the first failing walk's error in walk order.  The scalar walk
    is the test oracle (`tests/cycle_oracle.py`).
    """
    partner = report.partner_of()
    inexact = [f for f, pr in partner.items() if pr.g2.axis_turns is None]
    if inexact:
        raise RuntimeError(f"faces {inexact}: g2 is not an exact axis rotation")
    if not partner:
        return []
    pairs, nv = list(partner.values()), len(poly.vertices)
    maps = {pr.face_i: dict(pr.vertex_map) for pr in pairs}
    loops = [face.loop for face in poly.faces]
    images = [[maps[f][v] for v in loop] if f in maps else loop for f, loop in enumerate(loops)]
    # the loop edges (a, b) and their images (a2, b2) under the face's vertex map
    a, a2 = np.concatenate(loops), np.concatenate(images)
    b, b2 = (np.concatenate([x[1:] + x[:1] for x in xs]) for xs in (loops, images))
    keys, first, edge = np.unique(
        np.minimum(a, b) * nv + np.maximum(a, b), return_index=True, return_inverse=True
    )
    if (np.bincount(edge) != 2).any():
        raise RuntimeError("an edge does not lie on exactly two faces")
    order = np.argsort(first[edge], kind="stable")  # the states, in walk-start order
    face = np.repeat(np.arange(len(loops)), [len(loop) for loop in loops])[order]
    edge, lo2, hi2 = edge[order], np.minimum(a2, b2)[order], np.maximum(a2, b2)[order]
    lead = np.empty(len(keys), dtype=int)  # each edge's first state; its second follows
    lead[edge[::2]] = np.arange(0, len(edge), 2)

    def state(i):
        return int(face[i]), divmod(int(keys[edge[i]]), nv)

    # per state, the pairing applied from it (-1 on an unpaired face) and the next state
    row_of = np.full(len(loops), -1)
    row_of[[pr.face_i for pr in pairs]] = np.arange(len(pairs))
    step_row, nxt = row_of[face], np.full(len(face), -1)
    at = np.flatnonzero(step_row >= 0)
    key2 = lo2[at] * nv + hi2[at]
    s2 = lead[np.minimum(np.searchsorted(keys, key2), len(keys) - 1)]
    face_j = np.array([pr.face_j for pr in pairs])[step_row[at]]
    first_j = face[s2] == face_j
    ambiguous = (keys[edge[s2]] != key2) | (~first_j & (face[s2 + 1] != face_j))
    if ambiguous.any():
        i = at[np.argmax(ambiguous)]
        raise RuntimeError(f"edge {(int(lo2[i]), int(hi2[i]))} has ambiguous continuation")
    nxt[at] = s2 + first_j
    paired, after = (step_row >= 0).tolist(), nxt.tolist()
    starts, visited = [], [False] * len(face)
    for si in range(len(face)):
        if visited[si] or not paired[si]:
            continue
        starts.append(si)
        cur = si
        while paired[cur] and not visited[cur]:
            visited[cur] = True
            cur = after[cur]

    pz, pw, pphi = _parts([pr.g1 for pr in pairs])
    turns_g2 = [pr.g2.axis_turns for pr in pairs]
    unit = math.lcm(*(x.denominator for x in turns_g2))
    pturns = np.array([x.numerator * (unit // x.denominator) for x in turns_g2])
    outcome = [None] * len(starts)  # per walk: its record, or its error
    walk = np.arange(len(starts))  # the walks still open
    start = cur = np.array(starts)
    z, w = np.zeros(len(walk), dtype=complex), np.ones(len(walk), dtype=complex)
    phi, size, turns = np.zeros(len(walk)), np.ones(len(walk)), np.zeros(len(walk), dtype=int)
    tol, resid = np.full(len(walk), math.nan), np.full(len(walk), math.nan)
    for steps in range(1, 202):
        r = step_row[cur]
        w_next, phi = _cover_product(pz[r], pw[r], pphi[r], z, w, phi)
        z, w = np.conjugate(pw[r]) * z + pz[r] * w, w_next
        turns, size, cur = turns + pturns[r], np.maximum(size, np.abs(pw[r])), nxt[cur]
        test = np.flatnonzero(turns % unit == 0)
        tol[test] = CENTRAL_Z_TOL * size[test] ** 2
        n, central, off = _centre_tests(z[test], w[test], phi[test], tol[test])
        resid[test[~central]] = off[~central]
        for i, n_1 in zip(test[central].tolist(), n[central].astype(int).tolist()):
            n_2 = int(turns[i] // unit)
            outcome[walk[i]] = (n_1, steps) if (n_1, cur[i]) == (n_2, start[i]) else (
                f"edge {state(start[i])[1]}: central (C^{n_1}, C^{n_2}) after {steps} steps "
                f"at {state(cur[i])} is not a diagonal centre back at {state(start[i])}"
            )
        still = np.ones(len(walk), dtype=bool)
        still[test[central]] = False
        if steps > 200:
            for i in np.flatnonzero(still).tolist():
                outcome[walk[i]] = (
                    f"edge cycle failed to close: edge {state(start[i])[1]}, {steps} steps, "
                    f"tolerance {tol[i]:.3g}, last centre residual {resid[i]:.3g}"
                )
            break
        keep = np.flatnonzero(still & (step_row[cur] >= 0))
        walk, start, cur = walk[keep], start[keep], cur[keep]
        z, w, phi, size, turns = z[keep], w[keep], phi[keep], size[keep], turns[keep]
        tol, resid = tol[keep], resid[keep]
        if not len(walk):
            break
    for failure in (o for o in outcome if isinstance(o, str)):
        raise RuntimeError(failure)
    return [o for o in outcome if o is not None]
