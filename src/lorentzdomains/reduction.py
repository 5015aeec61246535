"""Reduction bounds for the corona construction and sampled set equivalence.

Everything here is about confirming, numerically but at controlled
precision, that the finite corona of the base point suffices: the
half-space bound ell^- evaluated at the slab aperture stays below the
threshold (1 - sqrt(1 - R^2))/R determined by the second orbit shell,
and the resulting finite constraint set carves out the same region of
the slab as the full prism complement does.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cover import CoverElement, LevelConfig, cover_mul, cover_pow
from .disc import TriangleGroupData, edge_corona, orbit
from .domain import ConstraintSet, _close_pairs, _parts, membership_mask
from .halfspaces import _chart_cone, batch_wall, wall_masks

FORM_AGREEMENT_TOL = 1e-10
TIGHT_MARGIN = 1e-6
PREMISE_SLACK = 1e-9
CORONA_MATCH_TOL = 1e-7
BOUNDARY_BAND = 1e-6


def ell(t: float, sign: int, group: TriangleGroupData) -> float:
    """The bound ell^{+/-}(t) = 1/tanh L +/- sqrt(1/t^2 - cos^2(pi/q)) / (sinh L sin(pi/q)).

    Defined for 1 <= t <= sec(pi/q); raises ValueError outside that range.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if t < 1.0 - 1e-12:
        raise ValueError(f"t = {t} below 1")
    cq = math.cos(math.pi / group.q)
    arg = 1.0 / (t * t) - cq * cq
    if arg < -1e-12:
        raise ValueError(f"t = {t} beyond sec(pi/{group.q})")
    root = math.sqrt(max(arg, 0.0))
    return 1.0 / math.tanh(group.L) + sign * root / (
        math.sinh(group.L) * math.sin(math.pi / group.q)
    )


def _closed_quantities(p_tri: int, k: int, p_lcm: int, m):
    """R, ell^-(sec), and the threshold via the alpha = pi/2p closed forms.

    `m` is a module exposing cos/sin/sqrt/tan/pi so the same expressions can
    be evaluated with math or with mpmath at raised precision.
    """
    alpha = m.pi / (2 * p_tri)
    ca, c2a, c3a, sa = m.cos(alpha), m.cos(2 * alpha), m.cos(3 * alpha), m.sin(alpha)
    R = (ca / c2a) * m.sqrt(c3a / ca)
    cw = m.cos(m.pi * k / (2 * p_lcm))
    ell_minus = (ca - sa * m.sqrt(4 * cw * cw - 1)) * m.sqrt(ca / c3a)
    rhs = ((c2a - sa) / ca) * m.sqrt(ca / c3a)
    return R, ell_minus, rhs


@dataclass(frozen=True)
class ReductionReport:
    series: str
    k: int
    alpha: float
    R: float
    ell_minus_at_sec: float
    rhs: float
    holds: bool
    margin: float
    p_tri: int
    p_lcm: int
    tanh_L: float
    orbit_premise_ok: bool

    @property
    def certified(self) -> bool:
        """The inequality and the orbit premise both hold."""
        return self.holds and self.orbit_premise_ok


def check_reduction_bound(cs: ConstraintSet) -> ReductionReport:
    """Evaluate the reduction inequality ell^-(sec(pi k/2p_lcm)) <= (1-sqrt(1-R^2))/R.

    The series, the level, its lift and its triangle group are read from
    the constraint set `cs` (`series_constraints`).

    R is the second-shell radius in its closed form; the inequality is
    evaluated through two independent expression routes which must agree to
    FORM_AGREEMENT_TOL.  A margin, or a gap 1 - ell^-, tighter than
    TIGHT_MARGIN raises ArithmeticError: double precision does not decide
    it.  Over the 3,715 admissible levels E k <= 3715 and Z k <= 1857 the
    tightest are 1.75e-4 (margin) and 5.97e-4 (gap), both at E3715.  The
    shell premise (no orbit point other than the base point and its corona
    lies inside radius R) is always walked, by enumeration.  The walk is
    `orbit(tri, R)`: only a point with |x| < R - PREMISE_SLACK can fail the
    premise, and `orbit` explores a hyperbolic padding `_ORBIT_PAD` beyond
    its radius, so a breadth-first path to such a point may leave the ball
    of radius R and come back.  Each such point is matched to the corona
    within CORONA_MATCH_TOL through a sorted window (`_close_pairs`), so no
    orbit-by-corona table is formed.
    """
    series, k, config, tri = cs.series, cs.k, cs.config, cs.tri
    p_tri = config.p_tri
    alpha = math.pi / (2 * p_tri)

    sec = 1.0 / math.cos(math.pi * k / (2 * config.p_lcm))
    ell_route = ell(sec, -1, tri)
    R, ell_closed, rhs_closed = _closed_quantities(p_tri, k, config.p_lcm, math)
    rhs_route = (1.0 - math.sqrt(1.0 - R * R)) / R
    if abs(ell_route - ell_closed) > FORM_AGREEMENT_TOL:
        raise ArithmeticError(
            f"ell^- expression routes disagree: {ell_route} vs {ell_closed}"
        )
    if abs(rhs_route - rhs_closed) > FORM_AGREEMENT_TOL:
        raise ArithmeticError(
            f"threshold expression routes disagree: {rhs_route} vs {rhs_closed}"
        )

    tanh_L = math.tanh(tri.L)
    if R < tanh_L - 1e-12:
        raise ArithmeticError(
            f"shell radius R = {R} below tanh L = {tanh_L} for {series}, k={k}"
        )

    margin = rhs_route - ell_route
    if abs(margin) < TIGHT_MARGIN or abs(1.0 - ell_route) < TIGHT_MARGIN:
        raise ArithmeticError(
            f"reduction margin {margin:.3g} or 1 - ell^- = {1.0 - ell_route:.3g} is "
            f"below {TIGHT_MARGIN:g}: too tight to decide in double precision"
        )

    holds = ell_route <= rhs_route and ell_route <= 1.0

    pts = np.array(orbit(tri, R))
    r = np.abs(pts)
    inner = pts[(r >= 1e-9) & (r < R - PREMISE_SLACK)]
    corona = np.array(edge_corona(tri))
    row, _, gap = _close_pairs(
        np.column_stack([inner.real, inner.imag]),
        np.column_stack([corona.real, corona.imag]),
        CORONA_MATCH_TOL,
    )
    matched = np.zeros(len(inner), dtype=bool)
    matched[row[gap < CORONA_MATCH_TOL]] = True

    return ReductionReport(
        series=series,
        k=k,
        alpha=alpha,
        R=R,
        ell_minus_at_sec=ell_route,
        rhs=rhs_route,
        holds=holds,
        margin=margin,
        p_tri=p_tri,
        p_lcm=config.p_lcm,
        tanh_L=tanh_L,
        orbit_premise_ok=bool(matched.all()),
    )


@dataclass(frozen=True)
class EquivalenceStats:
    series: str
    k: int
    seed: int
    n_samples: int
    n_boundary_excluded: int
    n_evaluated: int
    n_agree: int

    @property
    def agreement(self) -> Optional[float]:
        """Share of evaluated points that agree; None when none was evaluated."""
        if self.n_evaluated == 0:
            return None
        return self.n_agree / self.n_evaluated

    @property
    def agrees(self) -> bool:
        """Some point was evaluated, and every evaluated point agrees."""
        return 0 < self.n_evaluated == self.n_agree


def _corona_lifts(config: LevelConfig):
    """Cover lifts g with g(0) = x for each corona point x, as (x, g) pairs,
    from the lift's triangle group and generators (`config.tri`,
    `config.gens`).

    Each lift is normalised by a trailing power of the wall-rotation step
    so that its lifted argument is as small as possible.  The coset g<D>
    (hence the prism over x) is unchanged, but the normalisation keeps the
    band of active wall indices centred at zero, which the finite wall
    scans rely on.
    """
    tri, gens = config.tri, config.gens
    D = gens["D"]
    step_phi = math.pi * config.k / config.p_lcm
    pairs = []
    for l in (1, tri.q - 1):
        base = cover_pow(gens["v"], l)
        for m in range(tri.p):
            g = cover_mul(cover_pow(gens["u"], m), base)
            recenter = round(g.phi / step_phi)
            g = cover_mul(g, cover_pow(D, recenter))
            pairs.append((g.z / g.w, g))
    return pairs


def _slab_samples(config: LevelConfig, n_samples: int, seed: int) -> np.ndarray:
    """Uniform points of the slab cylinder |s| <= h, x1^2 + x2^2 < 1 + s^2,
    as (n, 3) chart points (x1, x2, s)."""
    half = math.tan(math.pi * config.k / (2 * config.p_lcm))
    rng = np.random.default_rng(seed)
    s = rng.uniform(-half, half, n_samples)
    theta = rng.uniform(-math.pi, math.pi, n_samples)
    rad = np.sqrt(rng.uniform(0.0, 1.0, n_samples)) * np.sqrt(1.0 + s * s)
    z = rad * np.exp(1j * theta)
    return np.column_stack([z.real, z.imag, s])


@dataclass(frozen=True)
class _ScanState:
    """The cone points of one request as every prism scan reads them, and
    the work buffers every scan writes into.

    Z/W, 1/|W| and max |PHI| are formed once per level.  The buffers are
    the bracket, the scaled sheet coordinate t, one (2, n) range array and
    the two masks of `_prism_scan`; the bracket's storage, read out before
    the ranges are floored, also holds the upper floors.
    """

    Z: np.ndarray
    W: np.ndarray
    PHI: np.ndarray
    ZW: np.ndarray
    W_inv: np.ndarray
    phi_max: float
    bracket: np.ndarray
    t: np.ndarray
    ranges: np.ndarray
    hit: np.ndarray
    open: np.ndarray

    @classmethod
    def of(cls, Z, W, PHI):
        n = len(Z)
        return cls(
            Z, W, PHI, Z / W, 1.0 / np.abs(W), float(np.max(np.abs(PHI), initial=0.0)),
            np.empty(n, dtype=complex), np.empty(n), np.empty((2, n)),
            np.empty(n, dtype=bool), np.empty(n, dtype=bool),
        )


def _prism_scan(x, g: CoverElement, D: CoverElement, N: int, step: float,
                scan: _ScanState, in_prism_complement, near_boundary):
    """Fold the prism over the corona point x, with lift g, into the
    request's masks: its points that strictly violate no wall g D^n leave
    `in_prism_complement`, and its points near the boundary of one join
    `near_boundary`.

    D is the wall-rotation step and N = 2 p_lcm the half-width of the wall
    family; `scan` holds the cone points and the work buffers
    (`_ScanState`), which every full-length pass writes into.

    The identity.  D^n is the axis rotation z = 0, w = exp(-i n step),
    phi = -n step, so on a point p = (Z, W, PHI) every wall g D^n has the
    same bracket beta = 1 + kappa Z/W, kappa = -conj(z_g) / conj(w_g), the
    same modulus r = |conj(w_g) W beta| = |w_g| |W| |beta| = |w_h|,
    h = g^{-1} p, the sheet coordinate phi_n = phi_0 + n step with
    phi_0 = arg beta + PHI - phi_g, and the value -r cos(phi_n).  Re beta
    must be positive on every point, else ArithmeticError, as in
    `batch_wall`.  Write B = BOUNDARY_BAND; the margins 2B below cover the
    rounding of values and coordinates, which stays near 1e-13.

    - Decided miss: |phi_n| > arccos(min(1, (1 - 2B) / r)) + 2B, outside
      the open range.  Then r cos(phi_n) < 1 - 2B or the window is shut,
      and the wall neither captures the point nor is near it.
    - Decided hit: |phi_n| <= arccos(min(1, (1 + 2B) / r)) - 2B, inside
      the decided-hit range, which is empty unless r > 1 + 2B.  Then the
      value lies below -1 - 2B inside the window, and the wall holds
      strictly and is not near.
    - With a = reach / step and t = phi_0 / step each range is the n from
      -floor(a + t) to floor(a - t).  The hit range lies in the open one,
      so a point is open exactly where its open range holds more lattice
      points than its hit range.  There every n of the open range outside
      the hit range, n = 0 too, goes through `batch_wall` and
      `wall_masks`, and only the rows n read there are built, each as
      cover_mul(g, cover_pow(D, n)); with none, no power is built.  Each
      evaluated wall must keep its sheet coordinate within B of the line
      phi_0 + n step, or RuntimeError is raised.

    The truncation premise.  A wall that holds or is near a point has
    |phi_n| < pi/2 + 2B, and |phi_0| < max |PHI| + |phi_g| + pi/2, as beta
    lies in the right half-plane.  So every n that is evaluated or decided
    as a hit has |n| <= (max |PHI| + |phi_g| + pi + 2B) / step + 1 (the 1
    absorbs the floors and rounding), and the prism's verdicts are those
    of the whole family n in Z once that bound is at most N; else
    RuntimeError names x.  Measured, the bound is at most 0.583 N (E1: 14
    of 24) at every admissible k <= 50 of both series and at E173, Z110,
    E400, E1000, Z449, E3713 and Z1000.

    The guard.  The identity needs every D^n to be that axis rotation, and
    the points to be cone points, exp(i PHI) = W/|W|.  D is checked once
    per call: it must be an exact axis rotation (`axis_turns` set, z = 0)
    whose phi is within 4 ulp of -step (the two roundings of pi k / p_lcm
    differ by at most 2 ulp up to k = 400), or RuntimeError is raised.
    Then `cover_pow` makes every D^n an exact axis rotation too, with
    phi = -pi (n turns) rounded once.
    """
    deviation = abs(D.phi + step)
    if D.axis_turns is None or D.z != 0 or not deviation <= 4.0 * math.ulp(step):
        raise RuntimeError(
            f"prism wall sheet coordinates leave the line phi_0 + n*{step:.6g}: "
            f"D is not the exact axis rotation through that step "
            f"(axis_turns {D.axis_turns}, |z| {abs(D.z):.3g}, phi off by {deviation:.3g})"
        )
    band = 2.0 * BOUNDARY_BAND
    reach_n = (scan.phi_max + abs(g.phi) + math.pi + band) / step + 1.0
    if not reach_n <= N:
        raise RuntimeError(
            f"prism wall family |n| <= {N} too short for corona point {x}: "
            f"walls up to |n| = {reach_n:.6g} may hold or be near a sample"
        )

    beta, t, a = scan.bracket, scan.t, scan.ranges
    np.multiply(scan.ZW, -np.conjugate(g.z) / np.conjugate(g.w), out=beta)
    beta += 1.0
    if not beta.real.min(initial=math.inf) > 0.0:
        raise ArithmeticError("cocycle bracket left the principal branch")
    np.arctan2(beta.imag, beta.real, out=t)
    t += scan.PHI
    t -= g.phi
    t /= step
    # 1 / r, scaled by 1 -+ 2B: the cosines of the open and the hit reach
    np.abs(beta, out=a[1])
    np.divide(scan.W_inv, a[1], out=a[1])
    np.multiply(a[1], (1.0 - band) / abs(g.w), out=a[0])
    a[1] *= (1.0 + band) / abs(g.w)
    np.minimum(a, 1.0, out=a)
    np.arccos(a, out=a)
    a[0] += band
    a[1] -= band
    a /= step
    up = beta.view(np.float64).reshape(a.shape)  # the bracket is read out
    np.add(a, t, out=up)
    np.floor(up, out=up)
    a -= t
    np.floor(a, out=a)
    a += up  # lattice points in each range, less one; -1 or less when empty
    np.maximum(a[1], -1.0, out=a[1])
    hit = np.greater_equal(a[1], 0.0, out=scan.hit)
    points = np.flatnonzero(np.greater(a[0], a[1], out=scan.open))

    if len(points):
        first = -up[:, points]
        last = a[:, points] + first
        bounds = (b.astype(np.int64).tolist() for b in (first[0], last[0], first[1], last[1]))
        pairs = [
            (i, n)
            for i, lo, hi, hit_lo, hit_hi in zip(points.tolist(), *bounds)
            for n in range(lo, hi + 1)
            if not hit_lo <= n <= hit_hi
        ]
        point, n = np.array(pairs).T
        rows, row_of = np.unique(n, return_inverse=True)
        walls = _parts([cover_mul(g, cover_pow(D, row)) for row in rows])
        wall = CoverElement(*(w[row_of] for w in walls))
        val, phi = batch_wall(wall, scan.Z[point], scan.W[point], scan.PHI[point])[:2]
        if np.any(np.abs(phi - (t[point] + n) * step) > BOUNDARY_BAND):
            raise RuntimeError(
                f"prism wall sheet coordinates leave the line phi_0 + n*{step:.6g}"
            )
        held, near = wall_masks(val, phi, BOUNDARY_BAND)
        near_boundary[point[near]] = True
        hit[point[held]] = True
    in_prism_complement &= hit


def _description_masks(cons, pts):
    """Membership in the finite description and in the prism complement,
    and the boundary mask, for the chart points pts.

    The finite description is `membership_mask(cons, pts)`, the predicate
    the build certifies (`cons` is the `series_constraints` result).  The
    boundary mask is the BOUNDARY_BAND band of the two slab walls and of
    the prism walls (`_prism_scan`).  Every union-group wall is a prism
    wall g D^n, so its band is among those; and excluding fewer points only
    makes the comparison stricter, as a point left in can fail it but never
    pass it falsely.  The verdict at MEMBERSHIP_TOL differs from the exact
    one only within MEMBERSHIP_TOL of a wall, inside its band.  Each scan
    builds only the powers D^n that its ranges leave undecided.

    The prism over a corona point is the intersection of its walls g D^n,
    n in Z.  Each scan reads them off the family |n| <= N = 2 p_lcm, and
    checks the premise that no wall beyond it can hold or be near a point
    (`_prism_scan`); at most 0.583 N is needed at every level measured.
    Z/W, 1/|W| and the work buffers are formed once per request
    (`_ScanState`) and every scan folds its verdicts into the masks.

    The window edge |phi| = pi/2 of `wall_masks` needs no band of its own.
    Write B = BOUNDARY_BAND and h = g^{-1} p.  Then <g, p> = -|w_h| cos(phi),
    so within B of the edge |<g, p>| < |w_h| B, and <g, p> <= -1 + B needs
    |w_h| > (1 - B) / B, about 10^6.  But |w_h| <= |w_g| |w_p| + |z_g| |z_p|
    <= (|z_g| + |w_g|) |w_p|, and that bound must stay below (1 - B) / B
    for every wall and corona lift on pts, else RuntimeError names the
    wall.  On 10^4 slab samples it is at most 68 over every admissible
    level k <= 50 of both series (Z50).  RuntimeError is also raised when
    D is not the axis rotation `_prism_scan` needs, and when the family
    |n| <= N is too short for a prism.
    """
    config = cons.config
    Z, W, PHI = _chart_cone(pts)
    lifts = _corona_lifts(config)
    # the premise on g bounds every g D^n too: D^n keeps |z| and |w|
    limit = (1.0 - BOUNDARY_BAND) / BOUNDARY_BAND
    w_max = float(np.max(np.abs(W), initial=0.0))
    named = [(wall.label, wall.g) for wall in cons.all_walls()]
    named += [(f"prism over corona point {x:.6g}", g) for x, g in lifts]
    for label, g in named:
        bound = (abs(g.z) + abs(g.w)) * w_max
        if not bound < limit:
            raise RuntimeError(
                f"window-edge premise fails for wall {label}: "
                f"(|z| + |w|) max|W| = {bound:.6g} >= (1 - B)/B = {limit:.6g}"
            )
    in_linear = membership_mask(cons, pts)
    # one slab wall at a time: (n,) temporaries, as in the prism scans
    near_boundary = np.zeros(len(Z), dtype=bool)
    for wall in cons.slab:
        val, phi = batch_wall(wall.g, Z, W, PHI)[:2]
        near_boundary |= wall_masks(val, phi, BOUNDARY_BAND)[1]

    # Prism description: the point must escape the prism over every corona
    # point, i.e. strictly violate at least one of its translated walls.
    N = 2 * config.p_lcm
    step = math.pi * config.k / config.p_lcm
    scan = _ScanState.of(Z, W, PHI)
    in_prism_complement = np.ones(len(Z), dtype=bool)
    for x, g in lifts:
        _prism_scan(x, g, cons.D, N, step, scan, in_prism_complement, near_boundary)
    return in_linear, in_prism_complement, near_boundary


def sample_equivalence(
    cs: ConstraintSet, n_samples: int = 10_000, seed: int = 0
) -> EquivalenceStats:
    """Compare the finite half-space description of the domain in the slab
    against the prism-complement description on uniformly sampled points.

    The finite description is `membership_mask`, the predicate the build
    certifies.  Points within BOUNDARY_BAND of a slab wall or of a prism
    wall are excluded (see `_description_masks`); off the boundary the two
    membership predicates must agree point for point, and the returned
    statistics record how often they do.  Sampling derives no reduction
    bound: a caller reads the inequality and the orbit premise from
    `check_reduction_bound`, and a sample at a level where they fail
    certifies nothing.  The level, its walls and its lift are read from
    the constraint set `cs` (`series_constraints`).
    """
    in_linear, in_prism_complement, near_boundary = _description_masks(
        cs, _slab_samples(cs.config, n_samples, seed)
    )

    ok = ~near_boundary
    agree = (in_linear == in_prism_complement) & ok
    return EquivalenceStats(
        series=cs.series,
        k=cs.k,
        seed=seed,
        n_samples=n_samples,
        n_boundary_excluded=int(np.sum(~ok)),
        n_evaluated=int(np.sum(ok)),
        n_agree=int(np.sum(agree)),
    )
