"""The orbit walk with a 3 x 3 cell probe on every insert, kept as a test
oracle.

`disc.orbit` probes only a point's own cell of the spatial hash, and the
3 x 3 block around it only near the cell's edge.  The oracle probes the
block on every insert, as the walk once did.  The tests check that both
walks return the same points in the same order.
"""

import math
from collections import deque

from lorentzdomains.disc import (
    _GRID,
    _ORBIT_PAD,
    DEFAULT_ORBIT_BUDGET,
    ORBIT_DEDUP_TOL,
    OrbitBudgetError,
    _canonical_order,
    group_inv,
    mobius_apply,
)


def dedup_insert(seen, x):
    """Insert x into the spatial hash; return False if a twin already
    exists in the 3 x 3 block of cells around x's cell."""
    ci = round(x.real / _GRID)
    cj = round(x.imag / _GRID)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            y = seen.get((ci + di, cj + dj))
            if y is not None and abs(x - y) <= ORBIT_DEDUP_TOL:
                return False
    seen[(ci, cj)] = x
    return True


def block_probe_orbit(tri, radius, budget=DEFAULT_ORBIT_BUDGET):
    """`disc.orbit` with `dedup_insert` for its merge."""
    if not 0.0 < radius < 1.0:
        raise ValueError("orbit radius must lie in (0, 1)")
    rho_max = 2.0 * math.atanh(radius) + _ORBIT_PAD
    explore_r = math.tanh(rho_max / 2.0)
    gens = []
    for g in (tri.gen_u, tri.gen_v, tri.gen_w):
        gens.append(g)
        gens.append(group_inv(g))

    seen = {}
    dedup_insert(seen, tri.u)
    queue = deque([tri.u])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = mobius_apply(g, x)
            if abs(y) > explore_r:
                continue
            if dedup_insert(seen, y):
                if len(seen) > budget:
                    raise OrbitBudgetError(
                        "orbit enumeration exceeded budget of %d points" % budget
                    )
                queue.append(y)
    pts = [x for x in seen.values() if abs(x) <= radius]
    return _canonical_order(pts)
