"""The Dirichlet-cell computation of the edge corona, kept as a test oracle.

`disc.edge_corona` gives the 2p orbit points whose bisectors support the
edges of the Dirichlet cell of u in closed form.  The oracle finds them
independently: it clips the cell out of a bounding square by the
bisectors of every orbit point within a radius, and keeps the points whose
bisector carries a cell edge.
"""

from lorentzdomains.disc import (
    DEFAULT_ORBIT_BUDGET,
    ORBIT_DEDUP_TOL,
    TriangleGroupData,
    _canonical_order,
    orbit,
)

# Minimal length of a Dirichlet cell edge for its bisector to count as
# contributing (measured in the Klein chart).
EDGE_CONTACT_TOL = 1e-7


def _clip_with_labels(poly, labels, n: complex, c: float, lab: int):
    """Clip a labeled polygon by the half-plane {Y : <Y, n> <= c}.

    `labels[i]` names the source of the edge starting at poly[i].  New edges
    created on the clip line are labeled `lab`.
    """
    eps = 1e-13
    out_pts, out_labs = [], []
    m = len(poly)
    for i in range(m):
        a, la = poly[i], labels[i]
        b = poly[(i + 1) % m]
        da = a.real * n.real + a.imag * n.imag - c
        db = b.real * n.real + b.imag * n.imag - c
        if da <= eps:
            out_pts.append(a)
            out_labs.append(la)
            if db > eps:
                t = da / (da - db)
                out_pts.append(a + t * (b - a))
                out_labs.append(lab)
        elif db <= eps:
            t = da / (da - db)
            out_pts.append(a + t * (b - a))
            out_labs.append(la)
    return out_pts, out_labs


def dirichlet_corona_oracle(
    tri: TriangleGroupData,
    radius: float = 0.999,
    budget: int = DEFAULT_ORBIT_BUDGET,
) -> list[complex]:
    """Orbit points whose bisector supports an edge of the Dirichlet cell of u.

    Works in the Klein chart, where the hyperbolic bisector of 0 and an
    orbit point x (Poincare coordinates) is the straight line
    <Y, x> = |x|^2.  The cell is cut out of a bounding square by sequential
    half-plane clipping; a point contributes when its line carries a cell
    edge longer than EDGE_CONTACT_TOL.
    """
    pts = [x for x in orbit(tri, radius, budget) if abs(x) > ORBIT_DEDUP_TOL]
    side = 1.5
    poly = [
        complex(side, side),
        complex(-side, side),
        complex(-side, -side),
        complex(side, -side),
    ]
    labels = [-1, -1, -1, -1]
    for idx, x in enumerate(pts):
        poly, labels = _clip_with_labels(poly, labels, x, abs(x) ** 2, idx)
        if len(poly) < 3:
            raise RuntimeError("Dirichlet cell collapsed; inconsistent orbit")

    contributing = set()
    m = len(poly)
    for i in range(m):
        if abs(poly[(i + 1) % m] - poly[i]) > EDGE_CONTACT_TOL:
            if labels[i] == -1:
                raise RuntimeError(
                    "Dirichlet cell not bounded by bisectors; orbit radius too small"
                )
            contributing.add(labels[i])
    return _canonical_order([pts[i] for i in sorted(contributing)])
