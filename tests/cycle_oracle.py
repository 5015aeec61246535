"""The scalar edge-cycle walk, kept as a test oracle.

`domain.edge_cycle_check` builds the (face, edge) transition once, reads
the walk starts off it and runs every walk in lockstep in arrays.  The
oracle walks one (face, edge) state at a time, as the check once did:
one `cover_mul` for the Gamma1 composite and one `Fraction` sum for the
Gamma2 turns per step, and `as_central_power` for each centre test.  The
tests check the array walk's records and error texts against it.
"""

import math
from fractions import Fraction

from lorentzdomains.cover import CENTRAL_Z_TOL, COVER_IDENTITY, as_central_power, cover_mul


def scalar_edge_cycles(poly, report):
    """The (central exponent, cycle length) records of the walks, one per
    start in the order the states are first reached, or RuntimeError with
    the first failure's text."""
    partner = report.partner_of()
    vertex_maps = {f: dict(pr.vertex_map) for f, pr in partner.items()}
    edge_faces = {}
    for fi, face in enumerate(poly.faces):
        for i, j in zip(face.loop, face.loop[1:] + face.loop[:1]):
            edge_faces.setdefault((min(i, j), max(i, j)), []).append(fi)
    inexact = [f for f, pr in partner.items() if pr.g2.axis_turns is None]
    if inexact:
        raise RuntimeError(f"faces {inexact}: g2 is not an exact axis rotation")

    visited, records = set(), []
    for edge, inc in edge_faces.items():
        for f0 in inc:
            if (f0, edge) in visited:
                continue
            g1, turns, size, steps = COVER_IDENTITY, Fraction(0), 1.0, 0
            tol = resid = math.nan
            f, e = f0, edge
            while f in partner:
                visited.add((f, e))
                pr, vmap = partner[f], vertex_maps[f]
                e2 = (min(vmap[e[0]], vmap[e[1]]), max(vmap[e[0]], vmap[e[1]]))
                others = [x for x in edge_faces.get(e2, ()) if x != pr.face_j]
                if len(others) != 1:
                    raise RuntimeError(f"edge {e2} has ambiguous continuation")
                g1, turns = cover_mul(pr.g1, g1), turns + pr.g2.axis_turns
                size, steps = max(size, abs(pr.g1.w)), steps + 1
                f, e = others[0], e2
                if turns.denominator == 1:
                    tol = CENTRAL_Z_TOL * size**2
                    try:
                        n = as_central_power(g1, tol)
                    except ArithmeticError:
                        resid = max(abs(g1.z), abs(g1.phi + round(-g1.phi / math.pi) * math.pi))
                    else:
                        if n != turns or (f, e) != (f0, edge):
                            raise RuntimeError(
                                f"edge {edge}: central (C^{n}, C^{turns}) after {steps} steps "
                                f"at {(f, e)} is not a diagonal centre back at {(f0, edge)}"
                            )
                        records.append((n, steps))
                        break
                if steps > 200:
                    raise RuntimeError(
                        f"edge cycle failed to close: edge {edge}, {steps} steps, "
                        f"tolerance {tol:.3g}, last centre residual {resid:.3g}"
                    )
    return records
