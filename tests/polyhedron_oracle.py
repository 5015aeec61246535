"""Oracles for the sigma-equivariant vertex search and the array face
complex.

`domain.enumerate_vertices` decides membership and active walls once per
sigma-orbit of vertices and carries them to the rest of the orbit, and
`domain.build_polyhedron` assembles the face complex from those
incidences in arrays.  The passes they replaced are kept here: one full
`_wall_pass` over every vertex (`full_pass`), the face assembly in dicts
of sets with one scalar Newell normal per loop (`dict_polyhedron`), and
the nearest-vertex rotation scan that `detect_symmetry` ran
(`rotation_scan_symmetry`).
"""

import itertools
import math

import numpy as np

from lorentzdomains.domain import (
    MEMBERSHIP_TOL,
    PLANE_INCIDENCE_TOL,
    Face,
    Polyhedron,
    VertexSet,
    _LABEL_ORDER,
    _nearest_vertices,
    _s_axis_rotation,
    _wall_pass,
    _window_order,
)


def full_pass(cs, points):
    """The vertex set of chart points as one full `_wall_pass` decides it:
    every point must lie in the domain (membership at MEMBERSHIP_TOL),
    else RuntimeError names it, and its walls are its active walls at
    PLANE_INCIDENCE_TOL.  Its orbits are trivial (`trivial_orbits`)."""
    points = np.asarray(points, dtype=float)
    inside, (point, wall) = _wall_pass(cs, points, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    if not inside.all():
        raise RuntimeError(f"vertex {int(np.argmin(inside))} lies outside the domain")
    return VertexSet(points, point, wall, *trivial_orbits(len(points)))


def trivial_orbits(n):
    """The orbit and power arrays of n points matched to no sigma-orbit:
    each point its own orbit, at power 0."""
    return np.arange(n), np.zeros(n, dtype=int)


def newell_normal(verts, loop):
    n = np.zeros(3)
    for i, j in zip(loop, loop[1:] + loop[:1]):
        a, c = verts[i], verts[j]
        n[0] += (a[1] - c[1]) * (a[2] + c[2])
        n[1] += (a[2] - c[2]) * (a[0] + c[0])
        n[2] += (a[0] - c[0]) * (a[1] + c[1])
    return n


def dict_polyhedron(cs, vertices):
    """The face assembly in dicts of sets, from a full `_wall_pass` over
    the vertex array: per two walls at a vertex the vertices where they
    meet, each wall's skeleton as a dict of neighbour sets, one walk per
    loop and one scalar Newell normal per loop, with the checks and
    messages `build_polyhedron` raises.  Its orbits are trivial."""
    if len(vertices) == 0:
        raise RuntimeError("cannot build a polyhedron without vertices")
    walls = cs.all_walls()
    nv = len(vertices)
    inside, (vertex, row) = _wall_pass(cs, vertices, MEMBERSHIP_TOL, PLANE_INCIDENCE_TOL)
    if not inside.all():
        raise RuntimeError(f"vertex {int(np.argmin(inside))} lies outside the domain")
    meet = {}
    for v, at in itertools.groupby(zip(vertex.tolist(), row.tolist()), key=lambda p: p[0]):
        for pair in itertools.combinations([w for _, w in at], 2):
            meet.setdefault(pair, []).append(v)
    skeleton = {}
    for pair, ends in meet.items():
        for i, j in itertools.combinations(ends, 2):
            for w in pair:
                adj = skeleton.setdefault(w, {})
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
    edges = sorted({e for ends in meet.values() for e in itertools.combinations(ends, 2)})

    faces = []
    for wi in sorted(skeleton):
        wall, adj = walls[wi], skeleton[wi]
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
                nxt = next(v for v in adj[cur] if v != prev)
                if nxt == start:
                    break
                loop.append(nxt)
                seen.add(nxt)
                prev, cur = cur, nxt
            if len(loop) < 3:
                raise RuntimeError(f"wall {wall.label}: degenerate loop {loop}")
            loops.append(loop)
        outward = cs.unit_normals[wi] if wall.side == "I" else -cs.unit_normals[wi]
        for li, loop in enumerate(loops):
            sense = float(newell_normal(vertices, loop) @ outward)
            if abs(sense) < 1e-12:
                raise RuntimeError(f"wall {wall.label}: flat degenerate loop")
            if sense < 0:
                loop = loop[::-1]
            pivot = loop.index(min(loop))
            loop = loop[pivot:] + loop[:pivot]
            label = wall.label if len(loops) == 1 else f"{wall.label}#{li}"
            faces.append(Face(label=label, wall=wall, loop=tuple(loop)))
    faces.sort(key=lambda f: (_LABEL_ORDER.get(f.label.split("[")[0], 9), f.label))

    directed = {}
    for fi, face in enumerate(faces):
        for i, j in zip(face.loop, face.loop[1:] + face.loop[:1]):
            if (i, j) in directed:
                raise RuntimeError(f"directed edge {(i, j)} traversed twice; not orientable")
            directed[(i, j)] = fi
    for (i, j) in directed:
        if (j, i) not in directed:
            raise RuntimeError(f"edge {(i, j)} lacks its reversed twin; not closed")
    if {v for f in faces for v in f.loop} != set(range(nv)):
        raise RuntimeError("stray vertices not used by any face")
    poly = Polyhedron(vertices, tuple(faces), tuple(edges), *trivial_orbits(nv))
    if poly.euler_characteristic != 2:
        raise RuntimeError(f"Euler characteristic {poly.euler_characteristic} != 2")
    return poly


def rotation_scan_symmetry(poly, cs):
    """Smallest chart rotation about the s-axis, pi/p or 2 pi/p, that
    maps every vertex within 1e-8 of a vertex, else None."""
    order = _window_order(poly.vertices)
    for psi in (math.pi / cs.tri.p, 2.0 * math.pi / cs.tri.p):
        image = poly.vertices @ _s_axis_rotation(psi).T
        if (_nearest_vertices(image, poly.vertices, 1e-8, order) >= 0).all():
            return psi
    return None
