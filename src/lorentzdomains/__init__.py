"""Polyhedral fundamental domains for Lorentz bi-quotients.

The group G is the universal cover of SU(1,1).  For two infinite series of
pairs (Gamma_1, Gamma_2) of discrete subgroups, built from level-k lifts of
hyperbolic triangle groups (p,3,3) and of a cyclic group of order 3, this
package constructs an explicit compact polyhedral fundamental domain for the
two-sided action (g1, g2).x = g1 x g2^{-1}, verifies the numeric inequalities
that reduce the construction to an edge-corona computation in the hyperbolic
disc, and exports the resulting polyhedra as meshes and reports.
"""

import importlib

from .disc import (
    GroupElement,
    TriangleGroupData,
    build_triangle_group,
    edge_corona,
    mobius_apply,
    orbit,
    rotation_about,
)
from .cover import (
    CoverElement,
    LevelConfig,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
    lift_level,
    R_param,
)

# The geometry layers load numpy, so they load on first access to one of
# their names (PEP 562): `info` and every rejected request answer from
# `disc`, `cover` and `export` alone.
_LAZY = {
    name: module
    for module, names in (
        ("reduction", ("ReductionReport", "check_reduction_bound", "ell", "sample_equivalence")),
        ("domain", (
            "ConstraintSet", "PairingReport", "Polyhedron", "build_polyhedron",
            "detect_symmetry", "edge_cycle_check", "enumerate_vertices",
            "find_pairings", "linearize", "membership_mask", "series_constraints",
        )),
        ("export", ("report_dict", "singularity_label", "write_artifacts")),
    )
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "GroupElement",
    "TriangleGroupData",
    "build_triangle_group",
    "edge_corona",
    "mobius_apply",
    "orbit",
    "rotation_about",
    "CoverElement",
    "LevelConfig",
    "axis_rotation",
    "central",
    "cover_inv",
    "cover_mul",
    "cover_pow",
    "lift_level",
    "R_param",
    *_LAZY,
]
