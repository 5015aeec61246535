"""The whole-sector seed pass of the vertex search, kept as a test oracle.

`domain.enumerate_vertices` seeds its sigma-orbits from the triples of a
fixed window of walls next to union group 0 (`domain._seed_window`).  The
oracle runs the same filters over every triple of the sector, the
L W^2 / 2 triples whose first wall lies in group 0, streamed in blocks so
that it holds one block and the points still undecided after the slab
pair and union group 0.  The tests check the windowed seeds against it.
"""

from dataclasses import replace

import numpy as np

from lorentzdomains.domain import (
    _SEED_INCIDENCE_TOL,
    _SEED_MEMBERSHIP_TOL,
    _SEED_SLACK,
    _pinned,
    _solve_triples,
    membership_mask,
)

# sector triples per block of the oracle's pass
SEED_BLOCK = 4096


def sector_blocks(n_first: int, n: int, size: int):
    """The index triples i < j < l < n with i < n_first, in lexicographic
    order, as consecutive blocks of `size` rows (the last one shorter).

    The triples with first two indices (i, j) form one line, l = j + 1,
    ..., n - 1; a block's rows are read off the line starts, so no block
    needs more than O(size + n_first n) memory.
    """
    line_i, line_j = np.triu_indices(n_first, 1, n - 1)
    count = n - 1 - line_j
    starts = np.cumsum(count) - count
    total = int(count.sum())
    for first in range(0, total, size):
        index = np.arange(first, min(first + size, total))
        line = np.searchsorted(starts, index, side="right") - 1
        j = line_j[line]
        yield np.column_stack([line_i[line], j, j + 1 + index - starts[line]])


def sector_seeds(cs, block: int = SEED_BLOCK) -> np.ndarray:
    """The sector triples that pass every filter at its seed setting, in
    lexicographic order: each block solved and cut to the points the slab
    pair and union group 0 keep, then all of those through one `_pinned`
    call over every wall."""
    normals, offsets = cs.unit_normals, cs.offsets
    lead = replace(cs, groups=cs.groups[:1])
    kept_triples, kept_points = [], []
    for triples in sector_blocks(len(cs.groups[0]), len(normals), block):
        triples, pts = _solve_triples(normals, offsets, triples, _SEED_SLACK)
        held = membership_mask(lead, pts, _SEED_MEMBERSHIP_TOL)
        kept_triples.append(triples[held])
        kept_points.append(pts[held])
    triples, pts = np.vstack(kept_triples), np.vstack(kept_points)
    return triples[_pinned(
        cs, pts, _SEED_MEMBERSHIP_TOL, _SEED_INCIDENCE_TOL, 1e-8 / _SEED_SLACK
    )]
