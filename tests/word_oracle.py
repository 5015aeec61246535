"""The word search of the pairing certificate, kept as a test oracle.

`domain.find_pairings` reads each left factor's word off its wall's exact
data (`domain._left_factor`, `domain._certificate`).  The oracle finds the
word as the pairing scan once did: a breadth-first search of the base
point's orbit in the disc for the image of the base point
(`SchreierTree`), then float tests that the residue is a power of D^3
times a central C^(k j) (`gamma1_certificate`).  Both read
`domain.WORD_BUDGET` when called, so a test that patches the budget
patches the oracle too.  The tests check the closed form against it.

The closed form itself is kept here in exact `Fraction` turns as well
(`fraction_left_factor`, `fraction_certificate`), as it stood before the
build moved it to integers in the level's turn unit 1/(2 p_lcm); the
tests check the integer form against it.
"""

import math
from fractions import Fraction

import numpy as np

from lorentzdomains import domain
from lorentzdomains.cover import (
    CENTRAL_Z_TOL,
    COVER_IDENTITY,
    CoverElement,
    as_central_power,
    axis_rotation,
    cover_inv,
    cover_mul,
)
from lorentzdomains.disc import GroupElement, TriangleGroupData, group_mul, mobius_apply

# the residue's turn count must lie this close to a multiple of 1/p
STAB_TURN_TOL = 1e-6


class SchreierTree:
    """Breadth-first tree of the base point's orbit, grown level by level.

    The moves are whole generator powers rot_u^t, rot_v^t (each a single
    syllable), never two of the same letter in a row, so a node's level
    is its syllable count.  A node is kept only when its position, rounded
    to 6 digits, was not seen before; once 100,000 positions are seen,
    new nodes still count but are not expanded.  The discovery order does
    not depend on any target, so one tree serves every certificate of a
    pairing scan, and it grows to depth WORD_BUDGET only as far as some
    target asks.
    """

    def __init__(self, tri: TriangleGroupData):
        self.moves = []
        for letter, gen, order in (("u", tri.gen_u, tri.p), ("v", tri.gen_v, tri.q)):
            acc = GroupElement(0j, 1.0 + 0j)
            for t in range(1, order):
                acc = group_mul(acc, gen)  # gen^t
                self.moves.append((letter, t if 2 * t <= order else t - order, acc))
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
        no node within WORD_BUDGET syllables is that close."""
        if abs(target) < 1e-7:
            return []
        for level in range(domain.WORD_BUDGET):
            if level == len(self.levels):
                self._grow()
            positions, paths = self.levels[level]
            hit = np.flatnonzero(np.abs(positions - target) < 1e-7)
            if hit.size:
                # moves compose as functions, so the group word reads
                # right to left; return it in product order
                return list(reversed(paths[hit[0]]))
        return None


def gamma1_certificate(g1: CoverElement, cs, power, tail, syllables_to):
    """Express g1 as a word in the acting group's generators, or None.

    The disc image of the base point is pulled back by a Schreier word in
    the lifted u/v generators (`syllables_to(target)` finds the word, as
    `SchreierTree.syllables`, and `power(letter, n)` is the n-th power of
    the lifted generator `letter`); the residue must be a power of the
    lifted stabilizer generator D^3 times a central element C^(k j), and
    `tail(t, j)` is D^(3 t) C^(k j).  The syllable count (each generator
    power is one syllable) must be at most WORD_BUDGET.
    """
    p_tri = cs.tri.p
    k = cs.k
    target = mobius_apply(GroupElement(g1.z, g1.w), 0j)
    syllables = syllables_to(target)
    if syllables is None:
        return None
    word = COVER_IDENTITY
    for letter, n in syllables:
        word = cover_mul(word, power(letter, n))
    resid = cover_mul(cover_inv(word), g1)
    if abs(resid.z) > 1e-7 * max(1.0, abs(resid.w)):
        return None
    turns = -resid.phi / math.pi
    scaled = turns * p_tri
    n_near = round(scaled)
    if abs(scaled - n_near) > STAB_TURN_TOL:
        return None
    if n_near % k != 0:
        return None
    m_total = n_near // k
    t = m_total % p_tri
    j = (m_total - t) // p_tri
    check = cover_mul(word, tail(t, j))
    if abs(check.z - g1.z) > 1e-6 * max(1.0, abs(g1.w)) or abs(
        check.phi - g1.phi
    ) > 1e-6:
        return None
    count = len(syllables) + (1 if t else 0) + (1 if j else 0)
    if count > domain.WORD_BUDGET:
        return None
    parts = [f"{letter}^{n}" if n != 1 else letter for letter, n in syllables]
    if t:
        parts.append(f"(D^3)^{t}" if t != 1 else "D^3")
    if j:
        parts.append(f"(C^{k})^{j}" if j != 1 else f"C^{k}")
    return count, " ".join(parts) if parts else "e"


def fraction_left_factor(cs, row: int, t: int):
    """`domain._left_factor` in `Fraction` turns: (alpha, s, beta) with
    g1 = D^t g^-1 = T(alpha) v^s T(beta) for the wall g at `row`."""
    d = cs.D.axis_turns
    n_group = len(cs.groups) * len(cs.groups[0])
    if row >= n_group:
        return (t - 1 if row == n_group else t + 1) * d, 0, Fraction(0)
    m, letter = divmod(row, len(cs.groups[0]))
    half = Fraction(1, 2 * cs.tri.p)
    delta = (t - letter - cs.exp_d) * d - cs.exp_c
    y, mu = cs.config.central_corrections[1], cs.config.mu
    if m % 2 == 0:
        return delta + m * half + y - 1, -1, -m * half
    return delta + (m + 1) * half - mu - y - 1, 1, -(m - 1) * half


def fraction_certificate(cs, factor, g1: CoverElement, power):
    """`domain._certificate` on a `Fraction` factor (`fraction_left_factor`),
    with T(gamma) built by `axis_rotation`."""
    alpha, s, beta = factor
    p, k = cs.tri.p, cs.k
    if (p * alpha).denominator != 1:
        return None
    a, gamma = 0, alpha + beta
    if s:
        a = int(p * alpha) % p
        a -= p if 2 * a > p else 0
        gamma -= Fraction(a, p) + a * cs.config.central_corrections[0]
    n = p * gamma
    if n.denominator != 1 or n.numerator % k:
        return None
    j, tau = divmod(n.numerator // k, p)
    syllables = [
        (x, e) for x, e in (("u", a), ("v", s), ("(D^3)", tau), (f"(C^{k})", j)) if e
    ]
    if len(syllables) > domain.WORD_BUDGET:
        return None
    product = cover_mul(cover_mul(power("u", a), power("v", s)), axis_rotation(gamma))
    tol = CENTRAL_Z_TOL * max(1.0, abs(g1.w)) ** 2
    try:
        if as_central_power(cover_mul(cover_inv(product), g1), tol) != 0:
            return None
    except ArithmeticError:
        return None
    word = " ".join(x.strip("()") if e == 1 else f"{x}^{e}" for x, e in syllables)
    return len(syllables), word or "e"
