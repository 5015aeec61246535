import cmath
import importlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from lorentzdomains.cover import (
    COVER_IDENTITY,
    as_central_power,
    axis_rotation,
    central,
    cover_inv,
    cover_mul,
    cover_pow,
    lift_level,
    R_param,
)
from lorentzdomains.cli import main
from lorentzdomains.disc import (
    GroupElement, build_triangle_group, group_mul, mobius_apply, rotation_about,
)


def random_cover_element(rng):
    g = COVER_IDENTITY
    for _ in range(rng.randint(1, 3)):
        x = rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        t = rng.uniform(-3.0, 3.0) * math.pi
        g = cover_mul(g, R_param(x, t))
    return g


def project(g):
    return GroupElement(g.z, g.w)


def path_phi(factors):
    """Continuously unwrapped arg(w) of prod R(x_i, tau t_i) at tau = 1.

    Independent of the cover product formula: only disc-level products and
    principal phase increments are used.
    """
    n = 256
    while True:
        prev_w = 1 + 0j
        acc = 0.0
        ok = True
        for step in range(1, n + 1):
            tau = step / n
            prod = None
            for x, t in factors:
                g = rotation_about(x, t * tau)
                prod = g if prod is None else group_mul(prod, g)
            delta = cmath.phase(prod.w / prev_w)
            if abs(delta) > 1.0:
                ok = False
                break
            acc += delta
            prev_w = prod.w
        if ok:
            return acc
        n *= 2


def test_central_closed_form():
    C = central(1)
    assert C.z == 0j
    assert C.w == -1 + 0j
    assert C.phi == -math.pi
    assert axis_rotation(Fraction(1, 2)).w == -1j
    assert central(2).w == 1 + 0j
    assert central(2).phi == -2 * math.pi


def test_phi_tracks_argument():
    rng = random.Random(7)
    for _ in range(300):
        g = random_cover_element(rng)
        assert abs(cmath.exp(1j * g.phi) - g.w / abs(g.w)) < 1e-12


def test_homomorphism_against_disc_product():
    rng = random.Random(11)
    probe = 0.23 - 0.11j
    for _ in range(500):
        a = random_cover_element(rng)
        b = random_cover_element(rng)
        ab = cover_mul(a, b)
        # the action is scale-free, so this is a well-conditioned comparison
        # even for elements far from the identity
        lhs = mobius_apply(project(ab), probe)
        rhs = mobius_apply(project(a), mobius_apply(project(b), probe))
        assert abs(lhs - rhs) < 1e-12
        assert abs(cmath.exp(1j * ab.phi) - ab.w / abs(ab.w)) < 1e-12
        defect = abs(ab.w) ** 2 - abs(ab.z) ** 2
        assert abs(defect - 1.0) < 1e-12 * max(1.0, abs(ab.w) ** 2)


def test_homomorphism_coordinates_near_identity():
    # for moderate elements the raw coordinates of the cover product match
    # the renormalised SU(1,1) product directly
    rng = random.Random(31)
    for _ in range(300):
        a = R_param(
            rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            rng.uniform(-2.0, 2.0) * math.pi,
        )
        b = R_param(
            rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
            rng.uniform(-2.0, 2.0) * math.pi,
        )
        ab = cover_mul(a, b)
        ref = group_mul(project(a), project(b))
        assert abs(ab.z - ref.z) < 1e-12
        assert abs(ab.w - ref.w) < 1e-12


def test_associativity():
    rng = random.Random(13)
    for _ in range(300):
        a, b, c = (random_cover_element(rng) for _ in range(3))
        lhs = cover_mul(cover_mul(a, b), c)
        rhs = cover_mul(a, cover_mul(b, c))
        assert abs(lhs.z - rhs.z) < 1e-12
        assert abs(lhs.w - rhs.w) < 1e-12
        assert abs(lhs.phi - rhs.phi) < 1e-12


def test_centrality_is_exact():
    rng = random.Random(17)
    for _ in range(50):
        g = random_cover_element(rng)
        for n in (-2, -1, 1, 3):
            lhs = cover_mul(central(n), g)
            rhs = cover_mul(g, central(n))
            assert lhs.z == rhs.z and lhs.w == rhs.w and lhs.phi == rhs.phi


def test_inverse():
    rng = random.Random(19)
    for _ in range(200):
        g = random_cover_element(rng)
        e = cover_mul(g, cover_inv(g))
        assert abs(e.z) < 1e-12
        assert abs(e.w - 1) < 1e-12
        assert abs(e.phi) < 1e-12


def test_path_lifting_oracle():
    rng = random.Random(23)
    for _ in range(25):
        factors = [
            (
                rng.uniform(0.0, 0.8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)),
                rng.uniform(-3.0, 3.0) * math.pi,
            )
            for _ in range(rng.randint(1, 3))
        ]
        g = COVER_IDENTITY
        for x, t in factors:
            g = cover_mul(g, R_param(x, t))
        assert abs(g.phi - path_phi(factors)) < 1e-10


def test_product_defect_is_plus_one():
    for sig in [(5, 3, 3), (7, 3, 3), (4, 3, 3), (13, 3, 3), (6, 4, 5)]:
        assert lift_level(*sig, 1).mu == 1


def test_lift_level_admissibility():
    # (p, 3, 3) admits a level-k lift iff gcd(k, 3) = 1 and k | p - 3
    for p in range(4, 16):
        for k in range(1, 11):
            admissible = math.gcd(k, 3 * p) == 1 and (p - 3) % k == 0
            if admissible:
                cfg = lift_level(p, 3, 3, k)
                assert cfg.p_lcm == (3 * p) // math.gcd(3, p)
                x, y, z = cfg.central_corrections
                assert all(0 <= c < k for c in (x, y, z))
                assert (p * x + 1) % k == 0
                assert (3 * y + 1) % k == 0
                assert (3 * z + 1) % k == 0
            else:
                with pytest.raises(ValueError):
                    lift_level(p, 3, 3, k)


def test_lift_level_lambda():
    assert lift_level(5, 3, 3, 2).lam == 2
    assert lift_level(4, 3, 3, 1).lam == 1
    assert lift_level(7, 3, 3, 4).lam == 1


def test_lifted_relations_are_central_of_level():
    for p, k in [(5, 2), (7, 4), (13, 5), (7, 2)]:
        cfg = lift_level(p, 3, 3, k)
        gens = cfg.gens
        rel_u = cover_pow(gens["u"], p)
        rel_v = cover_pow(gens["v"], 3)
        rel_w = cover_pow(gens["w"], 3)
        prod = cover_mul(cover_mul(gens["u"], gens["v"]), gens["w"])
        for rel in (rel_u, rel_v, rel_w, prod):
            n = as_central_power(rel)
            assert n % k == 0


def test_D_power_equals_central_exactly():
    for p, k in [(4, 1), (5, 2), (7, 4), (8, 5), (5, 1), (7, 2), (11, 4), (13, 5)]:
        cfg = lift_level(p, 3, 3, k)
        gens = cfg.gens
        assert cover_pow(gens["D"], cfg.p_lcm) == central(k)
        # D agrees with the generic continuous lift
        ref = R_param(0j, 2.0 * math.pi * k / cfg.p_lcm)
        assert abs(gens["D"].w - ref.w) < 1e-15
        assert abs(gens["D"].phi - ref.phi) < 1e-15


def lift_word(word, gens):
    """Evaluate a word [(symbol, exponent), ...] left to right; symbols
    index into `gens`, KeyError for an unknown one."""
    acc = COVER_IDENTITY
    for sym, n in word:
        if sym not in gens:
            raise KeyError("unknown generator symbol %r" % sym)
        acc = cover_mul(acc, cover_pow(gens[sym], n))
    return acc


def test_lift_word_association_independent():
    cfg = lift_level(5, 3, 3, 2)
    gens = cfg.gens
    word = [("u", 2), ("v", 1), ("D", 3), ("w", -1), ("C", 2), ("v", -2)]
    ref = lift_word(word, gens)
    for cut in range(1, len(word)):
        a = lift_word(word[:cut], gens)
        b = lift_word(word[cut:], gens)
        g = cover_mul(a, b)
        assert abs(g.z - ref.z) < 1e-12
        assert abs(g.w - ref.w) < 1e-12
        assert abs(g.phi - ref.phi) < 1e-12
    with pytest.raises(KeyError):
        lift_word([("t", 1)], gens)


def test_cover_pow_matches_repeated_mul():
    rng = random.Random(29)
    g = random_cover_element(rng)
    acc = COVER_IDENTITY
    for n in range(5):
        ref = cover_pow(g, n)
        assert abs(acc.z - ref.z) < 1e-12
        assert abs(acc.w - ref.w) < 1e-12
        assert abs(acc.phi - ref.phi) < 1e-12
        acc = cover_mul(acc, g)
    inv2 = cover_pow(g, -2)
    ref2 = cover_inv(cover_mul(g, g))
    assert abs(inv2.phi - ref2.phi) < 1e-12


def _counted(monkeypatch, *functions):
    """Wrap every `lorentzdomains.*` module binding of each function, as
    bench/tracer.py does, and return the log of their calls by name.  The
    geometry layers are imported first, so that their bindings exist."""
    importlib.import_module("lorentzdomains.reduction")
    log = []
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            log.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "lorentzdomains" or name.startswith("lorentzdomains."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
    return log


@pytest.mark.parametrize("series,k", [("E", 1), ("Z", 2)])
def test_each_request_lifts_its_level_at_most_twice(tmp_path, capsys, monkeypatch, series, k):
    """`info`, `build` and `verify` each lift their level exactly once, as
    the request check, and that lift builds the one triangle group every
    stage reads: `build` and `verify` hand it to the constraint set."""
    log = _counted(monkeypatch, lift_level, build_triangle_group)
    level = ["--series", series, "--k", str(k)]
    for argv in (
        ["info", *level],
        ["build", *level, "--out", str(tmp_path), "--formats", "json"],
        ["verify", *level, "--samples", "200"],
    ):
        log.clear()
        assert main(argv) == 0, argv
        assert log == ["lift_level", "build_triangle_group"], argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "series,k,accepted",
    [("E", 3715, True), ("Z", 1856, True), ("E", 3718, True), ("Z", 1859, True),
     ("E", 3716, False), ("Z", 1858, False)],
)
def test_the_lift_keeps_its_boundary(capsys, series, k, accepted):
    """The largest levels the lift represents, the first it rejects and
    some it accepts above those; a rejection exits 2 with the lift's own
    error text."""
    code = main(["info", "--series", series, "--k", str(k)])
    out = json.loads(capsys.readouterr().out)
    if accepted:
        assert code == 0 and (out["series"], out["k"]) == (series, k)
    else:
        assert code == 2
        assert out == {
            "error": f"level k={k} cannot be lifted in double precision: "
            "generator product is not +-identity within 1e-9",
            "series": series,
            "k": k,
        }
