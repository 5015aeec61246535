"""The level lift the tests build from, made with the call `cli.main`
makes for every request, and the constraint set and build made from it."""

from lorentzdomains.cli import build_domain
from lorentzdomains.cover import lift_level, series_signature
from lorentzdomains.domain import series_constraints


def lift(series, k):
    """The level's `LevelConfig`; a level with no lift raises ValueError."""
    return lift_level(*series_signature(series, k), k)


def level_constraints(series, k):
    return series_constraints(series, lift(series, k))


def level_build(series, k):
    return build_domain(series, lift(series, k))
