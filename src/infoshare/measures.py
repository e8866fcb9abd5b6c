"""Pointwise information measures and their expectations.

Every function here evaluates at a single realization of a joint
distribution; `expected` lifts any of them to the distribution level by
weighting over the support.  Surprisal-like quantities are non-negative,
mutual quantities are signed.  Values are in bits.

Each content measure takes an optional `given` conditioner.  A
conditional measure is the plain one with every surprisal replaced by
its conditional counterpart, the joint surprisal of source and
conditioner minus the conditioner's own.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .distribution import JointDistribution, ZeroMass


def surprisal(d: JointDistribution, source: Iterable[int], realization: Sequence[int]) -> float:
    """Negative log marginal mass of the source at the realization."""
    p = d.marginal_mass(source, realization)
    if p <= 0.0:
        raise ZeroMass("surprisal undefined: zero marginal mass")
    return -math.log2(p)


def cond_surprisal(
    d: JointDistribution,
    source: Iterable[int],
    given: Iterable[int],
    realization: Sequence[int],
) -> float:
    """Joint surprisal of source and conditioner, minus the conditioner's."""
    s = d.variables.check_source(source)
    g = d.variables.check_source(given)
    if s & g:
        raise ValueError("source and conditioning variables overlap")
    p_given = d.marginal_mass(g, realization)
    if p_given <= 0.0:
        raise ZeroMass("conditioning event has zero mass")
    p_joint = d.marginal_mass(s | g, realization)
    if p_joint <= 0.0:
        raise ZeroMass("surprisal undefined: zero joint mass")
    return math.log2(p_given) - math.log2(p_joint)


def content(d: JointDistribution, given, realization) -> Callable[[Iterable[int]], float]:
    """Surprisal of a source at the realization, conditioned on `given` if set."""
    if given is None:
        return lambda source: surprisal(d, source, realization)
    return lambda source: cond_surprisal(d, source, given, realization)


def _source_list(d: JointDistribution, sources) -> list[frozenset[int]]:
    out = [d.variables.check_source(s) for s in sources]
    if not out:
        raise ValueError("at least one source is required")
    return out


def union_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Largest surprisal over the sources."""
    h = content(d, given, realization)
    return max(h(s) for s in _source_list(d, sources))


def intersection_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Smallest surprisal over the sources."""
    h = content(d, given, realization)
    return min(h(s) for s in _source_list(d, sources))


def unique_content(d: JointDistribution, first, second, realization, given=None) -> float:
    """Surplus surprisal of the first source over the second, floored at zero."""
    h = content(d, given, realization)
    return max(h(first) - h(second), 0.0)


def synergy_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Joint surprisal of all involved variables minus the union content."""
    h = content(d, given, realization)
    parts = _source_list(d, sources)
    whole: frozenset[int] = frozenset().union(*parts)
    return h(whole) - max(h(s) for s in parts)


def mutual_content(d: JointDistribution, first, second, realization, given=None) -> float:
    """Sum of the two marginal surprisals minus the joint surprisal; signed."""
    a = d.variables.check_source(first)
    b = d.variables.check_source(second)
    if a & b:
        raise ValueError("sources overlap")
    h = content(d, given, realization)
    return h(a) + h(b) - h(a | b)


def expected(d: JointDistribution, fn: Callable[[tuple[int, ...]], float]) -> float:
    """Support-weighted mean of a per-realization functional."""
    return math.fsum(p * fn(r) for r, p in d.support())


def entropy(d: JointDistribution, source) -> float:
    """Expected surprisal of a source."""
    return expected(d, lambda r: surprisal(d, source, r))
