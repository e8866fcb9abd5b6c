"""Pointwise information measures and their expectations.

Every function here evaluates at a single realization of a joint
distribution; `expected` lifts any of them to the distribution level by
weighting over the support.  Surprisal-like quantities are non-negative,
mutual quantities are signed.  Values are in bits.

Every measure is built from one surprisal, log2 p(G) - log2 p(S u G)
for a source S and a conditioner G; a plain one has G empty, of log
mass 0.  So each content measure takes an optional `given` conditioner,
and the conditional measure is the plain formula read conditioned.

Each content measure reads one `surprisal_table` over the sources it
needs, which validates and resolves each source once and then pays one
lookup and one log2 per source.  The per-call `surprisal` and
`cond_surprisal` are kept as the tests' oracles for the table.

`pair_contents` writes the two-source measures once, as functions of
h(a), h(b) and h(a u b): `pointwise` reads them from its one table, and
the target decomposition subtracts the conditioned ones from the plain.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from .distribution import JointDistribution, ZeroMass, variable_indices


def surprisal(d: JointDistribution, source: Iterable[int], realization: Sequence[int]) -> float:
    """Negative log marginal mass of the source at the realization."""
    p = d.marginal_mass(source, realization)
    if p <= 0.0:
        raise ZeroMass("surprisal undefined: zero marginal mass")
    return 0.0 - math.log2(p)  # +0.0, not -0.0, at mass 1


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


def surprisals(
    log_masses: Sequence[float], ids: Iterable[int], given_id: int | None = None
) -> list[float]:
    """log2 p(G) - log2 p(S u G) for each listed entry S u G of a log-mass
    vector (`JointDistribution.log_mass_table`), where G is the entry at
    `given_id` or, if that is None, the empty set: `surprisal` or
    `cond_surprisal` at every entry, with its errors in its order."""
    log_given = 0.0 if given_id is None else log_masses[given_id]
    if log_given == -math.inf:
        raise ZeroMass("conditioning event has zero mass")
    h = [log_given - log_masses[k] for k in ids]
    if math.inf in h:
        what = "marginal" if given_id is None else "joint"
        raise ZeroMass(f"surprisal undefined: zero {what} mass")
    return h


def surprisal_table(
    d: JointDistribution,
    sources: Sequence[Iterable[int]],
    given: Iterable[int] | None = None,
) -> Callable[[Sequence[int]], list[float]]:
    """Surprisal of each source, conditioned on `given` if set, as a function
    of the realization: the per-command form of `surprisal`/`cond_surprisal`.

    Sources and conditioner are validated and resolved once, here; each
    call reads one log-mass vector of the joint sources S u G, and of G
    itself when it is not empty.
    """
    g = frozenset() if given is None else d.variables.check_source(given)
    joint = []
    for source in sources:
        s = d.variables.check_source(source)
        if s & g:
            raise ValueError("source and conditioning variables overlap")
        joint.append(s | g)
    if not joint:
        raise ValueError("at least one source is required")
    given_id = len(joint) if g else None
    logs = d._log_mass_table([*joint, g] if g else joint)
    ids = range(len(joint))
    return lambda realization: surprisals(logs(realization), ids, given_id)


def union_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Largest surprisal over the sources."""
    return max(surprisal_table(d, sources, given)(realization))


def intersection_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Smallest surprisal over the sources."""
    return min(surprisal_table(d, sources, given)(realization))


def unique_content(d: JointDistribution, first, second, realization, given=None) -> float:
    """Surplus surprisal of the first source over the second, floored at zero."""
    h_first, h_second = surprisal_table(d, [first, second], given)(realization)
    return max(h_first - h_second, 0.0)


def synergy_content(d: JointDistribution, sources, realization, given=None) -> float:
    """Joint surprisal of all involved variables minus the union content."""
    parts = [variable_indices(s) for s in sources]
    whole = [frozenset().union(*parts)] if parts else []  # no sources: the table says so
    *h, joint = surprisal_table(d, [*parts, *whole], given)(realization)
    return joint - max(h)


def mutual_content(d: JointDistribution, first, second, realization, given=None) -> float:
    """Sum of the two marginal surprisals minus the joint surprisal; signed."""
    a, b = frozenset(variable_indices(first)), frozenset(variable_indices(second))
    if a & b:
        raise ValueError("sources overlap")
    h_a, h_b, h_ab = surprisal_table(d, [a, b, a | b], given)(realization)
    return h_a + h_b - h_ab


def pair_contents(h_a: float, h_b: float, h_ab: float) -> tuple[float, ...]:
    """Union, unique to a, unique to b, intersection, synergy, joint and mutual
    content of two sources, from their surprisals and their joint one, with
    the float operations of the measures above."""
    union = max(h_a, h_b)
    return (union, max(h_a - h_b, 0.0), max(h_b - h_a, 0.0), min(h_a, h_b),
            h_ab - union, h_ab, h_a + h_b - h_ab)


def expected(d: JointDistribution, fn: Callable[[tuple[int, ...]], float]) -> float:
    """Support-weighted mean of a per-realization functional."""
    return math.fsum(p * fn(r) for r, p in d.support())


def entropy(d: JointDistribution, source) -> float:
    """Expected surprisal of a source."""
    table = surprisal_table(d, [source])
    return expected(d, lambda r: table(r)[0])
