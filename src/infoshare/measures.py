"""Pointwise information measures and their expectations.

Every function here evaluates at a single realization of a joint
distribution; `expected` lifts any of them to the distribution level by
weighting over the support.  A figure with an optional realization sums
over the points `_points` gives: that realization's point mass, of weight
1.0 (`fsum([1.0 * x])` is `x`, as no reading is -0.0), or the support.
Surprisal-like quantities are non-negative, mutual quantities are signed.
Values are in bits.

Every measure is built from one surprisal, log2 p(G) - log2 p(S u G)
for a source S and a conditioner G; a plain one has G empty, of mass 1.
So each content measure takes an optional `given` conditioner,
and the conditional measure is the plain formula read conditioned.

Each content measure reads one `surprisal_table` over the sources it
needs, which validates and resolves each source once and then pays, per
realization, one check and one lookup per set.  The per-call `surprisal`
and `cond_surprisal` are kept as the tests' oracles for the table.
`_surprisal_reader` is the reader from realizations to surprisals for
every caller that reads many points of a distribution or re-reads its
cached tables: it turns each set's marginal table into log2 masses once,
then reads a list of checked realizations column by column, one row each,
with 0.0 for the empty conditioner, the log of mass 1.  The table reads one
realization through it; the figures read the points `_points` gives
through it in one pass, the whole support without checking any point
again; `eval --about` and the target decomposition read their plain and
conditioned surprisals from it in one row.  Only a `check --suite props`
trial, which reads one point of a fresh distribution, sums that point's
single-variable masses straight from the support instead
(`checks._point_surprisals`), to the same bits.

`pair_contents` writes the two-source measures once, as functions of
h(a), h(b) and h(a u b): `pointwise` reads them from its one table, and
the target decomposition subtracts the conditioned ones from the plain.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence

from .distribution import JointDistribution, ZeroMass, _key_of, variable_indices


def surprisal(d: JointDistribution, source: Iterable[int], realization: Sequence[int]) -> float:
    """Negative log marginal mass of the source at the realization."""
    p = d.marginal_mass(source, realization)
    if p <= 0.0:
        raise ZeroMass("surprisal undefined: zero marginal mass")
    return 0.0 - math.log2(p) if p <= 1.0 else 0.0  # +0.0, not -0.0, at mass 1 or above


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
    return ((math.log2(p_given) if p_given <= 1.0 else 0.0)
            - (math.log2(p_joint) if p_joint <= 1.0 else 0.0))


def _surprisal_reader(
    d: JointDistribution, groups
) -> Callable[[Sequence[tuple[int, ...]]], Iterator[tuple[float, ...]]]:
    """Every group's surprisals log2 p(G) - log2 p(S u G), group after group in
    one row per realization, as a function of a list of realizations that
    `VariableSet.check_realization` returned or the support holds, for groups
    of (sources, conditioner G) that `VariableSet.check_source` returned, G
    possibly empty.

    Each distinct S u G and each non-empty G is resolved once, here, to a
    table of log2 masses: one log2 per marginal table entry, and 0.0 for a
    mass that rounding reads above 1.  A call reads each set's column, one
    lookup per realization, and streams the rows: each surprisal is one
    subtraction, from 0.0 for the empty G (the log of mass 1).  A zero mass
    raises the `ZeroMass` that `surprisal` or `cond_surprisal` would have
    raised first, at the first realization that has one, walking the groups
    in order.
    """
    at: dict[frozenset[int], int] = {}
    layout = []  # per group: the id of G (-1: the empty one), those of S u G
    for sources, g in groups:
        ids = [at.setdefault(s | g, len(at)) for s in sources]
        layout.append((at.setdefault(g, len(at)) if g else -1, ids))
    log2 = math.log2
    resolved = [(_key_of(s), {key: log2(p) if p <= 1.0 else 0.0 for key, p in d._table(s).items()})
                for s in at]

    def read(points: Sequence[tuple[int, ...]]) -> Iterator[tuple[float, ...]]:
        try:
            columns = [list(map(logs.__getitem__, map(key, points))) for key, logs in resolved]
        except KeyError:  # a zero mass is absent from its table: name the first one
            for r in points:
                held = [key(r) in logs for key, logs in resolved]
                for g, ids in layout:
                    if g >= 0 and not held[g]:
                        raise ZeroMass("conditioning event has zero mass") from None
                    if not all(map(held.__getitem__, ids)):
                        what = "marginal" if g == -1 else "joint"
                        raise ZeroMass(f"surprisal undefined: zero {what} mass") from None
            raise
        return zip(*[map(sub, repeat(0.0) if g < 0 else columns[g], columns[k])
                     for g, ids in layout for k in ids])

    return read


def surprisal_table(
    d: JointDistribution,
    sources: Sequence[Iterable[int]],
    given: Iterable[int] | None = None,
) -> Callable[[Sequence[int]], list[float]]:
    """Surprisal of each source, conditioned on `given` if set, as a function
    of the realization: the per-command form of `surprisal`/`cond_surprisal`.

    Sources and conditioner are validated and resolved once, here, to tables
    of log2 masses; each call validates the realization once and reads one
    log2 mass of each joint source S u G, and of G itself when it is not
    empty (the empty G has mass 1).
    """
    check = d.variables.check_source
    g = frozenset() if given is None else check(given)
    checked = []
    for source in sources:
        s = check(source)
        if s & g:
            raise ValueError("source and conditioning variables overlap")
        checked.append(s)
    if not checked:
        raise ValueError("at least one source is required")
    read = _surprisal_reader(d, [(checked, g)])
    return lambda realization: [*next(read([d.variables.check_realization(realization)]))]


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
    content of two sources, in `MutualDecomposition`'s field order, from their
    surprisals and joint one, with the float operations of the measures above."""
    union = max(h_a, h_b)
    return (union, max(h_a - h_b, 0.0), max(h_b - h_a, 0.0), min(h_a, h_b),
            h_ab - union, h_ab, h_a + h_b - h_ab)


def _points(
    d: JointDistribution, realization: Sequence[int] | None = None
) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Points and weights: the checked realization's point mass, or the support's masses."""
    if realization is not None:
        return (d.variables.check_realization(realization),), (1.0,)
    return tuple(d._pmf), tuple(d._pmf.values())


def expected(d: JointDistribution, fn: Callable[[tuple[int, ...]], float]) -> float:
    """Support-weighted mean of a per-realization functional."""
    return math.fsum(p * fn(r) for r, p in zip(*_points(d)))


def entropy(d: JointDistribution, source) -> float:
    """Expected surprisal of a source."""
    table = surprisal_table(d, [source])
    return expected(d, lambda r: table(r)[0])
