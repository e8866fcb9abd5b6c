"""Valuations on the antichain lattice and their Möbius inversion.

A valuation assigns each lattice node the least surprisal among its
sources at one realization (or an expectation of that).  Inversion turns
node values into per-node increments.

Values and increments are float lists in node order, indexed like
`lattice.nodes`, `lattice.members` and `lattice.upsets`; read one node's
entry through `lattice.index(node)`.

The production path is the chain walk (`chain_levels`).  At one
realization the source surprisals are totally ordered, so only the
up-sets {s : h(s) >= t} can carry a non-zero increment, and they form one
chain: each gets the gap t - t' to the next lower surprisal, and every
other node gets 0.0.  A node's value is the lesser of its parent's (the
node without its last member) and its last member's surprisal.  One walk
sums both, weighted, over (realization, weight) points: the support for
`decompose_expected`, one point of weight 1.0 for `decompose_pointwise`,
whose surprisals may be conditioned on a `given` source.  Two
oracles are kept for the tests and the `check` suite: the recursive form
subtracts the increments of everything strictly below a node, and the
closed form subtracts the largest value among the covered nodes; their
valuation (`lattice_valuation`) takes the least surprisal over each
node's members.  The chain walk makes the same float subtractions as the
closed form, so it matches it exactly and the recursive form within
rounding.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from itertools import groupby
from typing import Callable, Iterable, Sequence

from .distribution import JointDistribution, ZeroMass, variable_indices
from .lattice import Antichain, RedundancyLattice, enumerate_antichains
from .measures import pair_contents, surprisal_table, surprisals
from .record import Record


class LatticeValuation(Record):
    """Per-node values h(alpha) for one realization, or their expectations,
    in node order: `values[i]` belongs to `lattice.nodes[i]`."""

    __slots__ = ("lattice", "values")


class PartialValuation(Record):
    """Per-node increments, in node order, whose down-set sums reproduce the
    node values.

    `valuation` holds the node values the increments were inverted from.
    """

    __slots__ = ("lattice", "partials", "valuation")

    def total(self) -> float:
        return math.fsum(self.partials)


def _selected(
    d: JointDistribution,
    variables: Sequence[int] | None,
    lattice: RedundancyLattice | None = None,
) -> tuple[int, ...]:
    """Distinct distribution variable indices, as many as `lattice` spans if set."""
    sel = tuple(range(d.variables.n)) if variables is None else variable_indices(variables)
    if len(sel) != len(d.variables.check_source(sel)):
        raise ValueError("selected variables must be distinct")
    if lattice is not None and len(sel) != lattice.n:
        raise ValueError(f"lattice spans {lattice.n} variables but {len(sel)} were selected")
    return sel


def lattice_valuation(
    d: JointDistribution,
    lattice: RedundancyLattice,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
    given: Iterable[int] | None = None,
) -> LatticeValuation:
    """Value every lattice node at one realization (the oracle's valuation).

    `variables` maps lattice positions to distribution variable indices;
    by default the lattice spans all variables in order.
    """
    variables = _selected(d, variables, lattice)
    h = _lattice_table(d, lattice, variables, given)(realization)
    return LatticeValuation(lattice, [min(map(h.__getitem__, ids)) for ids in lattice.members])


def _lattice_table(
    d: JointDistribution,
    lattice: RedundancyLattice,
    variables: Sequence[int],
    given: Iterable[int] | None,
) -> Callable[[Sequence[int]], list[float]]:
    """`surprisal_table` of the lattice's sources, whose members are positions
    in `variables`, the distribution variable indices they stand for."""
    return surprisal_table(d, [[variables[i] for i in src] for src in lattice.sources], given)


def chain_levels(h: Sequence[float]) -> list[tuple[int, float]]:
    """The chain of one realization: (up-set mask, increment) per distinct surprisal.

    `h` holds the surprisal of each source, and bit k of a mask stands
    for source k.  Surprisals never fall as a source grows, so the set
    {s : h(s) >= t} is an up-set, hence a node, for every level t.  Its
    increment is t minus the next lower level (t itself after the last);
    every up-set off the chain has increment 0.0.
    """
    levels: list[tuple[float, int]] = []
    upset = 0
    ranked = sorted(range(len(h)), key=h.__getitem__, reverse=True)
    for t, group in groupby(ranked, key=h.__getitem__):
        for k in group:
            upset |= 1 << k
        levels.append((t, upset))
    lower = [t for t, _ in levels[1:]] + [0.0]
    return [(mask, t - t_next) for (t, mask), t_next in zip(levels, lower)]


def _node_values(lattice: RedundancyLattice, h: Sequence[float]) -> list[float]:
    """The least `h` among each node's members, in node order: the lesser of
    its parent's value and its last member's, as `min` picks it."""
    values: list[float] = []
    for parent, ids in zip(lattice.parents, lattice.members):
        x = h[ids[-1]]
        values.append(x if parent < 0 or x < values[parent] else values[parent])
    return values


def _walk(
    lattice: RedundancyLattice,
    table: Callable[[Sequence[int]], list[float]],
    points: Iterable[tuple[Sequence[int], float]],
) -> PartialValuation:
    """Weighted sums, over (realization, weight) points, of the node values
    and of the chain increments of each point's source surprisals (`table`)."""
    # One array of weighted node values per point: a list of float objects
    # per node raises the peak memory of an n = 5 run.
    values: list[array] = []
    increments: dict[int, list[float]] = defaultdict(list)
    for r, p in points:
        h = table(r)
        # p > 0 keeps the order of the surprisals, so the least weighted
        # surprisal is p times the least one, bit for bit
        values.append(array("d", _node_values(lattice, [p * x for x in h])))
        for mask, increment in chain_levels(h):
            increments[lattice._by_upset[mask]].append(p * increment)
    # The 0.0 increments off the chain are left out; fsum is exact, so
    # each sum is the one over every point.
    partials = [0.0] * len(lattice)
    for i, weighted in increments.items():
        partials[i] = math.fsum(weighted)
    return PartialValuation(
        lattice, partials, LatticeValuation(lattice, list(map(math.fsum, zip(*values))))
    )


def mobius_recursive(valuation: LatticeValuation) -> PartialValuation:
    """Bottom-up inversion: node value minus the strictly-lower increments."""
    lattice, values, upsets = valuation.lattice, valuation.values, valuation.lattice.upsets
    partials = [0.0] * len(lattice)
    for i in lattice._topo:
        # the nodes strictly below, whose up-sets strictly contain this one
        below = (j for j, m in enumerate(upsets) if upsets[i] & ~m == 0 and j != i)
        partials[i] = values[i] - math.fsum(map(partials.__getitem__, below))
    return PartialValuation(lattice, partials, valuation)


def mobius_closed_form(valuation: LatticeValuation) -> PartialValuation:
    """Closed-form inversion: node value minus the max over covered nodes.

    Valid for per-realization valuations, where node values inherit the
    total order of the underlying surprisals.
    """
    lattice, values = valuation.lattice, valuation.values
    covers = lattice._cover_ids()
    partials = [0.0] * len(lattice)
    for i in lattice._topo:
        covered = covers[i]
        partials[i] = values[i] - max(values[j] for j in covered) if covered else values[i]
    return PartialValuation(lattice, partials, valuation)


def decompose_pointwise(
    d: JointDistribution,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
    given: Iterable[int] | None = None,
) -> PartialValuation:
    """Node values and increments at one support realization, by the chain walk.

    The lattice spans `variables` (all of them by default), mapped to
    distribution variable indices as in `lattice_valuation`.  Its 2^n - 1
    source surprisals, conditioned on `given` if set, are read once, and
    `chain_levels` gives the increments.
    """
    sel = _selected(d, variables)
    if d.marginal_mass(sel, realization) <= 0.0:
        raise ZeroMass("realization outside the support of the selected variables")
    lattice = enumerate_antichains(len(sel))
    return _walk(lattice, _lattice_table(d, lattice, sel, given), [(realization, 1.0)])


def decompose_expected(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
) -> PartialValuation:
    """Support-weighted expectation of the pointwise increments.

    One walk over the support values each point once; the result's
    `valuation` holds the expected node values from the same walk.
    """
    sel = _selected(d, variables)
    lattice = enumerate_antichains(len(sel))
    return _walk(lattice, _lattice_table(d, lattice, sel, None), d.support())


def expected_valuation(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
) -> LatticeValuation:
    """Support-weighted expectation of the per-node values."""
    return decompose_expected(d, variables).valuation


# The 18 nodes of the three-variable lattice, bottom-up and already canonical,
# each with the expression (in the surface grammar) that its increment computes.
_TRIVARIATE_TERMS: tuple[tuple[tuple[tuple[int, ...], ...], str], ...] = (
    (((0,), (1,), (2,)), "{x} cap {y} cap {z}"),
    (((0,), (1,)), "({x} cap {y}) minus {z}"),
    (((0,), (2,)), "({x} cap {z}) minus {y}"),
    (((1,), (2,)), "({y} cap {z}) minus {x}"),
    (((0,), (1, 2)), "{x} cap ({y} oplus {z})"),
    (((1,), (0, 2)), "{y} cap ({x} oplus {z})"),
    (((2,), (0, 1)), "{z} cap ({x} oplus {y})"),
    (((0,),), "{x} minus ({y},{z})"),
    (((1,),), "{y} minus ({x},{z})"),
    (((2,),), "{z} minus ({x},{y})"),
    (((0, 1), (0, 2), (1, 2)), "({x} oplus {y}) cap ({x} oplus {z}) cap ({y} oplus {z})"),
    (((0, 1), (0, 2)), "(({x} oplus {y}) cap ({x} oplus {z})) minus ({y},{z})"),
    (((0, 1), (1, 2)), "(({x} oplus {y}) cap ({y} oplus {z})) minus ({x},{z})"),
    (((0, 2), (1, 2)), "(({x} oplus {z}) cap ({y} oplus {z})) minus ({x},{y})"),
    (((0, 1),), "({x} oplus {y}) minus (({x},{z}) cup ({y},{z}))"),
    (((0, 2),), "({x} oplus {z}) minus (({x},{y}) cup ({y},{z}))"),
    (((1, 2),), "({y} oplus {z}) minus (({x},{y}) cup ({x},{z}))"),
    (((0, 1, 2),), "({x},{y}) oplus ({x},{z}) oplus ({y},{z})"),
)


def trivariate_report(d: JointDistribution, realization: Sequence[int]) -> dict[str, float]:
    """The 18 named increments of a three-variable pointwise decomposition.

    The names use the expression grammar with the distribution's own
    variable names; each value is the increment of the matching lattice
    node, and the values sum to the joint surprisal.
    """
    if d.variables.n != 3:
        raise ValueError("trivariate report needs exactly three variables")
    pv = decompose_pointwise(d, realization)
    x, y, z = d.variables.names
    return {template.format(x=x, y=y, z=z): pv.partials[pv.lattice.index(Antichain(sources))]
            for sources, template in _TRIVARIATE_TERMS}


class MutualDecomposition(Record):
    """The five shared-information readings of a mutual information content.

    Every field is an unconditioned value minus its conditioned-on-target
    counterpart; all of them are signed.  `joint` is the mutual content of
    the combined predictors and equals the sum of intersection, the two
    uniques and synergy; `coinformation` equals intersection minus synergy.
    """

    __slots__ = ("union", "unique_first", "unique_second", "intersection", "synergy",
                 "joint", "coinformation")

    def parts_sum(self) -> float:
        return math.fsum(
            (self.intersection, self.unique_first, self.unique_second, self.synergy)
        )

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.__slots__, self._fields))


def _mi_point(log_masses: list[float]) -> list[float]:
    # Plain minus conditioned-on-target `pair_contents`, in the order of
    # `MutualDecomposition`'s fields, from three plain and three conditioned
    # surprisals, read in the order (and so with the errors) of one
    # `surprisal`/`cond_surprisal` call each.  The log masses are of a, b,
    # a|b, t, a|t, b|t and a|b|t (see `mi_decompose`).
    ha, hb = surprisals(log_masses, (0, 1))
    ca, cb = surprisals(log_masses, (4, 5), 3)
    (hab,) = surprisals(log_masses, (2,))
    (cab,) = surprisals(log_masses, (6,), 3)
    return [p - c for p, c in zip(pair_contents(ha, hb, hab), pair_contents(ca, cb, cab))]


def mi_decompose(
    d: JointDistribution,
    first,
    second,
    target,
    realization: Sequence[int] | None = None,
) -> MutualDecomposition:
    """Decompose what two predictor sources say about a target source.

    With a realization this is pointwise; without one, every component is
    averaged over the support.
    """
    a = d.variables.check_source(first)
    b = d.variables.check_source(second)
    t = d.variables.check_source(target)
    if a & b or a & t or b & t:
        raise ValueError("predictor and target sources must be pairwise disjoint")
    logs = d._log_mass_table([a, b, a | b, t, a | t, b | t, a | b | t])
    if realization is not None:
        return MutualDecomposition(*_mi_point(logs(realization)))
    weighted = ([p * x for x in _mi_point(logs(r))] for r, p in d.support())
    return MutualDecomposition(*map(math.fsum, zip(*weighted)))


def decomposition_rows(
    valuation: LatticeValuation,
    partials: PartialValuation,
    names: Sequence[str],
) -> list[tuple[str, float, float]]:
    """(label, value, increment) per node, bottom-up, for report rendering."""
    lattice = valuation.lattice
    labels, values, increments = lattice.labels(names), valuation.values, partials.partials
    return [(labels[i], values[i], increments[i]) for i in lattice._topo]
