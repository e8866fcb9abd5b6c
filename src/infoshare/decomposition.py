"""Valuations on the antichain lattice and their Möbius inversion.

A valuation assigns each lattice node the least surprisal among its
sources at one realization (or an expectation of that).  Inversion turns
node values into per-node increments.

The production path is the chain walk (`chain_levels`, laid onto a
lattice by `chain_walk`).  At one realization the source surprisals are
totally ordered, so only the up-sets {s : h(s) >= t} can carry a
non-zero increment, and they form one chain: each gets the gap t - t'
to the next lower surprisal, and every other node gets 0.0.  It needs
no lattice.  Two oracles are kept for the tests and the
`check` suite: the recursive form subtracts the increments of everything
strictly below a node, and the closed form subtracts the largest value
among the covered nodes.  The chain walk makes the same float
subtractions as the closed form, so it matches the closed form exactly
and the recursive form within rounding.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .distribution import JointDistribution, ZeroMass
from .lattice import Antichain, RedundancyLattice, enumerate_antichains
from .measures import cond_surprisal, content, intersection_content, surprisal


@dataclass
class LatticeValuation:
    """Per-node values h(alpha) for one realization, or their expectations."""

    lattice: RedundancyLattice
    values: dict[Antichain, float]


@dataclass
class PartialValuation:
    """Per-node increments whose down-set sums reproduce the node values.

    `valuation` holds the node values the increments were inverted from.
    """

    lattice: RedundancyLattice
    partials: dict[Antichain, float]
    valuation: LatticeValuation

    def total(self) -> float:
        return math.fsum(self.partials[node] for node in self.lattice.topo_order())


def redundancy_value(
    d: JointDistribution,
    alpha: Antichain,
    realization: Sequence[int],
    given: Iterable[int] | None = None,
) -> float:
    """Least (conditional) surprisal among the antichain's sources."""
    return intersection_content(d, alpha.sources, realization, given=given)


def _selected(
    d: JointDistribution,
    variables: Sequence[int] | None,
    lattice: RedundancyLattice | None = None,
) -> tuple[int, ...]:
    """Distinct distribution variable indices, as many as `lattice` spans if set."""
    sel = tuple(range(d.variables.n)) if variables is None else tuple(map(int, variables))
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
    h = dict(zip(lattice.sources,
                 source_surprisals(d, lattice.sources, realization, variables, given)))
    values = {node: min(h[src] for src in node.sources) for node in lattice.nodes}
    return LatticeValuation(lattice, values)


def source_surprisals(
    d: JointDistribution,
    sources: Sequence[tuple[int, ...]],
    realization: Sequence[int],
    variables: Sequence[int],
    given: Iterable[int] | None = None,
) -> list[float]:
    """Surprisal of each source at the realization, conditioned on `given` if set.

    Source members are positions in `variables`, which maps them to
    distribution variable indices.
    """
    h = content(d, given, realization)
    return [h([variables[i] for i in src]) for src in sources]


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


def _chain_point(
    d: JointDistribution,
    lattice: RedundancyLattice,
    realization: Sequence[int],
    variables: tuple[int, ...],
    given: Iterable[int] | None,
) -> tuple[list[float], list[tuple[Antichain, float]]]:
    """Node values in node order, and the chain nodes with their increments."""
    h = source_surprisals(d, lattice.sources, realization, variables, given)
    values = [min(map(h.__getitem__, ids)) for ids in lattice.members]
    return values, [(lattice.node_at(mask), inc) for mask, inc in chain_levels(h)]


def chain_walk(
    d: JointDistribution,
    lattice: RedundancyLattice,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
    given: Iterable[int] | None = None,
) -> PartialValuation:
    """Node values and increments at one realization, by the chain walk.

    The 2^n - 1 source surprisals (conditioned on `given` if set) are
    computed once, and `chain_levels` gives the increments.  `variables`
    maps lattice positions to distribution variable indices, as in
    `lattice_valuation`.
    """
    variables = _selected(d, variables, lattice)
    values, chain = _chain_point(d, lattice, realization, variables, given)
    partials = dict.fromkeys(lattice.nodes, 0.0)
    partials.update(chain)
    return PartialValuation(
        lattice, partials, LatticeValuation(lattice, dict(zip(lattice.nodes, values)))
    )


def mobius_recursive(valuation: LatticeValuation) -> PartialValuation:
    """Bottom-up inversion: node value minus the strictly-lower increments."""
    lattice = valuation.lattice
    partials: dict[Antichain, float] = {}
    for node in lattice.topo_order():
        below = valuation.lattice.down_set(node)
        acc = math.fsum(partials[b] for b in below if b != node)
        partials[node] = valuation.values[node] - acc
    return PartialValuation(lattice, partials, valuation)


def mobius_closed_form(valuation: LatticeValuation) -> PartialValuation:
    """Closed-form inversion: node value minus the max over covered nodes.

    Valid for per-realization valuations, where node values inherit the
    total order of the underlying surprisals.
    """
    lattice = valuation.lattice
    partials: dict[Antichain, float] = {}
    for node in lattice.topo_order():
        covered = lattice.covered_by(node)
        value = valuation.values[node]
        if covered:
            partials[node] = value - max(valuation.values[c] for c in covered)
        else:
            partials[node] = value
    return PartialValuation(lattice, partials, valuation)


def decompose_pointwise(
    d: JointDistribution,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
    allow_large: bool = False,
) -> PartialValuation:
    """Per-node increments at one support realization."""
    sel = _selected(d, variables)
    if d.marginal_mass(sel, realization) <= 0.0:
        raise ZeroMass("realization outside the support of the selected variables")
    lattice = enumerate_antichains(len(sel), allow_large)
    return chain_walk(d, lattice, realization, variables=sel)


def decompose_expected(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
    allow_large: bool = False,
) -> PartialValuation:
    """Support-weighted expectation of the pointwise increments.

    One walk over the support values each point once; the result's
    `valuation` holds the expected node values from the same walk.
    """
    sel = _selected(d, variables)
    lattice = enumerate_antichains(len(sel), allow_large)
    # One array of weighted node values per support point: a list of
    # float objects per node raises the peak memory of an n = 5 run.
    values: list[array] = []
    increments: dict[Antichain, list[float]] = defaultdict(list)
    for r, p in d.support():
        point_values, chain = _chain_point(d, lattice, r, sel, None)
        values.append(array("d", [p * v for v in point_values]))
        for node, increment in chain:
            increments[node].append(p * increment)
    # The 0.0 increments off the chain are left out; fsum is exact, so
    # each sum is the one over every support point.
    return PartialValuation(
        lattice,
        {node: math.fsum(increments.get(node, ())) for node in lattice.nodes},
        LatticeValuation(lattice, dict(zip(lattice.nodes, map(math.fsum, zip(*values))))),
    )


def expected_valuation(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
    allow_large: bool = False,
) -> LatticeValuation:
    """Support-weighted expectation of the per-node values."""
    return decompose_expected(d, variables, allow_large).valuation


# The 18 nodes of the three-variable lattice, bottom-up, each with the
# expression (in the surface grammar) that its increment computes.
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
    partials = decompose_pointwise(d, realization).partials
    x, y, z = d.variables.names
    report: dict[str, float] = {}
    for sources, template in _TRIVARIATE_TERMS:
        node = Antichain.normalize(sources)
        report[template.format(x=x, y=y, z=z)] = partials[node]
    return report


@dataclass(frozen=True)
class MutualDecomposition:
    """The five shared-information readings of a mutual information content.

    Every field is an unconditioned value minus its conditioned-on-target
    counterpart; all of them are signed.  `joint` is the mutual content of
    the combined predictors and equals the sum of intersection, the two
    uniques and synergy; `coinformation` equals intersection minus synergy.
    """

    union: float
    unique_first: float
    unique_second: float
    intersection: float
    synergy: float
    joint: float
    coinformation: float

    def parts_sum(self) -> float:
        return math.fsum(
            (self.intersection, self.unique_first, self.unique_second, self.synergy)
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "union": self.union,
            "unique_first": self.unique_first,
            "unique_second": self.unique_second,
            "intersection": self.intersection,
            "synergy": self.synergy,
            "joint": self.joint,
            "coinformation": self.coinformation,
        }


def _mi_point(d, first, second, target, realization) -> MutualDecomposition:
    # Plain minus conditioned-on-target readings of the pair measures,
    # built from three plain and three conditioned surprisals.
    ha = surprisal(d, first, realization)
    hb = surprisal(d, second, realization)
    ca = cond_surprisal(d, first, target, realization)
    cb = cond_surprisal(d, second, target, realization)
    hab = surprisal(d, first | second, realization)
    cab = cond_surprisal(d, first | second, target, realization)
    return MutualDecomposition(
        union=max(ha, hb) - max(ca, cb),
        unique_first=max(ha - hb, 0.0) - max(ca - cb, 0.0),
        unique_second=max(hb - ha, 0.0) - max(cb - ca, 0.0),
        intersection=min(ha, hb) - min(ca, cb),
        synergy=(hab - max(ha, hb)) - (cab - max(ca, cb)),
        joint=hab - cab,
        coinformation=(ha + hb - hab) - (ca + cb - cab),
    )


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
    if realization is not None:
        return _mi_point(d, a, b, t, realization)
    fields = ("union", "unique_first", "unique_second", "intersection",
              "synergy", "joint", "coinformation")
    acc: dict[str, list[float]] = {name: [] for name in fields}
    for r, p in d.support():
        point = _mi_point(d, a, b, t, r)
        for name in fields:
            acc[name].append(p * getattr(point, name))
    return MutualDecomposition(**{name: math.fsum(acc[name]) for name in fields})


def decomposition_rows(
    valuation: LatticeValuation,
    partials: PartialValuation,
    names: Sequence[str],
) -> list[tuple[str, float, float]]:
    """(label, value, increment) per node, bottom-up, for report rendering."""
    return [
        (node.label(names), valuation.values[node], partials.partials[node])
        for node in valuation.lattice.topo_order()
    ]
