"""Valuations on the antichain lattice and their Möbius inversion.

A valuation assigns each lattice node the least surprisal among its
sources at one realization (or an expectation of that).  Inversion turns
node values into per-node increments.

Values and increments are float lists in node order, indexed like
`lattice.nodes`, `lattice.members` and `lattice.upsets`; read one node's
entry through `lattice.index(node)`.  Every decomposition, the walk's and
each inversion's, is one `PartialValuation(lattice, values, partials)`.

The production path is the chain walk.  At one realization the source
surprisals are totally ordered, so only the up-sets {s : h(s) >= t} can
carry a non-zero increment, and they form one chain: each gets the gap
t - t' to the next lower surprisal, and every other node gets 0.0.
`chain_levels` lists that chain in one pass over the sorted surprisals,
and `algebra` sums the levels of it that an expression, or a named
three-variable term of `trivariate_report`, covers.  A node's value
is the lesser of its parent's (the node without its last member) and its
last member's surprisal.  One walk sums both, weighted, over points
given as their rows of source surprisals and their weights: the support,
read in one column pass that checks no point, for `decompose_expected`;
one checked point of weight 1.0 for `decompose_pointwise`.  Two inversions
of `(lattice, values)` are kept for the tests and the `check` suite: the
closed form subtracts the largest value among the covered nodes, which
holds at one realization, and `mobius_inversion` inverts any valuation,
expected ones too; the per-realization valuation (`lattice_valuation`)
takes the least surprisal over each node's members, on the lattice of the
selected variables.  All three agree bit for bit at one realization.
`mi_decompose` reads its plain and its conditioned surprisals in one row
from one reader (`measures._surprisal_reader`) of log2 mass tables, at
each point `measures._points` gives: its realization, or the support.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from itertools import repeat
from typing import Iterable, Sequence

from .distribution import JointDistribution, ZeroMass, _key_of, variable_indices
from .lattice import RedundancyLattice, enumerate_antichains, sources_of
from .measures import _points, _surprisal_reader, pair_contents, surprisal_table
from .record import Record


class PartialValuation(Record):
    """A decomposition: per-node values h(alpha) at one realization, or their
    expectations, and the increments inverted from them, whose down-set sums
    reproduce the values.

    Both are in node order: `values[i]` and `partials[i]` belong to
    `lattice.nodes[i]`.
    """

    __slots__ = ("lattice", "values", "partials")

    def total(self) -> float:
        return math.fsum(self.partials)


def _selected(d: JointDistribution, variables: Sequence[int] | None) -> tuple[int, ...]:
    """Distinct distribution variable indices, all of them by default."""
    sel = tuple(range(d.variables.n)) if variables is None else variable_indices(variables)
    if len(sel) != len(d.variables.check_source(sel)):
        raise ValueError("selected variables must be distinct")
    return sel


def lattice_valuation(
    d: JointDistribution,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
    given: Iterable[int] | None = None,
) -> list[float]:
    """Every node's value at one realization, in node order (the oracle's valuation).

    `variables` maps lattice positions to distribution variable indices, all
    of them in order by default; the lattice is the one over that selection.
    """
    sel = _selected(d, variables)
    h = surprisal_table(d, sources_of(sel), given)(realization)
    return [min(map(h.__getitem__, ids)) for ids in enumerate_antichains(len(sel)).members]


def chain_levels(h: Sequence[float]) -> list[tuple[int, float]]:
    """The chain of one realization: (up-set mask, increment) per distinct surprisal.

    `h` holds the surprisal of each source, and bit k of a mask stands
    for source k.  Surprisals never fall as a source grows, so the set
    {s : h(s) >= t} is an up-set, hence a node, for every level t.  Its
    increment is t minus the next lower level (t itself after the last);
    every up-set off the chain has increment 0.0.  One pass over the sources,
    highest surprisal first, closes a level where the surprisal changes.
    """
    chain: list[tuple[int, float]] = []
    upset, t = 0, None
    for k in sorted(range(len(h)), key=h.__getitem__, reverse=True):
        if h[k] != t:
            if upset:
                chain.append((upset, t - h[k]))
            t = h[k]
        upset |= 1 << k
    if upset:
        chain.append((upset, t))  # t - 0.0 is t, bit for bit
    return chain


def _node_values(lattice: RedundancyLattice, h: Sequence[float]) -> list[float]:
    """The least `h` among each node's members, in node order: the lesser of
    its parent's value and its last member's, as `min` picks it."""
    values: list[float] = []
    for parent, k in zip(lattice.parents, lattice.last_members):
        x = h[k]
        values.append(x if parent < 0 or x < values[parent] else values[parent])
    return values


def _walk(
    lattice: RedundancyLattice,
    rows: Iterable[Sequence[float]],
    weights: Iterable[float],
) -> PartialValuation:
    """Weighted sums, over points given as their rows of source surprisals and
    their weights, of the node values and of the chain increments.

    A chain whose up-set mask is no node of the lattice (the surprisals
    fall as a source grows) is refused with `ValueError`.
    """
    # One array of weighted node values per point, not a list of float
    # objects per node: 7,579 small lists would raise the peak memory of an
    # n = 5 run.  The increments are keyed by up-set mask and placed in one
    # pass over `lattice.upsets`, so the walk builds no mask-to-node index.
    # The text report reads the two sums below in place as it writes its
    # lines, and keeps no row of its own.
    values: list[array] = []
    increments: dict[int, list[float]] = defaultdict(list)
    for h, p in zip(rows, weights):
        # p > 0 keeps the order of the surprisals, so the least weighted
        # surprisal is p times the least one, bit for bit
        values.append(array("d", _node_values(lattice, [p * x for x in h])))
        for mask, increment in chain_levels(h):
            increments[mask].append(p * increment)
    # The 0.0 increments off the chain are left out; fsum is exact, so
    # each sum is the one over every point.
    sums = {mask: math.fsum(weighted) for mask, weighted in increments.items()}
    partials = list(map(sums.pop, lattice.upsets, repeat(0.0)))
    if sums:
        raise ValueError(f"chain masks {', '.join(map(hex, sorted(sums)))} are no up-sets of nodes")
    return PartialValuation(lattice, list(map(math.fsum, zip(*values))), partials)


def mobius_closed_form(lattice: RedundancyLattice, values: Sequence[float]) -> PartialValuation:
    """Closed-form inversion: node value minus the max over covered nodes, valid
    at one realization, whose node values inherit the total order of the
    surprisals; `mobius_inversion` inverts expected valuations."""
    covers = lattice._cover_ids
    partials = [0.0] * len(lattice)
    for i in lattice._topo:
        covered = covers[i]
        partials[i] = values[i] - max(values[j] for j in covered) if covered else values[i]
    return PartialValuation(lattice, values, partials)


def mobius_inversion(lattice: RedundancyLattice, values: Sequence[float]) -> PartialValuation:
    """Inversion of any valuation: the sum, over each set T of the nodes a node
    covers (distributivity leaves no other terms), of (-1)^|T| times the value
    at the union of their up-sets and its own; at one realization, the closed
    form rounded once."""
    upsets, by_upset, partials = lattice.upsets, lattice._by_upset, []
    for upset, covered in zip(upsets, lattice._cover_ids):
        terms = [(1.0, upset)]  # (sign, up-set) of each union so far
        for j in covered:  # each cover adds one source: the unions are distinct
            terms += [(-sign, union | upsets[j]) for sign, union in terms]
        partials.append(math.fsum(sign * values[by_upset[union]] for sign, union in terms))
    return PartialValuation(lattice, values, partials)


def decompose_pointwise(
    d: JointDistribution,
    realization: Sequence[int],
    variables: Sequence[int] | None = None,
) -> PartialValuation:
    """Node values and increments at one support realization, by the chain walk.

    The lattice is the one over `variables` (all of them by default), mapped to
    distribution variable indices as in `lattice_valuation`.  Its 2^n - 1
    source surprisals are read once, and `chain_levels` gives the increments.
    """
    sel = _selected(d, variables)
    h = _support_row(d, sel, realization)  # off the support: `ZeroMass` before any n is refused
    return _walk(enumerate_antichains(len(sel)), [h], [1.0])


def _support_row(d: JointDistribution, sel: Sequence[int],
                 realization: Sequence[int]) -> tuple[float, ...]:
    """Every source's surprisal over `sel` at a realization, checked once, with mass on `sel`."""
    r = d.variables.check_realization(realization)
    if _key_of(sel)(r) not in d._table(frozenset(sel)):  # a table holds positive masses
        raise ZeroMass("realization outside the support of the selected variables")
    return next(_surprisal_reader(d, [(map(frozenset, sources_of(sel)), frozenset())])([r]))


def decompose_expected(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
) -> PartialValuation:
    """Support-weighted expectation of the pointwise increments.

    One walk over the support values each point once, from one column pass
    over the support's surprisals; the result's `values` are the expected
    node values from the same walk.
    """
    sel = _selected(d, variables)
    lattice = enumerate_antichains(len(sel))
    points, weights = _points(d)
    read = _surprisal_reader(d, [(map(frozenset, sources_of(sel)), frozenset())])
    return _walk(lattice, read(points), weights)


def expected_valuation(
    d: JointDistribution,
    variables: Sequence[int] | None = None,
) -> list[float]:
    """Support-weighted expectation of the per-node values, in node order."""
    return decompose_expected(d, variables).values


class MutualDecomposition(Record):
    """The seven two-source readings, in the field order of `pair_contents`.

    Plain readings at one point, as `pointwise` prints them, or, from
    `mi_decompose`, each plain value minus its conditioned-on-target one, signed.
    Either way `joint` (the joint content) equals intersection plus both
    uniques plus synergy, and `coinformation` is intersection minus synergy.
    """

    __slots__ = ("union", "unique_first", "unique_second", "intersection", "synergy",
                 "joint", "coinformation")

    def parts_sum(self) -> float:
        return math.fsum(
            (self.intersection, self.unique_first, self.unique_second, self.synergy)
        )

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.__slots__, self._fields))


def mi_decompose(
    d: JointDistribution,
    first,
    second,
    target,
    realization: Sequence[int] | None = None,
) -> MutualDecomposition:
    """Decompose what two predictor sources say about a target source.

    Every component is averaged over the points `measures._points` gives:
    a realization's point mass, so the pointwise reading, or the support.
    """
    a = d.variables.check_source(first)
    b = d.variables.check_source(second)
    t = d.variables.check_source(target)
    if a & b or a & t or b & t:
        raise ValueError("predictor and target sources must be pairwise disjoint")
    read = _surprisal_reader(d, [([a, b], frozenset()), ([a, b], t),
                                 ([a | b], frozenset()), ([a | b], t)])

    def point(h: tuple[float, ...]) -> list[float]:  # plain minus conditioned, field by field
        # read in the order, and so with the errors, of one `surprisal`/`cond_surprisal` each
        ha, hb, ca, cb, hab, cab = h
        return [p - c for p, c in zip(pair_contents(ha, hb, hab), pair_contents(ca, cb, cab))]

    points, weights = _points(d, realization)
    weighted = ([p * x for x in point(h)] for h, p in zip(read(points), weights))
    return MutualDecomposition(*map(math.fsum, zip(*weighted)))


def decomposition_rows(
    partials: PartialValuation,
    names: Sequence[str],
) -> list[tuple[str, float, float]]:
    """(label, value, increment) per node, bottom-up, for report rendering.

    The top node, the only one whose up-set holds a single source, comes last.
    """
    lattice, values, increments = partials.lattice, partials.values, partials.partials
    labels = lattice.labels(names)
    return [(labels[i], values[i], increments[i]) for i in lattice._topo]
