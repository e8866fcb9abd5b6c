"""Antichain lattices over variable subsets, and their node algebra.

A node is an antichain of sources (non-empty variable subsets) and, by
Birkhoff's representation, the up-set of sources it generates: a bitmask
whose bit k stands for `enumerate_sources(n)[k]` (`upset_of`,
`antichain_of`).  `meet` and `join` are the OR and AND of those masks and
need no lattice.  Under the bottom-up order (`precedes`) a node is valued
by the least surprisal among its sources, as the decomposition engine
uses it; under the dual order it is a max-of-mins expression over
single-variable surprisals (`eval_sharing`, `sharing_join`, `sharing_meet`).
"""

from __future__ import annotations

from array import array
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .distribution import variable_indices
from .record import Record

MAX_N = 5

_DEFAULT_NAMES = ("x", "y", "z", "w", "v")


def default_names(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def canonical_source(members: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(variable_indices(members))))


def enumerate_sources(n: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of n variables, smallest first then lexicographic."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"variable count {n} outside supported range 1..{MAX_N}")
    return [
        combo
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
    ]


def sources_of(variables: Sequence[int]) -> list[tuple[int, ...]]:
    """`enumerate_sources(len(variables))`, each position i read as `variables[i]`."""
    return [tuple(variables[i] for i in src) for src in enumerate_sources(len(variables))]


class Antichain(Record):
    """Canonical set of pairwise-incomparable sources.

    Sources are stored sorted by size then member order, which makes
    equality and hashing structural.
    """

    __slots__ = ("sources",)

    def __init__(self, sources: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "sources", sources)

    @staticmethod
    def normalize(sources: Iterable[Iterable[int]]) -> "Antichain":
        """Drop strict supersets, deduplicate, and sort canonically."""
        candidates = sorted(
            {canonical_source(s) for s in sources}, key=lambda s: (len(s), s)
        )
        if not candidates:
            raise ValueError("an antichain needs at least one source")
        if not candidates[0]:  # sorted by size, so an empty source comes first
            raise ValueError("a source must contain at least one variable")
        kept: list[tuple[int, ...]] = []
        kept_masks: list[int] = []
        for src in candidates:
            mask = _source_mask(src)
            if not any(k & ~mask == 0 for k in kept_masks):
                kept.append(src)
                kept_masks.append(mask)
        return Antichain(tuple(kept))

    def sort_key(self) -> tuple:
        return tuple((len(s), s) for s in self.sources)

    def label(self, names: Sequence[str]) -> str:
        inner = "}{".join(",".join(map(names.__getitem__, src)) for src in self.sources)
        return "{" + inner + "}"


def precedes(alpha: Antichain, beta: Antichain) -> bool:
    """True when every source of beta contains some source of alpha."""
    alpha_masks = [_source_mask(a) for a in alpha.sources]
    return all(
        any(a & ~b == 0 for a in alpha_masks) for b in map(_source_mask, beta.sources)
    )


def meet(alpha: Antichain, beta: Antichain) -> Antichain:
    """Greatest lower bound: the union of the two up-sets."""
    n = _span(alpha, beta)
    return antichain_of(upset_of(alpha, n) | upset_of(beta, n), n)


def join(alpha: Antichain, beta: Antichain) -> Antichain:
    """Least upper bound: the intersection of the two up-sets."""
    n = _span(alpha, beta)
    return antichain_of(upset_of(alpha, n) & upset_of(beta, n), n)


# The same two operations read in the dual (max-of-mins) order.
sharing_join, sharing_meet = meet, join


def _source_mask(source: tuple[int, ...]) -> int:
    mask = 0
    for i in source:
        mask |= 1 << i
    return mask


def _bit_ids(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _span(alpha: Antichain, beta: Antichain) -> int:
    # the variable count the nodes reach: one past their largest member
    return 1 + max(map(max, filter(None, chain(alpha.sources, beta.sources))), default=0)


@lru_cache(maxsize=None)
def _source_table(n: int) -> tuple[
    tuple[tuple[int, ...], ...], dict[int, int], tuple[int, ...], tuple[int, ...],
]:
    """The sources of n variables, the bit of each source's variable mask,
    each source's up mask (the bits of the sources containing it), and each
    source's strict down mask (the bits of the sources strictly inside it)."""
    sources = tuple(enumerate_sources(n))
    smasks = [_source_mask(s) for s in sources]
    up = tuple(sum(1 << l for l, sl in enumerate(smasks) if sk & sl == sk) for sk in smasks)
    down = tuple(sum(1 << l for l, sl in enumerate(smasks) if sl & ~sk == 0 and sl != sk)
                 for sk in smasks)
    return sources, {m: k for k, m in enumerate(smasks)}, up, down


def upset_of(alpha: Antichain, n: int) -> int:
    """Mask of the sources of n variables that contain some source of alpha
    (members may be unsorted, repeated or comparable)."""
    _, bit, up, _ = _source_table(n)
    mask = 0
    for src in alpha.sources:
        k = bit.get(_source_mask(src))
        if k is None:
            raise ValueError(f"{src!r} is not a source of {n} variables")
        mask |= up[k]
    return mask


def antichain_of(mask: int, n: int) -> Antichain:
    """The minimal sources in a mask, in bit order, which is canonical order:
    for an up-set, the node that generates it."""
    sources, _, _, down = _source_table(n)
    if not 0 < mask < 1 << len(sources):
        raise ValueError(f"{mask:#x} is not a non-empty set of sources of {n} variables")
    # a source is minimal when no source strictly inside it is in the mask
    return Antichain(tuple([sources[k] for k in _bit_ids(mask) if not down[k] & mask]))


def _all_antichains(n: int) -> tuple[bytes, array, list[int]]:
    """Every antichain as its last member, its up-set mask and its parent.

    Sources are tried in canonical order, and one is taken only when no
    member already taken is comparable to it: the depth-first walk runs
    over the bits still free, those past the last member and comparable
    to none.  So every node's members, read up its parents, are already
    normalized, and the walk visits nodes in `sort_key` order.  A node's
    parent is the node with the same members but the last (-1 for one
    member), so it comes first.  Bit k of a mask stands for source k, so
    an up-set fits in an unsigned 64-bit word while there are at most 64
    sources (n <= 6), and a last member in a byte.
    """
    _, _, up, down = _source_table(n)
    # comparable[k]: the sources containing source k and those contained in it
    comparable = [u | d for u, d in zip(up, down)]
    last = bytearray()
    upsets = array("Q")
    parents: list[int] = []

    def extend(free: int, upset: int, parent: int) -> None:
        while free:
            low = free & -free
            free ^= low
            k = low.bit_length() - 1
            node, mask = len(upsets), upset | up[k]
            last.append(k)
            upsets.append(mask)
            parents.append(parent)
            extend(free & ~comparable[k], mask, node)

    extend((1 << len(up)) - 1, 0, -1)
    return bytes(last), upsets, parents


class RedundancyLattice:
    """Every antichain of non-empty subsets of n variables, with its order.

    The node count for n = 1..5 is 1, 4, 18, 166, 7579 (two less than the
    corresponding Dedekind numbers, which additionally count the empty
    antichain and the antichain of the empty set).

    Nodes are held by index, in `sort_key` order.  Three tables are flat,
    with no Python object per node: `upsets`, an `array("Q")` of the
    up-set of sources each node generates as a bitmask (bit k stands for
    `sources[k]`); `last_members`, the index into `sources` of each node's
    last member, one byte per node; and `_topo`, an `array("i")` of the
    nodes bottom-up.  `parents`, the node with the same members but the
    last, stays a tuple, which the walk reads fastest.  A node's members
    are its parent's followed by its last member.  Every other table is
    built on first use, and the walk and its reports build none of them:
    `members` spells the members out as tuples of indices into `sources`,
    `nodes` as `Antichain`s, `_by_upset` maps an up-set to its node for
    `index`, and `_cover_ids` lists the nodes each node covers.  Results
    over the lattice are lists in node order.

    Built, the n = 5 lattice holds 0.32 MiB of heap (1.32 MiB with an
    `int` per node in each table and the index built up front).
    `decompose --mode expected` on 5 binary variables with 8 support
    points peaks at 1.7-2.1 MiB of traced heap on Python 3.10-3.13, and
    at 16.3-16.6 MiB of RSS on Python 3.11, x86-64 Linux.

    The node order is reversed inclusion of up-sets, and covering pairs
    differ by exactly one source.  That keeps the cover relation cheap
    for every supported n (1..5, as `enumerate_sources` allows).
    """

    def __init__(self, n: int):
        self.n = n
        self.sources: tuple[tuple[int, ...], ...] = _source_table(n)[0]
        last_members, upsets, parents = _all_antichains(n)
        # index into `sources` of each node's last member, in node order
        self.last_members: bytes = last_members
        # up-set mask of each node, in node order
        self.upsets: array = upsets
        # the node with the same members but the last, -1 for one member
        self.parents: tuple[int, ...] = tuple(parents)
        self.bottom = Antichain(tuple((i,) for i in range(n)))
        self.top = Antichain((tuple(range(n)),))
        # bottom-up: up-set size decreases strictly up the order, and node
        # order breaks ties within a size; buckets of machine ints, as
        # `sorted(range(...))` would make an `int` object per node
        by_size = [array("i") for _ in range(len(self.sources) + 1)]
        for i, m in enumerate(upsets):
            by_size[m.bit_count()].append(i)
        self._topo = array("i", chain.from_iterable(reversed(by_size)))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Indices into `sources` of every node's members, in node order: its
        parent's (which come first) followed by its last member."""
        members: list[tuple[int, ...]] = []
        for parent, k in zip(self.parents, self.last_members):
            members.append((members[parent] if parent >= 0 else ()) + (k,))
        return tuple(members)

    @cached_property
    def nodes(self) -> tuple[Antichain, ...]:
        """The antichain of every node, in node order."""
        sources = self.sources
        return tuple(Antichain(tuple(map(sources.__getitem__, ids))) for ids in self.members)

    @cached_property
    def _by_upset(self) -> dict[int, int]:
        """The node of every up-set mask."""
        return {m: i for i, m in enumerate(self.upsets)}

    @cached_property
    def _cover_ids(self) -> tuple[tuple[int, ...], ...]:
        """The nodes each node covers, in node order: add one source, all of
        whose strict supersets are already in the up-set."""
        contain = _source_table(self.n)[2]  # the sources containing each source
        full = (1 << len(contain)) - 1
        by_upset = self._by_upset
        return tuple(
            tuple(sorted(
                by_upset[up | 1 << k]
                for k in _bit_ids(full & ~up)
                if contain[k] & ~up == 1 << k
            ))
            for up in self.upsets
        )

    def __len__(self) -> int:
        return len(self.upsets)

    def _find(self, alpha: object) -> int | None:
        # by up-set, then by members: a non-canonical antichain is no node
        if not isinstance(alpha, Antichain):
            return None
        try:
            i = self._by_upset.get(upset_of(alpha, self.n))
        except (TypeError, ValueError):
            return None
        if i is None or tuple(map(self.sources.__getitem__, self.members[i])) != alpha.sources:
            return None
        return i

    def __contains__(self, alpha: object) -> bool:
        return self._find(alpha) is not None

    def index(self, alpha: Antichain) -> int:
        """The position of a node in node order."""
        i = self._find(alpha)
        if i is None:
            raise ValueError(f"{alpha!r} is not a node of this lattice")
        return i

    def labels(self, names: Sequence[str]) -> list[str]:
        """`Antichain.label` of every node, in node order: its parent's label
        (which comes first) followed by its last member's braced label."""
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} variable names, got {len(names)}")
        source_labels = ["{" + ",".join(map(names.__getitem__, src)) + "}" for src in self.sources]
        labels: list[str] = []
        for parent, k in zip(self.parents, self.last_members):
            labels.append((labels[parent] if parent >= 0 else "") + source_labels[k])
        return labels


@lru_cache(maxsize=None)
def enumerate_antichains(n: int, /) -> RedundancyLattice:
    """Build (or fetch the cached) lattice of antichains over n variables:
    one lattice, and one cache entry, per n."""
    return RedundancyLattice(n)


def eval_sharing(alpha: Antichain, values: Sequence[float]) -> float:
    """Max over the antichain's sources of the min of the member values.

    Two plain loops, `<` for the min and `>` for the max, keep the first
    value seen on a tie, as `min` and `max` do; an antichain with no source,
    or a source with no member, is refused as those would refuse it.
    """
    top = None
    for src in alpha.sources:
        if not src:
            raise ValueError("a source must contain at least one variable")
        low = values[src[0]]
        for i in src:
            v = values[i]
            if v < low:
                low = v
        if top is None or low > top:
            top = low
    if top is None:
        raise ValueError("an antichain needs at least one source")
    return top


def dot_lines(
    lattice: RedundancyLattice,
    kind: str = "redundancy",
    names: Sequence[str] | None = None,
) -> Iterator[str]:
    """The lines of `to_dot`, without their newlines, made as they are read.

    The kind and the names are checked, and the labels and covers built,
    before the first line.
    """
    if kind not in ("redundancy", "sharing"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    if names is None:
        names = default_names(lattice.n)
    topo, covers, labels = lattice._topo, lattice._cover_ids, lattice.labels(names)
    if kind == "redundancy":
        edges = (f"  n{j} -> n{i};" for i in topo for j in covers[i])
    else:
        edges = (f"  n{i} -> n{j};" for i in topo for j in covers[i])
    return chain(
        (f"digraph {kind}_lattice {{", "  rankdir=BT;", "  node [shape=box, fontsize=11];"),
        (f'  n{i} [label="{labels[i]}"];' for i in topo),
        edges,
        ("}",),
    )


def to_dot(
    lattice: RedundancyLattice,
    kind: str = "redundancy",
    names: Sequence[str] | None = None,
) -> str:
    """Render the lattice as a DOT graph, one edge per covering pair.

    Both kinds share the node set; `sharing` flips the edge directions so
    that the all-singletons node sits on top under the dual order.
    """
    return "\n".join(dot_lines(lattice, kind, names)) + "\n"
