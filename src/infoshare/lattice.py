"""Antichain lattices over variable subsets.

Two readings of the same node set are supported.  Under the bottom-up
order (`precedes`) a node is valued by the least surprisal among its
sources, which is how the decomposition engine uses it.  Under the dual
order (`sharing_precedes`) a node is a max-of-mins expression over
single-variable surprisals, evaluated by `eval_sharing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

MAX_DEFAULT_N = 4
MAX_OVERRIDE_N = 5

_DEFAULT_NAMES = ("x", "y", "z", "w", "v")


def default_names(n: int) -> tuple[str, ...]:
    if n <= len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def canonical_source(members: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(i) for i in members)))


def enumerate_sources(n: int) -> list[tuple[int, ...]]:
    """All non-empty subsets of n variables, smallest first then lexicographic."""
    if not 1 <= n <= MAX_OVERRIDE_N:
        raise ValueError(f"variable count {n} outside supported range 1..{MAX_OVERRIDE_N}")
    return [
        combo
        for size in range(1, n + 1)
        for combo in combinations(range(n), size)
    ]


@dataclass(frozen=True)
class Antichain:
    """Canonical set of pairwise-incomparable sources.

    Sources are stored sorted by size then member order, which makes
    equality and hashing structural.
    """

    sources: tuple[tuple[int, ...], ...]

    @staticmethod
    def normalize(sources: Iterable[Iterable[int]]) -> "Antichain":
        """Drop strict supersets, deduplicate, and sort canonically."""
        candidates = sorted(
            {canonical_source(s) for s in sources}, key=lambda s: (len(s), s)
        )
        if not candidates:
            raise ValueError("an antichain needs at least one source")
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

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.label(default_names(max(max(s) for s in self.sources) + 1))


def precedes(alpha: Antichain, beta: Antichain) -> bool:
    """True when every source of beta contains some source of alpha."""
    alpha_masks = [_source_mask(a) for a in alpha.sources]
    return all(
        any(a & ~b == 0 for a in alpha_masks) for b in map(_source_mask, beta.sources)
    )


def sharing_precedes(alpha: Antichain, beta: Antichain) -> bool:
    """Order of the max-of-mins reading; the dual of `precedes`."""
    return precedes(beta, alpha)


def meet(alpha: Antichain, beta: Antichain) -> Antichain:
    """Greatest lower bound: minimal sources of the pooled collection."""
    return Antichain.normalize(alpha.sources + beta.sources)


def join(alpha: Antichain, beta: Antichain) -> Antichain:
    """Least upper bound: minimal pairwise unions of sources."""
    return Antichain.normalize(
        tuple(set(a) | set(b)) for a in alpha.sources for b in beta.sources
    )


# The same two operations read in the dual (max-of-mins) order.
def sharing_join(alpha: Antichain, beta: Antichain) -> Antichain:
    return meet(alpha, beta)


def sharing_meet(alpha: Antichain, beta: Antichain) -> Antichain:
    return join(alpha, beta)


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


def _all_antichains(
    sources: Sequence[tuple[int, ...]],
) -> list[tuple[Antichain, tuple[int, ...], int]]:
    """Every antichain with its member indices and up-set mask.

    Sources are tried in canonical order, and one is taken only when no
    member already taken is comparable to it.  So every member tuple is
    already normalized, and the depth-first order is the `sort_key`
    order.  Bit k of a mask stands for `sources[k]`.
    """
    smasks = [_source_mask(s) for s in sources]
    # up[k]: the sources containing source k; comparable[k]: those and
    # the sources contained in it
    up = [sum(1 << l for l, sl in enumerate(smasks) if sk & sl == sk) for sk in smasks]
    comparable = [
        u | sum(1 << l for l, sl in enumerate(smasks) if sk & sl == sl)
        for sk, u in zip(smasks, up)
    ]
    found: list[tuple[Antichain, tuple[int, ...], int]] = []

    def extend(start: int, members: tuple, ids: tuple, blocked: int, upset: int) -> None:
        for k in range(start, len(sources)):
            if not blocked >> k & 1:
                chosen, chosen_ids = members + (sources[k],), ids + (k,)
                found.append((Antichain(chosen), chosen_ids, upset | up[k]))
                extend(k + 1, chosen, chosen_ids, blocked | comparable[k], upset | up[k])

    extend(0, (), (), 0, 0)
    return found


class RedundancyLattice:
    """Every antichain of non-empty subsets of n variables, with its order.

    The node count for n = 1..5 is 1, 4, 18, 166, 7579 (two less than the
    corresponding Dedekind numbers, which additionally count the empty
    antichain and the antichain of the empty set).

    Each node is also identified with the up-set of sources its antichain
    generates, kept as a bitmask over `sources` (bit k stands for
    `sources[k]`): the node order is reversed inclusion of up-sets, and
    covering pairs differ by exactly one source.  That keeps the cover
    relation cheap for every supported n; it is built on first use.
    """

    def __init__(self, n: int, allow_large: bool = False):
        limit = MAX_OVERRIDE_N if allow_large else MAX_DEFAULT_N
        if not 1 <= n <= limit:
            hint = "" if allow_large else " (n = 5 needs the explicit override)"
            raise ValueError(f"variable count {n} outside supported range 1..{limit}{hint}")
        self.n = n
        self.sources: tuple[tuple[int, ...], ...] = tuple(enumerate_sources(n))
        nodes, members, upsets = zip(*_all_antichains(self.sources))
        self.nodes: tuple[Antichain, ...] = nodes
        # indices into `sources` of each node's members, in node order
        self.members: tuple[tuple[int, ...], ...] = members
        # up-set mask of each node, in node order
        self.upsets: tuple[int, ...] = upsets
        self._index = {node: i for i, node in enumerate(nodes)}
        self._by_upset = {m: i for i, m in enumerate(upsets)}
        self.bottom = Antichain(tuple((i,) for i in range(n)))
        self.top = Antichain((tuple(range(n)),))
        self._covers: list[tuple[int, ...]] | None = None
        self._topo: tuple[Antichain, ...] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Antichain]:
        return iter(self.nodes)

    def __contains__(self, alpha: object) -> bool:
        return alpha in self._index

    def index(self, alpha: Antichain) -> int:
        try:
            return self._index[alpha]
        except KeyError:
            raise ValueError(f"{alpha!r} is not a node of this lattice") from None

    def node_at(self, upset: int) -> Antichain:
        """The node whose up-set mask is `upset`."""
        try:
            return self.nodes[self._by_upset[upset]]
        except KeyError:
            raise ValueError(f"{upset:#x} is not the up-set of a node") from None

    def _build_covers(self) -> list[tuple[int, ...]]:
        # the up-set of a one-source node: the sources containing it
        contain = [self.upsets[self._index[Antichain((s,))]] for s in self.sources]
        full = (1 << len(contain)) - 1
        by_upset = self._by_upset
        # covered nodes: add one source, all of whose strict supersets are
        # already in the up-set
        return [
            tuple(sorted(
                by_upset[up | 1 << k]
                for k in _bit_ids(full & ~up)
                if contain[k] & ~up == 1 << k
            ))
            for up in self.upsets
        ]

    def down_set(self, alpha: Antichain) -> tuple[Antichain, ...]:
        """All nodes below or equal to alpha, in node order."""
        up = self.upsets[self.index(alpha)]
        return tuple(node for node, m in zip(self.nodes, self.upsets) if up & ~m == 0)

    def covered_by(self, alpha: Antichain) -> tuple[Antichain, ...]:
        """Maximal strict predecessors of alpha."""
        if self._covers is None:
            self._covers = self._build_covers()
        return tuple(self.nodes[j] for j in self._covers[self.index(alpha)])

    def topo_order(self) -> tuple[Antichain, ...]:
        """Nodes sorted bottom-up; up-set size decreases strictly up the order."""
        if self._topo is None:
            # node order is `sort_key` order, so the index breaks ties alike
            up = self.upsets
            order = sorted(range(len(up)), key=lambda i: (-up[i].bit_count(), i))
            self._topo = tuple(self.nodes[i] for i in order)
        return self._topo


@lru_cache(maxsize=None)
def enumerate_antichains(n: int, allow_large: bool = False) -> RedundancyLattice:
    """Build (or fetch the cached) lattice of antichains over n variables."""
    return RedundancyLattice(n, allow_large)


def eval_sharing(alpha: Antichain, values: Sequence[float]) -> float:
    """Max over the antichain's sources of the min of the member values."""
    return max(min(values[i] for i in src) for src in alpha.sources)


def total_order_reduce(values: Sequence[float]) -> tuple[int, ...]:
    """Variable indices by descending value; ties broken by ascending index.

    Every antichain evaluated against `values` yields the value at one of
    these indices, so the whole sharing lattice collapses onto this chain.
    """
    return tuple(sorted(range(len(values)), key=lambda i: (-values[i], i)))


def max_via_min_expansion(values: Sequence[float]) -> float:
    """Alternating inclusion-exclusion sum of subset minima; equals the max."""
    n = len(values)
    if n == 0:
        raise ValueError("at least one value is required")
    terms = []
    for k in range(1, n + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for subset in combinations(range(n), k):
            terms.append(sign * min(values[i] for i in subset))
    return math.fsum(terms)


def to_dot(
    lattice: RedundancyLattice,
    kind: str = "redundancy",
    names: Sequence[str] | None = None,
) -> str:
    """Render the lattice as a DOT graph, one edge per covering pair.

    Both kinds share the node set; `sharing` flips the edge directions so
    that the all-singletons node sits on top under the dual order.
    """
    if kind not in ("redundancy", "sharing"):
        raise ValueError(f"unknown lattice kind {kind!r}")
    if names is None:
        names = default_names(lattice.n)
    lines = [
        f"digraph {kind}_lattice {{",
        "  rankdir=BT;",
        "  node [shape=box, fontsize=11];",
    ]
    order = {node: i for i, node in enumerate(lattice.nodes)}
    for node in lattice.topo_order():
        lines.append(f'  n{order[node]} [label="{node.label(names)}"];')
    for node in lattice.topo_order():
        i = order[node]
        for covered in lattice.covered_by(node):
            j = order[covered]
            if kind == "redundancy":
                lines.append(f"  n{j} -> n{i};")
            else:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
