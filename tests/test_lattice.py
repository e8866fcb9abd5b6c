from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoshare import (
    Antichain,
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    join,
    max_via_min_expansion,
    meet,
    precedes,
    sharing_join,
    sharing_meet,
    sharing_precedes,
    to_dot,
    total_order_reduce,
)

A = Antichain.normalize


def brute_force_antichains(n):
    """Independent oracle: filter every family of sources for incomparability."""
    sources = [frozenset(s) for s in enumerate_sources(n)]
    count = 0
    for k in range(1, len(sources) + 1):
        for family in combinations(sources, k):
            if all(
                not (a < b or b < a) for a, b in combinations(family, 2)
            ):
                count += 1
    return count


def test_enumerate_sources():
    assert enumerate_sources(1) == [(0,)]
    assert len(enumerate_sources(2)) == 3
    assert len(enumerate_sources(3)) == 7
    assert enumerate_sources(2) == [(0,), (1,), (0, 1)]
    with pytest.raises(ValueError):
        enumerate_sources(0)
    with pytest.raises(ValueError):
        enumerate_sources(6)


def test_antichain_normalization():
    assert A([(1, 0), (0,)]) == A([(0,)])
    assert A([(0, 1), (1, 0)]) == Antichain(((0, 1),))
    assert A([(1,), (0,)]).sources == ((0,), (1,))
    assert A([(2,), (0, 1)]).sources == ((2,), (0, 1))
    with pytest.raises(ValueError):
        A([])


def test_antichain_labels():
    names = ("X", "Y", "Z")
    assert A([(0,), (1, 2)]).label(names) == "{X}{Y,Z}"


@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18)])
def test_node_counts_small(n, count):
    lattice = enumerate_antichains(n)
    assert len(lattice) == count
    assert brute_force_antichains(n) == count


def test_node_count_n4():
    assert len(enumerate_antichains(4)) == 166
    assert brute_force_antichains(4) == 166


def test_n5_needs_override():
    with pytest.raises(ValueError, match="override"):
        enumerate_antichains(5)
    lattice = enumerate_antichains(5, True)
    assert len(lattice) == 7579
    with pytest.raises(ValueError):
        enumerate_antichains(6, True)


def test_precedes_examples():
    assert precedes(A([(0,)]), A([(0, 1)]))
    assert precedes(A([(0,), (1,)]), A([(0,)]))
    assert not precedes(A([(0,)]), A([(1,)]))


def test_partial_order_axioms_exhaustive():
    lattice = enumerate_antichains(3)
    nodes = lattice.nodes
    for a in nodes:
        assert precedes(a, a)
    for a in nodes:
        for b in nodes:
            if precedes(a, b) and precedes(b, a):
                assert a == b
    for a in nodes:
        below_a = [b for b in nodes if precedes(b, a)]
        for b in below_a:
            for c in nodes:
                if precedes(c, b):
                    assert precedes(c, a)


def test_meet_join_examples():
    assert meet(A([(0,)]), A([(1,)])) == A([(0,), (1,)])
    assert meet(A([(0,)]), A([(0, 1)])) == A([(0,)])
    two = enumerate_antichains(2)
    assert join(A([(0,)]), A([(1,)])) == A([(0, 1)])
    for alpha in two.nodes:
        assert meet(alpha, alpha) == alpha
        assert join(alpha, alpha) == alpha
        assert join(two.bottom, alpha) == alpha


def test_meet_join_are_bounds_exhaustive():
    # Bound-search oracle over the full n<=3 lattices.
    for n in (2, 3):
        lattice = enumerate_antichains(n)
        nodes = lattice.nodes
        for a in nodes:
            for b in nodes:
                m = meet(a, b)
                lower = [c for c in nodes if precedes(c, a) and precedes(c, b)]
                assert m in lower
                assert all(precedes(c, m) for c in lower)
                j = join(a, b)
                upper = [c for c in nodes if precedes(a, c) and precedes(b, c)]
                assert j in upper
                assert all(precedes(j, c) for c in upper)


def test_down_set_and_covers():
    two = enumerate_antichains(2)
    assert two.down_set(two.bottom) == (two.bottom,)
    assert len(two.down_set(two.top)) == len(two)
    assert set(two.covered_by(two.top)) == {A([(0,)]), A([(1,)])}
    assert two.covered_by(two.bottom) == ()
    three = enumerate_antichains(3)
    assert len(three.down_set(three.top)) == 18
    with pytest.raises(ValueError, match="not a node"):
        three.index(A([(3,)]))


def test_covers_match_maximal_strict_predecessors():
    # The one-source-at-a-time cover construction against brute force.
    for n in (2, 3, 4):
        lattice = enumerate_antichains(n)
        for a in lattice.nodes:
            strict = [b for b in lattice.nodes if b != a and precedes(b, a)]
            maximal = {
                b
                for b in strict
                if not any(c != b and precedes(b, c) for c in strict)
            }
            assert set(lattice.covered_by(a)) == maximal


def test_down_set_intersection_is_meet_downset():
    # The set algebra the lowering relies on, checked exhaustively.
    for n in (2, 3):
        lattice = enumerate_antichains(n)
        down = {node: frozenset(lattice.down_set(node)) for node in lattice.nodes}
        for a in lattice.nodes:
            for b in lattice.nodes:
                assert down[a] & down[b] == down[meet(a, b)]


def test_topo_order_is_linear_extension():
    for n in (2, 3, 4):
        lattice = enumerate_antichains(n)
        position = {node: i for i, node in enumerate(lattice.topo_order())}
        for a in lattice.nodes:
            for b in lattice.nodes:
                if a != b and precedes(a, b):
                    assert position[a] < position[b]
        assert lattice.topo_order()[0] == lattice.bottom
        assert lattice.topo_order()[-1] == lattice.top


def test_eval_sharing_examples():
    h = (1.0, 2.0, 3.0)
    assert eval_sharing(A([(0,), (1, 2)]), h) == 2.0
    assert eval_sharing(A([(0,)]), h) == 1.0
    assert eval_sharing(A([(0,), (1,)]), h) == 2.0


def test_sharing_precedes_examples():
    assert sharing_precedes(A([(0, 1)]), A([(0,)]))
    assert sharing_precedes(A([(0,)]), A([(0,), (1,)]))
    assert not sharing_precedes(A([(0,)]), A([(1,)]))


def test_sharing_order_is_dual():
    lattice = enumerate_antichains(3)
    for a in lattice.nodes:
        for b in lattice.nodes:
            assert sharing_precedes(a, b) == precedes(b, a)


@st.composite
def antichain_over(draw, n):
    lattice = enumerate_antichains(n)
    return draw(st.sampled_from(lattice.nodes))


@st.composite
def vector_and_antichains(draw, count):
    n = draw(st.integers(min_value=2, max_value=3))
    h = tuple(
        draw(st.floats(min_value=0.0, max_value=8.0, allow_nan=False))
        for _ in range(n)
    )
    alphas = tuple(draw(antichain_over(n)) for _ in range(count))
    return h, alphas


@settings(max_examples=150, deadline=None)
@given(vector_and_antichains(3))
def test_lattice_laws_on_eval(data):
    h, (a, b, c) = data

    def ev(alpha):
        return eval_sharing(alpha, h)

    assert sharing_join(a, a) == a
    assert sharing_meet(a, a) == a
    assert ev(sharing_join(a, b)) == ev(sharing_join(b, a))
    assert ev(sharing_meet(a, b)) == ev(sharing_meet(b, a))
    assert abs(ev(sharing_join(sharing_join(a, b), c)) - ev(sharing_join(a, sharing_join(b, c)))) <= 1e-12
    assert abs(ev(sharing_meet(sharing_meet(a, b), c)) - ev(sharing_meet(a, sharing_meet(b, c)))) <= 1e-12
    assert sharing_join(a, sharing_meet(a, b)) == a
    assert sharing_meet(a, sharing_join(a, b)) == a
    assert abs(
        ev(sharing_join(a, sharing_meet(b, c)))
        - ev(sharing_meet(sharing_join(a, b), sharing_join(a, c)))
    ) <= 1e-12
    # arithmetic reading of join/meet
    assert ev(sharing_join(a, b)) == max(ev(a), ev(b))
    assert ev(sharing_meet(a, b)) == min(ev(a), ev(b))


@settings(max_examples=150, deadline=None)
@given(vector_and_antichains(2))
def test_sharing_monotone(data):
    h, (a, b) = data
    if sharing_precedes(a, b):
        assert eval_sharing(a, h) <= eval_sharing(b, h) + 1e-12


def test_total_order_reduce_examples():
    assert total_order_reduce((1.0, 2.0, 3.0)) == (2, 1, 0)
    assert total_order_reduce((1.0, 1.0)) == (0, 1)
    h = (0.2, 0.9, 0.5)
    lattice = enumerate_antichains(3)
    for node in lattice.nodes:
        assert eval_sharing(node, h) in set(h)
    order = total_order_reduce(h)
    assert [h[i] for i in order] == sorted(h, reverse=True)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
        min_size=1,
        max_size=5,
    )
)
def test_max_min_identity(values):
    assert abs(max(values) - max_via_min_expansion(values)) <= 1e-9


def test_dot_export_redundancy_n2():
    lattice = enumerate_antichains(2)
    dot = to_dot(lattice, kind="redundancy")
    assert dot.count("[label=") == 4
    assert dot.count("->") == 4
    assert "rankdir=BT" in dot
    # the top node only ever appears as an edge target
    top_id = f"n{lattice.index(lattice.top)}"
    assert f"  {top_id} ->" not in dot


def test_dot_export_n3_both_kinds():
    lattice = enumerate_antichains(3)
    red = to_dot(lattice, kind="redundancy")
    shr = to_dot(lattice, kind="sharing")
    assert red.count("[label=") == 18
    assert shr.count("[label=") == 18
    red_edges = {l.strip() for l in red.splitlines() if "->" in l}
    shr_edges = {l.strip() for l in shr.splitlines() if "->" in l}
    flipped = {
        f"{e.rstrip(';').split(' -> ')[1]} -> {e.rstrip(';').split(' -> ')[0]};"
        for e in red_edges
    }
    assert flipped == shr_edges
    with pytest.raises(ValueError, match="kind"):
        to_dot(lattice, kind="other")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_built_nodes_are_normalized_with_their_upsets(n):
    lattice = enumerate_antichains(n, True)
    assert list(lattice.nodes) == sorted(lattice.nodes, key=Antichain.sort_key)
    sets = [frozenset(s) for s in lattice.sources]
    for i, node in enumerate(lattice.nodes):
        assert node == A(node.sources)
        assert tuple(lattice.sources[k] for k in lattice.members[i]) == node.sources
        upset = sum(
            1 << k for k, s in enumerate(sets) if any(frozenset(m) <= s for m in node.sources)
        )
        assert lattice.upsets[i] == upset
        assert lattice.node_at(upset) is node
    assert lattice.bottom == A([(i,) for i in range(n)])
    assert lattice.top == A([tuple(range(n))])
    assert len(set(lattice.upsets)) == len(lattice)
    with pytest.raises(ValueError, match="not the up-set"):
        lattice.node_at(0)
