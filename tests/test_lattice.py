import random
from array import array
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoshare import (
    Antichain,
    antichain_of,
    default_names,
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    join,
    meet,
    precedes,
    sharing_join,
    sharing_meet,
    to_dot,
    upset_of,
)
from infoshare import decomposition
from infoshare.cli import main
from infoshare.lattice import RedundancyLattice
from infoshare.sampling import random_distribution, trial_rng

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


def test_the_library_bound_is_the_only_bound(capsys):
    # The library builds every n in 1..5, and the CLI reports its refusal as is.
    assert len(enumerate_antichains(5)) == 7579
    with pytest.raises(ValueError, match="outside supported range 1..5") as refused:
        enumerate_antichains(6)
    assert main(["lattice", "--n", "6"]) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def test_one_lattice_per_n():
    # The variable count is the only argument, so each n has one cache entry.
    enumerate_antichains.cache_clear()
    lattices = [enumerate_antichains(n) for n in (4, 3, 4, 4)]
    assert lattices[0] is lattices[2] is lattices[3]
    assert enumerate_antichains.cache_info().currsize == 2
    for args, kwargs in (((4, False), {}), ((4, True), {}), ((4,), {"allow_large": False}),
                         ((), {"n": 4})):
        with pytest.raises(TypeError):
            enumerate_antichains(*args, **kwargs)
    assert enumerate_antichains.cache_info().currsize == 2


def test_a_decompose_builds_no_member_tuples(tmp_path, capsys):
    # The walk and the report read each node's last member; the member
    # tuples are built only when asked for.
    five = tmp_path / "five.csv"
    five.write_text("A,B,C,D,E,p\n0,0,0,0,0,0.25\n0,1,0,1,1,0.25\n1,1,0,0,1,0.5\n")
    enumerate_antichains.cache_clear()
    assert main(["decompose", str(five)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7579 + 5
    lattice = enumerate_antichains(5)
    assert "members" not in vars(lattice)
    assert len(lattice.members) == 7579 and "members" in vars(lattice)


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


def _down_set(lattice, i):
    # the nodes below or equal to node i: their up-sets contain its up-set
    return [j for j, m in enumerate(lattice.upsets) if lattice.upsets[i] & ~m == 0]


def test_down_set_and_covers():
    two = enumerate_antichains(2)
    bottom, top = two.index(two.bottom), two.index(two.top)
    assert _down_set(two, bottom) == [bottom]
    assert len(_down_set(two, top)) == len(two)
    assert {two.nodes[j] for j in two._cover_ids[top]} == {A([(0,)]), A([(1,)])}
    assert two._cover_ids[bottom] == ()
    three = enumerate_antichains(3)
    assert len(_down_set(three, three.index(three.top))) == 18
    with pytest.raises(ValueError, match="not a node"):
        three.index(A([(3,)]))


def test_covers_match_maximal_strict_predecessors():
    # The one-source-at-a-time cover construction against brute force.
    for n in (2, 3, 4):
        lattice = enumerate_antichains(n)
        for a, covers in zip(lattice.nodes, lattice._cover_ids):
            strict = [b for b in lattice.nodes if b != a and precedes(b, a)]
            maximal = {
                b
                for b in strict
                if not any(c != b and precedes(b, c) for c in strict)
            }
            assert {lattice.nodes[j] for j in covers} == maximal


def test_down_set_intersection_is_meet_downset():
    # The set algebra the lowering relies on, checked exhaustively.
    for n in (2, 3):
        lattice = enumerate_antichains(n)
        down = {node: frozenset(map(lattice.nodes.__getitem__, _down_set(lattice, i)))
                for i, node in enumerate(lattice.nodes)}
        for a in lattice.nodes:
            for b in lattice.nodes:
                assert down[a] & down[b] == down[meet(a, b)]


def test_topo_order_is_linear_extension():
    for n in (2, 3, 4):
        lattice = enumerate_antichains(n)
        topo = [lattice.nodes[i] for i in lattice._topo]
        position = {node: i for i, node in enumerate(topo)}
        for a in lattice.nodes:
            for b in lattice.nodes:
                if a != b and precedes(a, b):
                    assert position[a] < position[b]
        assert topo[0] == lattice.bottom
        assert topo[-1] == lattice.top


def test_eval_sharing_examples():
    h = (1.0, 2.0, 3.0)
    assert eval_sharing(A([(0,), (1, 2)]), h) == 2.0
    assert eval_sharing(A([(0,)]), h) == 1.0
    assert eval_sharing(A([(0,), (1,)]), h) == 2.0


def test_dual_order_examples():
    # The sharing order is `precedes` read backwards.
    assert precedes(A([(0,)]), A([(0, 1)]))
    assert precedes(A([(0,), (1,)]), A([(0,)]))
    assert not precedes(A([(1,)]), A([(0,)]))


def test_sharing_order_is_dual():
    # Under the dual order, sharing_join is the least upper bound and
    # sharing_meet the greatest lower bound.
    nodes = enumerate_antichains(3).nodes
    for a in nodes:
        for b in nodes:
            upper = [c for c in nodes if precedes(c, a) and precedes(c, b)]
            assert sharing_join(a, b) in upper
            assert all(precedes(c, sharing_join(a, b)) for c in upper)
            lower = [c for c in nodes if precedes(a, c) and precedes(b, c)]
            assert sharing_meet(a, b) in lower
            assert all(precedes(sharing_meet(a, b), c) for c in lower)


@st.composite
def antichain_over(draw, n):
    lattice = enumerate_antichains(n)
    return draw(st.sampled_from(lattice.nodes))


@st.composite
def vector_and_antichains(draw, count):
    n = draw(st.integers(min_value=2, max_value=4))
    value = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
    if draw(st.booleans()):  # from three values, so that ties are common
        value = st.sampled_from((0.0, 1.5, 3.0))
    h = tuple(draw(value) for _ in range(n))
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
    if precedes(b, a):  # a below b in the sharing order
        assert eval_sharing(a, h) <= eval_sharing(b, h) + 1e-12


def test_eval_sharing_takes_one_of_the_values():
    # Every node's max-of-mins is one of the single-variable values, and
    # every value is some node's.
    lattice = enumerate_antichains(3)
    for h in ((0.2, 0.9, 0.5), (1.0, 1.0, 3.0), (2.0, 2.0, 2.0)):
        values = {eval_sharing(node, h) for node in lattice.nodes}
        assert values == set(h)
    assert eval_sharing(lattice.bottom, (0.2, 0.9, 0.5)) == 0.9
    assert eval_sharing(lattice.top, (0.2, 0.9, 0.5)) == 0.2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_sharing_matches_the_builtin_max_of_mins_bit_for_bit(n):
    # on ties `min` and `max` keep the first value seen, which hex tells
    # apart for 0.0 against -0.0
    rng = random.Random(n)
    vectors = [tuple(rng.random() * 4 for _ in range(n)) for _ in range(20)]
    vectors += [(1.5,) * n, (0.0,) * n, tuple((0.0, -0.0)[i % 2] for i in range(n)),
                tuple((-0.0, 0.0)[i % 2] for i in range(n)),
                tuple(float(i // 2) for i in range(n)), tuple(float(n - i // 2) for i in range(n))]
    for values in vectors:
        for alpha in enumerate_antichains(n).nodes:
            oracle = max(min(values[i] for i in src) for src in alpha.sources)
            assert eval_sharing(alpha, values).hex() == oracle.hex(), (alpha, values)


@pytest.mark.parametrize("alpha", [Antichain(()), Antichain(((),)), Antichain(((0,), ()))],
                         ids=["no source", "empty source", "empty later source"])
def test_eval_sharing_refuses_an_empty_antichain_or_source(alpha):
    with pytest.raises(ValueError):
        eval_sharing(alpha, (0.5, 1.0))


@pytest.mark.parametrize("names", [[], ["a"], ["a", "b", "c"]], ids=["none", "fewer", "more"])
def test_labels_need_one_name_per_variable(names):
    two = enumerate_antichains(2)
    with pytest.raises(ValueError, match=f"^expected 2 variable names, got {len(names)}$"):
        two.labels(names)
    with pytest.raises(ValueError, match="^expected 2 variable names"):
        to_dot(two, names=names)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lattice_labels_are_the_node_labels(n):
    lattice = enumerate_antichains(n)
    for names in (default_names(n), ("Alpha", "b1", "C_", "dd", "E")[:n]):
        labels = lattice.labels(names)
        assert labels == [node.label(names) for node in lattice.nodes]
        # the DOT export renders the same labels
        dot = to_dot(lattice, names=names)
        assert [f'  n{i} [label="{labels[i]}"];' for i in lattice._topo] == [
            line for line in dot.splitlines() if "[label=" in line
        ]


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
    lattice = enumerate_antichains(n)
    assert list(lattice.nodes) == sorted(lattice.nodes, key=Antichain.sort_key)
    sets = [frozenset(s) for s in lattice.sources]
    for i, node in enumerate(lattice.nodes):
        assert node == A(node.sources)
        assert tuple(lattice.sources[k] for k in lattice.members[i]) == node.sources
        assert lattice.last_members[i] == lattice.members[i][-1]
        # the parent drops the last member and comes earlier in node order
        parent = lattice.parents[i]
        assert parent < i
        assert lattice.members[i][:-1] == (lattice.members[parent] if parent >= 0 else ())
        upset = sum(
            1 << k for k, s in enumerate(sets) if any(frozenset(m) <= s for m in node.sources)
        )
        assert lattice.upsets[i] == upset
        assert lattice.nodes[lattice._by_upset[upset]] is node
        assert upset_of(node, n) == upset
        assert antichain_of(upset, n) == node
    assert lattice.bottom == A([(i,) for i in range(n)])
    assert lattice.top == A([tuple(range(n))])
    assert len(set(lattice.upsets)) == len(lattice)
    assert 0 not in lattice._by_upset


def _meet_oracle(a, b):
    return A(a.sources + b.sources)


def _join_oracle(a, b):
    return A(tuple(set(x) | set(y)) for x in a.sources for y in b.sources)


def test_mask_meet_join_match_the_normalize_oracle():
    # OR/AND of up-set masks against minimal sources of pooled members and
    # of pairwise unions: every pair for n <= 4, a seeded sample for n = 5.
    for n in (1, 2, 3, 4):
        nodes = enumerate_antichains(n).nodes
        for a in nodes:
            for b in nodes:
                assert meet(a, b) == _meet_oracle(a, b)
                assert join(a, b) == _join_oracle(a, b)
    rng = random.Random(5)
    nodes = enumerate_antichains(5).nodes
    for _ in range(2000):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert meet(a, b) == _meet_oracle(a, b)
        assert join(a, b) == _join_oracle(a, b)


def test_meet_join_accept_unnormalized_members():
    # Unsorted, repeated and comparable members read as `normalize` reads them.
    messy = Antichain(((2, 0), (0, 2, 2), (1,), (1, 2)))
    other = Antichain(((3, 1), (0,), (0, 1)))
    assert meet(messy, other) == _meet_oracle(messy, other) == A([(0,), (1,)])
    assert join(messy, other) == _join_oracle(messy, other) == A([(0, 1), (0, 2), (1, 3)])
    assert meet(messy, messy) == join(messy, messy) == A(messy.sources)
    with pytest.raises(ValueError):
        meet(Antichain(()), Antichain(()))
    with pytest.raises(ValueError):  # the empty set is no source
        join(messy, Antichain(((),)))
    # the node algebra spans the sources of at most five variables
    with pytest.raises(ValueError, match="outside supported range"):
        meet(A([(5,)]), A([(0,)]))
    with pytest.raises(ValueError, match="outside supported range"):
        join(A([(0, 5)]), A([(0,)]))


def test_normalize_rejects_non_integer_members():
    with pytest.raises(ValueError, match="variable indices must be integers"):
        A([[0.5]])
    with pytest.raises(ValueError, match="variable indices must be integers"):
        A([(0,), ("1",)])


def test_normalize_rejects_the_empty_source():
    # The empty set is no source: normalizing it once returned Antichain(((),)),
    # which is no node of any lattice and whose str() failed.
    for sources in ([(), (0,)], [()], [(1, 2), [], (0,)]):
        with pytest.raises(ValueError, match="a source must contain at least one variable"):
            A(sources)
    assert A([(0,), (0, 1)]).label(default_names(2)) == "{x}"


def test_upset_of_and_antichain_of_reject_what_is_no_node():
    with pytest.raises(ValueError, match="not a source"):
        upset_of(A([(0, 3)]), 3)
    with pytest.raises(ValueError):
        antichain_of(0, 3)
    with pytest.raises(ValueError):
        antichain_of(1 << 7, 3)
    # a mask that is not an up-set still names its minimal sources
    assert antichain_of(0b1000001, 3) == A([(0,)])


def test_index_rejects_non_canonical_and_oversized_antichains():
    three = enumerate_antichains(3)
    for alpha in (
        Antichain(((1,), (0,))),        # unsorted
        Antichain(((0,), (0,))),        # repeated
        Antichain(((0,), (0, 1))),      # comparable
        Antichain(((1, 0),)),           # unsorted member
        Antichain(((0,), (3,))),        # a variable beyond the lattice
        Antichain(((0, 1, 2, 3),)),
        Antichain(()),
    ):
        assert alpha not in three
        with pytest.raises(ValueError, match="not a node"):
            three.index(alpha)
    assert "not an antichain" not in three
    for i, node in enumerate(three.nodes):
        assert node in three and three.index(node) == i


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_upsets_and_bottom_up_order_are_flat_arrays(n):
    # the oracle: nodes bucketed by up-set size, largest first, node order within a bucket
    lattice = enumerate_antichains(n)
    assert isinstance(lattice.upsets, array) and lattice.upsets.typecode == "Q"
    assert isinstance(lattice._topo, array) and lattice._topo.typecode == "i"
    by_size = [[] for _ in range(len(lattice.sources) + 1)]
    for i, m in enumerate(lattice.upsets):
        by_size[bin(m).count("1")].append(i)
    assert list(lattice._topo) == [i for bucket in reversed(by_size) for i in bucket]


def test_the_walk_builds_no_upset_index():
    # a fresh n = 5 lattice, so no earlier caller has built a table on it
    d = random_distribution(trial_rng(34, 0), [2] * 5)
    lattice = RedundancyLattice(5)
    rows = [decomposition._support_row(d, range(5), r) for r, _ in d.support()]
    walk = decomposition._walk(lattice, rows, [p for _, p in d.support()])
    assert not {"_by_upset", "_cover_ids", "members", "nodes"} & set(vars(lattice))
    expected = decomposition.decompose_expected(d)
    assert [x.hex() for x in walk.partials] == [x.hex() for x in expected.partials]
    assert [x.hex() for x in walk.values] == [x.hex() for x in expected.values]
    assert lattice.index(lattice.top) == len(lattice) - 1
    assert "_by_upset" in vars(lattice)
    assert len(lattice._by_upset) == len(lattice)
    for i, (node, m) in enumerate(zip(lattice.nodes, lattice.upsets)):
        assert lattice._by_upset[m] == i
        assert lattice.index(node) == i


def test_the_walk_refuses_a_chain_mask_that_is_no_node():
    # sources {x}, {y}, {x,y}: {x} is the most surprising, so the first level's
    # mask holds {x} without {x,y}, which is no up-set; its increment is not dropped
    lattice = RedundancyLattice(2)
    assert decomposition.chain_levels([2.0, 0.0, 1.0])[0] == (0b001, 1.0)
    with pytest.raises(ValueError, match="masks 0x1 are no up-sets"):
        decomposition._walk(lattice, [(2.0, 0.0, 1.0)], [1.0])
