import math
import random
from itertools import groupby, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoshare import (
    Antichain,
    LatticeValuation,
    ZeroMass,
    chain_levels,
    cond_surprisal,
    decompose_expected,
    decompose_pointwise,
    decomposition_rows,
    entropy,
    enumerate_antichains,
    enumerate_sources,
    expected,
    expected_valuation,
    intersection_content,
    lattice_valuation,
    mi_decompose,
    mobius_closed_form,
    mobius_inversion,
    mutual_content,
    precedes,
    surprisal,
    synergy_content,
    trivariate_report,
    unique_content,
)
from infoshare.measures import surprisal_table
from infoshare.sampling import random_distribution, tie_heavy_distributions, trial_rng

from helpers import (anti, biased1, biased2, copy2, copy3, dist, indep3, mobius_recursive, point3,
                     tie_heavy_grids, unif2, xor3)

A = Antichain.normalize
TOL = 1e-9


def test_node_value_is_the_intersection_of_its_sources():
    d = xor3()
    for r, _ in d.support():
        assert intersection_content(d, A([(0,), (1,)]).sources, r) == pytest.approx(1.0)
        node = A([(0, 1), (0, 2), (1, 2)])
        assert intersection_content(d, node.sources, r) == pytest.approx(2.0)
        top = A([(0, 1, 2)])
        assert intersection_content(d, top.sources, r) == surprisal(d, [0, 1, 2], r)


def test_node_value_zero_mass():
    d = copy2()
    with pytest.raises(ZeroMass):
        intersection_content(d, A([(0, 1)]).sources, (0, 1))


def _partials_by_label(pv, names):
    return {node.label(names): value for node, value in zip(pv.lattice.nodes, pv.partials)}


def test_mobius_inversion_copy_pair():
    d = copy2()
    lattice = enumerate_antichains(2)
    for r, _ in d.support():
        valuation = lattice_valuation(d, lattice, r)
        partials = mobius_inversion(valuation)
        got = _partials_by_label(partials, d.variables.names)
        assert got == {
            "{X}{Y}": pytest.approx(1.0),
            "{X}": pytest.approx(0.0),
            "{Y}": pytest.approx(0.0),
            "{X,Y}": pytest.approx(0.0),
        }


def test_mobius_inversion_independent_pair():
    d = unif2()
    lattice = enumerate_antichains(2)
    valuation = lattice_valuation(d, lattice, (0, 0))
    got = _partials_by_label(mobius_inversion(valuation), d.variables.names)
    assert got == {
        "{X}{Y}": pytest.approx(1.0),
        "{X}": pytest.approx(0.0),
        "{Y}": pytest.approx(0.0),
        "{X,Y}": pytest.approx(1.0),
    }


def test_mobius_single_node_lattice():
    lattice = enumerate_antichains(1)
    d = random_distribution(trial_rng(5, 1), [3], sparsity=0.0)
    valuation = lattice_valuation(d, lattice, d.support()[0][0])
    only = lattice.index(lattice.nodes[0])
    assert mobius_recursive(valuation).partials[only] == valuation.values[only]
    assert mobius_inversion(valuation).partials[only] == valuation.values[only]
    assert mobius_closed_form(valuation).partials[only] == valuation.values[only]


def test_closed_form_matches_recursive_on_fixtures():
    for d in (copy2(), unif2(), xor3()):
        lattice = enumerate_antichains(d.variables.n)
        for r, _ in d.support():
            valuation = lattice_valuation(d, lattice, r)
            rec = mobius_recursive(valuation)
            closed = mobius_closed_form(valuation)
            for c, x in zip(closed.partials, rec.partials, strict=True):
                assert c == pytest.approx(x, abs=TOL)
            assert _bits(mobius_inversion(valuation).partials) == _bits(closed.partials)


def test_closed_form_bottom_and_xor_top():
    d = xor3()
    lattice = enumerate_antichains(3)
    for r, _ in d.support():
        valuation = lattice_valuation(d, lattice, r)
        closed = mobius_closed_form(valuation)
        bottom, top = lattice.index(lattice.bottom), lattice.index(lattice.top)
        assert closed.partials[bottom] == valuation.values[bottom]
        assert closed.partials[top] == pytest.approx(0.0)


@pytest.mark.parametrize("trial", range(60))
def test_mobius_randomized(trial):
    rng = trial_rng(31, trial)
    n = 2 if trial % 2 == 0 else 3
    d = random_distribution(rng, [rng.randint(2, 3)] * 2 if n == 2 else [2, 2, 2])
    lattice = enumerate_antichains(n)
    for r, _ in d.support():
        valuation = lattice_valuation(d, lattice, r)
        # valuation is monotone along the order
        for a in lattice.nodes:
            for b in lattice.nodes:
                if precedes(a, b):
                    assert (valuation.values[lattice.index(a)]
                            <= valuation.values[lattice.index(b)] + TOL)
        rec = mobius_recursive(valuation)
        closed = mobius_closed_form(valuation)
        for x, c in zip(rec.partials, closed.partials, strict=True):
            assert abs(x - c) <= TOL
            assert c >= -TOL
        assert _bits(mobius_inversion(valuation).partials) == _bits(closed.partials)
        assert abs(closed.total() - valuation.values[lattice.index(lattice.top)]) <= TOL
        # reconstruction: down-set sums reproduce the node values
        for i, up in enumerate(lattice.upsets):
            below = (j for j, m in enumerate(lattice.upsets) if up & ~m == 0)
            acc = math.fsum(rec.partials[j] for j in below)
            assert abs(acc - valuation.values[i]) <= TOL


def test_decompose_pointwise_copy():
    d = copy2()
    pv = decompose_pointwise(d, (0, 0))
    got = _partials_by_label(pv, d.variables.names)
    assert got["{X}{Y}"] == pytest.approx(1.0)
    assert pv.total() == pytest.approx(1.0)


def test_decompose_pointwise_xor3():
    d = xor3()
    for r, _ in d.support():
        pv = decompose_pointwise(d, r)
        nonzero = {
            node.label(d.variables.names): v
            for node, v in zip(pv.lattice.nodes, pv.partials, strict=True)
            if abs(v) > 1e-12
        }
        assert nonzero == {
            "{X}{Y}{Z}": pytest.approx(1.0),
            "{X,Y}{X,Z}{Y,Z}": pytest.approx(1.0),
        }
        assert pv.total() == pytest.approx(2.0)


def test_decompose_pointwise_point_mass():
    pv = decompose_pointwise(point3(), (0, 0, 0))
    assert all(v == pytest.approx(0.0) for v in pv.partials)


def test_decompose_pointwise_outside_support():
    with pytest.raises(ZeroMass):
        decompose_pointwise(xor3(), (0, 0, 1))


def test_pointwise_faults_come_in_order():
    # the realization is checked, then the support, and only then the variable count
    six = random_distribution(trial_rng(76, 6), [2] * 6, sparsity=0.75)
    on = six.support()[0][0]
    off = next(r for r in product(range(2), repeat=6) if six.mass(r) == 0.0)
    outside = "realization outside the support of the selected variables"
    cases = [
        (decompose_pointwise, six, (0,) * 5, ValueError, "realization has 5 values, expected 6"),
        (decompose_pointwise, six, (0,) * 5 + (2,), ValueError,
         "value 2 outside range of variable 'x6' (cardinality 2)"),
        (decompose_pointwise, six, off, ZeroMass, outside),
        (decompose_pointwise, six, on, ValueError, "variable count 6 outside supported range 1..5"),
        (trivariate_report, xor3(), (0, 0, 2), ValueError,
         "value 2 outside range of variable 'Z' (cardinality 2)"),
        (trivariate_report, xor3(), (0, 0, 1), ZeroMass, outside),
    ]
    for fn, d, r, kind, text in cases:
        with pytest.raises(ValueError) as err:
            fn(d, r)
        assert (type(err.value), str(err.value)) == (kind, text)


def test_decompose_pointwise_variable_subset():
    d = xor3()
    pv = decompose_pointwise(d, (0, 1, 1), variables=[0, 1])
    assert pv.lattice.n == 2
    assert pv.total() == pytest.approx(surprisal(d, [0, 1], (0, 1, 1)))


def test_every_entry_point_rejects_repeated_variables():
    d = xor3()
    r = (0, 1, 1)
    two = enumerate_antichains(2)
    for call in (
        lambda: lattice_valuation(d, two, r, variables=(0, 0)),
        lambda: decompose_pointwise(d, r, variables=[0, 0]),
        lambda: decompose_expected(d, variables=[0, 0]),
    ):
        with pytest.raises(ValueError, match="distinct"):
            call()
    with pytest.raises(ValueError, match="lattice spans 2 variables but 3 were selected"):
        lattice_valuation(d, two, r)


def test_decompose_expected_variable_subset():
    for trial in range(10):
        rng = trial_rng(45, trial)
        d = random_distribution(rng, [2, 2, 2])
        pv = decompose_expected(d, variables=[0, 2])
        assert pv.lattice.n == 2
        assert pv.total() == pytest.approx(entropy(d, [0, 2]), abs=TOL)


def test_top_increment_is_least_complementary_conditional():
    # The top node's increment measures what only the full joint tells you
    # beyond all pairwise observers: the least single-given-pair surprisal.
    from infoshare import cond_surprisal

    lattice = enumerate_antichains(3)
    for trial in range(30):
        rng = trial_rng(43, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            pv = decompose_pointwise(d, r)
            direct = min(
                cond_surprisal(d, [2], [0, 1], r),
                cond_surprisal(d, [1], [0, 2], r),
                cond_surprisal(d, [0], [1, 2], r),
            )
            assert abs(pv.partials[lattice.index(lattice.top)] - direct) <= TOL


def test_mobius_four_variables():
    # The inversion machinery is not n<=3 specific.
    lattice = enumerate_antichains(4)
    for trial in range(5):
        rng = trial_rng(47, trial)
        d = random_distribution(rng, [2, 2, 2, 2])
        for r, _ in d.support()[:4]:
            valuation = lattice_valuation(d, lattice, r)
            closed = mobius_closed_form(valuation)
            recursive = mobius_recursive(valuation)
            for c, x in zip(closed.partials, recursive.partials, strict=True):
                assert abs(c - x) <= TOL
                assert c >= -TOL
            assert _bits(mobius_inversion(valuation).partials) == _bits(closed.partials)
            assert abs(closed.total() - valuation.values[lattice.index(lattice.top)]) <= TOL


def test_decompose_expected_fixtures():
    copy = decompose_expected(copy2())
    got = _partials_by_label(copy, ("X", "Y"))
    assert got["{X}{Y}"] == pytest.approx(1.0)
    assert got["{X}"] == pytest.approx(0.0)
    assert got["{X,Y}"] == pytest.approx(0.0)

    indep = decompose_expected(unif2())
    got = _partials_by_label(indep, ("X", "Y"))
    assert got["{X}{Y}"] == pytest.approx(1.0)
    assert got["{X,Y}"] == pytest.approx(1.0)
    assert indep.total() == pytest.approx(2.0)

    assert decompose_expected(xor3()).total() == pytest.approx(2.0)


def test_expected_partials_match_inverted_expected_valuation():
    # Expectation and inversion commute (the inversion is linear); the
    # recursive inversion is too slow for the 7,579 nodes of n = 5.
    for n, trials in ((3, 30), (4, 6), (5, 2)):
        for trial in range(trials):
            d = random_distribution(trial_rng(41, trial), [2] * n)
            via_pointwise = decompose_expected(d)
            for invert in [mobius_inversion] + [mobius_recursive] * (n <= 4):
                via_valuation = invert(expected_valuation(d))
                for x, y in zip(via_pointwise.partials, via_valuation.partials, strict=True):
                    assert abs(x - y) <= TOL
            assert abs(via_pointwise.total() - entropy(d, range(n))) <= TOL


def test_pair_partials_match_named_measures():
    # The four n=2 increments are the intersection, unique, and synergy contents.
    for trial in range(40):
        rng = trial_rng(51, trial)
        d = random_distribution(rng, [rng.randint(2, 3), rng.randint(2, 3)])
        for r, _ in d.support():
            pv = decompose_pointwise(d, r)
            at = pv.lattice.index
            assert pv.partials[at(A([(0,), (1,)]))] == intersection_content(d, [[0], [1]], r)
            assert pv.partials[at(A([(0,)]))] == unique_content(d, [0], [1], r)
            assert pv.partials[at(A([(1,)]))] == unique_content(d, [1], [0], r)
            assert pv.partials[at(A([(0, 1)]))] == synergy_content(d, [[0], [1]], r)


def test_trivariate_report_xor3():
    d = xor3()
    for r, _ in d.support():
        report = trivariate_report(d, r)
        assert len(report) == 18
        assert report["X cap Y cap Z"] == pytest.approx(1.0)
        assert report["(X,Y) oplus (X,Z) oplus (Y,Z)"] == pytest.approx(0.0)
        assert math.fsum(report.values()) == pytest.approx(2.0, abs=TOL)


def test_trivariate_report_independent_bits():
    d = indep3()
    report = trivariate_report(d, (0, 0, 0))
    assert report["X cap Y cap Z"] == pytest.approx(1.0)
    assert report["(X,Y) oplus (X,Z) oplus (Y,Z)"] == pytest.approx(1.0)
    assert math.fsum(report.values()) == pytest.approx(3.0, abs=TOL)


def test_trivariate_report_point_mass():
    report = trivariate_report(point3(), (0, 0, 0))
    assert all(v == pytest.approx(0.0) for v in report.values())


def test_trivariate_report_matches_partials():
    for trial in range(20):
        rng = trial_rng(61, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            report = trivariate_report(d, r)
            pv = decompose_pointwise(d, r)
            assert math.fsum(report.values()) == pytest.approx(
                surprisal(d, [0, 1, 2], r), abs=TOL
            )
            assert sorted(report.values()) == pytest.approx(
                sorted(pv.partials), abs=TOL
            )


def test_trivariate_report_is_each_terms_node_partial_bit_for_bit():
    # The report sums each term's covered chain increments; the dense walk stores
    # the same increment at the term's node, bottom-up in `_topo` order.
    from infoshare.algebra import _TRIVARIATE_TERMS

    three = enumerate_antichains(3)
    inputs = tie_heavy_distributions(3) + [
        random_distribution(trial_rng(63, t), cards, sparsity)
        for t in range(8) for cards in ([2, 2, 2], [3, 2, 3]) for sparsity in (0.0, 0.5)
    ]
    for d in inputs:
        x, y, z = d.variables.names
        for r, _ in d.support():
            report, partials = trivariate_report(d, r), decompose_pointwise(d, r).partials
            assert list(report) == [t.format(x=x, y=y, z=z) for t in _TRIVARIATE_TERMS]
            assert [v.hex() for v in report.values()] == [partials[i].hex() for i in three._topo]


def test_trivariate_report_needs_three_variables():
    with pytest.raises(ValueError):
        trivariate_report(copy2(), (0, 0))


def test_mi_decompose_xor3_expected():
    got = mi_decompose(xor3(), [0], [1], [2])
    assert got.intersection == pytest.approx(0.0, abs=TOL)
    assert got.synergy == pytest.approx(1.0, abs=TOL)
    assert got.unique_first == pytest.approx(0.0, abs=TOL)
    assert got.unique_second == pytest.approx(0.0, abs=TOL)
    assert got.joint == pytest.approx(1.0, abs=TOL)
    assert got.coinformation == pytest.approx(-1.0, abs=TOL)


def test_mi_decompose_copy3_expected():
    got = mi_decompose(copy3(), [0], [1], [2])
    assert got.intersection == pytest.approx(1.0, abs=TOL)
    assert got.synergy == pytest.approx(0.0, abs=TOL)


def test_mi_decompose_independent_target():
    # Z independent of (X, Y): conditioning changes nothing.
    pmf = {}
    for (x, y), p in unif2().support():
        for z in range(2):
            pmf[(x, y, z)] = p * 0.5
    d = dist(("X", "Y", "Z"), (2, 2, 2), pmf)
    got = mi_decompose(d, [0], [1], [2])
    for value in got.as_dict().values():
        assert value == pytest.approx(0.0, abs=TOL)


def test_mi_decompose_identities_randomized():
    for trial in range(40):
        rng = trial_rng(71, trial)
        d = random_distribution(rng, [2, 2, 2])
        exp = mi_decompose(d, [0], [1], [2])
        assert abs(exp.joint - exp.parts_sum()) <= TOL
        assert abs(exp.coinformation - (exp.intersection - exp.synergy)) <= TOL
        # i(x;y;z) from the chain-rule side
        i_xy = expected(d, lambda r: mutual_content(d, [0], [1], r))
        i_xy_given_z = expected(d, lambda r: mutual_content(d, [0], [1], r, given=[2]))
        assert abs(exp.coinformation - (i_xy - i_xy_given_z)) <= TOL
        for r, _ in d.support():
            point = mi_decompose(d, [0], [1], [2], r)
            assert abs(point.joint - point.parts_sum()) <= TOL
            assert abs(
                point.coinformation - (point.intersection - point.synergy)
            ) <= TOL


def test_mi_decompose_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        mi_decompose(xor3(), [0], [0], [2])


def test_decomposition_rows_order_and_shape():
    d = xor3()
    lattice = enumerate_antichains(3)
    valuation = lattice_valuation(d, lattice, (0, 0, 0))
    partials = mobius_closed_form(valuation)
    rows = decomposition_rows(partials, d.variables.names)
    assert len(rows) == 18
    assert rows[0][0] == "{X}{Y}{Z}"
    assert rows[-1][0] == "{X,Y,Z}"
    assert rows[-1][1] == valuation.values[lattice.index(lattice.top)]
    assert rows[0][1] == pytest.approx(1.0)


def _differential_distributions():
    """Tie-heavy fixtures and seeded random distributions for n = 1..4."""
    fixtures = [biased1(), anti(), biased2(), copy2(), unif2(), copy3(), indep3(), point3(), xor3()]
    for n in (2, 3, 4):
        fixtures.extend(tie_heavy_distributions(n))
    shapes = ([2], [4], [2, 3], [3, 3], [2, 2, 2], [3, 2, 2], [2, 2, 2, 2], [3, 2, 2, 2])
    for i, shape in enumerate(shapes):
        for trial in range(4):
            fixtures.append(random_distribution(trial_rng(61 + i, trial), shape))
    return fixtures


def _bits(floats):
    """Exact float bits per node, in node order, so that -0.0 and 0.0 differ."""
    return [value.hex() for value in floats]


def test_chain_walk_matches_both_oracles():
    # The chain walk against the closed form and the Boolean-interval inversion
    # (bit for bit) and the recursive inversion (within TOL) at every support point.
    for d in _differential_distributions():
        n = d.variables.n
        lattice = enumerate_antichains(n)
        for r, _ in d.support():
            valuation = lattice_valuation(d, lattice, r)
            chain = decompose_pointwise(d, r)
            assert _bits(chain.valuation.values) == _bits(valuation.values)
            assert _bits(chain.partials) == _bits(mobius_closed_form(valuation).partials)
            assert _bits(chain.partials) == _bits(mobius_inversion(valuation).partials)
            recursive = mobius_recursive(valuation).partials
            for c, x in zip(chain.partials, recursive, strict=True):
                assert abs(c - x) <= TOL


def test_chain_walk_matches_closed_form_n5():
    lattice = enumerate_antichains(5)
    points = [(d, d.support()[-1][0]) for d in tie_heavy_distributions(5)]
    d = random_distribution(trial_rng(67, 0), [2] * 5)
    points += [(d, r) for r, _ in d.support()[:2]]
    for d, r in points:
        valuation = lattice_valuation(d, lattice, r)
        chain = decompose_pointwise(d, r)
        assert _bits(chain.valuation.values) == _bits(valuation.values)
        assert _bits(chain.partials) == _bits(mobius_closed_form(valuation).partials)
        assert sum(1 for v in chain.partials if v != 0.0) <= 31


def test_inversion_matches_closed_form_on_conditioned_valuations():
    # The last variable given: conditioned surprisals keep their order as a
    # source grows, so the closed form holds and the inversion matches it.
    for d in _differential_distributions():
        n = d.variables.n
        if n < 2:
            continue
        lattice = enumerate_antichains(n - 1)
        for r, _ in d.support():
            valuation = lattice_valuation(d, lattice, r, variables=range(n - 1), given=[n - 1])
            assert _bits(mobius_inversion(valuation).partials) == _bits(
                mobius_closed_form(valuation).partials)


def test_inversion_matches_closed_form_n5():
    lattice = enumerate_antichains(5)
    inputs = [*tie_heavy_distributions(5), random_distribution(trial_rng(67, 1), [2] * 5)]
    for d in inputs:
        valuation = lattice_valuation(d, lattice, d.support()[0][0])
        assert _bits(mobius_inversion(valuation).partials) == _bits(
            mobius_closed_form(valuation).partials)


def _random_valuation(lattice, rng):
    """Arbitrary node values, neither monotone nor of any realization."""
    return LatticeValuation(lattice, [rng.uniform(-4.0, 4.0) for _ in range(len(lattice))])


def _down_set_sums(partials, nodes):
    """The sum of the partials at or below each of `nodes`, whose up-sets hold its own."""
    upsets = partials.lattice.upsets
    return [math.fsum(x for x, m in zip(partials.partials, upsets) if m & upsets[i] == upsets[i])
            for i in nodes]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inversion_of_any_valuation_matches_the_recursive_one(n):
    lattice, rng = enumerate_antichains(n), random.Random(n)
    for _ in range(3):
        valuation = _random_valuation(lattice, rng)
        inverted = mobius_inversion(valuation)
        recursive = mobius_recursive(valuation)
        assert all(abs(x - y) <= TOL for x, y in zip(inverted.partials, recursive.partials,
                                                     strict=True))
        sums = _down_set_sums(inverted, range(len(lattice)))
        assert all(abs(x - v) <= TOL for x, v in zip(sums, valuation.values, strict=True))


def test_inversion_of_any_valuation_n5_sums_back_to_it():
    lattice, rng = enumerate_antichains(5), random.Random(5)
    valuation = _random_valuation(lattice, rng)
    nodes = rng.sample(range(len(lattice)), 20)
    sums = _down_set_sums(mobius_inversion(valuation), nodes)
    assert all(abs(x - valuation.values[i]) <= TOL for x, i in zip(sums, nodes, strict=True))


@pytest.mark.xfail(strict=True, reason="float marginals split an exact tie by one ulp "
                   "(p(X=0) reads 0.30000000000000004, p(Y=0) reads 0.3): a spurious level")
def test_masses_that_tie_as_written_give_one_chain_level():
    # p(X=0) = .05 + .05 + .2 and p(Y=0) = .05 + .2 + .05 tie exactly, so X and
    # Y share one level: the chain is the source {X,Y} alone, then all three.
    d = dist(("X", "Y"), (3, 3), {(0, 0): .05, (0, 1): .05, (0, 2): .2, (1, 0): .2,
                                  (2, 0): .05, (1, 1): .45})
    h = surprisal_table(d, enumerate_sources(2))((0, 0))
    assert [mask for mask, _ in chain_levels(h)] == [0b100, 0b111]


def _chain_levels_by_groupby(h):
    """The groupby form of `chain_levels`, kept as its oracle."""
    levels = []
    upset = 0
    ranked = sorted(range(len(h)), key=h.__getitem__, reverse=True)
    for t, group in groupby(ranked, key=h.__getitem__):
        for k in group:
            upset |= 1 << k
        levels.append((t, upset))
    lower = [t for t, _ in levels[1:]] + [0.0]
    return [(mask, t - t_next) for (t, mask), t_next in zip(levels, lower)]


@st.composite
def tie_heavy_vectors(draw):
    """Surprisal vectors over the 2^n - 1 sources of n = 0..5 variables, drawn
    from a pool of at most five values, so that ties, and ties between 0.0
    and -0.0, are common."""
    pool = [0.0, -0.0, *draw(st.lists(st.floats(0.0, 16.0), min_size=1, max_size=3))]
    n = draw(st.sampled_from((0, 1, 3, 7, 15, 31)))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=400, deadline=None)
@given(tie_heavy_vectors())
@example([])
@example([-0.0, 0.0, 1.0])
@example([0.0, -0.0, 1.0])
def test_chain_levels_matches_the_groupby_oracle(h):
    got, want = chain_levels(h), _chain_levels_by_groupby(h)
    assert [mask for mask, _ in got] == [mask for mask, _ in want]
    assert _bits(inc for _, inc in got) == _bits(inc for _, inc in want)


def _outcome(read):
    """Exact bits of the values `read` returns, or the text of its `ZeroMass`."""
    try:
        return _bits(read())
    except ZeroMass as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_grids())
def test_drawn_tie_heavy_distributions_match_every_oracle(d):
    n = d.variables.n
    lattice, everything = enumerate_antichains(n), range(n)
    for r, _ in d.support():
        chain = decompose_pointwise(d, r)
        valuation = lattice_valuation(d, lattice, r)
        assert _bits(chain.partials) == _bits(mobius_closed_form(valuation).partials)
        assert _bits(chain.partials) == _bits(mobius_inversion(valuation).partials)
        if n <= 3:  # the recursive oracle is quadratic in the 166 nodes of n = 4
            recursive = mobius_recursive(valuation).partials
            assert all(abs(c - x) <= TOL for c, x in zip(chain.partials, recursive, strict=True))
        assert min(chain.partials) >= 0.0
        assert abs(chain.total() - surprisal(d, everything, r)) <= TOL
    sources, rest, last = enumerate_sources(n), enumerate_sources(n - 1), [n - 1]
    plain, given = surprisal_table(d, sources), surprisal_table(d, rest, given=last)
    for r in product((0, 1), repeat=n):
        assert _outcome(lambda: plain(r)) == _outcome(lambda: [surprisal(d, s, r)
                                                                for s in sources])
        assert _outcome(lambda: given(r)) == _outcome(lambda: [cond_surprisal(d, s, last, r)
                                                                for s in rest])


def test_n5_values_are_the_sums_of_their_down_sets():
    # A node's value is the sum of the partials of every node at or below it,
    # whose up-set holds its own: an oracle apart from the closed form's covers,
    # cheap at n = 5 where the recursive inversion is not.
    lattice = enumerate_antichains(5)
    upsets, rng = lattice.upsets, random.Random(5)
    random_five = random_distribution(trial_rng(251, 0), [2] * 5)
    for d in (*tie_heavy_distributions(5), random_five):
        support = d.support()
        results = [decompose_pointwise(d, r)
                   for r, _ in (support[0], support[len(support) // 2], support[-1])]
        results.append(decompose_expected(d))
        for i in rng.sample(range(len(lattice)), 20):
            u = upsets[i]
            below = [j for j, m in enumerate(upsets) if m & u == u]
            for result in results:
                total = math.fsum(map(result.partials.__getitem__, below))
                assert abs(result.valuation.values[i] - total) <= TOL
