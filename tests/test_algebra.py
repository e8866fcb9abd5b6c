import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoshare import (
    Antichain,
    ExpressionError,
    JointDistribution,
    OpNode,
    RedundancyLattice,
    SourceLeaf,
    VariableSet,
    chain_levels,
    compile_expression,
    enumerate_antichains,
    enumerate_sources,
    eval_expression,
    eval_mutual,
    eval_sharing,
    expected,
    expression_variables,
    intersection_content,
    lattice_valuation,
    lemma_suite,
    lower,
    mobius_closed_form,
    parse_expression,
    precedes,
    sharing_join,
    sharing_meet,
    surprisal,
    union_content,
)
from infoshare import algebra
from infoshare.cli import main
from infoshare.measures import surprisal_table
from infoshare.sampling import random_distribution, tie_heavy_distributions, trial_rng

from helpers import XOR3_JSON, biased2, xor3

A = Antichain.normalize
NAMES3 = ("x", "y", "z")
TOL = 1e-9


def test_parse_basic_shapes():
    expr = parse_expression("(x cap y) minus z", NAMES3)
    assert expr == OpNode("minus", (OpNode("cap", (SourceLeaf((0,)), SourceLeaf((1,)))), SourceLeaf((2,))))
    expr = parse_expression("x cap (y oplus z)", NAMES3)
    assert expr == OpNode("cap", (SourceLeaf((0,)), OpNode("oplus", (SourceLeaf((1,)), SourceLeaf((2,))))))


def test_parse_multi_member_source():
    assert parse_expression("(y,z)", NAMES3) == SourceLeaf((1, 2))
    assert parse_expression("(z, y)", NAMES3) == SourceLeaf((1, 2))
    expr = parse_expression("x minus (y,z)", NAMES3)
    assert expr == OpNode("minus", (SourceLeaf((0,)), SourceLeaf((1, 2))))


def test_parse_chains_fold_into_one_node():
    expr = parse_expression("x cup y cup z", NAMES3)
    assert expr == OpNode("cup", (SourceLeaf((0,)), SourceLeaf((1,)), SourceLeaf((2,))))
    expr = parse_expression("(x,y) oplus (x,z) oplus (y,z)", NAMES3)
    assert isinstance(expr, OpNode) and expr.op == "oplus" and len(expr.args) == 3


def test_parse_rejects_ambiguous_mix():
    with pytest.raises(ExpressionError, match="ambiguous"):
        parse_expression("x cap y oplus z", NAMES3)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ExpressionError, match="unknown variable"):
        parse_expression("x cap q", NAMES3)


def test_parse_rejects_malformed_text():
    for bad in ("", "x cap", "cap x", "(x", "x )", "x ! y", "(x,)", "x cap ()"):
        with pytest.raises(ExpressionError):
            parse_expression(bad, NAMES3)


def test_parse_rejects_too_deep_nesting():
    for text in ("(" * 5000 + "x" + ")" * 5000, "(x cap " * 5000 + "y" + ")" * 5000):
        with pytest.raises(ExpressionError, match="nested too deeply"):
            parse_expression(text, NAMES3)


def test_parse_grouped_single_name():
    assert parse_expression("(x)", NAMES3) == SourceLeaf((0,))


def test_lower_leaf_examples():
    two = enumerate_antichains(2)
    atoms = lower(parse_expression("x", ("x", "y")), two)
    assert atoms == frozenset({two.bottom, A([(0,)])})
    union_atoms = lower(parse_expression("x cup y", ("x", "y")), two)
    assert len(union_atoms) == 3


def test_lower_intersection_with_relative_complement_is_empty():
    three = enumerate_antichains(3)
    atoms = lower(parse_expression("x cap (y minus x)", NAMES3), three)
    assert atoms == frozenset()


def test_lower_rejects_out_of_range_source():
    two = enumerate_antichains(2)
    with pytest.raises(ExpressionError, match="exceeds"):
        lower(SourceLeaf((2,)), two)


def test_top_synergy_atoms_are_exactly_the_top_node():
    three = enumerate_antichains(3)
    atoms = lower(parse_expression("(x,y) oplus (x,z) oplus (y,z)", NAMES3), three)
    assert atoms == frozenset({three.top})


def test_trivariate_names_lower_to_single_nodes():
    # Every named term of the three-variable decomposition is one lattice node,
    # listed bottom-up in the lattice's `_topo` order, and the cache the report
    # reads holds that node's up-set mask.
    three = enumerate_antichains(3)
    nodes = []
    for template in algebra._TRIVARIATE_TERMS:
        atoms = lower(parse_expression(template.format(x="x", y="y", z="z"), NAMES3), three)
        assert len(atoms) == 1, template
        nodes.extend(atoms)
        assert algebra._covered(template) == {three.upsets[three.index(nodes[-1])]}
    assert nodes == [three.nodes[i] for i in three._topo]


def test_eval_union_matches_direct_measure():
    for trial in range(30):
        rng = trial_rng(81, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            got = eval_expression(d, "x cup y", r)
            assert abs(got - union_content(d, [[0], [1]], r)) <= TOL


def test_eval_mixed_synergy_identity():
    # h(x cap (y oplus z)) equals h(x cap (y,z)) minus h(x cap (y cup z)).
    for trial in range(30):
        rng = trial_rng(91, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            lhs = eval_expression(d, "x cap (y oplus z)", r)
            h_x_yz = intersection_content(d, [(0,), (1, 2)], r)
            h_x_y_cup_z = min(
                surprisal(d, [0], r),
                max(surprisal(d, [1], r), surprisal(d, [2], r)),
            )
            assert abs(lhs - (h_x_yz - h_x_y_cup_z)) <= TOL


def test_mixed_synergy_is_not_the_naive_conditional_min():
    # The atom-set value of x cap (y oplus z) genuinely differs from
    # min(h(x), min(h(z|y), h(y|z))); a seeded search produces a witness.
    from infoshare import cond_surprisal

    for trial in range(50):
        rng = trial_rng(900, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            lhs = eval_expression(d, "x cap (y oplus z)", r)
            naive = min(
                surprisal(d, [0], r),
                min(cond_surprisal(d, [2], [1], r), cond_surprisal(d, [1], [2], r)),
            )
            if abs(lhs - naive) > 1e-6:
                return
    pytest.fail("no witness found separating the two forms")


def test_eval_lemma4_form_is_always_zero():
    for trial in range(20):
        rng = trial_rng(101, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            assert abs(eval_expression(d, "x cap (y minus x)", r)) <= TOL


@st.composite
def sharing_tree(draw, n=3, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return ("leaf", draw(st.integers(min_value=0, max_value=n - 1)))
    op = draw(st.sampled_from(("cup", "cap")))
    return (op, draw(sharing_tree(n=n, depth=depth + 1)),
            draw(sharing_tree(n=n, depth=depth + 1)))


def _render(tree):
    if tree[0] == "leaf":
        return NAMES3[tree[1]]
    return f"({_render(tree[1])} {tree[0]} {_render(tree[2])})"


def _fold(tree):
    if tree[0] == "leaf":
        return A([(tree[1],)])
    combine = sharing_join if tree[0] == "cup" else sharing_meet
    return combine(_fold(tree[1]), _fold(tree[2]))


@settings(max_examples=120, deadline=None)
@given(sharing_tree())
def test_random_sharing_trees_match_eval_sharing(tree):
    d = random_distribution(trial_rng(151, 0), [2, 2, 2])
    text = _render(tree)
    antichain = _fold(tree)
    for r, _ in d.support():
        h = [surprisal(d, [i], r) for i in range(3)]
        got = eval_expression(d, text, r)
        assert abs(got - eval_sharing(antichain, h)) <= TOL


def test_pure_sharing_expressions_match_eval_sharing():
    # Single-variable cup/cap trees agree with the max-of-mins evaluation
    # of their normalized antichains.
    cases = (
        ("x cup (y cap z)", sharing_join(A([(0,)]), sharing_meet(A([(1,)]), A([(2,)])))),
        ("(x cup y) cap (x cup z)", sharing_meet(sharing_join(A([(0,)]), A([(1,)])), sharing_join(A([(0,)]), A([(2,)])))),
        ("x cap y cap z", sharing_meet(sharing_meet(A([(0,)]), A([(1,)])), A([(2,)]))),
        ("x cup y", sharing_join(A([(0,)]), A([(1,)]))),
    )
    for trial in range(25):
        rng = trial_rng(111, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            h = [surprisal(d, [i], r) for i in range(3)]
            for text, antichain in cases:
                got = eval_expression(d, text, r)
                assert abs(got - eval_sharing(antichain, h)) <= TOL


def test_absorption_of_the_joint():
    # x cap (x,y) collapses to x ...
    for trial in range(20):
        rng = trial_rng(121, trial)
        d = random_distribution(rng, [2, 3])
        for r, _ in d.support():
            got = eval_expression(d, "x cap (x,y)", r)
            assert abs(got - surprisal(d, [0], r)) <= TOL


def test_joint_does_not_absorb_the_intersection():
    # ... but pooling x with (x cap y) can exceed x: with h(x) >= h(y) the
    # pooled content is the full joint surprisal.
    d = biased2()
    r = (1, 0)
    hx = surprisal(d, [0], r)
    hy = surprisal(d, [1], r)
    assert hx >= hy
    witness = surprisal(d, [0, 1], r)
    assert abs(witness - hx) > 1e-6


def test_eval_conditional_expression():
    d = xor3()  # variables X, Y, Z
    for r, _ in d.support():
        got = eval_expression(d, "X cup Y", r, given=[2])
        assert got == pytest.approx(1.0)
        assert eval_mutual(d, "X oplus Y", [2], r) == pytest.approx(1.0)
        assert eval_mutual(d, "X cap Y", [2], r) == pytest.approx(0.0)


def test_eval_conditional_matches_direct_formulas():
    from infoshare import (
        cond_surprisal,
        intersection_content,
        synergy_content,
        unique_content,
        union_content,
    )

    texts = {
        "x cup y": lambda d, r: union_content(d, [[0], [1]], r, given=[2]),
        "x cap y": lambda d, r: intersection_content(d, [[0], [1]], r, given=[2]),
        "x minus y": lambda d, r: unique_content(d, [0], [1], r, given=[2]),
        "x oplus y": lambda d, r: synergy_content(d, [[0], [1]], r, given=[2]),
        "(x,y)": lambda d, r: cond_surprisal(d, [0, 1], [2], r),
    }
    for trial in range(25):
        rng = trial_rng(141, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            for text, direct in texts.items():
                got = eval_expression(d, text, r, given=[2])
                assert abs(got - direct(d, r)) <= TOL


def test_eval_conditional_rejects_conditioning_variable():
    d = xor3()
    with pytest.raises(ExpressionError, match="conditioning"):
        eval_expression(d, "X cup Z", (0, 0, 0), given=[2])


def test_compile_expression_rejects_given_with_about():
    with pytest.raises(ValueError, match="mutually exclusive"):
        compile_expression(xor3(), "X cup Y", given=[2], about=[2])


@pytest.mark.parametrize("flag", ["given", "about"])
def test_compile_expression_rejects_a_conditioning_variable_up_front(flag):
    # no realization is passed, so none can have been evaluated
    with pytest.raises(ExpressionError, match="conditioning variable"):
        compile_expression(xor3(), "X cup Z", **{flag: [2]})


def test_lemma_suite_xor3():
    d = xor3()
    for r, _ in d.support():
        results = {res.name: res for res in lemma_suite(d, r)}
        assert len(results) == 9
        assert results["L1"].lhs == pytest.approx(0.0)
        assert results["L1"].rhs == pytest.approx(0.0)
        assert results["L4"].lhs == 0.0
        assert results["L6"].lhs == 0.0
        assert all(res.residual <= TOL for res in results.values())
        assert all(res.passed for res in results.values())


def test_lemma_suite_randomized():
    for trial in range(40):
        rng = trial_rng(131, trial)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            for res in lemma_suite(d, r):
                assert res.residual <= TOL


def test_lemma_suite_agrees_with_compiled_expressions_bit_for_bit():
    # the suite sums over precomputed mask sets; `compile_expression` decides
    # coverage lazily on each chain: both sides must give the same floats
    inputs = tie_heavy_distributions(3) + [random_distribution(trial_rng(17, t), [2, 3, 2])
                                           for t in range(15)]
    compared = 0
    for d in inputs:
        x, y, z = d.variables.names

        def compiled(text):
            return compile_expression(d, text.format(x=x, y=y, z=z))

        lemmas = [(label, compiled(lhs), [compiled(t) for t in rhs])
                  for label, lhs, rhs in algebra._LEMMAS]
        for r, _ in d.support():
            for res, (label, lhs, rhs) in zip(lemma_suite(d, r), lemmas, strict=True):
                assert res.name == label
                assert res.lhs.hex() == lhs(r).hex(), (label, r)
                assert res.rhs.hex() == math.fsum(f(r) for f in rhs).hex(), (label, r)
                compared += 2
    assert compared > 1000


def test_lemma_suite_parses_the_lemmas_once_for_any_names(monkeypatch):
    # the lemmas' masks do not depend on the variable names, and a text that
    # stands on several sides is lowered once
    algebra._covered.cache_clear()
    parsed = []
    original = algebra.parse_expression
    monkeypatch.setattr(algebra, "parse_expression",
                        lambda text, names: parsed.append(text) or original(text, names))
    d = xor3()
    renamed = JointDistribution(VariableSet(("q1", "w_", "e"), (2, 2, 2)), dict(d.support()))
    for r, _ in d.support():
        assert lemma_suite(renamed, r) == lemma_suite(d, r)
    sides = [t for _, lhs, rhs in algebra._LEMMAS for t in (lhs, *rhs)]
    assert (len(sides), len(set(sides))) == (22, 19)
    assert sorted(parsed) == sorted({t.format(x="x", y="y", z="z") for t in sides})


def test_each_lemma_holds_exactly_on_its_node_sets():
    # A value sums the increments of the nodes its expression covers, so a lemma
    # whose left side covers the multiset union of its right sides' nodes holds
    # at every realization of every distribution: a proof, not a sample.
    sizes = {}
    for label, lhs, rhs in algebra._LEMMAS:
        union = Counter()
        for text in rhs:
            union.update(algebra._covered(text))
        assert Counter(algebra._covered(lhs)) == union, label
        sizes[label] = (len(algebra._covered(lhs)), [len(algebra._covered(t)) for t in rhs])
    assert sizes["L4"] == sizes["L6"] == (0, [])
    assert sizes["L9"] == (8, [4, 1, 1, 1, 1])


def test_lemma_suite_requires_three_variables():
    with pytest.raises(ValueError):
        lemma_suite(biased2(), (0, 0))


def test_expression_uses_distribution_names():
    d = xor3()  # variables X, Y, Z
    value = eval_expression(d, "X cap Y", (0, 0, 0))
    assert value == pytest.approx(1.0)
    with pytest.raises(ExpressionError):
        eval_expression(d, "x cap y", (0, 0, 0))


def _random_tree(rng, n, depth=0):
    """An expression over n variables with every operator and multi-member leaves."""
    if depth >= 3 or rng.random() < 0.3:
        return SourceLeaf(tuple(sorted(rng.sample(range(n), rng.randint(1, n)))))
    op = rng.choice(("cup", "cap", "minus", "oplus"))
    return OpNode(op, tuple(_random_tree(rng, n, depth + 1) for _ in range(rng.randint(2, 3))))


def _render_tree(expr, names):
    if isinstance(expr, SourceLeaf):
        members = [names[i] for i in expr.members]
        return members[0] if len(members) == 1 else "(" + ",".join(members) + ")"
    return "(" + f" {expr.op} ".join(_render_tree(a, names) for a in expr.args) + ")"


def _lower_by_precedes(expr, lattice):
    """Atom sets built from the order alone: a leaf S gives the nodes below {S}."""

    def below(source):
        return frozenset(a for a in lattice.nodes if precedes(a, Antichain((source,))))

    if isinstance(expr, SourceLeaf):
        return below(expr.members)
    parts = [_lower_by_precedes(a, lattice) for a in expr.args]
    if expr.op == "cup":
        return frozenset().union(*parts)
    if expr.op == "cap":
        return frozenset.intersection(*parts)
    if expr.op == "minus":
        return parts[0].difference(*parts[1:])
    return below(tuple(sorted(expression_variables(expr)))) - frozenset().union(*parts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lower_matches_the_order_on_random_trees(n):
    lattice = enumerate_antichains(n)
    rng = random.Random(f"lower-{n}")
    for _ in range(60):
        expr = _random_tree(rng, n)
        assert lower(expr, lattice) == _lower_by_precedes(expr, lattice)


def _eval_by_closed_form(d, text, r, cond=None):
    # lower on the lattice of the kept variables, summed over closed-form partials
    keep = [i for i in range(d.variables.n) if cond is None or i not in cond]
    lattice = enumerate_antichains(len(keep))
    atoms = lower(parse_expression(text, [d.variables.names[i] for i in keep]), lattice)
    values = lattice_valuation(d, r, variables=keep, given=cond)
    partials = mobius_closed_form(lattice, values).partials
    return math.fsum(partials[lattice.index(a)] for a in atoms)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_equals_the_sum_of_closed_form_partials(n):
    rng = random.Random(f"eval-{n}")
    dists = tie_heavy_distributions(n) + [
        random_distribution(trial_rng(161, 10 * n + t), [2] * n) for t in range(4)
    ]
    for d in dists:
        names = d.variables.names
        plain = [_render_tree(_random_tree(rng, n), names) for _ in range(4)]
        conditioned = [_render_tree(_random_tree(rng, n - 1), names) for _ in range(4)]
        for r, _ in d.support():
            for text in plain:
                assert eval_expression(d, text, r) == _eval_by_closed_form(d, text, r)
            for text in conditioned:
                got = eval_expression(d, text, r, given=[n - 1])
                assert got == _eval_by_closed_form(d, text, r, cond=[n - 1])
                mutual = _eval_by_closed_form(d, text, r) - got
                assert eval_mutual(d, text, [n - 1], r) == mutual


def test_eval_builds_no_lattice(monkeypatch, tmp_path, capsys):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a lattice was built")

    enumerate_antichains.cache_clear()  # a cached lattice would hide a build
    monkeypatch.setattr(RedundancyLattice, "__init__", refuse)
    d = xor3()
    for r, _ in d.support():
        eval_expression(d, "X cap (Y oplus Z)", r)
        eval_expression(d, "X oplus Y", r, given=[2])
        eval_mutual(d, "X oplus Y", [2], r)
    five = random_distribution(trial_rng(171, 0), [2] * 5, sparsity=0.8)
    eval_expression(five, "(x,y) oplus (z cup w cup v)", five.support()[0][0])
    path = tmp_path / "xor3.json"
    path.write_text(XOR3_JSON)
    assert main(["eval", str(path), "X oplus Y", "--about", "Z"]) == 0
    assert capsys.readouterr().out.strip().endswith("1.000000000")


def test_coverage_is_decided_once_per_chain_mask(monkeypatch):
    # An expected --about value reads two chains per point, plain over x, y, z
    # and conditioned over x, y given z; each compiled test sees each mask once.
    d = random_distribution(trial_rng(173, 0), [2, 3, 2], sparsity=0.0)
    tested = []
    compile_ = algebra._compile

    def counting(expr, variables):
        covers = compile_(expr, variables)
        return lambda mask: tested.append((len(variables), mask)) or covers(mask)

    monkeypatch.setattr(algebra, "_compile", counting)
    expected(d, compile_expression(d, "x oplus y", about=[2]))
    plain = surprisal_table(d, enumerate_sources(3))
    conditioned = surprisal_table(d, enumerate_sources(2), given=[2])
    chains = [(n, chain_levels(table(r))) for r, _ in d.support()
              for n, table in ((3, plain), (2, conditioned))]
    met = {(n, mask) for n, chain in chains for mask, _ in chain}
    assert sorted(tested) == sorted(met)
    assert len(tested) < sum(len(chain) for _, chain in chains)


_FUZZ_THREE = random_distribution(trial_rng(179, 0), [2, 3, 2], sparsity=0.0)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z", "w", "cup", "cap", "minus", "oplus",
                                 "(", ")", ",", "(x,y)"]), max_size=16),
       st.sampled_from(["", " "]))
def test_any_expression_has_a_value_or_is_refused(tokens, separator):
    # `w` names no variable; without a separator, names and operators run together
    try:
        value = expected(_FUZZ_THREE, compile_expression(_FUZZ_THREE, separator.join(tokens)))
    except ValueError:  # ExpressionError too
        return
    assert isinstance(value, float) and math.isfinite(value)
