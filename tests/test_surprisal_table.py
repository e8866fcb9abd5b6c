"""The per-command surprisal table against the per-call measures.

`surprisal_table` and `compile_expression` resolve their sources once
and read one mass per set, then one log2 per mass, at each realization;
every value must equal, bit for bit, the one built from per-call
`surprisal`/`cond_surprisal`, and every error must keep its message and
its order.
"""

import json
import math
from itertools import permutations

import pytest
from hypothesis import given, settings

from infoshare import (
    JointDistribution,
    MutualDecomposition,
    VariableSet,
    ZeroMass,
    chain_levels,
    compile_expression,
    cond_surprisal,
    decompose_expected,
    decompose_pointwise,
    enumerate_antichains,
    enumerate_sources,
    expected,
    intersection_content,
    load_file,
    lower,
    mi_decompose,
    mutual_content,
    parse_expression,
    surprisal,
    synergy_content,
    unique_content,
    union_content,
)
from infoshare import algebra, decomposition, distribution, measures
from infoshare.cli import main
from infoshare.measures import _surprisal_reader, surprisal_table
from infoshare.sampling import random_distribution, tie_heavy_distributions, trial_rng

from helpers import tie_heavy_grids


def _inputs(n):
    rng = trial_rng(707, n)
    randoms = [random_distribution(rng, [rng.randint(2, 3) for _ in range(n)]) for _ in range(4)]
    return tie_heavy_distributions(n) + randoms


CASES = [(n, k, d) for n in (3, 4) for k, d in enumerate(_inputs(n))]
IDS = [f"n{n}-{k}" for n, k, _ in CASES]


@pytest.mark.parametrize("n, k, d", CASES, ids=IDS)
def test_plain_and_given_tables_equal_the_per_call_values(n, k, d):
    sources = enumerate_sources(n)
    plain = surprisal_table(d, sources)
    last = n - 1
    rest = enumerate_sources(n - 1)  # sources of the first n - 1 variables
    given = surprisal_table(d, rest, given=[last])
    pair = surprisal_table(d, enumerate_sources(n - 2), given=[n - 2, last])
    for r, _ in d.support():
        assert plain(r) == [surprisal(d, s, r) for s in sources]
        assert given(r) == [cond_surprisal(d, s, [last], r) for s in rest]
        assert pair(r) == [cond_surprisal(d, s, [n - 2, last], r)
                           for s in enumerate_sources(n - 2)]


@pytest.mark.parametrize("n, k, d", CASES, ids=IDS)
def test_content_measures_equal_the_per_call_formulas(n, k, d):
    a, b, last = frozenset({0}), frozenset({1}), [n - 1]
    for r, _ in d.support():
        for given, h in ((None, lambda s: surprisal(d, s, r)),
                         (last, lambda s: cond_surprisal(d, s, last, r))):
            ha, hb, hab = h(a), h(b), h(a | b)
            assert union_content(d, [a, b], r, given) == max(ha, hb)
            assert intersection_content(d, [a, b], r, given) == min(ha, hb)
            assert synergy_content(d, [a, b], r, given) == hab - max(ha, hb)
            assert unique_content(d, a, b, r, given) == max(ha - hb, 0.0)
            assert mutual_content(d, a, b, r, given) == ha + hb - hab


def _oracle(d, text, realization, given=None):
    # Chain of per-call surprisals over the first variables, summed where the
    # expression's atoms (lowered on a built lattice) lie.
    m = d.variables.n - (0 if given is None else 1)
    lattice = enumerate_antichains(m)
    atoms = {lattice.upsets[lattice.index(a)]
             for a in lower(parse_expression(text, d.variables.names), lattice)}
    if given is None:
        h = [surprisal(d, s, realization) for s in lattice.sources]
    else:
        h = [cond_surprisal(d, s, given, realization) for s in lattice.sources]
    return math.fsum(inc for mask, inc in chain_levels(h) if mask in atoms)


EXPRESSIONS = {3: ("x oplus y", "x cap (y,x)", "(x minus y) cup y"),
               4: ("x oplus y oplus z", "(x,y) minus z", "x cap (y oplus z)")}


@pytest.mark.parametrize("n, k, d", CASES, ids=IDS)
def test_compiled_expressions_equal_the_per_call_chains(n, k, d):
    last = n - 1
    for text in EXPRESSIONS[n]:
        plain = compile_expression(d, text)
        given = compile_expression(d, text, given=[last])
        about = compile_expression(d, text, about=[last])
        for r, _ in d.support():
            p, g = _oracle(d, text, r), _oracle(d, text, r, given=[last])
            assert plain(r) == p
            assert given(r) == g
            assert about(r) == p - g


@pytest.mark.parametrize("n, k, d", CASES, ids=IDS)
def test_mi_decompose_equals_the_per_call_arithmetic(n, k, d):
    a, b, t = frozenset({0}), frozenset({1}), frozenset(range(2, n))
    for r, _ in d.support():
        ha, hb = surprisal(d, a, r), surprisal(d, b, r)
        ca, cb = cond_surprisal(d, a, t, r), cond_surprisal(d, b, t, r)
        hab, cab = surprisal(d, a | b, r), cond_surprisal(d, a | b, t, r)
        point = mi_decompose(d, a, b, t, r)
        assert point.union == max(ha, hb) - max(ca, cb)
        assert point.unique_first == max(ha - hb, 0.0) - max(ca - cb, 0.0)
        assert point.unique_second == max(hb - ha, 0.0) - max(cb - ca, 0.0)
        assert point.intersection == min(ha, hb) - min(ca, cb)
        assert point.synergy == (hab - max(ha, hb)) - (cab - max(ca, cb))
        assert point.joint == hab - cab
        assert point.coinformation == (ha + hb - hab) - (ca + cb - cab)


@pytest.mark.parametrize("mode", [{}, {"given": [2]}, {"about": [2]}])
def test_compile_expression_builds_one_log_mass_table(monkeypatch, mode):
    # One reader per command in every mode; `given` reads only its chain's
    # joint sources and the conditioner, `about` every source.
    built = _count_tables(monkeypatch)
    d = random_distribution(trial_rng(12, 0), [2, 3, 2], sparsity=0.2)
    value = compile_expression(d, "x cap y", **mode)
    for r, _ in d.support():
        value(r)
    assert len(built) == 1
    assert len(built[0]) == (4 if "given" in mode else 7)


def test_surprisal_reader_raises_at_zero_mass():
    # the reader takes a list of checked realizations and yields one row each
    d = JointDistribution(VariableSet(("X", "Y"), (2, 2)), {(0, 0): 0.5, (1, 1): 0.5})
    read = _surprisal_reader(d, [([frozenset(s) for s in ([0], [1], [0, 1], [1, 0])],
                                  frozenset())])
    assert list(read([(1, 1), (0, 0)])) == [(1.0, 1.0, 1.0, 1.0)] * 2
    assert list(read([])) == []
    for points in ([(0, 1)], [(1, 1), (0, 1)]):
        with pytest.raises(ZeroMass, match="^surprisal undefined: zero marginal mass$"):
            read(points)
    with pytest.raises(ValueError, match="a source must contain at least one variable"):
        surprisal_table(d, [[]])
    with pytest.raises(ValueError, match="realization has 1 values, expected 2"):
        surprisal_table(d, [[0]])((0,))


def test_surprisal_reader_names_the_first_point_and_group_with_a_zero_mass():
    # Y copies X; Z = 2 never happens, nor X = 1 with Z = 1
    d = JointDistribution(VariableSet(("X", "Y", "Z"), (2, 2, 3)),
                          {(0, 0, 0): 0.25, (0, 0, 1): 0.25, (1, 1, 0): 0.5})
    x, y, z = (frozenset([i]) for i in range(3))
    read = _surprisal_reader(d, [([x, y], frozenset()), ([x], z), ([x | y], frozenset())])
    joint = "^surprisal undefined: zero joint mass$"
    conditioning = "^conditioning event has zero mass$"
    marginal = "^surprisal undefined: zero marginal mass$"
    # each point's error is the first its groups hold, in group order
    for points, error in [
        ([(1, 1, 1)], joint),  # X = 1 never meets Z = 1
        ([(0, 0, 2)], conditioning),  # Z = 2 has no mass; {X}, {Y} come first and hold
        ([(0, 1, 0)], marginal),  # only {X, Y} lacks mass
        ([(0, 1, 0), (0, 0, 2)], marginal),  # the first point decides, though
        ([(0, 0, 2), (0, 1, 0)], conditioning),  # its columns are read set by set
    ]:
        with pytest.raises(ZeroMass, match=error):
            read(points)
        r = points[0]
        with pytest.raises(ZeroMass, match=error):  # the per-call measures, in group order
            [surprisal(d, x, r), surprisal(d, y, r), cond_surprisal(d, x, z, r),
             surprisal(d, x | y, r)]


def test_overlapping_conditioner_is_rejected_when_the_table_is_built():
    d = tie_heavy_distributions(3)[0]
    with pytest.raises(ValueError, match="source and conditioning variables overlap"):
        surprisal_table(d, [(0,), (1, 2)], given=[2])


def _count_tables(monkeypatch) -> list:
    # the distinct sets S u G and non-empty G of every surprisal reader built:
    # `surprisal_table`, `compile_expression` and `mi_decompose` all reach one
    built = []
    for module in (measures, algebra, decomposition):
        def counted(d, groups, original=module._surprisal_reader):
            groups = [(list(sources), g) for sources, g in groups]
            built.append({s | g for sources, g in groups for s in sources}
                         | {g for _, g in groups if g})
            return original(d, groups)

        monkeypatch.setattr(module, "_surprisal_reader", counted)
    return built


def _count_checks(monkeypatch) -> list:
    checked = []
    original = VariableSet.check_source
    monkeypatch.setattr(VariableSet, "check_source",
                        lambda self, source: checked.append(source) or original(self, source))
    return checked


@pytest.mark.parametrize("given", [None, [2]])
@pytest.mark.parametrize("measure, args", [
    (union_content, ([[0], [1]],)),
    (intersection_content, ([[0], [1]],)),
    (synergy_content, ([[0], [1]],)),
    (unique_content, ([0], [1])),
    (mutual_content, ([0], [1])),
], ids=["union", "intersection", "synergy", "unique", "mutual"])
def test_each_content_measure_builds_one_table(monkeypatch, measure, args, given):
    built = _count_tables(monkeypatch)
    d = tie_heavy_distributions(3)[0]
    measure(d, *args, d.support()[0][0], given=given)
    assert len(built) == 1


def test_each_source_is_validated_once(monkeypatch):
    checked = _count_checks(monkeypatch)
    d = tie_heavy_distributions(3)[0]
    r = d.support()[0][0]
    for call, count in [
        (lambda: surprisal_table(d, [(0,), (1,)]), 2),
        (lambda: surprisal_table(d, [(0,), (1,)], given=[2]), 3),
        (lambda: mi_decompose(d, [0], [1], [2]), 3),
        (lambda: mi_decompose(d, [0], [1], [2], r), 3),
        (lambda: union_content(d, [[0], [1]], r, given=[2]), 3),
    ]:
        checked.clear()
        call()
        assert len(checked) == count


@pytest.mark.parametrize("measure", [union_content, intersection_content, synergy_content])
def test_a_measure_of_no_source_is_refused(measure):
    d = tie_heavy_distributions(3)[0]
    with pytest.raises(ValueError, match="at least one source is required"):
        measure(d, [], d.support()[0][0])
    with pytest.raises(ValueError, match="at least one source is required"):
        surprisal_table(d, [])


def test_an_overlap_is_found_before_a_zero_mass():
    # the first source has zero joint mass with the conditioner at (0, 1, 0),
    # but the table is never read: the second source overlaps the conditioner
    d = JointDistribution(VariableSet(("X", "Y", "Z"), (2, 2, 2)),
                          {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    with pytest.raises(ZeroMass, match="zero joint mass"):
        unique_content(d, [0], [2], (0, 1, 0), given=[1])
    with pytest.raises(ValueError, match="source and conditioning variables overlap"):
        unique_content(d, [0], [1], (0, 1, 0), given=[1])


TWO_POINT = """{"variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 2},
                              {"name": "Z", "cardinality": 2}],
 "pmf": [{"assignment": [0, 0, 0], "p": 0.5}, {"assignment": [1, 1, 0], "p": 0.5}]}"""


@pytest.mark.parametrize("flags, message", [
    (["--realization", "0,1,0"], "surprisal undefined: zero marginal mass"),
    (["--realization", "0,1,1", "--given", "Z"], "conditioning event has zero mass"),
    (["--realization", "0,1,0", "--given", "Z"], "surprisal undefined: zero joint mass"),
    (["--realization", "0,1,1", "--about", "Z"], "surprisal undefined: zero marginal mass"),
    (["--realization", "0,0"], "realization has 2 values, expected 3"),
    (["--realization", "0,0,2"], "value 2 outside range of variable 'Z' (cardinality 2)"),
    (["--realization", "0,0,2", "--about", "Z"],
     "value 2 outside range of variable 'Z' (cardinality 2)"),
])
def test_eval_errors_keep_their_messages_and_order(tmp_path, capsys, flags, message):
    path = tmp_path / "two.json"
    path.write_text(TWO_POINT)
    assert main(["eval", str(path), "X oplus Y", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


TARGET_APART = """{"variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 2},
                                 {"name": "Z", "cardinality": 2}],
 "pmf": [{"assignment": [0, 1, 1], "p": 0.5}, {"assignment": [1, 0, 0], "p": 0.5}]}"""


@pytest.mark.parametrize("doc, target, realization, message", [
    (TWO_POINT, ["Z", "X;Y"], "0,0,1", "conditioning event has zero mass"),
    (TWO_POINT, ["Y", "X;Z"], "0,0,1", "surprisal undefined: zero marginal mass"),
    # a | t is read before a u b, which has zero mass here too
    (TARGET_APART, ["Z", "X;Y"], "0,0,0", "surprisal undefined: zero joint mass"),
    # a u b is read before a u b | t, which has zero mass here too
    (TWO_POINT, ["Z", "X;Y"], "0,1,0", "surprisal undefined: zero marginal mass"),
    (TWO_POINT, ["Z", "X;Y"], "0,0", "realization has 2 values, expected 3"),
    (TWO_POINT, ["Z", "X;Y"], "0,0,2", "value 2 outside range of variable 'Z' (cardinality 2)"),
], ids=["conditioner", "plain", "joint-before-union", "union-before-joint", "length", "range"])
def test_decompose_target_errors_keep_their_messages_and_order(tmp_path, capsys, doc, target,
                                                                realization, message):
    path = tmp_path / "dist.json"
    path.write_text(doc)
    assert main(["decompose", str(path), "--target", target[0], "--predictors", target[1],
                 "--mode", "pointwise", "--realization", realization]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["eval", "{f}", "X oplus Y", "--about", "Z"],
    ["eval", "{f}", "X oplus Y", "--about", "Z", "--realization", "0,0,0"],
    ["decompose", "{f}", "--target", "Z", "--predictors", "X;Y"],
    ["decompose", "{f}", "--target", "Z", "--predictors", "X;Y", "--mode", "pointwise",
     "--realization", "0,0,0"],
], ids=["about-expected", "about-pointwise", "target-expected", "target-pointwise"])
def test_about_and_target_build_one_table_per_command(tmp_path, monkeypatch, capsys, argv):
    # the plain and the conditioned surprisals share one reader
    path = tmp_path / "two.json"
    path.write_text(TWO_POINT)
    built = _count_tables(monkeypatch)
    assert main([a.format(f=path) for a in argv]) == 0
    assert len(built) == 1


def test_about_validates_each_realization_once(monkeypatch, tmp_path):
    counts = {"check_realization": 0, "check_source": 0, "_mass": 0}
    for name in ("check_realization", "check_source"):
        original = getattr(VariableSet, name)

        def counted(self, arg, name=name, original=original):
            counts[name] += 1
            return original(self, arg)

        monkeypatch.setattr(VariableSet, name, counted)
    original_mass = distribution._mass

    def counted_mass(*args):
        counts["_mass"] += 1
        return original_mass(*args)

    monkeypatch.setattr(distribution, "_mass", counted_mass)
    d = random_distribution(trial_rng(11, 0), [3, 3, 3], sparsity=0.2)
    points = [r for r, _ in d.support()]

    # the loaders check each entry once, a zero mass too; CSV needs no realization check
    entries = [(r, p) for r, p in d.support()] + [((2, 2, 2), 0)] * ((2, 2, 2) not in points)
    (tmp_path / "d.json").write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 3} for n in "xyz"],
        "pmf": [{"assignment": list(r), "p": p} for r, p in entries]}))
    (tmp_path / "d.csv").write_text("x,y,z,p\n" + "".join(
        f"{','.join(map(str, r))},{p!r}\n" for r, p in entries))
    for name, checks in (("d.json", len(entries)), ("d.csv", 0)):
        before = dict(counts)
        assert load_file(tmp_path / name).support() == d.support()
        assert counts["check_realization"] - before["check_realization"] == checks
        assert counts["_mass"] - before["_mass"] == len(entries)

    value = compile_expression(d, "x oplus y", about=[2])
    built = dict(counts)
    for k in (1, len(points)):
        before = dict(counts)
        for r in points[:k]:
            value(r)
        assert counts["check_realization"] - before["check_realization"] == k
        assert counts["check_source"] == built["check_source"]

    # an expected reading checks no realization; a pointwise one checks its own once
    modes = [{}, {"given": [2]}, {"about": [2]}]
    expected_calls = [compile_expression(d, "x oplus y", **mode) for mode in modes] + [
        lambda: decompose_expected(d), lambda: mi_decompose(d, [0], [1], [2])]
    pointwise_calls = [compile_expression(d, "x oplus y", **mode) for mode in modes] + [
        lambda r: mi_decompose(d, [0], [1], [2], r), surprisal_table(d, [[0], [1, 2]])]
    for call in expected_calls:
        before = counts["check_realization"]
        call()
        assert counts["check_realization"] == before
    for call in pointwise_calls:
        before = counts["check_realization"]
        call(points[-1])
        assert counts["check_realization"] - before == 1


def _assert_expected_equals_the_weighted_pointwise_sum(d):
    # each expected path, bit for bit: the fsum of weight times pointwise value
    n, support = d.variables.n, d.support()

    def weighted(values) -> float:
        return math.fsum(p * x for (_, p), x in zip(support, values, strict=True))

    text = "x" if n == 2 else "(x cap y) oplus z" if n == 4 else "x oplus y"
    for mode in ({}, {"given": [n - 1]}, {"about": [n - 1]}):
        value_at = compile_expression(d, text, **mode)
        assert value_at() == expected(d, value_at)
        assert value_at() == weighted([value_at(r) for r, _ in support])
    if n >= 3:
        whole = mi_decompose(d, [0], [1], [n - 1])
        points = [mi_decompose(d, [0], [1], [n - 1], r) for r, _ in support]
        for field in MutualDecomposition.__slots__:
            assert getattr(whole, field) == weighted([getattr(x, field) for x in points])
    whole = decompose_expected(d)
    points = [decompose_pointwise(d, r) for r, _ in support]
    values = [x.valuation.values for x in points]
    assert whole.valuation.values == list(map(weighted, zip(*values)))
    assert whole.partials == list(map(weighted, zip(*(x.partials for x in points))))


_EXPECTED_INPUTS = [d for n in (2, 3, 4) for d in _inputs(n)]


@pytest.mark.parametrize("d", _EXPECTED_INPUTS,
                         ids=[f"n{n}-{k}" for n in (2, 3, 4) for k in range(len(_inputs(n)))])
def test_expected_paths_equal_the_weighted_pointwise_sums(d):
    _assert_expected_equals_the_weighted_pointwise_sum(d)


@settings(max_examples=60, deadline=None)
@given(tie_heavy_grids())
def test_expected_paths_equal_the_weighted_pointwise_sums_on_drawn_grids(d):
    _assert_expected_equals_the_weighted_pointwise_sum(d)


@pytest.mark.parametrize("given", [[], ["--given", "Z"]], ids=["plain", "given"])
def test_pointwise_builds_one_table(tmp_path, monkeypatch, capsys, given):
    # the source rows, the joint row and every measure read one table
    path = tmp_path / "two.json"
    path.write_text(TWO_POINT)
    built = _count_tables(monkeypatch)
    assert main(["pointwise", str(path), "--realization", "0,0,0", "--sources", "X", "Y",
                 *given]) == 0
    assert len(built) == 1


def _pair_measures(d, a, b, r, given=None):
    # the library measures of two sources, under `MutualDecomposition`'s field
    # names; the joint one is the union content of the joint source alone
    return {
        "union": union_content(d, [a, b], r, given),
        "unique_first": unique_content(d, a, b, r, given),
        "unique_second": unique_content(d, b, a, r, given),
        "intersection": intersection_content(d, [a, b], r, given),
        "synergy": synergy_content(d, [a, b], r, given),
        "joint": union_content(d, [a + b], r, given),
        "coinformation": mutual_content(d, a, b, r, given),
    }


THREE = _inputs(3)


@pytest.mark.parametrize("d", THREE, ids=[f"n3-{k}" for k in range(len(THREE))])
def test_mi_decompose_is_each_measure_minus_it_given_the_target(d):
    for a, b, t in permutations(([0], [1], [2])):
        for r, _ in d.support():
            plain, given = _pair_measures(d, a, b, r), _pair_measures(d, a, b, r, t)
            point = mi_decompose(d, a, b, t, r).as_dict()
            assert {name: x.hex() for name, x in point.items()} == {
                name: (plain[name] - given[name]).hex() for name in plain}


@pytest.mark.parametrize("given", [None, "Z"], ids=["plain", "given"])
def test_pointwise_values_equal_the_library_measures(tmp_path, capsys, given):
    d = random_distribution(trial_rng(13, 0), [2, 3, 2], sparsity=0.2)
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": c}
                      for n, c in zip(("X", "Y", "Z"), d.variables.cardinalities)],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }))
    g = None if given is None else [2]
    flags = [] if given is None else ["--given", given]
    suffix = "" if given is None else "|{Z}"
    for r, _ in d.support():
        assert main(["--format", "structured", "pointwise", str(path), "--realization",
                     ",".join(map(str, r)), "--sources", "X", "Y", *flags]) == 0
        got = {row["name"]: row["value"].hex()
               for row in json.loads(capsys.readouterr().out)["measures"]}
        want = {"h{X}": union_content(d, [[0]], r, g),
                "h{Y}": union_content(d, [[1]], r, g),
                "union": union_content(d, [[0], [1]], r, g),
                "intersection": intersection_content(d, [[0], [1]], r, g),
                "synergy": synergy_content(d, [[0], [1]], r, g),
                "unique {X} over {Y}": unique_content(d, [0], [1], r, g),
                "unique {Y} over {X}": unique_content(d, [1], [0], r, g),
                "mutual": mutual_content(d, [0], [1], r, g),
                "h{X,Y}": union_content(d, [[0, 1]], r, g)}
        assert got == {name + suffix: x.hex() for name, x in want.items()}


def test_pointwise_refuses_two_overlapping_sources(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_POINT)
    assert main(["pointwise", str(path), "--realization", "0,0,0",
                 "--sources", "X,Y", "Y"]) == 2
    assert capsys.readouterr().err == "error: sources overlap\n"
