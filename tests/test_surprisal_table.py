"""The per-command surprisal table against the per-call measures.

`surprisal_table` and `compile_expression` resolve their sources once
and read one log-mass vector per realization; every value must equal,
bit for bit, the one built from per-call `surprisal`/`cond_surprisal`,
and every error must keep its message and its order.
"""

import json
import math
from itertools import permutations

import pytest

from infoshare import (
    JointDistribution,
    VariableSet,
    ZeroMass,
    chain_levels,
    compile_expression,
    cond_surprisal,
    enumerate_antichains,
    enumerate_sources,
    intersection_content,
    lower,
    mi_decompose,
    mutual_content,
    parse_expression,
    surprisal,
    synergy_content,
    unique_content,
    union_content,
)
from infoshare.cli import main
from infoshare.measures import surprisal_table
from infoshare.sampling import random_distribution, tie_heavy_distributions, trial_rng


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
    # One table per command in every mode; `given` reads only its chain's
    # joint sources and the conditioner, `about` every source.
    read = []
    original = JointDistribution.log_mass_table
    monkeypatch.setattr(JointDistribution, "log_mass_table",
                        lambda self, sources: read.append(list(sources)) or original(self, sources))
    d = random_distribution(trial_rng(12, 0), [2, 3, 2], sparsity=0.2)
    value = compile_expression(d, "x cap y", **mode)
    for r, _ in d.support():
        value(r)
    assert len(read) == 1
    assert len(read[0]) == (4 if "given" in mode else 7)


def test_log_mass_table_reads_minus_infinity_at_zero_mass():
    d = JointDistribution(VariableSet(("X", "Y"), (2, 2)), {(0, 0): 0.5, (1, 1): 0.5})
    logs = d.log_mass_table([[0], [1], [0, 1], [1, 0]])
    assert logs((0, 1)) == [-1.0, -1.0, -math.inf, -math.inf]
    assert logs((1, 1)) == [-1.0, -1.0, -1.0, -1.0]
    with pytest.raises(ValueError, match="a source must contain at least one variable"):
        d.log_mass_table([[]])
    with pytest.raises(ValueError, match="realization has 1 values, expected 2"):
        logs((0,))


def test_overlapping_conditioner_is_rejected_when_the_table_is_built():
    d = tie_heavy_distributions(3)[0]
    with pytest.raises(ValueError, match="source and conditioning variables overlap"):
        surprisal_table(d, [(0,), (1, 2)], given=[2])


def _count_tables(monkeypatch) -> list:
    # the sources of every table built, counted on the resolver that
    # `log_mass_table`, `surprisal_table` and `mi_decompose` all reach
    built = []
    original = JointDistribution._log_mass_table
    monkeypatch.setattr(JointDistribution, "_log_mass_table",
                        lambda self, sources: built.append(list(sources)) or original(self, sources))
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


def test_about_validates_each_realization_once(monkeypatch):
    counts = {"check_realization": 0, "check_source": 0}
    for name in counts:
        original = getattr(VariableSet, name)

        def counted(self, arg, name=name, original=original):
            counts[name] += 1
            return original(self, arg)

        monkeypatch.setattr(VariableSet, name, counted)
    d = random_distribution(trial_rng(11, 0), [3, 3, 3], sparsity=0.2)
    value = compile_expression(d, "x oplus y", about=[2])
    built = dict(counts)
    points = [r for r, _ in d.support()]
    for k in (1, len(points)):
        before = dict(counts)
        for r in points[:k]:
            value(r)
        assert counts["check_realization"] - before["check_realization"] == k
        assert counts["check_source"] == built["check_source"]


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
