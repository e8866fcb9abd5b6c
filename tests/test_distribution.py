import json
import math

import pytest

from infoshare import (
    InvalidDistribution,
    JointDistribution,
    VariableSet,
    ZeroMass,
    cond_surprisal,
    decompose_expected,
    load_distribution,
    load_file,
)
from infoshare.sampling import random_distribution, trial_rng

from helpers import UNIFORM2_JSON, XOR3_JSON, copy2, marginal_oracle, point3, xor3


def test_load_uniform_json():
    d = load_distribution(UNIFORM2_JSON)
    assert d.variables.names == ("A", "B")
    assert len(d.support()) == 4
    assert all(p == pytest.approx(0.25) for _, p in d.support())


def test_load_xor3_json_echoes_support():
    d = load_distribution(XOR3_JSON)
    assert [r for r, _ in d.support()] == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert all(p == 0.25 for _, p in d.support())


def test_mass_sum_outside_tolerance_rejected():
    bad = UNIFORM2_JSON.replace('"p": 0.25}]', '"p": 0.249}]')
    with pytest.raises(InvalidDistribution, match="sum"):
        load_distribution(bad)


def test_negative_mass_rejected():
    bad = UNIFORM2_JSON.replace('[1, 1], "p": 0.25', '[1, 1], "p": -0.25')
    with pytest.raises(InvalidDistribution, match="negative"):
        load_distribution(bad)


@pytest.mark.parametrize(
    "build, where",
    [
        (lambda: load_distribution("X,Y,p\n0,0,0.5\n1,1,0.5\n0,1,nan\n"), "line 4"),
        (lambda: load_distribution("X,Y,p\n0,0,0.5\n1,1,inf\n"), "line 3"),
        (lambda: load_distribution(XOR3_JSON.replace('"p": 0.25}]', '"p": NaN}]')), "entry 3"),
        (
            lambda: load_distribution(XOR3_JSON.replace('"p": 0.25}]', '"p": Infinity}]')),
            "entry 3",
        ),
        (
            lambda: JointDistribution(VariableSet(("X",), (2,)), {(0,): 1.0, (1,): math.nan}),
            "(1,)",
        ),
    ],
    ids=["csv-nan", "csv-inf", "json-NaN", "json-Infinity", "constructor"],
)
def test_non_finite_mass_rejected(build, where):
    with pytest.raises(InvalidDistribution, match="non-finite") as err:
        build()
    assert where in str(err.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: load_distribution(
            '{"variables": [{"name": "X", "cardinality": 2}], "pmf": ['
            '{"assignment": [0], "p": 1e308}, {"assignment": [1], "p": 1e308}]}'),
        lambda: load_distribution("X,p\n0,1e308\n1,1e308\n"),
        lambda: JointDistribution(VariableSet(("X",), (2,)), {(0,): 1e308, (1,): 1e308}),
    ],
    ids=["json", "csv", "constructor"],
)
def test_mass_sum_beyond_the_float_range_rejected(build):
    with pytest.raises(InvalidDistribution, match="masses sum beyond the float range"):
        build()


def test_duplicate_assignment_rejected():
    bad = XOR3_JSON.replace("[1, 1, 0]", "[0, 0, 0]")
    with pytest.raises(InvalidDistribution, match="duplicate"):
        load_distribution(bad)


def test_cardinality_violation_rejected():
    bad = XOR3_JSON.replace('"assignment": [1, 1, 0]', '"assignment": [1, 1, 2]')
    with pytest.raises(InvalidDistribution):
        load_distribution(bad)


def test_malformed_json_rejected():
    with pytest.raises(InvalidDistribution, match="malformed"):
        load_distribution("{not json", fmt="json")


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"variables": ' + "[" * 100_000], ids=["array", "object"]
)
def test_deeply_nested_json_is_malformed(text):
    with pytest.raises(InvalidDistribution, match="malformed JSON"):
        load_distribution(text, fmt="json")


def test_empty_variable_name_rejected():
    with pytest.raises(InvalidDistribution, match="non-empty"):
        VariableSet(("X", ""), (2, 2))
    with pytest.raises(InvalidDistribution, match="non-empty"):
        load_distribution(",p\n0,1.0\n")


_UNNAMEABLE = (" X", "X ", "1x", "x-y", "a b", "x,y", "(x)", "cup", "cap", "minus", "oplus")


@pytest.mark.parametrize("name", _UNNAMEABLE)
def test_variable_names_must_be_expression_identifiers(name):
    # A name is one identifier of the expression grammar and no operator word,
    # so every variable can be named in --sources, --variables and expressions.
    with pytest.raises(InvalidDistribution, match="must be an identifier"):
        VariableSet((name, "Y"), (2, 2))
    doc = {"variables": [{"name": name, "cardinality": 2}], "pmf": [{"assignment": [0], "p": 1.0}]}
    with pytest.raises(InvalidDistribution, match="must be an identifier"):
        load_distribution(json.dumps(doc))
    if name == name.strip():  # the CSV header is stripped
        quoted = '"' + name + '"'
        with pytest.raises(InvalidDistribution, match="must be an identifier"):
            load_distribution(f"{quoted},p\n0,1.0\n")


def test_identifier_names_are_accepted():
    names = ("x", "_", "_x1", "X_2", "Äb", "capx", "cups", "oplus_")
    assert VariableSet(names, (2,) * len(names)).names == names


def test_load_file_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("Ä,p\n0,1.0\n".encode("latin-1"))
    with pytest.raises(InvalidDistribution, match="not UTF-8"):
        load_file(path)


def test_variable_set_invariants():
    with pytest.raises(InvalidDistribution):
        VariableSet(("X", "X"), (2, 2))
    with pytest.raises(InvalidDistribution):
        VariableSet(("X",), (1,))
    with pytest.raises(InvalidDistribution):
        VariableSet((), ())


# Non-integer cardinalities and categories are errors, never truncated.
def test_variable_set_rejects_non_integer_cardinalities():
    with pytest.raises(InvalidDistribution, match="integer"):
        VariableSet(("X", "Y"), (2.9, "2"))


def test_mass_rejects_non_integer_realization():
    with pytest.raises(ValueError, match="integer"):
        copy2().mass((0.99, 0.2))


def test_pmf_rejects_non_integer_assignment():
    with pytest.raises(ValueError, match="integer"):
        JointDistribution(VariableSet(("X", "Y"), (2, 2)), {(1.9, 1): 0.5, (0, 0): 0.5})


def test_load_csv():
    text = "X,Y,p\n0,0,0.5\n1,1,0.5\n"
    d = load_distribution(text)
    assert d.variables.names == ("X", "Y")
    assert d.variables.cardinalities == (2, 2)
    assert d.mass((0, 0)) == 0.5
    assert d.mass((0, 1)) == 0.0


def test_load_csv_infers_cardinalities_with_floor_two():
    d = load_distribution("X,Y,p\n0,0,0.25\n2,0,0.75\n")
    assert d.variables.cardinalities == (3, 2)


def test_load_csv_errors_carry_line_numbers():
    with pytest.raises(InvalidDistribution, match="line 3"):
        load_distribution("X,p\n0,0.5\n0,0.5\n")
    with pytest.raises(InvalidDistribution, match="line 2"):
        load_distribution("X,p\nzero,1.0\n")
    with pytest.raises(InvalidDistribution, match='"p"'):
        load_distribution("X,Y\n0,0\n")


def test_load_csv_line_numbers_count_blank_lines():
    with pytest.raises(InvalidDistribution, match="line 4: mass is not a number"):
        load_distribution("x,y,p\n\n\n0,0,abc")
    with pytest.raises(InvalidDistribution, match="line 4: duplicate assignment"):
        load_distribution("x,y,p\n0,0,0.5\n\n0,0,0.5\n")
    with pytest.raises(InvalidDistribution, match="line 5: negative mass"):
        load_distribution("\nx,y,p\n0,0,1\n\n1,1,-1\n")


def test_load_csv_reader_errors_are_invalid_distributions():
    # a lone carriage return ends a line the reader cannot split
    with pytest.raises(InvalidDistribution, match="line 1"):
        load_distribution("x,y,p\r0,0,1\r", "csv")


def test_sparse_input_fills_zero_mass():
    d = xor3()
    assert d.mass((0, 0, 1)) == 0.0
    assert d.mass((0, 0, 0)) == 0.25


def test_marginal_mass_examples():
    d = xor3()
    for r, _ in d.support():
        assert d.marginal_mass([0], r) == pytest.approx(0.5)
        assert d.marginal_mass([0, 1], r) == pytest.approx(
            marginal_oracle(d, [0, 1], r)
        )
        assert d.marginal_mass([0, 1], r) == pytest.approx(0.25)


def test_marginal_mass_single_variable_identity():
    d = load_distribution('{"variables": [{"name": "X", "cardinality": 2}], '
                          '"pmf": [{"assignment": [0], "p": 0.75}, '
                          '{"assignment": [1], "p": 0.25}]}')
    assert d.marginal_mass([0], (0,)) == 0.75


def test_marginal_invalid_source_rejected():
    d = copy2()
    with pytest.raises(ValueError):
        d.marginal_mass([5], (0, 0))
    with pytest.raises(ValueError):
        d.marginal_mass([], (0, 0))


def test_non_integer_variable_indices_are_rejected_not_truncated():
    # Indices are read as realization values are (`operator.index`): 0.9
    # once read as variable 0.
    d = copy2()
    with pytest.raises(ValueError, match="variable indices must be integers"):
        d.variables.check_source([0.7, 1.2])
    with pytest.raises(ValueError, match="variable indices must be integers"):
        d.marginal_mass([0.9], (0, 0))
    with pytest.raises(ValueError, match="variable indices must be integers"):
        decompose_expected(d, variables=[0.0, 1.0])
    assert d.variables.check_source([True, 0]) == frozenset({0, 1})


def test_conditional_mass_examples():
    # A conditional mass is the ratio of two marginal masses, and
    # 2 ** -cond_surprisal is that ratio.
    d = xor3()
    for r, _ in d.support():
        ratio = marginal_oracle(d, [0, 2], r) / marginal_oracle(d, [2], r)
        assert d.marginal_mass([0, 2], r) / d.marginal_mass([2], r) == pytest.approx(ratio)
        assert 2 ** -cond_surprisal(d, [0], [2], r) == pytest.approx(ratio)
        assert 2 ** -cond_surprisal(d, [0], [2], r) == pytest.approx(0.5)
    c = copy2()
    assert 2 ** -cond_surprisal(c, [1], [0], (0, 0)) == pytest.approx(1.0)
    assert c.marginal_mass([0, 1], (0, 1)) / c.marginal_mass([0], (0, 1)) == pytest.approx(0.0)
    with pytest.raises(ZeroMass, match="zero joint mass"):  # a conditional mass of 0
        cond_surprisal(c, [1], [0], (0, 1))


def test_conditional_mass_errors():
    c = copy2()
    with pytest.raises(ValueError, match="overlap"):
        cond_surprisal(c, [0], [0], (0, 0))
    bad = JointDistribution(
        VariableSet(("X", "Y"), (3, 2)), {(0, 0): 0.5, (1, 1): 0.5}
    )
    assert bad.marginal_mass([0], (2, 0)) == 0.0
    with pytest.raises(ZeroMass, match="conditioning event has zero mass"):
        cond_surprisal(bad, [1], [0], (2, 0))


def test_support_enumeration():
    assert len(xor3().support()) == 4
    assert len(copy2().support()) == 2
    p = point3()
    assert p.support() == (((0, 0, 0), 1.0),)
    support = xor3().support()
    assert list(support) == sorted(support)


def test_empty_support_rejected():
    with pytest.raises(InvalidDistribution, match="empty"):
        JointDistribution(VariableSet(("X",), (2,)), {(0,): 0.0, (1,): 0.0})


@pytest.mark.parametrize("trial", range(25))
def test_marginal_consistency_exhaustive(trial):
    # Marginal over s must equal the sum over the extra variables of the
    # marginal over any superset t, for all source pairs of an n=3 grid.
    rng = trial_rng(101, trial)
    d = random_distribution(rng, [2, 3, 2])
    from itertools import combinations, product

    indices = range(3)
    sources = [frozenset(c) for k in (1, 2, 3) for c in combinations(indices, k)]
    for s in sources:
        for t in sources:
            if not s < t:
                continue
            extra = sorted(t - s)
            for r, _ in d.support():
                total = 0.0
                for values in product(*(range(d.variables.cardinalities[i]) for i in extra)):
                    rr = list(r)
                    for i, v in zip(extra, values):
                        rr[i] = v
                    total += d.marginal_mass(t, rr)
                assert abs(d.marginal_mass(s, r) - total) <= 1e-12


@pytest.mark.parametrize("trial", range(25))
def test_conditional_times_marginal_recovers_joint(trial):
    rng = trial_rng(202, trial)
    d = random_distribution(rng, [2, 2, 3])
    for r, _ in d.support():
        left = 2 ** -cond_surprisal(d, [0], [1, 2], r) * d.marginal_mass([1, 2], r)
        assert abs(left - d.marginal_mass([0, 1, 2], r)) <= 1e-12


@pytest.mark.parametrize("trial", range(50))
def test_random_distributions_normalized(trial):
    rng = trial_rng(303, trial)
    d = random_distribution(rng, [rng.randint(2, 4), rng.randint(2, 4)])
    assert abs(math.fsum(p for _, p in d.support()) - 1.0) <= 1e-12
    assert all(p > 0 for _, p in d.support())


@pytest.mark.parametrize("cardinalities", [[2.7, "3"], [2, 3.0], ["2", 3]])
def test_random_distribution_rejects_non_integer_cardinalities(cardinalities):
    # validated by `VariableSet`, not truncated to a smaller grid
    with pytest.raises(InvalidDistribution, match="cardinalities must be integers"):
        random_distribution(trial_rng(0, 0), cardinalities)


@pytest.mark.parametrize(
    "old, new, where",
    [
        ('"assignment": [1, 1, 0]', '"assignment": [0.9, 1, 0]', "entry 3"),
        ('"assignment": [1, 1, 0]', '"assignment": [true, 1, 0]', "entry 3"),
        ('"assignment": [1, 1, 0]', '"assignment": "110"', "entry 3"),
        ('"assignment": [1, 1, 0]', '"assignment": ["1", 1, 0]', "entry 3"),
        ('"name": "Y", "cardinality": 2', '"name": "Y", "cardinality": 2.7', "'Y'"),
        ('"name": "Y", "cardinality": 2', '"name": "Y", "cardinality": true', "'Y'"),
        ('"name": "Y", "cardinality": 2', '"name": "Y", "cardinality": "2"', "'Y'"),
        ('[1, 1, 0], "p": 0.25', '[1, 1, 0], "p": true', "entry 3"),
        ('[1, 1, 0], "p": 0.25', '[1, 1, 0], "p": "0.25"', "entry 3"),
        ('[1, 1, 0], "p": 0.25', '[1, 1, 0], "p": 1' + "0" * 400, "entry 3"),
        ('"name": "Y"', '"name": null', "entry 1"),
        ('"name": "Y"', '"name": 7', "entry 1"),
    ],
    ids=["assignment-float", "assignment-bool", "assignment-string", "assignment-str-item",
         "cardinality-float", "cardinality-bool", "cardinality-string",
         "mass-bool", "mass-string", "mass-huge-int", "name-null", "name-number"],
)
def test_json_rejects_non_integer_and_boolean_fields(old, new, where):
    assert old in XOR3_JSON
    with pytest.raises(InvalidDistribution) as err:
        load_distribution(XOR3_JSON.replace(old, new))
    assert where in str(err.value)


def test_json_accepts_integer_masses():
    d = load_distribution(
        '{"variables": [{"name": "X", "cardinality": 2}],'
        ' "pmf": [{"assignment": [0], "p": 1}, {"assignment": [1], "p": 0}]}'
    )
    assert d.support() == (((0,), 1.0),)
