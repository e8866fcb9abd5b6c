import copy
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "mass, error",
    [
        ("0.5", "mass is not a number for assignment (0,)"),
        (b"0.5", "mass is not a number for assignment (0,)"),
        (True, "mass is not a number for assignment (0,)"),
        (None, "mass is not a number for assignment (0,)"),
        (10**400, f"mass {10**400} is out of range for assignment (0,)"),
        (-0.5, "negative mass -0.5 for assignment (0,)"),
        # too many digits for str(): the reason leaves the number out
        (10**5000, "mass is out of range for assignment (0,)"),
        (-10**5000, "mass is out of range for assignment (0,)"),
        (Fraction(10**5000), "mass is out of range for assignment (0,)"),
    ],
    ids=["str", "bytes", "bool", "none", "overflow", "negative",
         "unprintable", "unprintable-negative", "unprintable-fraction"],
)
def test_constructor_mass_rule(mass, error):
    # float() reads text and bool and overflows on a huge int; none of them is a mass
    with pytest.raises(InvalidDistribution) as err:
        JointDistribution(VariableSet(("X",), (2,)), {(0,): mass, (1,): 0.5})
    assert str(err.value) == error


def test_constructor_takes_other_reals():
    two = VariableSet(("X",), (2,))
    assert JointDistribution(two, {(0,): Fraction(1, 4), (1,): Fraction(3, 4)}).support() == (
        ((0,), 0.25), ((1,), 0.75))
    assert JointDistribution(two, {(0,): 1, (1,): 0}).support() == (((0,), 1.0),)


@pytest.mark.parametrize(
    "p, error",
    [
        ('"0.5"', "pmf entry 0: mass is not a number"),
        ("true", "pmf entry 0: mass is not a number"),
        ("null", "pmf entry 0: mass is not a number"),
        ("1" + "0" * 400, f"pmf entry 0: mass {10**400} is out of range"),
        ("-0.5", "pmf entry 0: negative mass -0.5"),
    ],
    ids=["string", "bool", "null", "overflow", "negative"],
)
def test_json_mass_rule_messages(p, error):
    doc = '{"variables": [{"name": "X", "cardinality": 2}], "pmf": [{"assignment": [0], "p": %s}]}'
    with pytest.raises(InvalidDistribution) as err:
        load_distribution(doc % p)
    assert str(err.value) == error


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


@pytest.mark.parametrize(
    "text, error",
    [
        ("X,p\n0,0.5\n1_0,0.5\n", "line 3: categories must be integers"),
        ("X,p\n0,0.75\n1,0.2_5\n", "line 3: mass is not a number"),
        ("X,p\n0,0.5\n١,0.5\n", "line 3: categories must be integers"),
        ("X,p\n0,0.5\n１,0.5\n", "line 3: categories must be integers"),
        ("X,p\n0,0.5\n1,0.٥\n", "line 3: mass is not a number"),
    ],
    ids=["category-underscore", "mass-underscore", "arabic-indic-category",
         "fullwidth-category", "arabic-indic-mass"],
)
def test_load_csv_reads_only_ascii_numbers(text, error):
    # int() and float() read both digit-group underscores and any Unicode digit
    with pytest.raises(InvalidDistribution, match=error):
        load_distribution(text, "csv")


def test_load_csv_allows_spaces_around_numbers():
    d = load_distribution("X,p\n 0 , 0.5\n+1,0.5 \n", "csv")
    assert d.support() == (((0,), 0.5), ((1,), 0.5))


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


class _NoDraws(random.Random):
    """An rng whose every draw fails: a refusal must come before the first."""

    def random(self):
        raise AssertionError("drew before refusing")


@pytest.mark.parametrize("cardinalities, sparsity, error, text", [
    # equal and of equal hash to the cached (2, 3), or unhashable: neither may reach the cache
    ([2, 3.0], 0.5, InvalidDistribution, "cardinalities must be integers"),
    ([[2], 3], 0.5, InvalidDistribution, "cardinalities must be integers"),
    ([2, 3], 1.0, ValueError, "sparsity must lie"),
    ([2, 3], float("nan"), ValueError, "sparsity must lie"),
    ([2, 3], -0.1, ValueError, "sparsity must lie"),
])
def test_a_cached_shape_still_refuses_before_any_draw(cardinalities, sparsity, error, text):
    random_distribution(trial_rng(0, 0), [2, 3])  # the shape of [2, 3] is now cached
    with pytest.raises(error, match=text):
        random_distribution(_NoDraws(0), cardinalities, sparsity)


@pytest.mark.parametrize("sparsity", ["1.0", "1.5", "float('nan')", "-0.1"])
def test_random_distribution_rejects_sparsity_outside_unit_interval(sparsity):
    # no cell could survive, so the redraw loop would never end: run each call in
    # its own process, so that a hang fails on the timeout instead of stalling the suite
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import random, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from infoshare.sampling import random_distribution\n"
        "try:\n"
        f"    random_distribution(random.Random(0), [2, 2], sparsity={sparsity})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("sparsity must lie in [0, 1), got "), done.stdout


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


# Pieces of JSON and CSV documents: punctuation, digits, the document keys,
# literals `json` reads as numbers, a byte-order mark, non-ASCII digits, a
# huge cardinality and whole valid fragments to reach the later checks.
_DOCUMENT_PIECES = [
    *"{}[]:,\"-+.eE_ \n\r\t", *"0123456789",
    '"variables"', '"pmf"', '"name"', '"cardinality"', '"assignment"', '"p"',
    "X", "Y", "p", "X,p\n", "true", "NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 30,
    "\ufeff", "\u0663", "\u0967", "\uff11", "\U0001d7d9",
    '{"variables": [{"name": "X", "cardinality": 2}], "pmf": [',
    '{"assignment": [0], "p": 0.5}', "0,0.5\n", "1,0.5\n",
]


def _loads_or_refuses(text: str, fmt) -> None:
    try:
        load_distribution(text, fmt)
    except InvalidDistribution:
        pass


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_DOCUMENT_PIECES), max_size=40).map("".join),
       st.sampled_from([None, "json", "csv"]))
def test_any_text_loads_or_is_an_invalid_distribution(text, fmt):
    _loads_or_refuses(text, fmt)


_VALID_DOCUMENT = {
    "variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 3}],
    "pmf": [{"assignment": [0, 1], "p": 0.5}, {"assignment": [1, 2], "p": 0.5}],
}
# every field of the document, as the path of keys and indices that reaches it
_FIELDS = [
    ("variables",), ("variables", 0), ("variables", 1, "name"), ("variables", 0, "cardinality"),
    ("pmf",), ("pmf", 1), ("pmf", 0, "assignment"), ("pmf", 0, "assignment", 1),
    ("pmf", 1, "p"),
]
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=10**20),
    st.floats(), st.text(max_size=4), st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.sampled_from(["name", "p", "x"]), st.integers(-1, 2), max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_FIELDS), st.one_of(_JSON_VALUES, st.just(KeyError)),
       st.sampled_from([None, "json"]))
def test_a_document_with_a_wrong_field_loads_or_is_an_invalid_distribution(path, value, fmt):
    doc = copy.deepcopy(_VALID_DOCUMENT)
    *outer, last = path
    field = doc
    for key in outer:
        field = field[key]
    if value is KeyError:  # the field left out
        del field[last]
    else:
        field[last] = value
    _loads_or_refuses(json.dumps(doc), fmt)


def _json_pmf(*entries: str) -> str:
    """A document over X (cardinality 2) and Y (cardinality 3) whose pmf lists `entries`."""
    return ('{"variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 3}],'
            ' "pmf": [%s]}' % ", ".join(entries))


# Every fault the two loaders refuse at a pmf entry or in the masses, with the
# exact text: each entry is checked once, and the first fault in document order wins.
_LOADER_FAULTS = [
    ("json", _json_pmf('{"assignment": 0, "p": 1}'),
     "pmf entry 0: assignment must be an array of integers"),
    ("json", _json_pmf('{"assignment": [0, 1.0], "p": 1}'),
     "pmf entry 0: assignment must be an array of integers"),
    ("json", _json_pmf('{"assignment": [false, 1], "p": 1}'),
     "pmf entry 0: assignment must be an array of integers"),
    ("json", _json_pmf('{"assignment": ["0", 1], "p": 1}'),
     "pmf entry 0: assignment must be an array of integers"),
    ("json", _json_pmf('{"assignment": [0], "p": 1}'),
     "pmf entry 0: realization has 1 values, expected 2"),
    ("json", _json_pmf('{"assignment": [0, 3], "p": 1}'),
     "pmf entry 0: value 3 outside range of variable 'Y' (cardinality 3)"),
    ("json", _json_pmf('{"assignment": [-1, 0], "p": 1}'),
     "pmf entry 0: value -1 outside range of variable 'X' (cardinality 2)"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 0}', '{"assignment": [0, 1], "p": 1}'),
     "duplicate assignment [0, 1] (entry 1)"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": "1"}'), "pmf entry 0: mass is not a number"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": true}'), "pmf entry 0: mass is not a number"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": null}'), "pmf entry 0: mass is not a number"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": -1}'), "pmf entry 0: negative mass -1.0"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": NaN}'), "pmf entry 0: non-finite mass nan"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": -Infinity}'),
     "pmf entry 0: non-finite mass -inf"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 1%s}' % ("0" * 400)),
     f"pmf entry 0: mass {10**400} is out of range"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 1e308}', '{"assignment": [1, 1], "p": 1e308}'),
     "masses sum beyond the float range, expected 1"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 0}', '{"assignment": [1, 1], "p": 0.0}'),
     "distribution has empty support"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 0.5}', '{"assignment": [1, 1], "p": 0.4}'),
     "masses sum to 0.9, expected 1 within 1e-12"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 0.5}',
                       '{"assignment": [1, 1], "p": 0.5000000000011}'),
     "masses sum to 1.0000000000011, expected 1 within 1e-12"),
    # two faults: the later entry's range fault comes after the earlier entry's mass fault,
    # a duplicate before its own mass fault, and any entry fault before the sum
    ("json", _json_pmf('{"assignment": [0, 1], "p": -1}', '{"assignment": [0, 5], "p": 1}'),
     "pmf entry 0: negative mass -1.0"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 1}', '{"assignment": [0, 1], "p": "x"}'),
     "duplicate assignment [0, 1] (entry 1)"),
    ("json", _json_pmf('{"assignment": [0, 1], "p": 0.25}', '{"assignment": [1, 3], "p": 0.25}'),
     "pmf entry 1: value 3 outside range of variable 'Y' (cardinality 3)"),
    ("csv", "X,Y,p\n0,x,1\n", "line 2: categories must be integers"),
    ("csv", "X,Y,p\n0,1.0,1\n", "line 2: categories must be integers"),
    ("csv", "X,Y,p\n0,-1,1\n", "line 2: categories must be non-negative"),
    ("csv", "X,Y,p\n0,1\n", "line 2: expected 3 columns"),
    ("csv", "X,Y,p\n0,1,0\n0,1,1\n", "line 3: duplicate assignment [0, 1]"),
    ("csv", "X,Y,p\n0,1,x\n", "line 2: mass is not a number"),
    ("csv", "X,Y,p\n0,1,true\n", "line 2: mass is not a number"),
    ("csv", "X,Y,p\n0,1,\n", "line 2: mass is not a number"),
    ("csv", "X,Y,p\n0,1,-0.5\n", "line 2: negative mass -0.5"),
    ("csv", "X,Y,p\n0,1,nan\n", "line 2: non-finite mass nan"),
    ("csv", "X,Y,p\n0,1,1e400\n", "line 2: non-finite mass inf"),
    ("csv", "X,Y,p\n0,1,1e308\n1,1,1e308\n", "masses sum beyond the float range, expected 1"),
    ("csv", "X,Y,p\n0,1,0\n1,1,0.0\n", "distribution has empty support"),
    ("csv", "X,Y,p\n0,1,0.5\n1,1,0.4\n", "masses sum to 0.9, expected 1 within 1e-12"),
    # two faults: every mass is read before any duplicate is sought
    ("csv", "X,Y,p\n0,1,0.5\n0,1,0.5\n1,1,x\n", "line 4: mass is not a number"),
    ("csv", "X,Y,p\n0,1,0.5\n1,1,0.5\n0,1,0\n", "line 4: duplicate assignment [0, 1]"),
]


@pytest.mark.parametrize("fmt, text, error", _LOADER_FAULTS,
                         ids=[f"{fmt}-{k}" for k, (fmt, _, _) in enumerate(_LOADER_FAULTS)])
def test_loader_fault_texts_and_exit_codes(tmp_path, capsys, fmt, text, error):
    with pytest.raises(InvalidDistribution) as err:
        load_distribution(text, fmt)
    assert str(err.value) == error
    from infoshare.cli import main
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid distribution: {error}\n"
    assert main(["eval", str(path), "X"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


_XY = VariableSet(("X", "Y"), (2, 3))


# The constructor's faults: a realization fault is a ValueError of `check_realization`,
# every other an `InvalidDistribution`; entries are checked in the mapping's order.
_CONSTRUCTOR_FAULTS = [
    ({(0, 1.0): 1.0}, ValueError, "realization (0, 1.0) must hold integers"),
    ({(0, "1"): 1.0}, ValueError, "realization (0, '1') must hold integers"),
    ({(0,): 1.0}, ValueError, "realization has 1 values, expected 2"),
    ({(0, 3): 1.0}, ValueError, "value 3 outside range of variable 'Y' (cardinality 3)"),
    ({(-1, 0): 1.0}, ValueError, "value -1 outside range of variable 'X' (cardinality 2)"),
    ({(0, 1): 0.5, range(2): 0.5}, InvalidDistribution, "duplicate assignment (0, 1)"),
    ({(0, 1): "1"}, InvalidDistribution, "mass is not a number for assignment (0, 1)"),
    ({(0, 1): True}, InvalidDistribution, "mass is not a number for assignment (0, 1)"),
    ({(0, 1): None}, InvalidDistribution, "mass is not a number for assignment (0, 1)"),
    ({(0, 1): -1}, InvalidDistribution, "negative mass -1.0 for assignment (0, 1)"),
    ({(0, 1): math.nan}, InvalidDistribution, "non-finite mass nan for assignment (0, 1)"),
    ({(0, 1): math.inf}, InvalidDistribution, "non-finite mass inf for assignment (0, 1)"),
    ({(0, 1): 10**400}, InvalidDistribution,
     f"mass {10**400} is out of range for assignment (0, 1)"),
    ({(0, 1): 1e308, (1, 1): 1e308}, InvalidDistribution,
     "masses sum beyond the float range, expected 1"),
    ({(0, 1): 0, (1, 1): 0.0}, InvalidDistribution, "distribution has empty support"),
    ({}, InvalidDistribution, "distribution has empty support"),
    ({(0, 1): 0.5, (1, 1): 0.4}, InvalidDistribution,
     "masses sum to 0.9, expected 1 within 1e-12"),
    # two faults: a mass is checked before its duplicate, and each entry before the next
    ({(0, 1): 0.5, range(2): "x"}, InvalidDistribution,
     "mass is not a number for assignment (0, 1)"),
    ({(0, 1): -1, (0, 5): 1.0}, InvalidDistribution, "negative mass -1.0 for assignment (0, 1)"),
    ({(0, 1): 0.5, (0, 5): -1}, ValueError,
     "value 5 outside range of variable 'Y' (cardinality 3)"),
    # a zero mass is an entry too: its duplicate is refused in either order
    ({(0, 1): 0.0, range(2): 1.0}, InvalidDistribution, "duplicate assignment (0, 1)"),
    ({(0, 1): 1.0, range(2): 0.0}, InvalidDistribution, "duplicate assignment (0, 1)"),
]


@pytest.mark.parametrize("pmf, kind, error", _CONSTRUCTOR_FAULTS,
                         ids=[f"constructor-{k}" for k in range(len(_CONSTRUCTOR_FAULTS))])
def test_constructor_fault_texts(pmf, kind, error):
    with pytest.raises(ValueError) as err:
        JointDistribution(_XY, pmf)
    assert type(err.value) is kind
    assert str(err.value) == error
