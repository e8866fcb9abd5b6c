import json
import math
import re
import shlex
from pathlib import Path

import pytest

from infoshare import (
    enumerate_antichains,
    lattice_valuation,
    lower,
    mobius_closed_form,
    parse_expression,
)
from infoshare.cli import main
from infoshare.sampling import random_distribution, trial_rng

from helpers import XOR3_JSON

COPY_JSON = """
{"variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 2}],
 "pmf": [{"assignment": [0, 0], "p": 0.5}, {"assignment": [1, 1], "p": 0.5}]}
"""


@pytest.fixture
def xor3_file(tmp_path):
    path = tmp_path / "xor3.json"
    path.write_text(XOR3_JSON)
    return str(path)


@pytest.fixture
def copy_file(tmp_path):
    path = tmp_path / "copy.json"
    path.write_text(COPY_JSON)
    return str(path)


def test_validate_ok(xor3_file, capsys):
    assert main(["validate", xor3_file]) == 0
    assert capsys.readouterr().out.strip() == "ok: 3 variables, 4 support points"


def test_validate_normalization_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(XOR3_JSON.replace("0.25", "0.24975", 1))
    assert main(["validate", str(path)]) == 1
    assert "sum" in capsys.readouterr().err


def test_validate_negative_mass(tmp_path, capsys):
    path = tmp_path / "neg.json"
    path.write_text(XOR3_JSON.replace('"p": 0.25}]', '"p": -0.25}]'))
    assert main(["validate", str(path)]) == 1
    assert "negative" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/nowhere.json"]) == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "{dir}"], 1),
        (["pointwise", "{dir}", "--realization", "0,0", "--sources", "X", "Y"], 2),
        (["decompose", "{dir}"], 2),
        (["eval", "{dir}", "X cup Y"], 2),
        (["lattice", "--n", "2", "--out", "{dir}"], 2),
    ],
    ids=["validate", "pointwise", "decompose", "eval", "lattice-out"],
)
def test_directory_path_is_one_error_line(tmp_path, capsys, argv, code):
    assert main([a.format(dir=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, code, prefix",
    [("validate", 1, "invalid distribution: "), ("decompose", 2, "error: ")],
    ids=["validate", "decompose"],
)
@pytest.mark.parametrize(
    "name, content",
    [
        ("dist.json", b"[" * 100_000),
        ("dist.json", b'{"variables": ' + b"[" * 100_000),
        ("dist.json", b"\xff\xfe{}"),
        ("dist.csv", b",p\n0,1.0\n"),
    ],
    ids=["nested-array", "nested-object", "not-utf8", "empty-name"],
)
def test_malformed_file_is_one_error_line(tmp_path, capsys, command, code, prefix, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_validate_csv(tmp_path, capsys):
    path = tmp_path / "copy.csv"
    path.write_text("X,Y,p\n0,0,0.5\n1,1,0.5\n")
    assert main(["validate", str(path)]) == 0
    assert "2 variables, 2 support points" in capsys.readouterr().out


def test_decompose_expected_xor3(xor3_file, capsys):
    assert main(["decompose", xor3_file, "--mode", "expected"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("{")]
    assert len(lines) == 18
    assert "sum of partials    2.000000000" in out.replace("  ", " ") or "2.000000000" in out
    assert out.splitlines()[2].startswith("{X}{Y}{Z}")


def test_decompose_pointwise_copy(copy_file, capsys):
    assert main(["decompose", copy_file, "--mode", "pointwise", "--realization", "0,0"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith("{")]
    assert len(rows) == 4
    partials = [float(l.split()[-1]) for l in rows]
    assert partials == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_decompose_pointwise_requires_realization(copy_file, capsys):
    assert main(["decompose", copy_file, "--mode", "pointwise"]) == 2


def test_decompose_structured(xor3_file, capsys):
    assert main(["--format", "structured", "decompose", xor3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "expected"
    assert len(doc["rows"]) == 18
    assert doc["sum_of_partials"] == pytest.approx(2.0)
    assert doc["residual"] <= 1e-9


def test_decompose_target_mode(xor3_file, capsys):
    assert main(["decompose", xor3_file, "--target", "Z", "--predictors", "X,Y"]) == 0
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines()[1:]:
        parts = line.rsplit(None, 1)
        if len(parts) == 2:
            values[parts[0].strip()] = parts[1]
    assert float(values["synergy"]) == pytest.approx(1.0)
    assert float(values["intersection"]) == pytest.approx(0.0)
    assert float(values["joint"]) == pytest.approx(1.0)
    assert float(values["coinformation"]) == pytest.approx(-1.0)


def test_decompose_variable_subset(xor3_file, capsys):
    assert main(["decompose", xor3_file, "--variables", "X,Y"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith("{")]
    assert len(rows) == 4


def test_pointwise_command(xor3_file, capsys):
    code = main([
        "pointwise", xor3_file,
        "--realization", "0,1,1",
        "--sources", "X", "Y",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "synergy" in out and "mutual" in out
    values = {
        line.rsplit(None, 1)[0].strip(): float(line.rsplit(None, 1)[1])
        for line in out.splitlines()[1:]
    }
    assert values["synergy"] == pytest.approx(1.0)
    assert values["mutual"] == pytest.approx(0.0)


def test_pointwise_conditional(xor3_file, capsys):
    code = main([
        "pointwise", xor3_file,
        "--realization", "0,1,1",
        "--sources", "X", "Y",
        "--given", "Z",
    ])
    assert code == 0
    out = capsys.readouterr().out
    values = {
        line.rsplit(None, 1)[0].strip(): float(line.rsplit(None, 1)[1])
        for line in out.splitlines()[1:]
    }
    assert values["synergy|{Z}"] == pytest.approx(0.0)
    assert values["mutual|{Z}"] == pytest.approx(1.0)


def test_lattice_export(tmp_path, capsys):
    out_path = tmp_path / "n2.dot"
    assert main(["lattice", "--n", "2", "--out", str(out_path)]) == 0
    dot = out_path.read_text()
    assert dot.count("[label=") == 4
    assert dot.count("->") == 4
    capsys.readouterr()
    assert main(["lattice", "--n", "3", "--kind", "sharing"]) == 0
    assert capsys.readouterr().out.count("[label=") == 18


def test_lattice_n5_needs_override(capsys):
    assert main(["lattice", "--n", "5"]) == 2
    assert "override" in capsys.readouterr().err


def test_eval_pointwise_and_expected(xor3_file, capsys):
    assert main(["eval", xor3_file, "X cap (Y oplus Z)", "--realization", "0,1,1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("0.000000000")
    assert main(["eval", xor3_file, "X cup Y"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("1.000000000")


def test_eval_about_target(xor3_file, capsys):
    assert main([
        "eval", xor3_file, "X oplus Y", "--realization", "0,1,1", "--about", "Z",
    ]) == 0
    assert capsys.readouterr().out.strip().endswith("1.000000000")


def test_eval_about_compiles_once_per_command(xor3_file, monkeypatch, capsys):
    # plain and conditioned: two lowerings for the four support points
    from infoshare import algebra

    calls = []
    compile_ = algebra._compile
    monkeypatch.setattr(algebra, "_compile", lambda *a: calls.append(a) or compile_(*a))
    assert main(["eval", xor3_file, "X oplus Y", "--about", "Z"]) == 0
    assert capsys.readouterr().out.strip().endswith("1.000000000")
    assert len(calls) <= 2


def test_eval_bad_expression(xor3_file, capsys):
    assert main(["eval", xor3_file, "X cap Y oplus Z", "--realization", "0,0,0"]) == 2
    assert "ambiguous" in capsys.readouterr().err


def test_check_suites_pass(capsys):
    for suite in ("props", "lemmas", "mobius", "pie"):
        assert main(["--trials", "50", "--seed", "3", "check", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out


def test_check_mobius_has_chain_law(capsys):
    assert main(["--trials", "20", "--format", "structured", "check", "--suite", "mobius"]) == 0
    laws = {law["name"]: law for law in json.loads(capsys.readouterr().out)["laws"]}
    assert laws["chain_equals_closed"]["pass"] is True
    assert laws["chain_equals_closed"]["max_residual"] <= 1e-9


def test_n5_expected_rows_match_the_oracles(tmp_path, capsys):
    # The production rows against the per-point oracles, summed alike.
    d = random_distribution(trial_rng(71, 0), [2] * 5, sparsity=0.75)
    doc = {
        "variables": [{"name": n, "cardinality": 2} for n in d.variables.names],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(doc))
    assert main(["--allow-n5", "--format", "structured", "decompose", str(path),
                 "--mode", "expected"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]

    lattice = enumerate_antichains(5, True)
    values = {node: [] for node in lattice.nodes}
    partials = {node: [] for node in lattice.nodes}
    for r, p in d.support():
        valuation = lattice_valuation(d, lattice, r)
        for node, partial in mobius_closed_form(valuation).partials.items():
            values[node].append(p * valuation.values[node])
            partials[node].append(p * partial)
    expected = [
        {
            "node": node.label(d.variables.names),
            "value": math.fsum(values[node]),
            "partial": math.fsum(partials[node]),
        }
        for node in lattice.topo_order()
    ]
    assert rows == expected


def test_n5_eval_needs_no_override(tmp_path, capsys):
    # eval builds no lattice, so five variables run without --allow-n5 and
    # agree with the increments of the built lattice.
    d = random_distribution(trial_rng(72, 0), [2] * 5, sparsity=0.8)
    doc = {
        "variables": [{"name": n, "cardinality": 2} for n in d.variables.names],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }
    path = tmp_path / "n5.json"
    path.write_text(json.dumps(doc))
    text = "(x cup y) minus (z oplus (w,v))"
    lattice = enumerate_antichains(5, True)
    atoms = lower(parse_expression(text, d.variables.names), lattice)

    def oracle(r):
        partials = mobius_closed_form(lattice_valuation(d, lattice, r)).partials
        return math.fsum(partials[a] for a in atoms)

    r = d.support()[0][0]
    realization = ",".join(map(str, r))
    assert main(["--format", "structured", "eval", str(path), text,
                 "--realization", realization]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == oracle(r)
    assert main(["--format", "structured", "eval", str(path), text]) == 0
    expected = math.fsum(p * oracle(r) for r, p in d.support())
    assert json.loads(capsys.readouterr().out)["value"] == expected


def test_check_structured(capsys):
    assert main([
        "--trials", "25", "--format", "structured", "check", "--suite", "pie",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["suite"] == "pie"


def test_check_determinism(capsys):
    args = ["--trials", "120", "--seed", "99", "check", "--suite", "props"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["--trials", "120", "--seed", "98", "check", "--suite", "props"]) == 0
    capsys.readouterr()


def test_base_flag_changes_units(copy_file, capsys):
    assert main([
        "--base", "e", "pointwise", copy_file,
        "--realization", "0,0", "--sources", "X",
    ]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[1].rsplit(None, 1)[1])
    assert value == pytest.approx(math.log(2.0))


def test_global_flags_after_the_subcommand(capsys):
    assert main(["--seed", "7", "--trials", "50", "check", "--suite", "props"]) == 0
    before = capsys.readouterr().out
    assert main(["check", "--suite", "props", "--seed", "7", "--trials", "50"]) == 0
    after = capsys.readouterr().out
    assert before == after
    assert before.startswith("suite: props  seed: 7  trials: 50")


def _readme_cli_lines() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("infoshare ")]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every line of the README's CLI block, as written, against a dist.json
    # over X, Y, Z; an optional "[...]" part runs both without and with it.
    (tmp_path / "dist.json").write_text(XOR3_JSON)
    monkeypatch.chdir(tmp_path)
    lines = _readme_cli_lines()
    assert len(lines) >= 9
    for line in lines:
        optional = re.search(r" \[(.*?)\]", line)
        variants = [line]
        if optional:
            head, tail = line[: optional.start()], line[optional.end():]
            variants = [head + tail, f"{head} {optional.group(1)}{tail}"]
        for text in variants:
            assert main(shlex.split(text)[1:]) == 0, text
            capsys.readouterr()
    assert (tmp_path / "lattice.dot").read_text().startswith("digraph")


_UNIT_COMMANDS = (
    ["pointwise", "{f}", "--realization", "0,1,1", "--sources", "X", "Y"],
    ["pointwise", "{f}", "--realization", "0,1,1", "--sources", "X", "Y", "--given", "Z"],
    ["decompose", "{f}", "--mode", "expected"],
    ["decompose", "{f}", "--mode", "pointwise", "--realization", "0,1,1"],
    ["decompose", "{f}", "--target", "Z", "--predictors", "X,Y"],
    ["eval", "{f}", "X cap (Y oplus Z)", "--realization", "0,1,1"],
    ["eval", "{f}", "X oplus Y", "--about", "Z"],
)


def _figures(doc) -> list[float]:
    if isinstance(doc, float):
        return [doc]
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _figures(item)]
    return []


def test_base_flag_scales_every_figure(tmp_path, capsys):
    # The library works in bits; --base converts each reported figure.
    d = random_distribution(trial_rng(2024, 0), [2, 3, 2], sparsity=0.0)
    doc = {
        "variables": [{"name": n, "cardinality": c}
                      for n, c in zip(("X", "Y", "Z"), d.variables.cardinalities)],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))

    def figures(base, command):
        argv = ["--base", base, "--format", "structured"]
        argv += [arg.format(f=path) for arg in command]
        assert main(argv) == 0
        return _figures(json.loads(capsys.readouterr().out))

    nonzero = 0
    for command in _UNIT_COMMANDS:
        bits = figures("2", command)
        assert bits
        nonzero += sum(abs(b) > 0.01 for b in bits)
        for base, factor in (("e", math.log(2.0)), ("10", math.log10(2.0))):
            got = figures(base, command)
            assert len(got) == len(bits)
            for value, bit in zip(got, bits):
                assert abs(value - bit * factor) <= 1e-12, (command, base)
    assert nonzero > 20
    # check is unit-free: its residuals are in bits whatever --base says.
    check = ["--trials", "30", "check", "--suite", "mobius"]
    assert main(check) == 0
    bits_report = capsys.readouterr().out
    assert main(["--base", "e", *check]) == 0
    assert capsys.readouterr().out == bits_report


def test_footer_tolerance_gate(tmp_path, capsys):
    # A fixture whose expected-decomposition residual is a nonzero float
    # rounding remainder: with an absurdly small tolerance the footer
    # check must flip the exit code.
    from infoshare.sampling import random_distribution, trial_rng

    d = random_distribution(trial_rng(1234, 0), [2, 2])
    doc = {
        "variables": [
            {"name": n, "cardinality": c}
            for n, c in zip(d.variables.names, d.variables.cardinalities)
        ],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }
    path = tmp_path / "rounding.json"
    path.write_text(json.dumps(doc))
    assert main(["decompose", str(path)]) == 0
    capsys.readouterr()
    code = main(["--tol", "1e-300", "decompose", str(path)])
    out = capsys.readouterr().out
    residual_line = [l for l in out.splitlines() if l.startswith("residual")][0]
    residual = float(residual_line.split()[-1])
    if residual == 0.0:
        pytest.skip("residual is exactly zero for this fixture")
    assert code == 1
