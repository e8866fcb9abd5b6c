import ast
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from infoshare import (
    Antichain,
    RedundancyLattice,
    enumerate_antichains,
    lattice_valuation,
    lower,
    mobius_closed_form,
    parse_expression,
    to_dot,
    trivariate_report,
)
from infoshare import cli
from infoshare.cli import main
from infoshare.sampling import random_distribution, trial_rng

from helpers import XOR3_JSON, xor3

README = Path(__file__).resolve().parents[1] / "README.md"

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


@pytest.mark.parametrize("field", ["p", "cardinality"])
def test_validate_over_long_json_integer_is_malformed(tmp_path, capsys, field):
    # json.loads refuses an integer literal past the int-to-str digit limit with a
    # bare ValueError, not a JSONDecodeError
    values = {"p": "1.0", "cardinality": "2", field: "1" * (sys.get_int_max_str_digits() + 1)}
    path = tmp_path / "long.json"
    path.write_text('{"variables": [{"name": "X", "cardinality": %(cardinality)s}], '
                    '"pmf": [{"assignment": [0], "p": %(p)s}]}' % values)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith("invalid distribution: malformed JSON: ")


@pytest.mark.parametrize("name, content", [
    ("big.json", '{"variables": [{"name": "X", "cardinality": 2}], "pmf": ['
                 '{"assignment": [0], "p": 1e308}, {"assignment": [1], "p": 1e308}]}'),
    ("big.csv", "X,p\n0,1e308\n1,1e308\n"),
], ids=["json", "csv"])
@pytest.mark.parametrize("argv, code, prefix", [
    (["validate"], 1, "invalid distribution: "),
    (["eval", "X"], 2, "error: "),
], ids=["validate", "eval"])
def test_mass_sum_beyond_the_float_range_is_one_error_line(tmp_path, capsys, name, content,
                                                            argv, code, prefix):
    path = tmp_path / name
    path.write_text(content)
    assert main([argv[0], str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}masses sum beyond the float range, expected 1\n"


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
        ("dist.json", XOR3_JSON.replace('"X"', '" X"').encode()),
        ("dist.csv", b"cup,p\n0,1.0\n"),
    ],
    ids=["nested-array", "nested-object", "not-utf8", "empty-name", "spaced-name",
         "operator-name"],
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


def test_decompose_takes_a_realization_only_in_pointwise_mode(xor3_file, capsys):
    # A realization never switches the mode: the expected mode refuses one,
    # on the lattice and with a target alike, and the target report's mode
    # is the one asked for.
    target = ["--target", "Z", "--predictors", "X;Y"]
    for argv in (
        ["decompose", xor3_file, "--realization", "0,1,1"],
        ["decompose", xor3_file, "--mode", "expected", "--realization", "0,1,1"],
        ["decompose", xor3_file, *target, "--realization", "0,1,1"],
        ["decompose", xor3_file, "--mode", "expected", *target, "--realization", "0,1,1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --realization needs --mode pointwise\n", argv
    assert main(["decompose", xor3_file, "--mode", "pointwise", *target,
                 "--realization", "0,1,1"]) == 0
    assert capsys.readouterr().out.startswith("mutual decomposition [pointwise]")
    assert main(["decompose", xor3_file, *target]) == 0
    assert capsys.readouterr().out.startswith("mutual decomposition [expected]")


@pytest.mark.parametrize("argv, message", [
    (["eval", "{f}", "X cap Y", "--about", ""], "empty source specification ''"),
    (["eval", "{f}", "X cap Y", "--given", ""], "empty source specification ''"),
    (["eval", "{f}", "X cap Y", "--realization", ""],
     "realization '' must be comma-separated integers"),
    (["pointwise", "{f}", "--realization", "0,1,1", "--sources", "X", "Y", "--given", ""],
     "empty source specification ''"),
    (["decompose", "{f}", "--variables", ""], "unknown variable ''"),
    (["decompose", "{f}", "--target", "", "--predictors", "X;Y"],
     "empty source specification ''"),
    (["decompose", "{f}", "--realization", ""], "--realization needs --mode pointwise"),
    (["decompose", "{f}", "--mode", "pointwise", "--realization", ""],
     "realization '' must be comma-separated integers"),
], ids=["eval-about", "eval-given", "eval-realization", "pointwise-given",
        "decompose-variables", "decompose-target", "decompose-expected-realization",
        "decompose-pointwise-realization"])
def test_an_empty_flag_value_is_an_error(xor3_file, capsys, argv, message):
    # an empty value is a value: it is parsed and refused, not read as absent
    assert main([a.format(f=xor3_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, realization", [
    (["eval", "{f}", "X cap Y", "--realization", "{r}"], "\u0661,1,1"),
    (["eval", "{f}", "X cap Y", "--realization", "{r}"], "0,0_1,1"),
    (["pointwise", "{f}", "--realization", "{r}", "--sources", "X", "Y"], "0,1,\u0661"),
    (["decompose", "{f}", "--mode", "pointwise", "--realization", "{r}"], "0,1_0,1"),
], ids=["eval-digit", "eval-underscore", "pointwise-digit", "decompose-underscore"])
def test_a_realization_reads_only_ascii_digits(xor3_file, capsys, argv, realization):
    # int() also reads other Unicode digits and digit-group underscores
    assert main([a.format(f=xor3_file, r=realization) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: realization {realization!r} "
                            "must be comma-separated integers\n")


def test_spaces_around_a_realization_value_are_allowed(xor3_file, capsys):
    assert main(["eval", xor3_file, "X cap Y", "--realization", "0,1,1"]) == 0
    spaced = capsys.readouterr().out.replace("(0,1,1)", "( 0 , 1,1 )")
    assert main(["eval", xor3_file, "X cap Y", "--realization", " 0 , 1,1 "]) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize("argv, flag, kind, value", [
    (["--seed", "\u0661", "--trials", "1", "check", "--suite", "lemmas"], "--seed", "int",
     "\u0661"),
    (["--trials", "1_0", "check", "--suite", "lemmas"], "--trials", "int", "1_0"),
    (["check", "--suite", "lemmas", "--trials", "\u0661"], "--trials", "int", "\u0661"),
    (["lattice", "--n", "\u0663"], "--n", "int", "\u0663"),
    (["--tol", "\u0661e-9", "--trials", "1", "check", "--suite", "lemmas"], "--tol", "float",
     "\u0661e-9"),
    (["--tol", "1_0e-10", "--trials", "1", "check", "--suite", "lemmas"], "--tol", "float",
     "1_0e-10"),
], ids=["seed-digit", "trials-underscore", "trials-after-subcommand", "n-digit", "tol-digit",
        "tol-underscore"])
def test_a_number_flag_reads_only_ascii_digits(capsys, argv, flag, kind, value):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid {kind} value: {value!r}\n")


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


@pytest.mark.parametrize("mode", [[], ["--mode", "pointwise", "--realization", "0,1,1"]],
                         ids=["expected", "pointwise"])
def test_target_figures_end_in_one_column(xor3_file, capsys, mode):
    # on XOR the coinformation reads -1 among positive rows
    assert main(["decompose", xor3_file, "--target", "Z", "--predictors", "X,Y", *mode]) == 0
    *rows, residual = capsys.readouterr().out.splitlines()[1:]
    assert residual.startswith("residual")
    assert any(line.endswith("-1.000000000") for line in rows)
    assert len({len(line) for line in rows}) == 1


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


def test_decompose_target_refuses_a_variable_subset(xor3_file, capsys):
    argv = ["decompose", xor3_file, "--target", "Z", "--predictors", "X,Y", "--variables", "X"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --variables does not apply with --target and --predictors\n"


def test_decompose_target_footer_fails_above_the_tolerance(xor3_file, monkeypatch, capsys):
    monkeypatch.setattr(cli.MutualDecomposition, "parts_sum", lambda self: self.joint + 0.5)
    argv = ["decompose", xor3_file, "--target", "Z", "--predictors", "X,Y"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "residual       5.000000000e-01"
    assert main(["--format", "structured", *argv]) == 1
    assert json.loads(capsys.readouterr().out)["residual"] == 0.5


def test_pointwise_footer_checks_the_parts_it_prints(tmp_path, monkeypatch, capsys):
    # a unique read in the wrong direction breaks intersection + uniques +
    # synergy = joint, and the two-source footer must say so
    from infoshare.measures import pair_contents

    def wrong_way(h_a, h_b, h_ab):
        union, _, *rest = pair_contents(h_a, h_b, h_ab)
        return (union, max(h_b - h_a, 0.0), *rest)

    monkeypatch.setattr("infoshare.cli.pair_contents", wrong_way)
    d = random_distribution(trial_rng(2024, 0), [2, 3, 2], sparsity=0.0)
    argv = ["pointwise", str(_dist_file(tmp_path, d)), "--realization", "1,2,0",
            "--sources", "X", "Y"]
    assert main(["--format", "structured", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    h = {m["name"]: m["value"] for m in doc["measures"]}
    assert h["h{X}"] != h["h{Y}"]
    assert doc["residual"] > 1e-9


@pytest.mark.parametrize("sources", [["X,Y"], ["X", "Y", "Z"]])
def test_pointwise_without_two_sources_prints_no_residual(xor3_file, capsys, sources):
    # no parts identity to check: nothing can fail, even at a tiny tolerance
    argv = ["--tol", "1e-300", "pointwise", xor3_file, "--realization", "0,1,1",
            "--sources", *sources]
    assert main(argv) == 0
    assert "residual" not in capsys.readouterr().out
    assert main(["--format", "structured", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["residual"] is None


def test_lattice_export(tmp_path, capsys):
    out_path = tmp_path / "n2.dot"
    assert main(["lattice", "--n", "2", "--out", str(out_path)]) == 0
    dot = out_path.read_text()
    assert dot.count("[label=") == 4
    assert dot.count("->") == 4
    capsys.readouterr()
    assert main(["lattice", "--n", "3", "--kind", "sharing"]) == 0
    assert capsys.readouterr().out.count("[label=") == 18


def test_lattice_export_confirmation_follows_the_format(tmp_path, capsys):
    out_path = tmp_path / "n2.dot"
    assert main(["lattice", "--n", "2", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"wrote redundancy lattice for n=2 (4 nodes) to {out_path}\n"
    assert main(["--format", "structured", "lattice", "--n", "2", "--out", str(out_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kind": "redundancy", "n": 2, "nodes": 4, "out": str(out_path)}
    # DOT on stdout is the payload itself, in either format
    dot = out_path.read_text()
    assert main(["--format", "structured", "lattice", "--n", "2", "--out", "-"]) == 0
    assert capsys.readouterr().out == dot


def test_lattice_n5_needs_no_override(capsys):
    # `--allow-n5` is parsed and changes nothing
    assert main(["lattice", "--n", "5"]) == 0
    dot = capsys.readouterr().out
    assert main(["--allow-n5", "lattice", "--n", "5"]) == 0
    assert capsys.readouterr().out == dot == to_dot(enumerate_antichains(5), kind="redundancy")


@pytest.mark.parametrize("flags", [[], ["--allow-n5"]])
def test_n_outside_1_to_5_is_refused_in_both_flag_states(tmp_path, capsys, flags):
    path, _ = _binary_file(tmp_path, 6)
    for argv, n in ((["lattice", "--n", "0"], 0), (["lattice", "--n", "6"], 6),
                    (["decompose", path, "--mode", "expected"], 6)):
        assert main([*flags, *argv]) == 2
        error = capsys.readouterr().err
        assert error == f"error: variable count {n} outside supported range 1..5\n"


def _binary_file(tmp_path, n):
    d = random_distribution(trial_rng(75, n), [2] * n, sparsity=0.75)
    path = tmp_path / f"n{n}.json"
    path.write_text(json.dumps({
        "variables": [{"name": name, "cardinality": 2} for name in d.variables.names],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }))
    return str(path), d


@pytest.mark.parametrize("n, flags", [(5, []), (6, ["--variables", "x1,x2,x3,x5,x6"])])
def test_decompose_n5_needs_no_override(tmp_path, capsys, n, flags):
    # Five variables run as the library builds them; the flagged argv has the
    # benchmark's shape, `--allow-n5 decompose F --mode expected`.
    path, d = _binary_file(tmp_path, n)
    r = ",".join(map(str, d.support()[0][0]))
    for mode in (["--mode", "expected"], ["--mode", "pointwise", "--realization", r]):
        assert main(["decompose", path, *flags, *mode]) == 0
        out = capsys.readouterr().out
        # a header, 7,579 node rows and a three-line footer
        assert len(out.splitlines()) == 2 + 7579 + 3
        assert main(["--allow-n5", "decompose", path, *flags, *mode]) == 0
        assert capsys.readouterr().out == out


def test_decompose_footer_lines_up_with_the_value_column(xor3_file, capsys):
    # At n <= 2 every node label is shorter than "sum of partials".
    assert main(["decompose", xor3_file, "--variables", "X,Y", "--mode", "pointwise",
                 "--realization", "0,0,0"]) == 0
    _, header, *rows, total, joint, residual = capsys.readouterr().out.splitlines()
    value_end = header.index("value") + len("value")
    for line in (*rows, total, joint):
        assert re.search(r"\d\.\d{9}", line).end() == value_end, line
    assert total.startswith("sum of partials  ") and joint.startswith("joint value  ")
    assert re.search(r"\d\.\d{9}e", residual).start() == value_end - 12


P3_JSON = """
{"variables": [{"name": "X", "cardinality": 2}, {"name": "Y", "cardinality": 2},
               {"name": "Z", "cardinality": 2}],
 "pmf": [{"assignment": [0, 0, 0], "p": 1.0}]}
"""


def test_point_mass_reports_print_no_negative_zero(tmp_path, capsys):
    # Every surprisal at a point mass is 0.0 - log2(1) = +0.0.
    path = tmp_path / "p3.json"
    path.write_text(P3_JSON)
    for argv in (
        ["decompose", str(path), "--mode", "pointwise", "--realization", "0,0,0"],
        ["decompose", str(path), "--target", "Z", "--predictors", "X,Y",
         "--mode", "pointwise", "--realization", "0,0,0"],
        ["pointwise", str(path), "--realization", "0,0,0", "--sources", "X", "Y"],
        ["pointwise", str(path), "--realization", "0,0,0", "--sources", "X", "Y",
         "--given", "Z"],
        ["eval", str(path), "(X,Y) cap Z", "--realization", "0,0,0"],
        ["eval", str(path), "X oplus Y", "--realization", "0,0,0", "--about", "Z"],
    ):
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert "0.000000000" in out and "-0.000000000" not in out, argv


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


def test_eval_nesting_depth(xor3_file, capsys):
    deep = "(" * 5000 + "X" + ")" * 5000
    assert main(["eval", xor3_file, deep]) == 2
    assert capsys.readouterr().err == "error: expression nested too deeply\n"
    # 493 nested operators still evaluate, in a fresh process as from the shell
    text = "X"
    for _ in range(493):
        text = f"({text} cup Y)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "infoshare.cli", "--format", "structured", "eval", xor3_file, text],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["--format", "structured", "eval", xor3_file, "X cup Y"]) == 0
    assert json.loads(proc.stdout)["value"] == json.loads(capsys.readouterr().out)["value"]


def test_check_suites_pass(capsys):
    for suite in ("props", "lemmas", "mobius"):
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

    lattice = enumerate_antichains(5)
    values = {node: [] for node in lattice.nodes}
    partials = {node: [] for node in lattice.nodes}
    for r, p in d.support():
        valuation = lattice_valuation(d, r)
        for node, partial in zip(lattice.nodes, mobius_closed_form(lattice, valuation).partials):
            values[node].append(p * valuation[lattice.index(node)])
            partials[node].append(p * partial)
    expected = [
        {
            "node": node.label(d.variables.names),
            "value": math.fsum(values[node]),
            "partial": math.fsum(partials[node]),
        }
        for node in map(lattice.nodes.__getitem__, lattice._topo)
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
    lattice = enumerate_antichains(5)
    atoms = lower(parse_expression(text, d.variables.names), lattice)

    def oracle(r):
        partials = mobius_closed_form(lattice, lattice_valuation(d, r)).partials
        return math.fsum(partials[lattice.index(a)] for a in atoms)

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
        "--trials", "25", "--format", "structured", "check", "--suite", "lemmas",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["suite"] == "lemmas"


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


def test_production_paths_never_normalize(tmp_path, monkeypatch, capsys):
    # The node algebra and the lattice run on up-set masks; `normalize` is
    # only the public canonicalizer and the tests' oracle.
    def refuse(sources):
        raise AssertionError("Antichain.normalize called")

    monkeypatch.setattr(Antichain, "normalize", staticmethod(refuse))
    x3 = tmp_path / "x3.json"
    x3.write_text(XOR3_JSON)
    d = random_distribution(trial_rng(73, 0), [2] * 5, sparsity=0.75)
    n5 = tmp_path / "n5.json"
    n5.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 2} for n in d.variables.names],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }))
    r5 = ",".join(map(str, d.support()[0][0]))
    for argv in (
        ["--trials", "100", "check", "--suite", "props"],
        ["decompose", str(x3), "--mode", "expected"],
        ["decompose", str(x3), "--mode", "pointwise", "--realization", "0,1,1"],
        ["--allow-n5", "decompose", str(n5), "--mode", "expected"],
        ["--allow-n5", "decompose", str(n5), "--mode", "pointwise", "--realization", r5],
        ["lattice", "--n", "4"],
    ):
        assert main(argv) == 0, argv
        capsys.readouterr()
    report = trivariate_report(xor3(), (0, 1, 1))
    assert len(report) == 18 and math.fsum(report.values()) == pytest.approx(2.0)


def test_n5_decompositions_build_no_node_objects(tmp_path, monkeypatch, capsys):
    # The n = 5 lattice, its values and its report stay in node-index space:
    # no `Antichain` is hashed or labelled, the node tuple is never built,
    # and no node is looked up: the joint value is the last row's.
    def refuse(*args):
        raise AssertionError("node object used on the n = 5 path")

    monkeypatch.setattr(Antichain, "__hash__", refuse)
    monkeypatch.setattr(Antichain, "label", refuse)
    monkeypatch.setattr(RedundancyLattice, "nodes", property(refuse))
    monkeypatch.setattr(RedundancyLattice, "index", refuse)
    enumerate_antichains.cache_clear()  # build the lattice under the patches too
    d = random_distribution(trial_rng(74, 0), [2] * 5, sparsity=0.75)
    n5 = tmp_path / "n5.json"
    n5.write_text(json.dumps({
        "variables": [{"name": n, "cardinality": 2} for n in d.variables.names],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }))
    r5 = ",".join(map(str, d.support()[0][0]))
    for fmt in ("text", "structured"):
        for mode in (["--mode", "expected"], ["--mode", "pointwise", "--realization", r5]):
            argv = ["--allow-n5", "--format", fmt, "decompose", str(n5), *mode]
            assert main(argv) == 0, argv
            assert capsys.readouterr().out.count("{x,y,z,w,v}") == 1, argv


def test_readme_python_block_runs():
    # Run the quickstart as written and check each value its comments state.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    tree = ast.parse(block)
    values: dict[int, object] = {}
    # record the value of every top-level expression by its line
    tree.body = [
        ast.Assign(
            targets=[ast.Subscript(ast.Name("values", ast.Load()), ast.Constant(stmt.lineno),
                                   ast.Store())],
            value=stmt.value,
        ) if isinstance(stmt, ast.Expr) else stmt
        for stmt in tree.body
    ]
    exec(compile(ast.fix_missing_locations(tree), "README.md", "exec"), {"values": values})
    claimed = {}
    for lineno, line in enumerate(block.splitlines(), 1):
        stated = re.search(r"#(?:[^:\d]*:)?\s*(-?\d+\.\d+)", line)
        if stated:
            claimed[lineno] = float(stated.group(1))
    assert list(claimed.values()) == [1.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    assert "expected(" in block.splitlines()[max(claimed) - 1]
    for lineno, value in claimed.items():
        assert values[lineno] == pytest.approx(value, abs=1e-12), block.splitlines()[lineno - 1]


def _readme_cli_lines() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
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


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-9"])
@pytest.mark.parametrize("argv", [["decompose", "x.json"], ["check", "--suite", "lemmas"]])
def test_tolerance_must_be_positive_and_finite(capsys, tol, argv):
    # an infinite tolerance would pass every footer and every check law
    assert main([f"--tol={tol}", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerance must be positive and finite\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("argv", [["decompose", "x.json"], ["check", "--suite", "lemmas"]])
def test_trial_count_must_be_at_least_one(capsys, trials, argv):
    # checked before any command runs: the missing file is never opened
    assert main(["--trials", trials, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trial count must be at least 1\n"
    # the tolerance is checked first
    assert main(["--tol", "0", "--trials", trials, *argv]) == 2
    assert capsys.readouterr().err == "error: tolerance must be positive and finite\n"


def test_cli_imports_only_the_standard_library():
    # The runtime is pure stdlib: a fresh isolated interpreter that imports the
    # CLI loads no module beyond the standard library and infoshare itself.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import infoshare.cli; "
        "print('\\n'.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "infoshare" in loaded
    assert loaded - {"infoshare"} <= set(sys.stdlib_module_names), \
        sorted(loaded - {"infoshare"} - set(sys.stdlib_module_names))
    # `check` forks with `os` and pipes with `marshal`: the process-pool
    # modules would cost start-up time and resident memory
    assert not loaded & {"multiprocessing", "concurrent", "pickle"}, sorted(loaded)
    # start-up stays lean: no `dataclasses` (with the `inspect` chain it
    # pulls in), and the format libraries load only when a command uses them
    assert not loaded & {"dataclasses", "inspect", "csv", "json"}, sorted(loaded)


def _dist_file(tmp_path, d) -> Path:
    doc = {
        "variables": [{"name": n, "cardinality": c}
                      for n, c in zip(("X", "Y", "Z"), d.variables.cardinalities)],
        "pmf": [{"assignment": list(r), "p": p} for r, p in d.support()],
    }
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(doc))
    return path


# sha256 of stdout for reports the benchmark's reference digests leave out;
# "{f}" is a random 2x3x2 distribution, "{xor}" `XOR3_JSON`, "{n5}" the
# n5-expected input at seed 0
_STRUCTURED = ("--format", "structured")
_TARGET = ("decompose", "{f}", "--target", "Z", "--predictors", "X,Y")
_TARGET_AT = (*_TARGET, "--mode", "pointwise", "--realization", "1,2,0")
_XOR_TARGET_AT = ("decompose", "{xor}", "--target", "Z", "--predictors", "X,Y",
                  "--mode", "pointwise", "--realization", "0,1,1")
_EVAL_AT = ("eval", "{f}", "X oplus Y", "--realization", "1,2,0")
_XOR_EVAL_AT = ("eval", "{xor}", "X oplus Y", "--realization", "0,1,1")
_ONE_SOURCE = ("pointwise", "{f}", "--realization", "1,2,0", "--sources", "X,Y")
_TWO_SOURCES = ("pointwise", "{f}", "--realization", "1,2,0", "--sources", "X", "Y")
REPORT_DIGESTS = {
    (*_STRUCTURED, "--allow-n5", "decompose", "{n5}", "--mode", "expected"):
        "c98224fa53adb6ca1e7be86975736d015c60f7194ae9193f748d8f527b635a6f",
    _TARGET:
        "6a1d1bc92c1caed76008ce44536814ca2dbd346762d85c12df59746ebefa14f0",
    (*_STRUCTURED, *_TARGET):
        "dd3e2a68ba06d2e8b39e135a4674b24b7b81493b9191a49360955ec6dd11e452",
    _TARGET_AT:
        "9b8d1d525d408268b8dd4a646369a9050eac95a14000eabdf521a99bda2cf9ee",
    (*_STRUCTURED, *_TARGET_AT):
        "5612906171d3b5d39241e1d2cd9a4774b536ebf55e249286d1329a7b784050de",
    (*_STRUCTURED, "eval", "{f}", "X oplus Y", "--about", "Z"):
        "0d1674d681fe66fe3f5e663b1644a2e6365aab165dfb88c0569a6fff22e40542",
    (*_STRUCTURED, "validate", "{f}"):
        "eaeca6a8dcd9d53444a59cf8fc56a2e9d8eb32f874a7af79327291acfcd700af",
    (*_STRUCTURED, "lattice", "--n", "3", "--out", "lattice.dot"):
        "1628c9e1c5de85fd08b8a80e8a3b51151e5ad3ff90b16718d26691e9d62e1bbc",
    _ONE_SOURCE:
        "e4058aa05e759220cda1bf0b9e06f651fd12d01afa4475a177207337d3de7b3e",
    (*_STRUCTURED, *_ONE_SOURCE):
        "14b5d9c789a1802a057cfa7d9d6dcd4214c67fa137c0f3770a5e1a0139a203b1",
    ("--base", "e", "decompose", "{n5}", "--mode", "expected"):
        "e510f5c7ab8f05e30c19c61f741bba8d00e357893b51ce236e8aa9ad88f96463",
    ("--base", "10", "decompose", "{n5}", "--mode", "expected"):
        "2b13505e973931de0846342e374bcf7210a7193130c887a78e103427ce37ef46",
    ("decompose", "{n5}", "--mode", "pointwise", "--realization", "0,0,0,1,0"):
        "14fdb0b63875514fbd3219add72d286d6c478d204bce45b92a26a796ffbf4497",
    ("lattice", "--n", "5"):
        "ddd998a24e7e9fb6ed4f3265da56873b5c165a2b0785efff82642afd84dc103a",
    # the pointwise figures: each is the weighted sum over one realization's point mass
    _EVAL_AT:
        "0727a83ecdcc9ff4fb9f79ebc835db29e5cb6a14a0566c39865140a9369a6aa2",
    (*_STRUCTURED, *_EVAL_AT):
        "15241b402dcc3644991e80ecdb4ee1f15572f401d0fa7a8eff9637a1a021fe7e",
    (*_EVAL_AT, "--given", "Z"):
        "45fe3157f1797bb4f79ef35f9b46f49a3e92e5436752cccec8ceaa6765159a5c",
    (*_STRUCTURED, *_EVAL_AT, "--given", "Z"):
        "04d4edae5d1c609540c13f82e6fcc9fdd3f701a028b88938f7eade8200a5a67b",
    (*_EVAL_AT, "--about", "Z"):
        "a152211206a2f3724817b15c7202e1a1cdb7bf086ebc1949064b8dc1df0375fb",
    (*_STRUCTURED, *_EVAL_AT, "--about", "Z"):
        "a98d21abaf34b687641761e5714b0b8a99aa40844078b80a9057ee957024303b",
    _XOR_EVAL_AT:
        "f2048cc7bf775c8af557ac98213e6685bb155aa9cb0b709576d25db0f193a988",
    (*_STRUCTURED, *_XOR_EVAL_AT):
        "2746f2d48c1a3c72195cecf2399b97fe971abceb5c555d2bdfc765e1ea209a3a",
    (*_XOR_EVAL_AT, "--given", "Z"):
        "678790dbd0f44667421f4f58d4201beca5008cd7092dc2b4e924ae4402a83328",
    (*_STRUCTURED, *_XOR_EVAL_AT, "--given", "Z"):
        "766cd96f81883ce360279b075e181d137f278c9d052a8ecb885d456d613bc328",
    (*_XOR_EVAL_AT, "--about", "Z"):
        "f2048cc7bf775c8af557ac98213e6685bb155aa9cb0b709576d25db0f193a988",
    (*_STRUCTURED, *_XOR_EVAL_AT, "--about", "Z"):
        "2746f2d48c1a3c72195cecf2399b97fe971abceb5c555d2bdfc765e1ea209a3a",
    _XOR_TARGET_AT:
        "2b072afc5d97a8f8706be3b240812e69882ceabb699cffedbe991a9bc58261e0",
    (*_STRUCTURED, *_XOR_TARGET_AT):
        "13e8b2f4eda313b51a0007b4964435cfbc8bc6aa6dc65343f054b766ba46a958",
    # the two-column tables that `cli._table` writes: a two-source residual, more
    # than two sources, a conditioner, and the other units
    _TWO_SOURCES:
        "aedccd89087daa250ac47a3c5e26e3fb47d67a8317bd2458a5aa2f7b987362a0",
    (*_STRUCTURED, *_TWO_SOURCES):
        "7fb967a843e820542baf4498ad542fe99b330fd7c67d989bad5ad116b3aeb7b4",
    (*_TWO_SOURCES, "Z"):
        "1a8fd2337ad5281007b3f15ebe1470710e3c0fdf153518962ff63f3d5ad14200",
    (*_STRUCTURED, *_TWO_SOURCES, "Z"):
        "9865a0c890180962d91c95b9327da6a033de88330c13ef504dcb133034c21e95",
    (*_TWO_SOURCES, "--given", "Z"):
        "97bbac8f3f4f2459e668b7c89f476fb252fb0b32946b2782069fd42ae1938424",
    (*_STRUCTURED, *_TWO_SOURCES, "--given", "Z"):
        "981faa6ac4009ffc4f08cc011e77dabc76e910d0aaa8af65358424d89d6900b0",
    ("--base", "e", *_TWO_SOURCES):
        "59cb7e799596be1a82d4ef6a5ffd09ad847b6eda873510b31a6090cb0c336be2",
    (*_STRUCTURED, "--base", "e", *_TWO_SOURCES):
        "d67b05ee66597f10baa20699bfd3d18e3e8c4781301882261bc75ed466880006",
    ("--base", "10", *_TARGET_AT):
        "5528f8091be3e104d7f938b39597dea1064e4d1ca6e558829d4d9465a4530cdb",
    (*_STRUCTURED, "--base", "10", *_TARGET_AT):
        "c9df967e46e093b298510508097caf68596a7923e38b082921cdd14e09ad3c60",
}


def _report_argv(argv, tmp_path) -> list[str]:
    """A `REPORT_DIGESTS` command line with its input files written to `tmp_path`."""
    from test_bench_reference import WORKLOADS

    (tmp_path / "xor.json").write_text(XOR3_JSON)
    paths = {
        "f": _dist_file(tmp_path, random_distribution(trial_rng(2024, 0), [2, 3, 2],
                                                      sparsity=0.0)),
        "xor": tmp_path / "xor.json",
        "n5": WORKLOADS.make("n5-expected", 0, tmp_path).argv[2],
    }
    return [arg.format(**paths) for arg in argv]


@pytest.mark.parametrize("argv", REPORT_DIGESTS, ids=" ".join)
def test_report_matches_its_recorded_digest(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # `lattice --out` confirms a relative path
    assert main(_report_argv(argv, tmp_path)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[argv]


class _RecordingStdout:
    """A stdout that keeps each `write` apart."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("argv", [argv for argv in REPORT_DIGESTS if "structured" not in argv
                                  and ("{n5}" in argv or argv == ("lattice", "--n", "5"))],
                         ids=" ".join)
def test_an_n5_text_report_is_written_in_chunks(argv, tmp_path, monkeypatch):
    # 7,584 `decompose` lines or 43,093 DOT lines, never held whole: at most
    # `_CHUNK_LINES` lines per write, and the writes together are the pinned report
    out = _RecordingStdout()
    argv_run = _report_argv(argv, tmp_path)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(argv_run) == 0
    assert len(out.writes) > 1
    assert all(text.count("\n") <= cli._CHUNK_LINES for text in out.writes)
    joined = "".join(out.writes)
    assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == REPORT_DIGESTS[argv]


def test_the_n5_report_peaks_under_2_5_mib_of_traced_memory(tmp_path, monkeypatch):
    # the lattice build counted, and the report going to a file as it is formatted
    import tracemalloc

    argv = _report_argv(("decompose", "{n5}", "--mode", "expected"), tmp_path)
    with open(tmp_path / "report.txt", "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        enumerate_antichains.cache_clear()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "report.txt").read_text().splitlines()) == 7579 + 5
    assert peak < 2.5 * 2**20


def test_a_reader_that_stops_early_gets_status_141(tmp_path):
    # the shell's status for SIGPIPE, and no message, whenever the pipe closes
    argv = _report_argv(("decompose", "{n5}"), tmp_path)
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    with open(tmp_path / "stderr", "wb") as err:
        child = subprocess.Popen([sys.executable, "-m", "infoshare.cli", *argv],
                                 stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            assert child.stdout.readline() == b"expected decomposition\n"
            child.stdout.close()  # the rest of the report is far more than a pipe holds
            assert child.wait(timeout=60) == 141
        finally:
            child.kill()
            child.wait()
    assert (tmp_path / "stderr").read_bytes() == b""


@pytest.mark.parametrize("x", [-0.0, -1.25, 0.0, 2.5e-10, 1e6, -123456789.125, math.inf,
                               -math.inf, math.nan])
def test_a_decompose_row_formats_each_figure_as_fmt_right_aligned_to_12(x):
    row = cli._DECOMPOSE_ROW % (7, "{x}{y}", x, -x)
    assert row == f"{'{x}{y}'.ljust(7)}  {cli._fmt(x).rjust(12)}  {cli._fmt(-x).rjust(12)}"


def test_the_n5_report_builds_no_antichain_objects(monkeypatch, tmp_path, capsys):
    from test_bench_reference import WORKLOADS

    from infoshare import decomposition, load_file

    # a fresh lattice: the cached one may hold the nodes an oracle built
    lattice = RedundancyLattice(5)
    monkeypatch.setattr(decomposition, "enumerate_antichains", lambda n: lattice)
    path = WORKLOADS.make("n5-expected", 0, tmp_path).argv[2]
    names = ("A", "B", "C", "D", "E")
    rows = decomposition.decomposition_rows(decomposition.decompose_expected(load_file(path)),
                                            names)
    labels = lattice.labels(names)
    assert [label for label, _, _ in rows] == [labels[i] for i in lattice._topo]
    assert main(["decompose", path, "--mode", "expected"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == len(lattice) + 5
    assert "nodes" not in vars(lattice)


def test_the_workflow_runs_the_installed_script_after_the_install(tmp_path):
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tier1.yml").read_text())
    runs = [step.get("run", "") for step in workflow["jobs"]["test"]["steps"]]
    install = next(i for i, run in enumerate(runs) if "pip install" in run)
    script = next(i for i, run in enumerate(runs) if run.startswith("infoshare "))
    assert install < script
    lines = runs[script].splitlines()
    assert lines == ["infoshare --seed 0 --trials 40 check --suite props | tee props.out",
                     "infoshare --seed 9 --trials 1 check --suite props | tee props-9.out",
                     "diff <(tail -n +2 props.out) <(tail -n +2 props-9.out)",
                     "infoshare --seed 0 --trials 40 check --suite mobius",
                     "infoshare --seed 0 --trials 40 check --suite lemmas", "infoshare lattice --n 3",
                     r"printf 'A,B,C,D,E,p\n0,0,0,0,0,0.5\n1,1,1,1,1,0.5\n' > five.csv",
                     "infoshare decompose five.csv | tail -n 3",
                     'status=0; infoshare decompose five.csv | head -n 2 || status=$?; '
                     'test "$status" -eq 141',
                     r"printf 'X,Y,p\n0,0,0.5\n1,1,0.5\n' > copy.csv",
                     "infoshare --base e --format structured decompose copy.csv"]
    assert workflow["jobs"]["test"]["steps"][script]["shell"] == "bash"
    # the benchmark's output checks, reference digests included, run on every matrix version
    bench = next(i for i, run in enumerate(runs) if "bench/run.py" in run)
    assert "if" not in workflow["jobs"]["test"]["steps"][bench]
    # in order, in one directory, each line as `shell: bash` runs it (with
    # pipefail), `infoshare` standing for the module the console script names
    assert 'infoshare = "infoshare.cli:main"' in (root / "pyproject.toml").read_text()
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHON": sys.executable}
    script_shell = 'infoshare() { "$PYTHON" -m infoshare.cli "$@"; }\n'
    for line in lines:
        done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                               script_shell + line], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (line, done.stderr)
        assert done.stderr == "", line
        # `printf` writes to a file, and `diff` prints nothing when the two agree
        assert done.stdout or line.startswith(("printf", "diff")), line
        if "head -n 2" in line:
            head = done.stdout.splitlines()
            assert head[0] == "expected decomposition" and head[1].split() == [
                "node", "value", "partial"]
        elif "tail -n 3" in line:
            assert done.stdout.splitlines()[-1].startswith("residual")
    # the decompose report, in nats: COPY's joint surprisal is ln 2 at either point
    assert json.loads(done.stdout)["joint_value"] == math.log(2)
