"""The `check` trial driver: block invariance, failures and child cleanup;
the points and laws of the mobius suite; recorded digests of the reports
the benchmark does not pin; and the props suite's node-index tables."""

import hashlib
import json
import os
import random

import pytest

from infoshare import checks
from infoshare.cli import main
from infoshare.lattice import (
    Antichain,
    _source_table,
    antichain_of,
    enumerate_antichains,
    enumerate_sources,
    sharing_join,
    sharing_meet,
)
from infoshare.sampling import tie_heavy_distributions

TRIALS = {"props": 40, "lemmas": 12, "mobius": 10, "pie": 60}
# mobius adds one work item per support point of its tie-heavy families
TIE_HEAVY_POINTS = [(d, r) for n in (2, 3, 4) for d in tie_heavy_distributions(n)
                    for r, _ in d.support()]


def _items(suite: str, trials: int) -> int:
    return trials + (len(TIE_HEAVY_POINTS) if suite == "mobius" else 0)


def _reports(monkeypatch, cpus: int, suite: str, seed: int, trials: int) -> tuple[str, str]:
    monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
    report = checks.run_suite(suite, seed, trials, 1e-9)
    return report.to_text(), json.dumps(report.to_json(), indent=2)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    # count the children the driver starts (a child's own count is its copy)
    started = []
    real_fork = os.fork

    def fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return started


@pytest.mark.parametrize("suite", checks.SUITES)
@pytest.mark.parametrize("seed", [0, 7])
def test_reports_do_not_depend_on_the_block_count(monkeypatch, forks, suite, seed):
    trials = TRIALS[suite]
    one = _reports(monkeypatch, 1, suite, seed, trials)
    assert not forks
    for cpus in (2, 3):
        assert _reports(monkeypatch, cpus, suite, seed, trials) == one, cpus
    assert len(forks) == 1 + 2
    # more CPUs than work items: one block per item
    forks.clear()
    assert _reports(monkeypatch, 4, suite, seed, 2) == _reports(monkeypatch, 1, suite, seed, 2)
    assert len(forks) == min(4, _items(suite, 2)) - 1
    # one trial: only mobius has more than one item, its tie-heavy points
    forks.clear()
    single = _reports(monkeypatch, 1, suite, seed, 1)
    for cpus in (2, 3):
        assert _reports(monkeypatch, cpus, suite, seed, 1) == single, cpus
    assert len(forks) == (1 + 2 if suite == "mobius" else 0)
    _assert_no_child_left()


def test_mobius_checks_every_tie_heavy_point_once(monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "_mobius_point", lambda d, r, bump: seen.append((d, r)))
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    checks.run_suite("mobius", 0, 0, 1e-9)

    def key(points):
        return [(d.variables, d.support(), r) for d, r in points]

    assert key(seen) == key(TIE_HEAVY_POINTS)


def test_mobius_runs_every_law_on_the_tie_heavy_points(monkeypatch):
    # no random trial: every law name the bump sees comes from a tie-heavy point
    names = set()
    real = checks._bumper

    def bumper(residuals):
        bump = real(residuals)

        def recorded(name, value):
            names.add(name)
            bump(name, value)
        return recorded

    monkeypatch.setattr(checks, "_bumper", bumper)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    report = checks.run_suite("mobius", 0, 0, 1e-9)
    assert names == {line.name for line in report.lines} == {
        "closed_equals_recursive", "partials_nonnegative", "partials_sum_to_top",
        "chain_equals_closed"}
    assert report.passed


# sha256 of `check` output at 40 trials, by (suite, seed, format); `props` is
# pinned by the benchmark's reference digests
CHECK_DIGESTS = {
    ("mobius", 0, "text"): "da16c485e475d2d50832512e848154abe1fb2718ae21c5cdce784fb5143f7c95",
    ("mobius", 0, "structured"):
        "5dbd492ac3f23ae0208ab193cacf703c4b61238ced461c2f2637af847908c558",
    ("mobius", 7, "text"): "168fade29672d3da8d83a51802399250e8f82366908fabd59d8d217647e14cb9",
    ("mobius", 7, "structured"):
        "21217bac4e891ce4272cc268681224bb3eb124a9d1ddda5c95366af30f72aa83",
    ("lemmas", 0, "text"): "42cfd1432cc3aa8434d52883dea2748132cf4a6f035760526b849f6766e2abc2",
    ("lemmas", 0, "structured"):
        "b678ea326437eeac3bd7db64ae86aaca96c1b477c5fd9288be234b8036d9db74",
    ("lemmas", 7, "text"): "3fb23d9bd51eeadabab2e86c5c934defc9bbf8fe173d20cdd825cc58d353301b",
    ("lemmas", 7, "structured"):
        "326bd10a8e7faaa35848294b31a459fb932336e6289f981c4f9ab31d97bc54b6",
    ("pie", 0, "text"): "0ba583178e89916603de03c9d24cfd027c3995e97686263f4866caaf0c2b3ea7",
    ("pie", 0, "structured"): "f76eb50771fae448b36db4106a0a625c6290bb51c7342462f809a1dd9326764b",
    ("pie", 7, "text"): "3834ed086ebe8d8ffb9785b4c84a58a28ec53edd3b27db3e16b26e9f93575311",
    ("pie", 7, "structured"): "f285d0114a95f6bfa3efbf2b23370b7d35bc67d91fbb706f66814416a2200496",
}


@pytest.mark.parametrize("suite, seed, fmt", CHECK_DIGESTS)
def test_check_output_matches_its_recorded_digest(capsys, suite, seed, fmt):
    argv = ["--seed", str(seed), "--trials", "40", "--format", fmt, "check", "--suite", suite]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_DIGESTS[suite, seed, fmt]


def test_cli_output_does_not_depend_on_the_block_count(monkeypatch, capsys):
    for fmt in ("text", "structured"):
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
            argv = ["--seed", "7", "--trials", "30", "--format", fmt, "check", "--suite", "props"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1], fmt


def test_no_trials_start_no_child(monkeypatch, forks):
    text, _ = _reports(monkeypatch, 4, "props", 0, 0)
    assert not forks
    assert "max residual 0.000000000e+00" in text


def _break_trial(monkeypatch, index: int, action) -> None:
    real = checks.trial_rng

    def trial_rng(seed, t):
        if t == index:
            action()
        return real(seed, t)

    monkeypatch.setattr(checks, "trial_rng", trial_rng)


def _raise():
    raise RuntimeError("trial broke")


@pytest.mark.parametrize("suite", checks.SUITES)
@pytest.mark.parametrize("index", [7, 1])  # in a child's block, then in this process's
def test_a_failing_trial_raises_the_one_block_error(monkeypatch, suite, index):
    _break_trial(monkeypatch, index, _raise)
    errors = []
    for cpus in (1, 2):
        with pytest.raises(Exception) as caught:
            _reports(monkeypatch, cpus, suite, 0, 10)
        errors.append((type(caught.value), str(caught.value)))
        _assert_no_child_left()
    assert errors[0] == errors[1] == (RuntimeError, "trial broke")


def test_a_child_that_dies_has_its_block_rerun(monkeypatch):
    parent = os.getpid()
    expected = _reports(monkeypatch, 1, "props", 3, 10)

    def die_in_a_child():
        if os.getpid() != parent:
            os._exit(9)

    _break_trial(monkeypatch, 8, die_in_a_child)
    assert _reports(monkeypatch, 2, "props", 3, 10) == expected
    _assert_no_child_left()


def test_a_fork_that_fails_runs_the_block_here(monkeypatch):
    expected = _reports(monkeypatch, 1, "pie", 3, 10)

    def no_fork():
        raise OSError("no process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _reports(monkeypatch, 3, "pie", 3, 10) == expected


def _two_pass_antichain(mask: int, n: int) -> tuple:
    # the minimal sources of a mask: drop each source strictly above one in it
    sets = [frozenset(s) for s in enumerate_sources(n)]
    bits = [k for k in range(len(sets)) if mask >> k & 1]
    strict = 0
    for k in bits:
        strict |= sum(1 << l for l, s in enumerate(sets) if sets[k] < s)
    return tuple(tuple(sorted(sets[k])) for k in bits if not strict >> k & 1)


def test_antichain_of_keeps_the_minimal_sources_of_any_mask():
    for n in (1, 2, 3):
        for mask in range(1, 1 << (1 << n) - 1):
            assert antichain_of(mask, n).sources == _two_pass_antichain(mask, n), (n, mask)
    rng = random.Random(11)
    for n in (4, 5):
        up = _source_table(n)[2]
        count = len(up)
        masks = [rng.getrandbits(count) or 1 for _ in range(150)]
        # up-sets too: the union of the up masks of a few sources
        masks += [up[rng.randrange(count)] | up[rng.randrange(count)] for _ in range(50)]
        for mask in masks:
            assert antichain_of(mask, n).sources == _two_pass_antichain(mask, n), (n, mask)


@pytest.mark.parametrize("n", [2, 3])
def test_props_tables_hold_the_index_of_every_join_and_meet(n):
    lattice, join_t, meet_t = checks._node_tables(n)
    assert lattice is enumerate_antichains(n)
    nodes = lattice.nodes
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert join_t[i][j] == lattice.index(sharing_join(a, b)), (i, j)
            assert meet_t[i][j] == lattice.index(sharing_meet(a, b)), (i, j)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("trials", [0, 1, 40])
def test_props_runs_the_sharing_ops_once_per_pair_per_command(monkeypatch, cpus, trials):
    calls = []

    def counted(op):
        def wrapper(a, b):
            calls.append(op)
            return op(a, b)
        return wrapper

    monkeypatch.setattr(checks, "sharing_join", counted(sharing_join))
    monkeypatch.setattr(checks, "sharing_meet", counted(sharing_meet))
    _reports(monkeypatch, cpus, "props", 0, trials)
    # every ordered pair of the 4 nodes at n = 2 and the 18 at n = 3
    assert calls.count(sharing_join) == calls.count(sharing_meet) == 4 ** 2 + 18 ** 2


@pytest.mark.parametrize("op, mutant", [
    ("sharing_meet", lambda a, b: a),  # meet keeps its first operand
    ("sharing_meet", sharing_join),  # join in place of meet
    ("sharing_join", sharing_meet),  # meet in place of join
])
def test_props_fails_on_a_wrong_node_algebra(monkeypatch, capsys, op, mutant):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    assert checks.run_props(0, 200, 1e-9).passed
    monkeypatch.setattr(checks, op, mutant)
    report = checks.run_props(0, 200, 1e-9)
    assert not report.passed
    assert main(["--trials", "200", "check", "--suite", "props"]) == 1
    assert capsys.readouterr().out == report.to_text()


def test_props_rejects_a_result_that_is_no_node(monkeypatch, capsys):
    # an unnormalized antichain: (0,) is inside (0, 1)
    monkeypatch.setattr(checks, "sharing_meet", lambda a, b: Antichain(((0,), (0, 1))))
    assert main(["--trials", "5", "check", "--suite", "props"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
