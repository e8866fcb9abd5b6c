"""The `check` trial driver: block invariance, failures and child cleanup;
the points and laws of the mobius suite; recorded digests of every suite's
report; the props suite's node-index tables, its draws and the work each of
its trials does; and one sampler shape per process."""

import hashlib
import json
import os
import random
from collections import Counter

import pytest

from infoshare import PartialValuation, checks, decomposition, sampling
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
from infoshare.distribution import JointDistribution, VariableSet
from infoshare.measures import surprisal_table
from infoshare.sampling import random_distribution, tie_heavy_distributions, trial_rng

TRIALS = {"props": 40, "lemmas": 12, "mobius": 10}
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


def test_an_unknown_suite_is_refused_before_any_trial(forks):
    with pytest.raises(ValueError) as err:
        checks.run_suite("nope", 0, 10, 1e-9)
    assert str(err.value) == "unknown suite 'nope'; choose from props, lemmas, mobius"
    assert not forks


def test_mobius_checks_every_tie_heavy_point_once(monkeypatch):
    seen = []
    monkeypatch.setattr(checks, "_mobius_point", lambda d, r, bump: seen.append((d, r)))
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    checks.run_suite("mobius", 0, 0, 1e-9)

    def key(points):
        return [(d.variables, d.support(), r) for d, r in points]

    assert key(seen) == key(TIE_HEAVY_POINTS)


def _law_bumps(monkeypatch) -> Counter:
    """Count the bumps of each law name over runs of one block."""
    bumps = Counter()
    real = checks._bumper

    def bumper(residuals):
        bump = real(residuals)

        def recorded(name, value):
            bumps[name] += 1
            bump(name, value)
        return recorded

    monkeypatch.setattr(checks, "_bumper", bumper)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    return bumps


def test_mobius_runs_every_law_on_the_tie_heavy_points(monkeypatch):
    # no random trial: every law name the bump sees comes from a tie-heavy point,
    # and the expected law, which only a random distribution runs, is not seen
    bumps = _law_bumps(monkeypatch)
    report = checks.run_suite("mobius", 0, 0, 1e-9)
    per_point = {"closed_equals_inversion", "partials_nonnegative", "partials_sum_to_top",
                 "chain_equals_closed", "circles_sum_to_union"}
    assert set(bumps) == per_point
    assert {line.name for line in report.lines} == per_point | {"expected_equals_inversion"}
    assert report.passed


def test_mobius_runs_the_expected_law_once_per_random_trial(monkeypatch):
    bumps = _law_bumps(monkeypatch)
    assert checks.run_suite("mobius", 0, 7, 1e-9).passed
    assert bumps["expected_equals_inversion"] == 7


def test_mobius_fails_when_the_walk_drops_its_weights(monkeypatch, capsys):
    # a mutant `_walk` that weights its node values but sums the chain
    # increments unweighted: no per-point law can see it, the expected law does
    real = decomposition._walk

    def walk(lattice, rows, weights):
        rows, weights = list(rows), list(weights)
        unweighted = real(lattice, rows, [1.0] * len(rows)).partials
        return PartialValuation(lattice, real(lattice, rows, weights).values, unweighted)

    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    assert checks.run_suite("mobius", 0, 40, 1e-9).passed
    monkeypatch.setattr(decomposition, "_walk", walk)
    report = checks.run_suite("mobius", 0, 40, 1e-9)
    assert [line.name for line in report.lines if not line.passed] == [
        "expected_equals_inversion"]
    assert main(["--trials", "40", "check", "--suite", "mobius"]) == 1
    assert capsys.readouterr().out == report.to_text()


def test_mobius_fails_when_the_walk_moves_a_partial_out_of_the_circles(monkeypatch, capsys):
    # a mutant walk that moves the bottom node's increment, inside every circle,
    # onto the top node, inside none: the partials still sum to the top's value
    real = checks.decompose_pointwise

    def moved(d, r):
        walk = real(d, r)
        partials, topo = list(walk.partials), walk.lattice._topo
        partials[topo[-1]] += partials[topo[0]]
        partials[topo[0]] = 0.0
        return PartialValuation(walk.lattice, walk.values, partials)

    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(checks, "decompose_pointwise", moved)
    report = checks.run_suite("mobius", 0, 40, 1e-9)
    # partials_sum_to_top passes; the walk no longer matches the closed form node by node
    assert [line.name for line in report.lines if not line.passed] == [
        "chain_equals_closed", "circles_sum_to_union"]
    assert main(["--trials", "40", "check", "--suite", "mobius"]) == 1
    assert capsys.readouterr().out == report.to_text()


# sha256 of `check` output at 40 trials, by (suite, seed, format); the benchmark's
# reference digests pin only the `props` text output, and only at 2,000 trials
CHECK_DIGESTS = {
    ("props", 0, "text"): "55214e7638e5c5fbc2292541ef50c5f5428c132a8794ad3b456130fd046e8c38",
    ("props", 0, "structured"):
        "e645a0ee6ea3321ba18d53e44933362ff33287fd8f86cb8d7f36f52351105dae",
    ("props", 7, "text"): "e6f6ecf5a943e1a43f1c3ff7f593bbc0540e7d0a53b3573c9c780ef55cef48aa",
    ("props", 7, "structured"):
        "c89554a0352d9b083870b7663a38183cd9981a238e306e6581ff369a680dcc3f",
    ("mobius", 0, "text"): "6d4999d72133b9286db4f2582435d25fbdecc72a69332d7dff5a283ee8579c84",
    ("mobius", 0, "structured"):
        "3723892d89175c3bc102e08c97e968a385342dd324c0f1443fc1251615056d5f",
    ("mobius", 7, "text"): "a4dfac12a970af4bfdf9320d3942eec1a401cafa11c3515fb878331842ad9338",
    ("mobius", 7, "structured"):
        "47569bd4983f2bfdad4fde56434a78ba6cd8b374a8648ec85212b02ddf7082c0",
    ("lemmas", 0, "text"): "42cfd1432cc3aa8434d52883dea2748132cf4a6f035760526b849f6766e2abc2",
    ("lemmas", 0, "structured"):
        "b678ea326437eeac3bd7db64ae86aaca96c1b477c5fd9288be234b8036d9db74",
    ("lemmas", 7, "text"): "3fb23d9bd51eeadabab2e86c5c934defc9bbf8fe173d20cdd825cc58d353301b",
    ("lemmas", 7, "structured"):
        "326bd10a8e7faaa35848294b31a459fb932336e6289f981c4f9ab31d97bc54b6",
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
    expected = _reports(monkeypatch, 1, "lemmas", 3, 10)

    def no_fork():
        raise OSError("no process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _reports(monkeypatch, 3, "lemmas", 3, 10) == expected


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
    assert checks.run_suite("props", 0, 200, 1e-9).passed
    monkeypatch.setattr(checks, op, mutant)
    report = checks.run_suite("props", 0, 200, 1e-9)
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


@pytest.mark.parametrize("seed", [0, 7])
def test_props_trials_draw_what_the_public_path_draws(monkeypatch, seed):
    drawn = []
    real = checks._props_draws

    def recorded(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(checks, "_props_draws", recorded)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    checks.run_suite("props", seed, 300, 1e-9)
    assert len(drawn) == 300
    for t, (n, h, a, b, c) in enumerate(drawn):
        rng = trial_rng(seed, t)
        m = rng.choice((2, 3))
        d = random_distribution(rng, [2] * m if m == 3 else [rng.randint(2, 4)] * 2)
        support = d.support()
        r, _ = support[rng.randrange(len(support))]
        public = surprisal_table(d, [(i,) for i in range(m)])(r)
        size = len(enumerate_antichains(m))
        # bit for bit: hex tells -0.0 from 0.0
        assert (n, [x.hex() for x in h], a, b, c) == (
            m, [x.hex() for x in public], *(rng.randrange(size) for _ in range(3))), t


def _inside(monkeypatch, name: str) -> list:
    """Wrap `checks.<name>`, the per-trial function a suite binds when it runs;
    the list returned is non-empty while a trial runs."""
    inside = []
    real = getattr(checks, name)

    def trial(*args):
        inside.append(name)
        try:
            real(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(checks, name, trial)
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    return inside


def test_props_trials_value_each_node_once_and_check_nothing_again(monkeypatch):
    inside = _inside(monkeypatch, "_props_trial")
    valued = []  # per eval_sharing call: the node and the surprisals it read
    checked = []

    def eval_sharing(node, values):
        assert inside
        valued.append((node, values))
        return real_eval(node, values)

    def counted(method):
        def wrapper(self, *args):
            if inside:
                checked.append(method.__name__)
            return method(self, *args)
        return wrapper

    real_eval = checks.eval_sharing
    monkeypatch.setattr(checks, "eval_sharing", eval_sharing)
    for name in ("check_realization", "check_source"):
        monkeypatch.setattr(VariableSet, name, counted(getattr(VariableSet, name)))
    trials = 60
    checks.run_suite("props", 0, trials, 1e-9)
    assert not checked
    # trial by trial: every node of the lattice over len(h) variables, once, in order
    seen = 0
    for _ in range(trials):
        h = valued[seen][1]
        nodes = enumerate_antichains(len(h)).nodes
        assert [node for node, _ in valued[seen:seen + len(nodes)]] == list(nodes)
        assert all(values is h for _, values in valued[seen:seen + len(nodes)])
        seen += len(nodes)
    assert seen == len(valued)


def test_props_trials_build_no_marginal_table(monkeypatch):
    inside = _inside(monkeypatch, "_props_trial")
    called = []  # per call: the reader's name, and whether a props trial made it

    def counted(real, name):
        def wrapper(*args):
            called.append((name, bool(inside)))
            return real(*args)
        return wrapper

    monkeypatch.setattr(JointDistribution, "_table",
                        counted(JointDistribution._table, "_table"))
    monkeypatch.setattr(checks, "_surprisal_reader",
                        counted(checks._surprisal_reader, "_surprisal_reader"))
    checks.run_suite("props", 0, 60, 1e-9)
    assert not any(in_trial for _, in_trial in called)
    checks.run_suite("lemmas", 0, 1, 1e-9)  # the wrappers are where the readers are looked up
    assert {name for name, _ in called} == {"_table", "_surprisal_reader"}


def test_point_surprisals_add_the_masses_in_support_order():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 one by one, but 0.6 from `math.fsum`
    # and from the compensated builtin `sum` of Python 3.12 on: two ulps apart
    d = JointDistribution(VariableSet(["X", "Y"], [2, 3]),
                          {(0, 0): 0.1, (0, 1): 0.2, (0, 2): 0.3, (1, 0): 0.4})
    h = checks._point_surprisals(d, (0, 1))
    assert h[0].hex() == surprisal_table(d, [(0,)])((0, 1))[0].hex() == "0x1.79538dea712f3p-1"
    assert [x.hex() for x in h] == [x.hex() for x in surprisal_table(d, [(0,), (1,)])((0, 1))]


@pytest.mark.parametrize("suite, trial, trials", [
    ("props", "_props_trial", 60), ("lemmas", "_lemmas_trial", 12), ("mobius", "_mobius_item", 6),
])
def test_trials_build_one_variable_set_per_shape(monkeypatch, suite, trial, trials):
    inside = _inside(monkeypatch, trial)
    built = Counter()
    real_init = VariableSet.__init__

    def init(self, names, cardinalities):
        real_init(self, names, cardinalities)
        if inside:
            built[self.cardinalities] += 1

    monkeypatch.setattr(VariableSet, "__init__", init)
    sampling._shape.cache_clear()
    checks.run_suite(suite, 0, trials, 1e-9)
    assert built and set(built.values()) == {1}, built


@pytest.mark.xfail(strict=True, reason="every props law is self-dual, so the suite cannot "
                   "tell join from meet until it ties the tables to the node values")
def test_props_fails_with_join_and_meet_swapped(monkeypatch):
    monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(checks, "sharing_join", sharing_meet)
    monkeypatch.setattr(checks, "sharing_meet", sharing_join)
    assert not checks.run_suite("props", 0, 200, 1e-9).passed
