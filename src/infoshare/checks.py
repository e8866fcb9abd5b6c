"""Randomized verification suites behind the `check` CLI subcommand.

Each suite runs seeded trials, tracks a worst-case residual per law, and
reports pass/fail against the configured tolerance.  Per-trial seeds are
derived from the master seed by index, so results never depend on
execution order.

One driver runs every suite's trials in contiguous blocks, one per usable
CPU: the first block in this process and each other block in a forked
child, whose worst residuals are merged by maximum.  The report does not
depend on the CPU count; a system without `fork` runs one block.

`props` builds its join and meet tables of node indices once per command,
before the blocks fork, and values every node once per trial.
"""

from __future__ import annotations

import marshal
import os
from functools import partial
from typing import Callable, Sequence

from .algebra import _lemma_results
from .decomposition import (
    chain_levels,
    decompose_pointwise,
    lattice_valuation,
    mobius_closed_form,
    mobius_recursive,
)
from .lattice import (
    RedundancyLattice,
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    max_via_min_expansion,
    sharing_join,
    sharing_meet,
)
from .measures import _points, _surprisal_reader, surprisal_table
from .record import Record
from .sampling import random_distribution, tie_heavy_distributions, trial_rng

Bump = Callable[[str, float], None]  # keeps a law's worst residual
Trial = Callable[[int, Bump], None]  # runs one trial by index


class CheckLine(Record):
    __slots__ = ("name", "max_residual", "passed")


class CheckReport(Record):
    __slots__ = ("suite", "seed", "trials", "tolerance", "lines")  # lines: tuple[CheckLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_text(self) -> str:
        width = max(len(line.name) for line in self.lines)
        out = [
            f"suite: {self.suite}  seed: {self.seed}  trials: {self.trials}"
            f"  tol: {self.tolerance:.9e}"
        ]
        for line in self.lines:
            verdict = "PASS" if line.passed else "FAIL"
            out.append(
                f"{line.name.ljust(width)}  max residual {line.max_residual:.9e}  {verdict}"
            )
        out.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out) + "\n"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "tolerance": self.tolerance,
            "laws": [
                {"name": l.name, "max_residual": l.max_residual, "pass": l.passed}
                for l in self.lines
            ],
            "pass": self.passed,
        }


def _report(suite, seed, trials, tolerance, residuals) -> CheckReport:
    lines = tuple(
        CheckLine(name, res, res <= tolerance) for name, res in residuals.items()
    )
    return CheckReport(suite, seed, trials, tolerance, lines)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _bumper(residuals: dict[str, float]) -> Bump:
    """Keep the largest value seen per law; `>` never lets NaN or -0.0 in."""
    def bump(name: str, value: float) -> None:
        if value > residuals[name]:
            residuals[name] = value
    return bump


def _block(laws: Sequence[str], trial: Trial, lo: int, hi: int) -> dict[str, float]:
    residuals = dict.fromkeys(laws, 0.0)
    bump = _bumper(residuals)
    for t in range(lo, hi):
        trial(t, bump)
    return residuals


def _fork_block(laws: Sequence[str], trial: Trial, lo: int, hi: int) -> tuple[int, int] | None:
    """Run a block in a forked child; return its pid and the pipe it writes
    its residuals to (marshal keeps the floats exact), or None when no
    child can be started."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(_block(laws, trial, lo, hi)))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _collect(pid: int, read: int) -> dict[str, float] | None:
    """The residuals a child wrote, or None if it failed; reaps the child."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return marshal.loads(data) if status == 0 else None


def _worst_residuals(laws: Sequence[str], trials: int, trial: Trial) -> dict[str, float]:
    """Each law's largest residual over trials 0..trials-1.

    The trials run in contiguous blocks, one per usable CPU: every block
    after the first in a forked child, the first in this process.  Each
    trial depends only on its index and the merge keeps maxima, so the
    result does not depend on the block count.  A child that fails, dies or
    cannot be started has its block rerun here, which raises the error a
    single block would raise.
    """
    blocks = max(1, min(_usable_cpus(), trials)) if hasattr(os, "fork") else 1
    bounds = [trials * b // blocks for b in range(blocks + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((_fork_block(laws, trial, lo, hi), lo, hi))
        residuals = _block(laws, trial, 0, bounds[1])
    finally:
        found = [_collect(*child) if child else None for child, _, _ in children]
    bump = _bumper(residuals)
    for worst, (_, lo, hi) in zip(found, children):
        if worst is None:
            worst = _block(laws, trial, lo, hi)
        for name, value in worst.items():
            bump(name, value)
    return residuals


def _node_tables(n: int) -> tuple[RedundancyLattice, list[list[int]], list[list[int]]]:
    """The lattice over n variables and, by node index, the index of
    `sharing_join` and of `sharing_meet` of every pair of its nodes."""
    lattice = enumerate_antichains(n)
    nodes = lattice.nodes

    def table(op) -> list[list[int]]:
        return [[lattice.index(op(a, b)) for b in nodes] for a in nodes]

    return lattice, table(sharing_join), table(sharing_meet)


def _props_trial(seed: int, tables: dict, t: int, bump: Bump) -> None:
    rng = trial_rng(seed, t)
    n = rng.choice((2, 3))
    d = random_distribution(rng, [2] * n if n == 3 else [rng.randint(2, 4)] * 2)
    support = d.support()
    r, _ = support[rng.randrange(len(support))]
    h = surprisal_table(d, [(i,) for i in range(n)])(r)
    lattice, join_t, meet_t = tables[n]
    a, b, c = (rng.randrange(len(lattice)) for _ in range(3))
    v = [eval_sharing(node, h) for node in lattice.nodes]

    # each law for sharing_join against sharing_meet, then the other way round
    for op, dual in ((join_t, meet_t), (meet_t, join_t)):
        bump("idempotence", abs(v[op[a][a]] - v[a]))
        bump("commutativity", abs(v[op[a][b]] - v[op[b][a]]))
        bump("associativity", abs(v[op[op[a][b]][c]] - v[op[a][op[b][c]]]))
        bump("absorption", abs(v[op[a][dual[a][b]]] - v[a]))
        bump("distributivity",
             abs(v[op[a][dual[b][c]]] - v[dual[op[a][b]][op[a][c]]]))
    for value in v:
        bump("connexity", min(abs(value - hi) for hi in h))


def run_props(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Lattice laws of the max-of-mins evaluation on random operands.

    `sharing_join` and `sharing_meet` run once on every pair of nodes for
    n = 2 and 3, into tables of node indices; each trial then values every
    node once and reads each law from those values.
    """
    laws = (
        "idempotence",
        "commutativity",
        "associativity",
        "absorption",
        "distributivity",
        "connexity",
    )
    tables = {n: _node_tables(n) for n in (2, 3)}
    residuals = _worst_residuals(laws, trials, partial(_props_trial, seed, tables))
    return _report("props", seed, trials, tolerance, residuals)


def _pie_trial(seed: int, t: int, bump: Bump) -> None:
    rng = trial_rng(seed, t)
    n = rng.randint(2, 5)
    values = [rng.uniform(0.0, 4.0) for _ in range(n)]
    bump("max_min_identity", abs(max(values) - max_via_min_expansion(values)))


def run_pie(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Maximum equals the alternating sum of subset minima."""
    residuals = _worst_residuals(("max_min_identity",), trials, partial(_pie_trial, seed))
    return _report("pie", seed, trials, tolerance, residuals)


def _mobius_point(d, r, bump: Bump) -> None:
    """Every inversion law at one support point: both oracles, and the chain walk."""
    lattice = enumerate_antichains(d.variables.n)
    valuation = lattice_valuation(d, lattice, r)
    closed = mobius_closed_form(valuation)
    recursive = mobius_recursive(valuation)
    bump("closed_equals_recursive", max(
        abs(x - y) for x, y in zip(closed.partials, recursive.partials)
    ))
    bump("partials_nonnegative", -min(closed.partials))
    top = valuation.values[lattice._topo[-1]]  # the top node comes last bottom-up
    bump("partials_sum_to_top", abs(closed.total() - top))
    chain = decompose_pointwise(d, r).partials
    for c, x, y in zip(chain, closed.partials, recursive.partials):
        bump("chain_equals_closed", abs(c - x))
        bump("chain_equals_closed", abs(c - y))


def _mobius_item(seed: int, trials: int, tail: Sequence[tuple], t: int, bump: Bump) -> None:
    # the random trials first, then one tie-heavy support point per item
    if t >= trials:
        _mobius_point(*tail[t - trials], bump)
        return
    rng = trial_rng(seed, t)
    n = rng.choice((2, 3))
    d = random_distribution(rng, [2] * n if n == 3 else [rng.randint(2, 3)] * 2)
    for r, _ in d.support():
        _mobius_point(d, r, bump)


def run_mobius(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Closed-form and chain-walk inversion against the recursive oracle.

    Every law runs at every point: each support point of a random
    distribution, then each support point of the tie-heavy families for
    n = 2..4, where surprisals tie and the chain walk merges levels.
    """
    laws = (
        "closed_equals_recursive",
        "partials_nonnegative",
        "partials_sum_to_top",
        "chain_equals_closed",
    )
    tail = [(d, r) for n in (2, 3, 4) for d in tie_heavy_distributions(n) for r, _ in d.support()]
    residuals = _worst_residuals(
        laws, trials + len(tail), partial(_mobius_item, seed, trials, tail)
    )
    return _report("mobius", seed, trials, tolerance, residuals)


def _lemmas_trial(seed: int, t: int, bump: Bump) -> None:
    d = random_distribution(trial_rng(seed, t), [2, 2, 2])
    # every support point's surprisals in one pass
    read = _surprisal_reader(d, [(map(frozenset, enumerate_sources(3)), frozenset())])
    for h in read(_points(d)[0]):
        for result in _lemma_results(chain_levels(h)):
            bump(result.name, result.residual)


def run_lemmas(seed: int, trials: int, tolerance: float) -> CheckReport:
    """The nine three-variable sharing identities on random distributions."""
    laws = [f"L{i}" for i in range(1, 10)]
    residuals = _worst_residuals(laws, trials, partial(_lemmas_trial, seed))
    return _report("lemmas", seed, trials, tolerance, residuals)


# Each suite's runner, by the name `check --suite` takes.
SUITES = {"props": run_props, "lemmas": run_lemmas, "mobius": run_mobius, "pie": run_pie}


def run_suite(suite: str, seed: int, trials: int, tolerance: float) -> CheckReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return SUITES[suite](seed, trials, tolerance)
