"""Verification suites behind the `check` CLI subcommand.

Each suite tracks a worst-case residual per law and reports pass/fail
against the configured tolerance.  `lemmas` and `mobius` run seeded random
trials on the library's own numbers; `mobius` checks the inversions
against each other and the chain walk's partials inside the n circles
against the Venn union.  Per-trial seeds are derived from the master seed
by index, so results never depend on execution order.

`props` samples nothing: it checks the lattice laws of the max-of-mins
evaluation on every weak order of n = 2 and 3 surprisals, which covers
every real input, so its law lines depend on neither the seed nor the
trial count (the report's header still echoes both).

A suite is data in `SUITES`: its law names and a setup that builds what
its trials share and returns the work-item count and the trial to run on
each.  One runner, `run_suite`, runs every suite's items in contiguous
blocks, one per usable CPU: the first block in this process and each other
block in a forked child, whose worst residuals are merged by maximum.  The
report does not depend on the CPU count; a system without `fork` runs one
block, and `props`, one work item, always does.
"""

from __future__ import annotations

import marshal
import math
import os
from functools import partial
from itertools import product
from typing import Callable, Sequence

from .algebra import _lemma_results
from .decomposition import (
    chain_levels,
    decompose_expected,
    decompose_pointwise,
    lattice_valuation,
    mobius_closed_form,
    mobius_inversion,
)
from .lattice import (
    RedundancyLattice,
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    sharing_join,
    sharing_meet,
)
from .measures import _points, _surprisal_reader
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


def _index_laws(op: list[list[int]], dual: list[list[int]], nodes: range):
    """Each index law's (law, lhs, rhs) node indices for every a, b and c."""
    for a in nodes:
        yield "idempotence", op[a][a], a
        for b in nodes:
            yield "commutativity", op[a][b], op[b][a]
            yield "absorption", op[a][dual[a][b]], a
            for c in nodes:
                yield "associativity", op[op[a][b]][c], op[a][op[b][c]]
                yield "distributivity", op[a][dual[b][c]], dual[op[a][b]][op[a][c]]


def _weak_orders(n: int):
    """Every weak order of n surprisals, as ranks 0.0 .. k-1 (3 at n = 2, 13 at n = 3)."""
    for ranks in product(range(n), repeat=n):
        if set(ranks) == set(range(max(ranks) + 1)):
            yield tuple(map(float, ranks))


def _props_sweep(_: int, bump: Bump) -> None:
    """Lattice laws of the max-of-mins evaluation on every weak order.

    For n = 2 and 3, each index law keeps the (lhs, rhs) node pairs of the
    join and meet tables, over all a, b, c, that are not the same node:
    none, for a lattice.  A max of mins is one of its inputs, so a residual
    depends only on the weak order of the surprisals; two distinct
    antichains differ on some 0/1 vector, which is a weak order, so a law
    that fails on some real input fails on one of these.  Every node is
    valued once per weak order.
    """
    for n in (2, 3):
        lattice, join_t, meet_t = _node_tables(n)
        differ: dict[str, set[tuple[int, int]]] = {}
        # each law for sharing_join against sharing_meet, then the other way round
        for op, dual in ((join_t, meet_t), (meet_t, join_t)):
            for law, x, y in _index_laws(op, dual, range(len(lattice))):
                if x != y:
                    differ.setdefault(law, set()).add((x, y))
        for h in _weak_orders(n):
            v = [eval_sharing(node, h) for node in lattice.nodes]
            for law, pairs in differ.items():
                for x, y in pairs:
                    bump(law, abs(v[x] - v[y]))
            for value in v:
                if value not in h:  # a surprisal's own distance is 0.0, which bumps nothing
                    bump("connexity", min(abs(value - hi) for hi in h))


def _mobius_point(d, r, bump: Bump) -> list[float]:
    """Every per-point law at one support point; returns the point's node values."""
    lattice = enumerate_antichains(d.variables.n)
    values = lattice_valuation(d, r)
    closed = mobius_closed_form(lattice, values)
    bump("closed_equals_inversion", max(
        abs(x - y) for x, y in zip(closed.partials, mobius_inversion(lattice, values).partials)
    ))
    bump("partials_nonnegative", -min(closed.partials))
    top = values[lattice._topo[-1]]  # the top node comes last bottom-up
    bump("partials_sum_to_top", abs(closed.total() - top))
    walk = decompose_pointwise(d, r).partials
    for c, x in zip(walk, closed.partials):
        bump("chain_equals_closed", abs(c - x))
    # the Venn union: circle {i} holds the nodes with member {i}; members are sorted
    # and the singletons are sources 0..n-1, so a node is inside when ids[0] < n
    n, members = lattice.n, lattice.members
    inside = math.fsum(x for x, ids in zip(walk, members) if ids[0] < n)
    union = max(v for v, ids in zip(values, members) if len(ids) == 1 and ids[0] < n)
    bump("circles_sum_to_union", abs(inside - union))
    return values


def _mobius_item(seed: int, trials: int, tail: Sequence[tuple], t: int, bump: Bump) -> None:
    # the random trials first, then one tie-heavy support point per item
    if t >= trials:
        _mobius_point(*tail[t - trials], bump)
        return
    rng = trial_rng(seed, t)
    n = rng.choice((2, 3))
    d = random_distribution(rng, [2] * n if n == 3 else [rng.randint(2, 3)] * 2)
    weighted = [[p * x for x in _mobius_point(d, r, bump)] for r, p in d.support()]
    inverted = mobius_inversion(enumerate_antichains(n), list(map(math.fsum, zip(*weighted))))
    bump("expected_equals_inversion", max(abs(x - y) for x, y in zip(
        decompose_expected(d).partials, inverted.partials)))


def _mobius_setup(seed: int, trials: int) -> tuple[int, Trial]:
    """Closed-form and chain-walk inversion against the Boolean-interval one.

    Every per-point law runs at every point: each support point of a random
    distribution, then each support point of the tie-heavy families for
    n = 2..4, where surprisals tie and the chain walk merges levels.  The
    expected law inverts each random distribution's mass-weighted valuations.
    """
    tail = [(d, r) for n in (2, 3, 4) for d in tie_heavy_distributions(n) for r, _ in d.support()]
    return trials + len(tail), partial(_mobius_item, seed, trials, tail)


def _lemmas_trial(seed: int, t: int, bump: Bump) -> None:
    """The nine three-variable sharing identities on a random distribution."""
    d = random_distribution(trial_rng(seed, t), [2, 2, 2])
    # every support point's surprisals in one pass
    read = _surprisal_reader(d, [(map(frozenset, enumerate_sources(3)), frozenset())])
    for h in read(_points(d)[0]):
        for result in _lemma_results(chain_levels(h)):
            bump(result.name, result.residual)


# Each suite by the name `check --suite` takes: its law names, in report order,
# and its setup `(seed, trials) -> (work items, trial)`, which builds what every
# trial block shares before the blocks fork.
SUITES = {
    "props": (("idempotence", "commutativity", "associativity", "absorption",
               "distributivity", "connexity"), lambda seed, trials: (1, _props_sweep)),
    "lemmas": (tuple(f"L{i}" for i in range(1, 10)),
               lambda seed, trials: (trials, partial(_lemmas_trial, seed))),
    "mobius": (("closed_equals_inversion", "partials_nonnegative", "partials_sum_to_top",
                "chain_equals_closed", "circles_sum_to_union", "expected_equals_inversion"),
               _mobius_setup),
}


def run_suite(suite: str, seed: int, trials: int, tolerance: float) -> CheckReport:
    """Run a suite's work items in trial blocks and judge each law's worst
    residual against `tolerance`."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    laws, setup = SUITES[suite]
    residuals = _worst_residuals(laws, *setup(seed, trials))
    lines = tuple(CheckLine(name, res, res <= tolerance) for name, res in residuals.items())
    return CheckReport(suite, seed, trials, tolerance, lines)
