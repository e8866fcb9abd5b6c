"""Randomized verification suites behind the `check` CLI subcommand.

Each suite runs seeded trials, tracks a worst-case residual per law, and
reports pass/fail against the configured tolerance.  Per-trial seeds are
derived from the master seed by index, so results never depend on
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import lemma_suite
from .decomposition import (
    chain_walk,
    lattice_valuation,
    mobius_closed_form,
    mobius_recursive,
)
from .lattice import (
    enumerate_antichains,
    eval_sharing,
    max_via_min_expansion,
    sharing_join,
    sharing_meet,
)
from .measures import surprisal
from .sampling import random_distribution, tie_heavy_distributions, trial_rng

SUITES = ("props", "lemmas", "mobius", "pie")


@dataclass(frozen=True)
class CheckLine:
    name: str
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    suite: str
    seed: int
    trials: int
    tolerance: float
    lines: tuple[CheckLine, ...]

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


def _surprisal_vector(d, realization) -> list[float]:
    return [surprisal(d, (i,), realization) for i in range(d.variables.n)]


def run_props(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Lattice laws of the max-of-mins evaluation on random operands."""
    laws = (
        "idempotence",
        "commutativity",
        "associativity",
        "absorption",
        "distributivity",
        "connexity",
    )
    residuals = {name: 0.0 for name in laws}

    def bump(name: str, value: float) -> None:
        if value > residuals[name]:
            residuals[name] = value

    for t in range(trials):
        rng = trial_rng(seed, t)
        n = rng.choice((2, 3))
        d = random_distribution(rng, [2] * n if n == 3 else [rng.randint(2, 4)] * 2)
        support = d.support()
        r, _ = support[rng.randrange(len(support))]
        h = _surprisal_vector(d, r)
        lattice = enumerate_antichains(n)
        a, b, c = (lattice.nodes[rng.randrange(len(lattice.nodes))] for _ in range(3))

        def ev(alpha):
            return eval_sharing(alpha, h)

        # each law for sharing_join against sharing_meet, then the other way round
        for op, dual in ((sharing_join, sharing_meet), (sharing_meet, sharing_join)):
            bump("idempotence", abs(ev(op(a, a)) - ev(a)))
            bump("commutativity", abs(ev(op(a, b)) - ev(op(b, a))))
            bump("associativity", abs(ev(op(op(a, b), c)) - ev(op(a, op(b, c)))))
            bump("absorption", abs(ev(op(a, dual(a, b))) - ev(a)))
            bump("distributivity",
                 abs(ev(op(a, dual(b, c))) - ev(dual(op(a, b), op(a, c)))))
        for node in lattice.nodes:
            value = ev(node)
            bump("connexity", min(abs(value - hi) for hi in h))
    return _report("props", seed, trials, tolerance, residuals)


def run_pie(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Maximum equals the alternating sum of subset minima."""
    worst = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        n = rng.randint(2, 5)
        values = [rng.uniform(0.0, 4.0) for _ in range(n)]
        worst = max(worst, abs(max(values) - max_via_min_expansion(values)))
    return _report("pie", seed, trials, tolerance, {"max_min_identity": worst})


def run_mobius(seed: int, trials: int, tolerance: float) -> CheckReport:
    """Closed-form and chain-walk inversion against the recursive oracle.

    Random valuations feed every law.  The chain law also runs on the
    tie-heavy families for n = 2..4, where surprisals tie and the chain
    walk merges levels.
    """
    residuals = {
        "closed_equals_recursive": 0.0,
        "partials_nonnegative": 0.0,
        "partials_sum_to_top": 0.0,
        "chain_equals_closed": 0.0,
    }

    def bump(name: str, value: float) -> None:
        if value > residuals[name]:
            residuals[name] = value

    def check_chain(d, lattice, r, closed, recursive) -> None:
        chain = chain_walk(d, lattice, r).partials
        for node in lattice.nodes:
            bump("chain_equals_closed", abs(chain[node] - closed.partials[node]))
            bump("chain_equals_closed", abs(chain[node] - recursive.partials[node]))

    for t in range(trials):
        rng = trial_rng(seed, t)
        n = rng.choice((2, 3))
        d = random_distribution(rng, [2] * n if n == 3 else [rng.randint(2, 3)] * 2)
        lattice = enumerate_antichains(n)
        for r, _ in d.support():
            valuation = lattice_valuation(d, lattice, r)
            closed = mobius_closed_form(valuation)
            recursive = mobius_recursive(valuation)
            bump("closed_equals_recursive", max(
                abs(closed.partials[node] - recursive.partials[node])
                for node in lattice.nodes
            ))
            bump("partials_nonnegative", -min(closed.partials.values()))
            bump("partials_sum_to_top", abs(closed.total() - valuation.values[lattice.top]))
            check_chain(d, lattice, r, closed, recursive)
    for n in (2, 3, 4):
        lattice = enumerate_antichains(n)
        for d in tie_heavy_distributions(n):
            for r, _ in d.support():
                valuation = lattice_valuation(d, lattice, r)
                check_chain(
                    d, lattice, r, mobius_closed_form(valuation), mobius_recursive(valuation)
                )
    return _report("mobius", seed, trials, tolerance, residuals)


def run_lemmas(seed: int, trials: int, tolerance: float) -> CheckReport:
    """The nine three-variable sharing identities on random distributions."""
    residuals = {f"L{i}": 0.0 for i in range(1, 10)}
    for t in range(trials):
        rng = trial_rng(seed, t)
        d = random_distribution(rng, [2, 2, 2])
        for r, _ in d.support():
            for result in lemma_suite(d, r):
                if result.residual > residuals[result.name]:
                    residuals[result.name] = result.residual
    return _report("lemmas", seed, trials, tolerance, residuals)


def run_suite(suite: str, seed: int, trials: int, tolerance: float) -> CheckReport:
    runners = {
        "props": run_props,
        "lemmas": run_lemmas,
        "mobius": run_mobius,
        "pie": run_pie,
    }
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return runners[suite](seed, trials, tolerance)
