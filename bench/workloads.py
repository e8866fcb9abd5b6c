"""Seeded inputs and independent output checks for the benchmark workloads.

Inputs come from the benchmark's own `random.Random`, never from
`infoshare.sampling`, so a change to the program's sampler cannot change
what is measured.  Every check recomputes the figure it tests with plain
stdlib arithmetic, without importing the package under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

N5_ROWS = 7579  # antichains of non-empty subsets of 5 variables
CHECK_TRIALS = 2000
TOL = 1e-9
# Reports print 9 decimals, so a printed figure is within 5e-10 of the
# value it rounds; the checks allow that plus float reordering.
PRINT_TOL = 2e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]  # CLI arguments; global flags first, the only place parsed
    units: int  # work units one command finishes
    unit_name: str
    shape: dict  # n, cardinalities and support size of the input
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


WHY = {
    "n5-expected": "huge lattice (7,579 nodes), tiny support: lattice build, "
    "per-point valuation and inversion",
    "eval-wide": "tiny lattice, ~2,000 support points: marginal queries, expression "
    "lowering, conditional surprisal; lattice build is flat here",
    "check-props": "thousands of fresh tiny distributions and node algebra "
    "(meet/join, normalize); no lattice inversion",
}
NAMES = tuple(WHY)


def _pmf(cells: list[tuple[int, ...]], rng: random.Random) -> dict[tuple[int, ...], float]:
    weights = [rng.expovariate(1.0) for _ in cells]
    total = math.fsum(weights)
    return {cell: w / total for cell, w in zip(cells, weights)}


def _write(path: Path, names, cards, pmf) -> None:
    doc = {
        "variables": [{"name": n, "cardinality": c} for n, c in zip(names, cards)],
        "pmf": [{"assignment": list(r), "p": p} for r, p in pmf.items()],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _marginal(pmf, idx: tuple[int, ...]) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for r, p in pmf.items():
        key = tuple(r[i] for i in idx)
        out[key] = out.get(key, 0.0) + p
    return out


def _entropy(pmf, idx: tuple[int, ...]) -> float:
    return -math.fsum(p * math.log2(p) for p in _marginal(pmf, idx).values())


def _n5_expected(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"n5-expected:{seed}")
    names, cards = ("A", "B", "C", "D", "E"), (2,) * 5
    pmf = _pmf(sorted(rng.sample(list(product(range(2), repeat=5)), 8)), rng)
    path = workdir / "n5-expected.json"
    _write(path, names, cards, pmf)
    expect = {"{" + n + "}": _entropy(pmf, (i,)) for i, n in enumerate(names)}
    expect["{" + ",".join(names) + "}"] = _entropy(pmf, tuple(range(5)))

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != N5_ROWS + 5 or lines[0] != "expected decomposition":
            return f"expected {N5_ROWS} node rows, got {len(lines) - 5} lines"
        rows = {}
        for line in lines[2:-3]:
            label, value, partial = line.split()
            rows[label] = float(value)
        footer = {line.rsplit(None, 1)[0].strip(): float(line.split()[-1]) for line in lines[-3:]}
        if footer["residual"] > TOL:
            return f"residual {footer['residual']} above {TOL}"
        if abs(footer["joint value"] - expect[f"{{{','.join(names)}}}"]) > PRINT_TOL:
            return "joint value differs from the joint entropy"
        for label, value in expect.items():
            if abs(rows.get(label, math.inf) - value) > PRINT_TOL:
                return f"node {label} value differs from its entropy"
        return None

    shape = {"n": 5, "cardinalities": list(cards), "support": len(pmf)}
    argv = ("--allow-n5", "decompose", str(path), "--mode", "expected")
    return Workload("n5-expected", WHY["n5-expected"], argv, len(pmf), "support points", shape, check)


def _eval_wide(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"eval-wide:{seed}")
    names, cards = ("X", "Y", "Z"), (16, 16, 16)
    cells = [c for c in product(*(range(k) for k in cards)) if rng.random() < 0.5]
    pmf = _pmf(cells, rng)
    path = workdir / "eval-wide.json"
    _write(path, names, cards, pmf)

    # "X oplus Y" sums the increments of down({X,Y}) minus down({X}) and
    # down({Y}): h(XY) - max(h(X), h(Y)) at each point.  "--about Z"
    # subtracts the same term with every surprisal conditioned on Z.
    m = {idx: _marginal(pmf, idx) for idx in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]}

    def h(idx, r):
        return -math.log2(m[idx][tuple(r[i] for i in idx)])

    terms = []
    for r, p in pmf.items():
        hz, hxyz = h((2,), r), -math.log2(p)
        plain = h((0, 1), r) - max(h((0,), r), h((1,), r))
        given = (hxyz - hz) - max(h((0, 2), r) - hz, h((1, 2), r) - hz)
        terms.append(p * (plain - given))
    expect = math.fsum(terms)

    def check(out: str) -> str | None:
        head, sep, value = out.strip().partition(" = ")
        if head != "X oplus Y [expected]" or "\n" in out.strip():
            return "unexpected report layout"
        if abs(float(value) - expect) > PRINT_TOL:
            return f"value {value} differs from {expect:.9f}"
        return None

    shape = {"n": 3, "cardinalities": list(cards), "support": len(pmf)}
    argv = ("eval", str(path), "X oplus Y", "--about", "Z")
    return Workload("eval-wide", WHY["eval-wide"], argv, len(pmf), "support points", shape, check)


def _check_props(seed: int, workdir: Path) -> Workload:
    config = {"suite": "props", "seed": seed, "trials": CHECK_TRIALS}
    (workdir / "check-props.json").write_text(json.dumps(config), encoding="utf-8")

    def check(out: str) -> str | None:
        lines = out.splitlines()
        if not lines or not lines[0].startswith(f"suite: props  seed: {seed}  trials: {CHECK_TRIALS}"):
            return "unexpected report header"
        if lines[-1] != "overall: PASS" or any(not l.endswith("PASS") for l in lines[1:]):
            return "a law failed"
        return None

    shape = {"n": "2 or 3 per trial", "trials": CHECK_TRIALS, "seed": seed}
    argv = ("--seed", str(seed), "--trials", str(CHECK_TRIALS), "check", "--suite", "props")
    return Workload("check-props", WHY["check-props"], argv, CHECK_TRIALS, "trials", shape, check)


_MAKERS = {"n5-expected": _n5_expected, "eval-wide": _eval_wide, "check-props": _check_props}


def make(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's input for `seed` under `workdir`."""
    return _MAKERS[name](seed, workdir)
