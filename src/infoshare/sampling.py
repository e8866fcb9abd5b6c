"""Seeded random and fixed tie-heavy joint distributions for the suites.

`random_distribution` builds the `VariableSet` and the outcome grid of a
cardinality shape once per process, keyed on the cardinalities as exact
integers, so a suite that draws thousands of small distributions
validates each shape once.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import product
from typing import Sequence

from .distribution import JointDistribution, VariableSet, _cardinalities
from .lattice import default_names

_MASK64 = (1 << 64) - 1


def derive_trial_seed(master_seed: int, index: int) -> int:
    """Deterministic per-trial seed so parallel trial order never matters."""
    mixed = (master_seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    mixed ^= mixed >> 31
    return mixed


def trial_rng(master_seed: int, index: int) -> random.Random:
    return random.Random(derive_trial_seed(master_seed, index))


def random_distribution(
    rng: random.Random,
    cardinalities: Sequence[int],
    sparsity: float = 0.5,
) -> JointDistribution:
    """Uniform-simplex masses over a randomly masked outcome grid, on the
    default variable names.

    Each grid cell is kept with probability 1 - sparsity (redrawn until at
    least one cell survives); kept cells get independent exponential
    weights, normalized to sum to one.  Covers both dense and degenerate
    supports.  Non-integer cardinalities and a sparsity outside [0, 1),
    where no cell could survive, are refused before any draw.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must lie in [0, 1), got {sparsity!r}")
    # exact integers for the key: 3.0 must not find the grid of 3
    variables, grid = _shape(_cardinalities(cardinalities))
    chosen: list[tuple[int, ...]] = []
    while not chosen:
        chosen = [cell for cell in grid if rng.random() >= sparsity]
    weights = [rng.expovariate(1.0) for _ in chosen]
    total = math.fsum(weights)
    # cells of the grid and finite non-negative masses: nothing for the constructor to check
    return JointDistribution._of_checked(
        variables, {cell: w / total for cell, w in zip(chosen, weights)})


@lru_cache(maxsize=64)
def _shape(cardinalities: tuple[int, ...]) -> tuple[VariableSet, tuple[tuple[int, ...], ...]]:
    """The variables on the default names and every cell of their grid;
    `VariableSet` validates the cardinalities."""
    variables = VariableSet(default_names(len(cardinalities)), cardinalities)
    return variables, tuple(product(*map(range, cardinalities)))


def tie_heavy_distributions(n: int) -> list[JointDistribution]:
    """Fixed n-variable distributions whose surprisals tie at every point.

    XOR and AND make the last bit a function of the other fair bits, COPY
    repeats one fair bit, UNIFORM spreads over every binary outcome,
    FUNCTION reads the bits of a four-valued first variable (the first
    bit repeats from the fourth variable on), and POINT is a point mass.
    Random masses almost never tie, so these cover what they miss.
    """
    names = default_names(n)
    binary = VariableSet(names, (2,) * n)
    inputs = list(product((0, 1), repeat=n - 1))
    function = {
        (x,) + tuple(x >> (i % 2) & 1 for i in range(n - 1)): p
        for x, p in enumerate((0.5, 0.25, 0.125, 0.125))
    }
    return [
        JointDistribution(binary, {a + (sum(a) % 2,): 1 / len(inputs) for a in inputs}),
        JointDistribution(binary, {a + (int(all(a)),): 1 / len(inputs) for a in inputs}),
        JointDistribution(binary, {(0,) * n: 0.5, (1,) * n: 0.5}),
        JointDistribution(binary, dict.fromkeys(product((0, 1), repeat=n), 0.5 ** n)),
        JointDistribution(VariableSet(names, (4,) + (2,) * (n - 1)), function),
        JointDistribution(binary, {(0,) * n: 1.0}),
    ]
