"""Discrete joint distributions over named finite variables.

Probabilities are plain 64-bit floats.  A distribution is immutable once
built and every query is pure, so instances are safe to share between
threads.  Assignments absent from an input document carry zero mass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

# Absolute tolerance for the total-mass check.
MASS_SUM_TOLERANCE = 1e-12


class InvalidDistribution(ValueError):
    """A distribution document or pmf failed validation."""


class ZeroMass(ValueError):
    """An operation required positive probability mass and found none."""


@dataclass(frozen=True)
class VariableSet:
    """Ordered, named finite variables together with their cardinalities."""

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "cardinalities", tuple(int(c) for c in self.cardinalities))
        if not self.names:
            raise InvalidDistribution("at least one variable is required")
        if len(self.names) != len(self.cardinalities):
            raise InvalidDistribution("names and cardinalities must have equal length")
        if not all(self.names):
            raise InvalidDistribution("variable names must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise InvalidDistribution("variable names must be unique")
        for name, card in zip(self.names, self.cardinalities):
            if card < 2:
                raise InvalidDistribution(
                    f"variable {name!r} needs cardinality >= 2, got {card}"
                )

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def check_realization(self, realization: Sequence[int]) -> tuple[int, ...]:
        r = tuple(int(v) for v in realization)
        if len(r) != self.n:
            raise ValueError(
                f"realization has {len(r)} values, expected {self.n}"
            )
        for value, card, name in zip(r, self.cardinalities, self.names):
            if not 0 <= value < card:
                raise ValueError(
                    f"value {value} outside range of variable {name!r} (cardinality {card})"
                )
        return r

    def check_source(self, source: Iterable[int]) -> frozenset[int]:
        s = frozenset(int(i) for i in source)
        if not s:
            raise ValueError("a source must contain at least one variable")
        for i in s:
            if not 0 <= i < self.n:
                raise ValueError(f"variable index {i} out of range for {self.n} variables")
        return s

    def source_from_names(self, names: Iterable[str]) -> frozenset[int]:
        return self.check_source(self.index(n) for n in names)

    def outcomes(self) -> Iterator[tuple[int, ...]]:
        """All realizations of the full outcome grid, lexicographically."""
        return product(*(range(c) for c in self.cardinalities))


class JointDistribution:
    """Sparse joint pmf; the single source of every probability query."""

    def __init__(self, variables: VariableSet, pmf: Mapping[Sequence[int], float]):
        support: dict[tuple[int, ...], float] = {}
        for raw, mass in pmf.items():
            r = variables.check_realization(raw)
            p = float(mass)
            if not math.isfinite(p):
                raise InvalidDistribution(f"non-finite mass {p!r} for assignment {r}")
            if p < 0.0:
                raise InvalidDistribution(f"negative mass {p!r} for assignment {r}")
            if r in support:
                raise InvalidDistribution(f"duplicate assignment {r}")
            if p > 0.0:
                support[r] = p
        if not support:
            raise InvalidDistribution("distribution has empty support")
        total = math.fsum(support.values())
        if abs(total - 1.0) > MASS_SUM_TOLERANCE:
            raise InvalidDistribution(
                f"masses sum to {total!r}, expected 1 within {MASS_SUM_TOLERANCE}"
            )
        self._variables = variables
        self._pmf = dict(sorted(support.items()))
        self._marginals: dict[frozenset[int], dict[tuple[int, ...], float]] = {}

    @property
    def variables(self) -> VariableSet:
        return self._variables

    def __repr__(self) -> str:
        return (
            f"JointDistribution({list(self._variables.names)}, "
            f"{len(self._pmf)} support points)"
        )

    def mass(self, realization: Sequence[int]) -> float:
        r = self._variables.check_realization(realization)
        return self._pmf.get(r, 0.0)

    def support(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """All positive-mass realizations in lexicographic order."""
        return tuple(self._pmf.items())

    def _table(self, source: frozenset[int]) -> dict[tuple[int, ...], float]:
        # Concurrent builders would compute identical tables; the race is benign.
        table = self._marginals.get(source)
        if table is None:
            indices = sorted(source)
            table = {}
            for r, p in self._pmf.items():
                key = tuple(r[i] for i in indices)
                table[key] = table.get(key, 0.0) + p
            self._marginals[source] = table
        return table

    def marginal_mass(self, source: Iterable[int], realization: Sequence[int]) -> float:
        """Mass of all support points agreeing with the realization on `source`."""
        s = self._variables.check_source(source)
        r = self._variables.check_realization(realization)
        key = tuple(r[i] for i in sorted(s))
        return self._table(s).get(key, 0.0)

    def conditional_mass(
        self,
        source: Iterable[int],
        given: Iterable[int],
        realization: Sequence[int],
    ) -> float:
        """P(source values | given values) at the realization."""
        s = self._variables.check_source(source)
        g = self._variables.check_source(given)
        if s & g:
            raise ValueError("source and conditioning variables overlap")
        p_given = self.marginal_mass(g, realization)
        if p_given <= 0.0:
            raise ZeroMass("conditioning event has zero mass")
        return self.marginal_mass(s | g, realization) / p_given


def load_distribution(text: str, fmt: str | None = None) -> JointDistribution:
    """Parse a JSON or CSV distribution document.

    The format is sniffed from the first non-blank character when `fmt`
    is not given: documents starting with ``{`` are treated as JSON,
    everything else as CSV.
    """
    if fmt is None:
        fmt = "json" if text.lstrip()[:1] == "{" else "csv"
    if fmt == "json":
        return _load_json(text)
    if fmt == "csv":
        return _load_csv(text)
    raise InvalidDistribution(f"unknown distribution format {fmt!r}")


def load_file(path: str | Path) -> JointDistribution:
    p = Path(path)
    fmt = {".json": "json", ".csv": "csv"}.get(p.suffix.lower())
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidDistribution(f"file is not UTF-8 text: {exc}") from None
    return load_distribution(text, fmt)


def _is_int(value: object) -> bool:
    """A JSON integer; `bool` is a subclass of `int` but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_json(text: str) -> JointDistribution:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise InvalidDistribution(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidDistribution("top-level JSON value must be an object")
    for key in ("variables", "pmf"):
        if key not in doc:
            raise InvalidDistribution(f"missing required key {key!r}")

    names: list[str] = []
    cards: list[int] = []
    if not isinstance(doc["variables"], list) or not doc["variables"]:
        raise InvalidDistribution('"variables" must be a non-empty array')
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
            raise InvalidDistribution(
                f'variable entry {i} must carry "name" and "cardinality"'
            )
        if not isinstance(entry["name"], str):
            raise InvalidDistribution(f"name of variable entry {i} is not a string")
        names.append(entry["name"])
        if not _is_int(entry["cardinality"]):
            raise InvalidDistribution(
                f"cardinality of variable {entry['name']!r} is not an integer"
            )
        cards.append(entry["cardinality"])
    variables = VariableSet(tuple(names), tuple(cards))

    if not isinstance(doc["pmf"], list):
        raise InvalidDistribution('"pmf" must be an array')
    pmf: dict[tuple[int, ...], float] = {}
    for i, entry in enumerate(doc["pmf"]):
        if not isinstance(entry, dict) or "assignment" not in entry or "p" not in entry:
            raise InvalidDistribution(f'pmf entry {i} must carry "assignment" and "p"')
        raw = entry["assignment"]
        if not isinstance(raw, list) or not all(_is_int(v) for v in raw):
            raise InvalidDistribution(f"pmf entry {i}: assignment must be an array of integers")
        try:
            assignment = variables.check_realization(raw)
        except ValueError as exc:
            raise InvalidDistribution(f"pmf entry {i}: {exc}") from None
        if assignment in pmf:
            raise InvalidDistribution(f"duplicate assignment {list(assignment)} (entry {i})")
        mass = entry["p"]
        if isinstance(mass, bool) or not isinstance(mass, (int, float)):
            raise InvalidDistribution(f"pmf entry {i}: mass is not a number")
        try:
            p = float(mass)
        except OverflowError:
            raise InvalidDistribution(f"pmf entry {i}: mass {mass} is out of range") from None
        if not math.isfinite(p):
            raise InvalidDistribution(f"pmf entry {i}: non-finite mass {p!r}")
        if p < 0.0:
            raise InvalidDistribution(f"pmf entry {i}: negative mass {p!r}")
        pmf[assignment] = p
    return JointDistribution(variables, pmf)


def _load_csv(text: str) -> JointDistribution:
    reader = csv.reader(io.StringIO(text))
    # (physical line number, row) of every non-blank row
    try:
        rows = [(reader.line_num, row) for row in reader if row and any(c.strip() for c in row)]
    except csv.Error as exc:
        raise InvalidDistribution(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise InvalidDistribution("empty CSV document")
    header = [c.strip() for c in rows[0][1]]
    if len(header) < 2 or header[-1] != "p":
        raise InvalidDistribution('CSV header must list the variables and end with column "p"')
    names = header[:-1]

    assignments: list[tuple[int, tuple[int, ...], float]] = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise InvalidDistribution(f"line {lineno}: expected {len(header)} columns")
        try:
            values = tuple(int(c) for c in row[:-1])
        except ValueError:
            raise InvalidDistribution(f"line {lineno}: categories must be integers") from None
        if any(v < 0 for v in values):
            raise InvalidDistribution(f"line {lineno}: categories must be non-negative")
        try:
            p = float(row[-1])
        except ValueError:
            raise InvalidDistribution(f"line {lineno}: mass is not a number") from None
        if not math.isfinite(p):
            raise InvalidDistribution(f"line {lineno}: non-finite mass {p!r}")
        if p < 0.0:
            raise InvalidDistribution(f"line {lineno}: negative mass {p!r}")
        assignments.append((lineno, values, p))
    if not assignments:
        raise InvalidDistribution("CSV document lists no assignments")

    # Cardinalities are not declared in CSV; infer them from the observed
    # categories, with the usual floor of two.
    cards = [2] * len(names)
    for _, values, _ in assignments:
        for i, v in enumerate(values):
            cards[i] = max(cards[i], v + 1)
    variables = VariableSet(tuple(names), tuple(cards))

    pmf: dict[tuple[int, ...], float] = {}
    for lineno, values, p in assignments:
        if values in pmf:
            raise InvalidDistribution(f"line {lineno}: duplicate assignment {list(values)}")
        pmf[values] = p
    return JointDistribution(variables, pmf)
