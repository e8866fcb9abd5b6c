"""Discrete joint distributions over named finite variables.

Probabilities are plain 64-bit floats.  A distribution is immutable once
built and every query is pure, so instances are safe to share between
threads.  Assignments absent from an input document carry zero mass.

Each entry is checked once.  The constructor checks the realizations and
masses of the mapping it is given; the JSON and CSV loaders check each
document entry with their own messages, and they and the sampler build
through the constructor's private core, which keeps the positive masses,
checks their sum and sorts them.  Marginal tables are summed once per
source, and the table of all the variables is the pmf itself.
"""

from __future__ import annotations

import math
from operator import index, itemgetter, lt
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .record import Record

# Absolute tolerance for the total-mass check.
MASS_SUM_TOLERANCE = 1e-12

# The operator words of the expression grammar; no variable may take one as its name.
OPERATORS = ("cup", "cap", "minus", "oplus")


def identifier_end(text: str, start: int) -> int:
    """End of the identifier (a letter or _, then letters, digits or _) at
    text[start], or `start`: the expression tokenizer reads names with this
    rule, and `VariableSet` accepts only names it reads whole."""
    if not (text[start].isalpha() or text[start] == "_"):
        return start
    end = start + 1
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
    return end


def variable_indices(members: Iterable[int]) -> tuple[int, ...]:
    """The members as variable indices, read as `check_realization` reads
    values: a float or a string is rejected, not truncated."""
    try:
        return tuple(map(index, members))
    except TypeError:
        raise ValueError(f"variable indices must be integers, got {members!r}") from None


def _key_of(source: Iterable[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The realization's values on the sorted `source`, as a tuple: the key of
    its marginal table."""
    indices = sorted(source)
    # itemgetter of one index returns the bare value; a slice keeps the 1-tuple key
    return itemgetter(*indices) if len(indices) > 1 else itemgetter(
        slice(indices[0], indices[0] + 1))


class InvalidDistribution(ValueError):
    """A distribution document or pmf failed validation."""


class ZeroMass(ValueError):
    """An operation required positive probability mass and found none."""


def _mass(value: object, where: str, at: object) -> float:
    """A mass as a float, for the constructor and both loaders, or an `InvalidDistribution`
    saying `where.format(at, reason)`: text and `bool` are no number, though `float` reads them."""
    try:  # a float skips the type test, which costs more than the rest of the rule
        if type(value) is not float and isinstance(value, (str, bytes, bytearray, bool)):
            raise TypeError
        p = float(value)
    except OverflowError:
        try:
            reason = f"mass {value} is out of range"
        except ValueError:  # an int of more digits than `str` will write
            reason = "mass is out of range"
    except (TypeError, ValueError):
        reason = "mass is not a number"
    else:
        if 0.0 <= p < math.inf:  # NaN fails both tests
            return p
        reason = f"negative mass {p!r}" if math.isfinite(p) else f"non-finite mass {p!r}"
    raise InvalidDistribution(where.format(at, reason))


def _cardinalities(values: Iterable[int]) -> tuple[int, ...]:
    """Cardinalities as exact integers (`operator.index`: no float, text or list),
    or an `InvalidDistribution`."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InvalidDistribution("cardinalities must be integers") from None


class VariableSet(Record):
    """Ordered, named finite variables together with their cardinalities."""

    __slots__ = ("names", "cardinalities")

    def __init__(self, names: Iterable[str], cardinalities: Iterable[int]) -> None:
        object.__setattr__(self, "names", tuple(map(str, names)))
        object.__setattr__(self, "cardinalities", _cardinalities(cardinalities))
        if not self.names:
            raise InvalidDistribution("at least one variable is required")
        if len(self.names) != len(self.cardinalities):
            raise InvalidDistribution("names and cardinalities must have equal length")
        if not all(self.names):
            raise InvalidDistribution("variable names must be non-empty")
        for name in self.names:
            if identifier_end(name, 0) != len(name) or name in OPERATORS:
                raise InvalidDistribution(f"variable name {name!r} must be an identifier "
                                          f"other than {', '.join(OPERATORS)}")
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
        try:
            r = tuple(map(index, realization))
        except TypeError:
            raise ValueError(f"realization {realization!r} must hold integers") from None
        if len(r) != self.n:
            raise ValueError(
                f"realization has {len(r)} values, expected {self.n}"
            )
        if min(r) < 0 or not all(map(lt, r, self.cardinalities)):  # one C-level pass
            value, card, name = next(entry for entry in zip(r, self.cardinalities, self.names)
                                     if not 0 <= entry[0] < entry[1])
            raise ValueError(
                f"value {value} outside range of variable {name!r} (cardinality {card})"
            )
        return r

    def check_source(self, source: Iterable[int]) -> frozenset[int]:
        s = frozenset(variable_indices(source))
        if not s:
            raise ValueError("a source must contain at least one variable")
        for i in s:
            if not 0 <= i < self.n:
                raise ValueError(f"variable index {i} out of range for {self.n} variables")
        return s

    def source_from_names(self, names: Iterable[str]) -> frozenset[int]:
        return self.check_source(self.index(n) for n in names)


class JointDistribution:
    """Sparse joint pmf; the single source of every probability query."""

    def __init__(self, variables: VariableSet, pmf: Mapping[Sequence[int], float]):
        masses: dict[tuple[int, ...], float] = {}
        for raw, mass in pmf.items():
            r = variables.check_realization(raw)
            p = _mass(mass, "{1} for assignment {0}", r)
            if r in masses:  # zero masses too: `_adopt` drops them after this test
                raise InvalidDistribution(f"duplicate assignment {r}")
            masses[r] = p
        self._adopt(variables, masses)

    @classmethod
    def _of_checked(cls, variables: VariableSet,
                    masses: Mapping[tuple[int, ...], float]) -> JointDistribution:
        """A distribution from masses whose realizations and values the caller
        has already checked: the loaders, with their own messages, and the sampler."""
        d = cls.__new__(cls)
        d._adopt(variables, masses)
        return d

    def _adopt(self, variables: VariableSet, masses: Mapping[tuple[int, ...], float]) -> None:
        """Keep the positive masses, sorted, once their sum is 1: the checks
        every construction shares, after each entry has been checked once."""
        support = {r: p for r, p in masses.items() if p > 0.0}
        if not support:
            raise InvalidDistribution("distribution has empty support")
        try:
            total = math.fsum(support.values())
        except OverflowError:  # finite masses whose sum is not
            raise InvalidDistribution("masses sum beyond the float range, expected 1") from None
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
            if len(source) == self._variables.n:
                table = self._pmf  # each key is its own sum, and 0.0 + p is p
            else:
                key_of, table = _key_of(source), {}
                for r, p in self._pmf.items():
                    key = key_of(r)
                    table[key] = table.get(key, 0.0) + p
            self._marginals[source] = table
        return table

    def marginal_mass(self, source: Iterable[int], realization: Sequence[int]) -> float:
        """Mass of all support points agreeing with the realization on `source`."""
        s = self._variables.check_source(source)
        r = self._variables.check_realization(realization)
        return self._table(s).get(_key_of(s)(r), 0.0)


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


def _load_json(text: str) -> JointDistribution:
    import json
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too long an int; deep nesting
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
        if type(entry["cardinality"]) is not int:  # `json` makes no int subclass but bool
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
        # `type(x) is int` on every value, as for a cardinality
        if not isinstance(raw, list) or not {int}.issuperset(map(type, raw)):
            raise InvalidDistribution(f"pmf entry {i}: assignment must be an array of integers")
        try:
            assignment = variables.check_realization(raw)
        except ValueError as exc:
            raise InvalidDistribution(f"pmf entry {i}: {exc}") from None
        if assignment in pmf:
            raise InvalidDistribution(f"duplicate assignment {list(assignment)} (entry {i})")
        pmf[assignment] = _mass(entry["p"], "pmf entry {}: {}", i)
    return JointDistribution._of_checked(variables, pmf)


def _ascii_number(cell: str, parse: Callable[[str], float]) -> float:
    """`parse` (`int` or `float`) of a CSV cell or a CLI value in ASCII: both
    also read other Unicode digits and digit-group underscores, which raise ValueError."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not ASCII number text: {cell!r}")
    return parse(text)


def _load_csv(text: str) -> JointDistribution:
    import csv
    import io
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
            values = tuple(_ascii_number(c, int) for c in row[:-1])
        except ValueError:
            raise InvalidDistribution(f"line {lineno}: categories must be integers") from None
        if any(v < 0 for v in values):
            raise InvalidDistribution(f"line {lineno}: categories must be non-negative")
        try:
            mass: object = _ascii_number(row[-1], float)
        except ValueError:
            mass = None  # not ASCII number text, so no number
        assignments.append((lineno, values, _mass(mass, "line {}: {}", lineno)))
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
    # integers of the header's width, non-negative, below the inferred cardinalities
    return JointDistribution._of_checked(variables, pmf)
