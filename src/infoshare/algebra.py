"""Expression grammar over sources, lowered to node sets on the lattice.

Surface syntax::

    source := NAME | "(" NAME ("," NAME)+ ")"
    expr   := source | "(" expr ")" | expr OP expr      OP in {cup, cap, minus, oplus}

Chains of one repeated operator are allowed; mixing operators requires
parentheses because no precedence is defined among them.

Lowering maps a source leaf to the down-set of its singleton antichain,
`cap`/`cup`/`minus` to set intersection/union/difference of atom sets,
and `oplus` to the down-set of the joint of all involved variables minus
the union of the arguments' atom sets.  An expression's value at a
realization is the sum of the pointwise increments over its atom set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .distribution import JointDistribution
from .decomposition import PartialValuation, chain_walk
from .lattice import Antichain, RedundancyLattice, enumerate_antichains


class ExpressionError(ValueError):
    """The expression text does not match the grammar or its context."""


@dataclass(frozen=True)
class SourceLeaf:
    members: tuple[int, ...]


@dataclass(frozen=True)
class OpNode:
    op: str
    args: tuple["Expr", ...]


Expr = Union[SourceLeaf, OpNode]

_OPS = ("cup", "cap", "minus", "oplus")
_PUNCT = "(),"


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(c)
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], names: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.names = {name: i for i, name in enumerate(names)}

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ExpressionError(f"expected {tok!r}, got {got!r}")

    def variable(self, name: str) -> int:
        if name in _OPS:
            raise ExpressionError(f"{name!r} is a reserved operator, not a variable")
        if name in _PUNCT or name in ("(", ")", ","):
            raise ExpressionError(f"expected a variable name, got {name!r}")
        if name not in self.names:
            raise ExpressionError(f"unknown variable {name!r}")
        return self.names[name]

    def parse(self) -> Expr:
        expr = self.chain()
        if self.peek() is not None:
            raise ExpressionError(f"unexpected token {self.peek()!r}")
        return expr

    def chain(self) -> Expr:
        args = [self.atom()]
        op: str | None = None
        while self.peek() in _OPS:
            nxt = self.take()
            if op is None:
                op = nxt
            elif nxt != op:
                raise ExpressionError(
                    f"mixing {op!r} with {nxt!r} is ambiguous; add parentheses"
                )
            args.append(self.atom())
        if op is None:
            return args[0]
        return OpNode(op, tuple(args))

    def atom(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of expression")
        if tok == "(":
            if self._source_ahead():
                return self.source()
            self.take()
            inner = self.chain()
            self.expect(")")
            return inner
        if tok in (")", ","):
            raise ExpressionError(f"unexpected token {tok!r}")
        if tok in _OPS:
            raise ExpressionError(f"operator {tok!r} is missing a left operand")
        self.take()
        return SourceLeaf((self.variable(tok),))

    def _source_ahead(self) -> bool:
        # "(" NAME "," ... is a multi-member source, not a grouped expression.
        first = self.peek(1)
        return (
            first is not None
            and first not in _OPS
            and first not in _PUNCT
            and self.peek(2) == ","
        )

    def source(self) -> SourceLeaf:
        self.expect("(")
        members = [self.variable(self.take())]
        while self.peek() == ",":
            self.take()
            members.append(self.variable(self.take()))
        self.expect(")")
        return SourceLeaf(tuple(sorted(set(members))))


def parse_expression(text: str, names: Sequence[str]) -> Expr:
    """Parse an information-sharing expression against known variable names."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, names).parse()


def expression_variables(expr: Expr) -> frozenset[int]:
    if isinstance(expr, SourceLeaf):
        return frozenset(expr.members)
    return frozenset().union(*(expression_variables(a) for a in expr.args))


def lower(expr: Expr, lattice: RedundancyLattice) -> frozenset[Antichain]:
    """Atom set of an expression: the lattice nodes whose increments it sums."""
    if isinstance(expr, SourceLeaf):
        if any(i >= lattice.n for i in expr.members):
            raise ExpressionError(
                f"source {expr.members} exceeds the lattice's {lattice.n} variables"
            )
        node = Antichain.normalize([expr.members])
        return frozenset(lattice.down_set(node))
    parts = [lower(arg, lattice) for arg in expr.args]
    if expr.op == "cup":
        return frozenset().union(*parts)
    if expr.op == "cap":
        atoms = parts[0]
        for p in parts[1:]:
            atoms &= p
        return atoms
    if expr.op == "minus":
        atoms = parts[0]
        for p in parts[1:]:
            atoms -= p
        return atoms
    if expr.op == "oplus":
        span = sorted(frozenset().union(*(expression_variables(a) for a in expr.args)))
        whole = frozenset(lattice.down_set(Antichain.normalize([tuple(span)])))
        return whole - frozenset().union(*parts)
    raise ExpressionError(f"unknown operator {expr.op!r}")


def _ensure_expr(expr_or_text, names: Sequence[str]) -> Expr:
    if isinstance(expr_or_text, str):
        return parse_expression(expr_or_text, names)
    return expr_or_text


def _remap_expression(expr: Expr, mapping: dict[int, int]) -> Expr:
    if isinstance(expr, SourceLeaf):
        return SourceLeaf(tuple(sorted(mapping[i] for i in expr.members)))
    return OpNode(expr.op, tuple(_remap_expression(a, mapping) for a in expr.args))


def eval_expression(
    d: JointDistribution,
    expr_or_text,
    realization: Sequence[int],
    given: Iterable[int] | None = None,
    lattice: RedundancyLattice | None = None,
    partials: PartialValuation | None = None,
    allow_large: bool = False,
) -> float:
    """Value of an expression at a support realization.

    With `given`, the expression is lowered against the lattice of the
    remaining variables and summed over a conditioned valuation, so it
    must not mention any conditioning variable.  Pass a precomputed
    `partials` (with its matching `lattice`) to amortize the inversion
    across many expressions at the same realization.
    """
    expr = _ensure_expr(expr_or_text, d.variables.names)
    if given is not None:
        g = d.variables.check_source(given)
        keep = tuple(i for i in range(d.variables.n) if i not in g)
        if not keep:
            raise ValueError("conditioning on every variable leaves nothing to evaluate")
        used = expression_variables(expr) & g
        if used:
            names = ", ".join(d.variables.names[i] for i in sorted(used))
            raise ExpressionError(f"expression mentions conditioning variable(s) {names}")
        expr = _remap_expression(expr, {full: pos for pos, full in enumerate(keep)})
        variables: tuple[int, ...] = keep
    else:
        variables = tuple(range(d.variables.n))
    if lattice is None:
        lattice = enumerate_antichains(len(variables), allow_large)
    if partials is None:
        partials = chain_walk(d, lattice, realization, variables=variables, given=given)
    atoms = lower(expr, lattice)
    return math.fsum(
        partials.partials[a] for a in sorted(atoms, key=Antichain.sort_key)
    )


def eval_mutual(
    d: JointDistribution,
    expr_or_text,
    target: Iterable[int],
    realization: Sequence[int],
    allow_large: bool = False,
) -> float:
    """What the expression says about the target: plain minus conditioned value."""
    expr = _ensure_expr(expr_or_text, d.variables.names)
    plain = eval_expression(d, expr, realization, allow_large=allow_large)
    conditioned = eval_expression(
        d, expr, realization, given=target, allow_large=allow_large
    )
    return plain - conditioned


# Identities among the three-variable sharing expressions.  Each right-hand
# side is a sum of expression values.
_LEMMAS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("L1", "({x} cap {y}) minus {z}", ("({x} minus {z}) cap ({y} minus {z})",)),
    (
        "L2",
        "(({x},{y}) minus ({y},{z})) cap (({x},{z}) minus ({y},{z}))",
        (
            "{x} minus ({y},{z})",
            "(({x} oplus {y}) cap ({x} oplus {z})) minus ({y},{z})",
        ),
    ),
    (
        "L3",
        "({x},{y}) minus (({x},{z}) cup ({y},{z}))",
        ("({x} oplus {y}) minus (({x},{z}) cup ({y},{z}))",),
    ),
    ("L4", "{x} cap ({y} minus {x})", ()),
    ("L5", "({y} minus {x}) cap ({y},{z})", ("{y} minus {x}",)),
    ("L6", "{x} cap ({x} oplus {z})", ()),
    ("L7", "({y} minus {x}) cap ({x} oplus {z})", ("{y} cap ({x} oplus {z})",)),
    (
        "L8",
        "({x} oplus {y}) cap ({x},{z}) cap ({y},{z})",
        (
            "{z} cap ({x} oplus {y})",
            "({x} oplus {y}) cap ({x} oplus {z}) cap ({y} oplus {z})",
        ),
    ),
    (
        "L9",
        "({x},{y}) cap ({x},{z}) cap ({y},{z})",
        (
            "{x} cap ({y},{z})",
            "{y} cap ({x} oplus {z})",
            "{z} cap ({x} oplus {y})",
            "({y} cap {z}) minus {x}",
            "({x} oplus {y}) cap ({x} oplus {z}) cap ({y} oplus {z})",
        ),
    ),
)


@dataclass(frozen=True)
class LemmaResult:
    name: str
    lhs: float
    rhs: float
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= 1e-9


@lru_cache(maxsize=None)
def _compiled_lemmas(
    names: tuple[str, ...], lattice: RedundancyLattice
) -> tuple[tuple[str, tuple[Antichain, ...], tuple[tuple[Antichain, ...], ...]], ...]:
    x, y, z = names
    compiled = []
    for label, lhs_text, rhs_texts in _LEMMAS:
        lhs_atoms = lower(
            parse_expression(lhs_text.format(x=x, y=y, z=z), names), lattice
        )
        rhs_atoms = tuple(
            tuple(
                sorted(
                    lower(parse_expression(t.format(x=x, y=y, z=z), names), lattice),
                    key=Antichain.sort_key,
                )
            )
            for t in rhs_texts
        )
        compiled.append(
            (label, tuple(sorted(lhs_atoms, key=Antichain.sort_key)), rhs_atoms)
        )
    return tuple(compiled)


def lemma_suite(
    d: JointDistribution,
    realization: Sequence[int],
    partials: PartialValuation | None = None,
) -> list[LemmaResult]:
    """Evaluate both sides of the nine sharing identities at a realization."""
    if d.variables.n != 3:
        raise ValueError("the lemma suite needs exactly three variables")
    lattice = enumerate_antichains(3)
    if partials is None:
        partials = chain_walk(d, lattice, realization)
    values = partials.partials
    results = []
    for label, lhs_atoms, rhs_atom_lists in _compiled_lemmas(d.variables.names, lattice):
        lhs = math.fsum(values[a] for a in lhs_atoms)
        rhs = math.fsum(math.fsum(values[a] for a in atoms) for atoms in rhs_atom_lists)
        results.append(LemmaResult(label, lhs, rhs, abs(lhs - rhs)))
    return results
