"""Expression grammar over sources, lowered to sets of up-set masks.

Surface syntax::

    source := NAME | "(" NAME ("," NAME)+ ")"
    expr   := source | "(" expr ")" | expr OP expr      OP in {cup, cap, minus, oplus}

Chains of one repeated operator are allowed; mixing operators requires
parentheses because no precedence is defined among them.

A node is the up-set mask its antichain generates (bit k stands for
`enumerate_sources(n)[k]`); it lies below a source S when it holds S.
Lowering turns an expression into a test on masks: a leaf S holds bit S,
`cup`/`cap`/`minus` are or/and/and-not, and `oplus` holds the bit of all
involved variables and none of its arguments.  An expression's value at a
realization sums the increments of the nodes it covers; only the
realization's chain (`chain_levels`, one sorted pass) carries any, so no
lattice is needed.  `compile_expression` lowers once per command and tests
each distinct chain mask once; its value is one weighted sum over the
points `measures._points` gives, a realization's point mass or the support,
whose surprisals it reads in one column pass.  The named three-variable
terms (the lemma sides, `trivariate_report`'s 18) are lowered the same
way, once per text, to the masks they cover; each call sums those on the
one chain it reads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Sequence, Union

from .distribution import OPERATORS, JointDistribution, identifier_end
from .decomposition import _support_row, chain_levels
from .lattice import (Antichain, RedundancyLattice, canonical_source, enumerate_antichains,
                      enumerate_sources, sources_of)
from .measures import _points, _surprisal_reader
from .record import Record


class ExpressionError(ValueError):
    """The expression text does not match the grammar or its context."""


class SourceLeaf(Record):
    __slots__ = ("members",)  # tuple[int, ...]


class OpNode(Record):
    __slots__ = ("op", "args")  # str, tuple[Expr, ...]


Expr = Union[SourceLeaf, OpNode]

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
        j = identifier_end(text, i)
        if j > i:
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
        if name in OPERATORS:
            raise ExpressionError(f"{name!r} is a reserved operator, not a variable")
        if name in _PUNCT:
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
        while self.peek() in OPERATORS:
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
        if tok in OPERATORS:
            raise ExpressionError(f"operator {tok!r} is missing a left operand")
        self.take()
        return SourceLeaf((self.variable(tok),))

    def _source_ahead(self) -> bool:
        # "(" NAME "," ... is a multi-member source, not a grouped expression.
        first = self.peek(1)
        return (
            first is not None
            and first not in OPERATORS
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
    try:
        return _Parser(tokens, names).parse()
    except RecursionError:  # two frames per parenthesis level
        raise ExpressionError("expression nested too deeply") from None


def expression_variables(expr: Expr) -> frozenset[int]:
    if isinstance(expr, SourceLeaf):
        return frozenset(expr.members)
    return frozenset().union(*(expression_variables(a) for a in expr.args))


def _compile(expr: Expr, variables: Sequence[int]) -> Callable[[int], bool]:
    """Test on up-set masks whose bit k stands for `enumerate_sources(n)[k]`,
    read through the sorted `variables`, so leaves keep their own indices.
    """
    n = len(variables)
    bits = {src: k for k, src in enumerate(sources_of(variables))}

    def holding(members: tuple[int, ...]) -> Callable[[int], bool]:
        k = bits.get(canonical_source(members))
        if k is None:
            raise ExpressionError(f"source {members} exceeds the lattice's {n} variables")
        return lambda mask: mask >> k & 1 == 1

    def test(checks, negate=False) -> Callable[[int], bool]:
        # True when every part gives the wanted answer, flipped by `negate`.  A loop,
        # unlike any() over a generator, costs one frame per level: nests as deep as parsing.
        def covers(mask: int) -> bool:
            for part, want in checks:
                if part(mask) != want:
                    return negate
            return not negate

        return covers

    def walk(e: Expr) -> Callable[[int], bool]:
        if isinstance(e, SourceLeaf):
            return holding(e.members)
        parts = [walk(arg) for arg in e.args]
        if e.op == "cup":  # some part holds: not all of them fail
            return test([(p, False) for p in parts], negate=True)
        if e.op == "cap":
            return test([(p, True) for p in parts])
        if e.op == "minus":
            return test([(parts[0], True)] + [(p, False) for p in parts[1:]])
        if e.op == "oplus":
            whole = holding(tuple(sorted(expression_variables(e))))
            return test([(whole, True)] + [(p, False) for p in parts])
        raise ExpressionError(f"unknown operator {e.op!r}")

    return walk(expr)


def _chain_total(expr: Expr, variables: Sequence[int]) -> Callable[[list[float]], float]:
    """Sum of the increments the expression covers on the chain of a surprisal
    vector over `enumerate_sources(len(variables))`, read through `variables`;
    each up-set mask's coverage is decided once, the first time a chain meets it."""
    covers = lru_cache(maxsize=None)(_compile(expr, variables))
    return lambda h: math.fsum(inc for mask, inc in chain_levels(h) if covers(mask))


def lower(expr: Expr, lattice: RedundancyLattice) -> frozenset[Antichain]:
    """Atom set of an expression: the lattice nodes whose increments it sums."""
    covers = _compile(expr, range(lattice.n))
    return frozenset(node for node, mask in zip(lattice.nodes, lattice.upsets) if covers(mask))


def compile_expression(
    d: JointDistribution,
    expr_or_text,
    given: Iterable[int] | None = None,
    about: Iterable[int] | None = None,
) -> Callable[[Sequence[int]], float]:
    """The expression's value as a function of a support realization, or,
    called without one, its support-weighted expectation: the `math.fsum` of
    the same products as `expected(d, value)`, so equal to it bit for bit.

    Parsed, lowered and its surprisal table resolved once; each call sums,
    weighted, the covered increments on each point's chain (`chain_levels`)
    over the points `measures._points` gives: a realization's point mass,
    checked once, or the support, read in one column pass and checked not at all.
    With `given`, the chain spans the other variables with conditioned
    surprisals, and the expression must not mention a conditioning
    variable.  With `about`, the value is the plain one minus the one
    given `about`: one row holds the plain surprisals of every source,
    then those of the chain's sources given `about`, from one reader of
    log2 mass tables (`measures._surprisal_reader`).
    """
    if given is not None and about is not None:
        raise ValueError("given and about are mutually exclusive")
    expr = expr_or_text
    if isinstance(expr, str):
        expr = parse_expression(expr, d.variables.names)
    if about is not None:
        given = about
    g = frozenset() if given is None else d.variables.check_source(given)
    variables = tuple(i for i in range(d.variables.n) if i not in g)
    if not variables:
        raise ValueError("conditioning on every variable leaves nothing to evaluate")
    used = expression_variables(expr) & g
    if used:
        names = ", ".join(d.variables.names[i] for i in sorted(used))
        raise ExpressionError(f"expression mentions conditioning variable(s) {names}")
    total = _chain_total(expr, variables)
    if about is None:
        read = _surprisal_reader(d, [(map(frozenset, sources_of(variables)), g)])
        value_of = total
    else:
        # Every source plain, and the chain's sources given the target: each of those
        # with the target, and the target itself, is a source, so the row is every source.
        plain = enumerate_sources(d.variables.n)
        read = _surprisal_reader(d, [(map(frozenset, plain), frozenset()),
                                     (map(frozenset, sources_of(variables)), g)])
        plain_total, k = _chain_total(expr, range(d.variables.n)), len(plain)

        def value_of(h: tuple[float, ...]) -> float:
            return plain_total(h[:k]) - total(h[k:])

    def value(realization: Sequence[int] | None = None) -> float:
        points, weights = _points(d, realization)
        return math.fsum(map(mul, weights, map(value_of, read(points))))

    return value


def eval_expression(
    d: JointDistribution,
    expr_or_text,
    realization: Sequence[int],
    given: Iterable[int] | None = None,
) -> float:
    """Value of an expression at a support realization (see `compile_expression`)."""
    return compile_expression(d, expr_or_text, given=given)(realization)


def eval_mutual(
    d: JointDistribution,
    expr_or_text,
    target: Iterable[int],
    realization: Sequence[int],
) -> float:
    """What the expression says about the target: plain minus conditioned value."""
    return compile_expression(d, expr_or_text, about=target)(realization)


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


class LemmaResult(Record):
    __slots__ = ("name", "lhs", "rhs", "residual")

    @property
    def passed(self) -> bool:
        return self.residual <= 1e-9


@lru_cache(maxsize=None)
def _covered(text: str) -> frozenset[int]:
    """The n = 3 up-set masks a named term (a `_LEMMAS` side or a `_TRIVARIATE_TERMS`
    entry) covers, lowered once per text: they do not depend on the variable names."""
    expr = parse_expression(text.format(x="x", y="y", z="z"), ("x", "y", "z"))
    return frozenset(filter(_compile(expr, range(3)), enumerate_antichains(3).upsets))


def _covered_sum(chain: list[tuple[int, float]]) -> Callable[[frozenset[int]], float]:
    """The sum of the increments a mask set covers on the chain of a three-variable
    realization (`chain_levels` of its seven source surprisals)."""
    return lambda masks: math.fsum(inc for mask, inc in chain if mask in masks)


def lemma_suite(d: JointDistribution, realization: Sequence[int]) -> list[LemmaResult]:
    """Evaluate both sides of the nine sharing identities at a realization."""
    if d.variables.n != 3:
        raise ValueError("the lemma suite needs exactly three variables")
    return _lemma_results(chain_levels(_support_row(d, (0, 1, 2), realization)))


def _lemma_results(chain: list[tuple[int, float]]) -> list[LemmaResult]:
    """The nine identities on one realization's chain; `check --suite lemmas`
    reads each point's chain from one table per distribution."""
    total = _covered_sum(chain)
    results = []
    for label, lhs_text, rhs_texts in _LEMMAS:
        lhs = total(_covered(lhs_text))
        rhs = math.fsum(map(total, map(_covered, rhs_texts)))
        results.append(LemmaResult(label, lhs, rhs, abs(lhs - rhs)))
    return results


# The 18 named terms of the three-variable decomposition, bottom-up (the
# lattice's `_topo` order); each covers exactly one node, whose increment it is.
_TRIVARIATE_TERMS: tuple[str, ...] = (
    "{x} cap {y} cap {z}",
    "({x} cap {y}) minus {z}",
    "({x} cap {z}) minus {y}",
    "({y} cap {z}) minus {x}",
    "{x} cap ({y} oplus {z})",
    "{y} cap ({x} oplus {z})",
    "{z} cap ({x} oplus {y})",
    "{x} minus ({y},{z})",
    "{y} minus ({x},{z})",
    "{z} minus ({x},{y})",
    "({x} oplus {y}) cap ({x} oplus {z}) cap ({y} oplus {z})",
    "(({x} oplus {y}) cap ({x} oplus {z})) minus ({y},{z})",
    "(({x} oplus {y}) cap ({y} oplus {z})) minus ({x},{z})",
    "(({x} oplus {z}) cap ({y} oplus {z})) minus ({x},{y})",
    "({x} oplus {y}) minus (({x},{z}) cup ({y},{z}))",
    "({x} oplus {z}) minus (({x},{y}) cup ({y},{z}))",
    "({y} oplus {z}) minus (({x},{y}) cup ({x},{z}))",
    "({x},{y}) oplus ({x},{z}) oplus ({y},{z})",
)


def trivariate_report(d: JointDistribution, realization: Sequence[int]) -> dict[str, float]:
    """The 18 named increments of a three-variable pointwise decomposition, keyed
    by their expressions in the distribution's own variable names: each is the
    increment of the one node its term covers, and they sum to the joint surprisal."""
    if d.variables.n != 3:
        raise ValueError("trivariate report needs exactly three variables")
    total = _covered_sum(chain_levels(_support_row(d, (0, 1, 2), realization)))
    x, y, z = d.variables.names
    return {text.format(x=x, y=y, z=z): total(_covered(text)) for text in _TRIVARIATE_TERMS}
