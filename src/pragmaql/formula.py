"""Formula ASTs, parser, printer, and fragment checks.

The language has two syntactic strata:

* *radical* formulas: classical propositional skeletons built from atoms
  with ``~  &  |  ->  <->``.  These are the formulas that carry (possibly
  partial) truth values.
* *assertive* formulas: radicals lifted by the assertion sign ``|-`` and
  combined with the pragmatic operators ``N  K  A  C  E  AQ``.  These
  carry justification values, never truth values.

The *quantum fragment* is the sublanguage in which the assertion sign is
applied to bare atoms only and the only operators above the assertions
are ``N``, ``K`` and the derived ``AQ`` (shorthand for
``N((N left) K (N right))``).

Surface syntax is plain ASCII.  Precedence, tightest first: ``~ & | ->
<->`` for radicals (``->`` right-associative) and ``N K AQ/A C E`` for
assertives (``C`` right-associative); binary operators are otherwise
left-associative.  ``|-`` grabs one atom or one parenthesized radical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import ParseError

__all__ = [
    "Atom", "Not", "And", "Or", "Implies", "Iff",
    "Assert", "N", "K", "A", "C", "E", "AQ",
    "RadicalFormula", "AssertiveFormula", "Formula",
    "FragmentReport", "FragmentViolation",
    "parse_radical", "parse_assertive", "print_formula",
    "quantum_fragment_check", "desugar", "connective_depth", "radical_atoms",
]

ATOM_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# radical stratum


@dataclass(frozen=True)
class Atom:
    """Propositional letter; the only radical allowed under ``|-`` in the
    quantum fragment."""

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not ATOM_NAME_RE.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not:
    operand: "RadicalFormula"


@dataclass(frozen=True)
class And:
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True)
class Or:
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True)
class Implies:
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True)
class Iff:
    left: "RadicalFormula"
    right: "RadicalFormula"


RadicalFormula = Union[Atom, Not, And, Or, Implies, Iff]


# ---------------------------------------------------------------------------
# assertive stratum


@dataclass(frozen=True)
class Assert:
    """Elementary assertive formula: a radical lifted by the assertion sign."""

    radical: RadicalFormula


@dataclass(frozen=True)
class N:
    """Pragmatic negation: asserts that the operand cannot be justified."""

    operand: "AssertiveFormula"


@dataclass(frozen=True)
class K:
    """Pragmatic conjunction: justified when both operands are."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True)
class A:
    """Pragmatic disjunction.  Parseable, but outside the quantum fragment."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True)
class C:
    """Pragmatic implication.  Syntactic support only; no evaluation rule."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True)
class E:
    """Pragmatic equivalence.  Syntactic support only; no evaluation rule."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True)
class AQ:
    """Derived disjunction, shorthand for ``N((N left) K (N right))``."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


AssertiveFormula = Union[Assert, N, K, A, C, E, AQ]
Formula = Union[RadicalFormula, AssertiveFormula]

_RADICAL_TYPES = (Atom, Not, And, Or, Implies, Iff)

# Binary operators of each stratum: token kind -> (level, node,
# right-associative).  A higher level binds tighter.  The parser and the
# printer both read these tables.
_RADICAL_BINARY = {
    "<->": (1, Iff, False),
    "->": (2, Implies, True),
    "|": (3, Or, False),
    "&": (4, And, False),
}
_ASSERTIVE_BINARY = {
    "E": (1, E, False),
    "C": (2, C, True),
    "AQ": (3, AQ, False),
    "A": (3, A, False),
    "K": (4, K, False),
}
_BINARY_RADICAL_OPS = {node: kind for kind, (_, node, _) in _RADICAL_BINARY.items()}
_BINARY_ASSERTIVE_OPS = {node: kind for kind, (_, node, _) in _ASSERTIVE_BINARY.items()}


# ---------------------------------------------------------------------------
# tokenizer

# A token's kind is its text, except for atoms, whose kind is "atom".
_TOKEN_RE = re.compile(
    r"""
      \|- | <-> | -> | [~&|()]
    | (?:AQ|[NKACE])(?![A-Za-z0-9_])
    | (?P<atom>[a-z][a-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int  # 1-based character offset


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(
                f"unknown token at position {i + 1}: {text[i]!r}", position=i + 1
            )
        kind = "atom" if m.lastgroup == "atom" else m.group()
        tokens.append(_Token(kind, m.group(), i + 1))
        i = m.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------------------
# parser
#
# Each stratum is a precedence-climbing loop over its binary table above
# (Pratt 1973) and an operand parser for the prefix forms:
#
# unary := `~` unary | atom | `(` radical `)`
# n := `N` n | `|-` (atom | `(` radical `)`) | `(` assertive `)`


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        if self._peek().kind != kind:
            self._fail({kind})
        return self._advance()

    def _fail(self, expected) -> None:
        tok = self._peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        listing = ", ".join(sorted(expected))
        raise ParseError(
            f"syntax error at position {tok.pos}: expected {listing}, found {found}",
            position=tok.pos,
            expected=frozenset(expected),
        )

    def finish(self, f):
        if self._peek().kind != "end":
            self._fail({"end of input"})
        return f

    def _climb(self, table, operand, min_level: int = 1):
        """Parse operands joined by the operators of ``table`` at
        ``min_level`` or above."""
        f = operand()
        while True:
            entry = table.get(self._peek().kind)
            if entry is None or entry[0] < min_level:
                return f
            level, node, right = entry
            self._advance()
            f = node(f, self._climb(table, operand, level if right else level + 1))

    def radical(self) -> RadicalFormula:
        return self._climb(_RADICAL_BINARY, self._unary)

    def _unary(self) -> RadicalFormula:
        tok = self._peek()
        if tok.kind == "~":
            self._advance()
            return Not(self._unary())
        if tok.kind == "atom":
            self._advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self._advance()
            f = self.radical()
            self._expect(")")
            return f
        self._fail({"~", "atom", "("})

    def assertive(self) -> AssertiveFormula:
        return self._climb(_ASSERTIVE_BINARY, self._n)

    def _n(self) -> AssertiveFormula:
        tok = self._peek()
        if tok.kind == "N":
            self._advance()
            return N(self._n())
        if tok.kind == "|-":
            self._advance()
            nxt = self._peek()
            if nxt.kind == "atom":
                self._advance()
                return Assert(Atom(nxt.text))
            if nxt.kind == "(":
                self._advance()
                r = self.radical()
                self._expect(")")
                return Assert(r)
            self._fail({"atom", "("})
        if tok.kind == "(":
            self._advance()
            f = self.assertive()
            self._expect(")")
            return f
        self._fail({"N", "|-", "("})


def parse_radical(text: str) -> RadicalFormula:
    """Parse ``text`` with the radical grammar."""
    p = _Parser(text)
    return p.finish(p.radical())


def parse_assertive(text: str) -> AssertiveFormula:
    """Parse ``text`` with the assertive grammar."""
    p = _Parser(text)
    return p.finish(p.assertive())


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    """Render in the canonical fully-parenthesized form.

    ``parse_*(print_formula(f)) == f`` holds structurally for every AST.
    """
    if isinstance(f, _RADICAL_TYPES):
        return _print_radical(f)
    return _print_assertive(f)


def _print_radical(f: RadicalFormula) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _print_radical(f.operand)
    op = _BINARY_RADICAL_OPS[type(f)]
    return f"({_print_radical(f.left)} {op} {_print_radical(f.right)})"


def _print_assertive(f: AssertiveFormula) -> str:
    if isinstance(f, Assert):
        r = f.radical
        if isinstance(r, Atom):
            return f"(|- {r.name})"
        body = _print_radical(r)
        if isinstance(r, Not):
            # binary radicals already carry their own parentheses
            body = f"({body})"
        return f"(|- {body})"
    if isinstance(f, N):
        return f"N({_print_assertive(f.operand)})"
    op = _BINARY_ASSERTIVE_OPS[type(f)]
    return f"({_print_assertive(f.left)} {op} {_print_assertive(f.right)})"


# ---------------------------------------------------------------------------
# quantum fragment


class FragmentViolation(NamedTuple):
    path: tuple[int, ...]
    reason: str  # "molecular-radical" or "forbidden-connective"


@dataclass(frozen=True)
class FragmentReport:
    is_quantum: bool
    violations: tuple[FragmentViolation, ...]


def quantum_fragment_check(f: AssertiveFormula) -> FragmentReport:
    """Check membership in the quantum fragment.

    A formula qualifies when every assertion sign wraps a bare atom and
    only ``N``, ``K`` and ``AQ`` occur above the assertions.  Violations
    carry the path (child indices from the root) of the offending node.
    """
    violations: list[FragmentViolation] = []

    def walk(g: AssertiveFormula, path: tuple[int, ...]) -> None:
        if isinstance(g, Assert):
            if not isinstance(g.radical, Atom):
                violations.append(FragmentViolation(path, "molecular-radical"))
        elif isinstance(g, N):
            walk(g.operand, path + (0,))
        elif isinstance(g, (K, AQ)):
            walk(g.left, path + (0,))
            walk(g.right, path + (1,))
        elif isinstance(g, (A, C, E)):
            violations.append(FragmentViolation(path, "forbidden-connective"))
            walk(g.left, path + (0,))
            walk(g.right, path + (1,))
        else:
            raise TypeError(f"not an assertive formula: {g!r}")

    walk(f, ())
    return FragmentReport(not violations, tuple(violations))


def desugar(f: AssertiveFormula) -> AssertiveFormula:
    """Rewrite every ``AQ`` node to its defining ``N``/``K`` form, bottom-up.

    The result contains no ``AQ`` nodes; AQ-free formulas come back
    unchanged, so the rewrite is idempotent.
    """
    if isinstance(f, Assert):
        return f
    if isinstance(f, N):
        return N(desugar(f.operand))
    if isinstance(f, AQ):
        return N(K(N(desugar(f.left)), N(desugar(f.right))))
    if isinstance(f, (K, A, C, E)):
        return type(f)(desugar(f.left), desugar(f.right))
    raise TypeError(f"not an assertive formula: {f!r}")


def connective_depth(f: AssertiveFormula) -> int:
    """Nesting depth of pragmatic connectives above the elementary assertions."""
    if isinstance(f, Assert):
        return 0
    if isinstance(f, N):
        return 1 + connective_depth(f.operand)
    return 1 + max(connective_depth(f.left), connective_depth(f.right))


def radical_atoms(f: RadicalFormula) -> tuple[str, ...]:
    """Atom names of a radical, deduplicated, in first-occurrence order."""
    seen: list[str] = []

    def walk(g: RadicalFormula) -> None:
        if isinstance(g, Atom):
            if g.name not in seen:
                seen.append(g.name)
        elif isinstance(g, Not):
            walk(g.operand)
        else:
            walk(g.left)
            walk(g.right)

    walk(f)
    return tuple(seen)
