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
# structural equality and hashing
#
# The formula classes compare and hash by their fields, as dataclasses with
# ``eq=True`` do, but walk the tree with an explicit stack: the generated
# methods recurse once or twice per level and fail on formulas the parser
# accepts.  A node hashes as the tuple of its fields with each child formula
# replaced by a stand-in that hashes to the child's hash; a tuple's hash reads
# only its items' hashes, so the values are those of the generated ``__hash__``.


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in node.__dataclass_fields__)


class _Hashed:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


class _Node:
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for x, y in zip(_fields(a), _fields(b)):
                if x is y:
                    continue
                if isinstance(x, _Node) and x.__class__ is y.__class__:
                    stack.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self) -> int:
        hashes: dict[int, _Hashed] = {}   # id(node) -> its hash's stand-in
        stack = [self]
        while stack:
            fields = _fields(stack[-1])
            pending = [x for x in fields if isinstance(x, _Node) and id(x) not in hashes]
            if pending:
                stack += pending
                continue
            hashes[id(stack.pop())] = _Hashed(hash(tuple(
                hashes[id(x)] if isinstance(x, _Node) else x for x in fields)))
        return hashes[id(self)].value


# ---------------------------------------------------------------------------
# radical stratum


@dataclass(frozen=True, eq=False)
class Atom(_Node):
    """Propositional letter; the only radical allowed under ``|-`` in the
    quantum fragment."""

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not ATOM_NAME_RE.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True, eq=False)
class Not(_Node):
    operand: "RadicalFormula"


@dataclass(frozen=True, eq=False)
class And(_Node):
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True, eq=False)
class Or(_Node):
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True, eq=False)
class Implies(_Node):
    left: "RadicalFormula"
    right: "RadicalFormula"


@dataclass(frozen=True, eq=False)
class Iff(_Node):
    left: "RadicalFormula"
    right: "RadicalFormula"


RadicalFormula = Union[Atom, Not, And, Or, Implies, Iff]


# ---------------------------------------------------------------------------
# assertive stratum


@dataclass(frozen=True, eq=False)
class Assert(_Node):
    """Elementary assertive formula: a radical lifted by the assertion sign."""

    radical: RadicalFormula


@dataclass(frozen=True, eq=False)
class N(_Node):
    """Pragmatic negation: asserts that the operand cannot be justified."""

    operand: "AssertiveFormula"


@dataclass(frozen=True, eq=False)
class K(_Node):
    """Pragmatic conjunction: justified when both operands are."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True, eq=False)
class A(_Node):
    """Pragmatic disjunction.  Parseable, but outside the quantum fragment."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True, eq=False)
class C(_Node):
    """Pragmatic implication.  Syntactic support only; no evaluation rule."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True, eq=False)
class E(_Node):
    """Pragmatic equivalence.  Syntactic support only; no evaluation rule."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


@dataclass(frozen=True, eq=False)
class AQ(_Node):
    """Derived disjunction, shorthand for ``N((N left) K (N right))``."""

    left: "AssertiveFormula"
    right: "AssertiveFormula"


AssertiveFormula = Union[Assert, N, K, A, C, E, AQ]
Formula = Union[RadicalFormula, AssertiveFormula]

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
_BINARY_OPS = {node: kind for table in (_RADICAL_BINARY, _ASSERTIVE_BINARY)
               for kind, (_, node, _) in table.items()}


# ---------------------------------------------------------------------------
# tokenizer
#
# One ``findall`` turns a text into a flat list of token strings.  Each match
# skips whitespace, then holds a token in the regex's one group or one
# character that starts no token outside it, which ``findall`` gives as ``""``.
# A token's text is its kind: ``|-  <->  ->  ~  &  |  (  )``, the keywords
# ``AQ N K A C E``, or an atom, the only kind whose first letter is lower case.
# The list ends with ``""`` for end of input.  Tokens carry no positions: only
# an error computes one, by scanning the text again up to its token
# (``_position``).
_TOKEN_RE = re.compile(
    r"""
    \s* (?:
        ( \|- | <-> | -> | [~&|()]
        | (?:AQ|[NKACE])(?![A-Za-z0-9_])
        | [a-z][a-z0-9_]* )
      | \S )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        pos = _position(text, tokens.index(""))
        raise ParseError(f"unknown token at position {pos}: {text[pos - 1]!r}",
                         position=pos)
    tokens.append("")
    return tokens


def _position(text: str, k: int) -> int:
    """1-based character position of token ``k`` of ``text``; the end of
    input is at ``len(text) + 1``."""
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        if j == k:
            # a character that starts no token is the match's last
            return m.start(1) + 1 if m.lastindex else m.end()
    return len(text) + 1


# ---------------------------------------------------------------------------
# parser
#
# Each stratum is a precedence-climbing loop over its binary table above
# (Pratt 1973) and an operand parser for the prefix forms:
#
# unary := `~` unary | atom | `(` radical `)`
# n := `N` n | `|-` (atom | `(` radical `)`) | `(` assertive `)`


_new, _set = object.__new__, object.__setattr__


def _parsed_atom(name: str) -> Atom:
    """``Atom(name)`` for a name the token regex matched: the check in
    ``Atom.__post_init__`` would repeat the match."""
    atom = _new(Atom)
    _set(atom, "name", name)
    return atom


def _parse(text: str, assertive: bool):
    """Parse all of ``text`` with the assertive or the radical grammar.
    Input that nests past the recursion limit is a ``ParseError`` at the
    token where the stack ran out."""
    tokens = _tokenize(text)
    i = 0  # index of the next token

    def fail(expected):
        tok = tokens[i]
        pos = _position(text, i)
        found = repr(tok) if tok else "end of input"
        raise ParseError(
            f"syntax error at position {pos}: expected {', '.join(sorted(expected))}, "
            f"found {found}",
            position=pos,
            expected=frozenset(expected),
        )

    def climb(table, operand, min_level):
        """Parse operands joined by the operators of ``table`` at
        ``min_level`` or above."""
        nonlocal i
        f = operand()
        while True:
            entry = table.get(tokens[i])
            if entry is None or entry[0] < min_level:
                return f
            level, node, right = entry
            i += 1
            f = node(f, climb(table, operand, level if right else level + 1))

    def closed(f):
        """``f``, once the ``)`` that closes it is read."""
        nonlocal i
        if tokens[i] != ")":
            fail({")"})
        i += 1
        return f

    def unary():
        nonlocal i
        tok = tokens[i]
        if tok.islower():
            i += 1
            return _parsed_atom(tok)
        if tok == "~":
            i += 1
            return Not(unary())
        if tok == "(":
            i += 1
            return closed(climb(_RADICAL_BINARY, unary, 1))
        fail({"~", "atom", "("})

    def n():
        nonlocal i
        tok = tokens[i]
        if tok == "|-":
            i += 1
            tok = tokens[i]
            if tok.islower():
                i += 1
                return Assert(_parsed_atom(tok))
            if tok == "(":
                i += 1
                return Assert(closed(climb(_RADICAL_BINARY, unary, 1)))
            fail({"atom", "("})
        if tok == "N":
            i += 1
            return N(n())
        if tok == "(":
            i += 1
            return closed(climb(_ASSERTIVE_BINARY, n, 1))
        fail({"N", "|-", "("})

    try:
        if assertive:
            f = climb(_ASSERTIVE_BINARY, n, 1)
        else:
            f = climb(_RADICAL_BINARY, unary, 1)
    except RecursionError:
        # each level of nesting takes one to three frames; the token that
        # found the stack full is where the input nests too deeply
        pos = _position(text, i)
        raise ParseError(f"formula nested too deeply at position {pos}", position=pos) from None
    if tokens[i]:
        fail({"end of input"})
    return f


def parse_radical(text: str) -> RadicalFormula:
    """Parse ``text`` with the radical grammar."""
    return _parse(text, False)


def parse_assertive(text: str) -> AssertiveFormula:
    """Parse ``text`` with the assertive grammar."""
    return _parse(text, True)


# ---------------------------------------------------------------------------
# printing


def print_formula(f: Formula) -> str:
    """Render in the canonical fully-parenthesized form.

    ``parse_*(print_formula(f)) == f`` holds structurally for every AST.
    """
    return _render(f, print_formula)


def _render(f: Formula, text) -> str:
    """The canonical text of ``f``, with ``text`` giving its operands'."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + text(f.operand)
    if isinstance(f, Assert):
        # binary radicals already carry their own parentheses
        r = f.radical
        return f"(|- ({text(r)}))" if isinstance(r, Not) else f"(|- {text(r)})"
    if isinstance(f, N):
        return f"N({text(f.operand)})"
    return f"({text(f.left)} {_BINARY_OPS[type(f)]} {text(f.right)})"


class _Printer:
    """``print_formula`` that renders each AST node once: it keeps the text
    of every node it printed, by the node's identity, for as long as it
    lives, so formulas that share subtrees print each of them once."""

    def __init__(self) -> None:
        # id(node) -> (node, text); holding the node keeps its id from reuse
        self._texts: dict[int, tuple[Formula, str]] = {}

    def __call__(self, f: Formula) -> str:
        known = self._texts.get(id(f))
        if known is not None:
            return known[1]
        text = _render(f, self)
        self._texts[id(f)] = (f, text)
        return text


class _Reader:
    """``parse_assertive`` over the texts of one document, most of which are
    built from other texts of the same document: each text is read once, and
    a canonical one (``print_formula``'s form) from the texts it is built
    of, with no tokenizing.

    ``N(x)`` is N of ``x``, and ``(l K r)`` or ``(l AQ r)`` the connective
    of the first split whose two sides are canonical; ``(|- ...)`` goes to
    the parser, so atom names are checked as it checks them, and counts as
    canonical when it prints back to itself.  A text built of canonical
    texts so is the print of the formula built, and the parser reads a print
    back to its formula, so each formula is the parser's.  A side is never
    taken through the parser: a hand-written side such as ``|- az AQ |- ax``
    would bind by where the split falls, not by precedence.  Every other
    text, and any that nests past the recursion limit, goes whole to the
    parser, so a bad one raises the parser's own error; its formula is then
    replaced by the equal one its print resolves to.  So equal formulas of
    one reader are one object, and so are their equal subformulas.
    """

    def __init__(self) -> None:
        # canonical text -> its formula; any other text tried -> False
        self._canonical: dict[str, AssertiveFormula | bool] = {}
        self._parsed: dict[str, AssertiveFormula] = {}   # the parser's texts

    def __call__(self, text: str) -> AssertiveFormula:
        try:
            f = self._resolve(text)
        except RecursionError:
            f = None
        if f is None:
            f = self._parsed.get(text)
            if f is None:
                f = parse_assertive(text)
            try:
                f = self._resolve(print_formula(f)) or f
            except RecursionError:
                pass
            self._parsed[text] = f
        return f

    def _resolve(self, text: str) -> AssertiveFormula | None:
        """The formula ``text`` is the canonical print of, or None."""
        known = self._canonical
        f = known.get(text)
        if f is not None:
            return f or None
        # N(...) layers are peeled in a loop: a chain of them nests deeper
        # than the other forms
        layers = []
        while text.startswith("N(") and text.endswith(")"):
            layers.append(text)
            text = text[2:-1]
            f = known.get(text)
            if f is not None:
                break
        if f is None:
            f = known[text] = self._core(text) or False
        for layer in reversed(layers):
            if f:
                operand, f = f, _new(N)
                _set(f, "operand", operand)
            known[layer] = f
        return f or None

    def _core(self, text: str) -> AssertiveFormula | None:
        """``_resolve`` of a text that is not ``N(...)``."""
        if text.startswith("(|- "):
            try:
                f = self._parsed[text] = parse_assertive(text)
            except ParseError:
                return None
            return f if print_formula(f) == text else None
        if not (text.startswith("(") and text.endswith(")")):
            return None
        known = self._canonical
        for op, node in ((" K ", K), (" AQ ", AQ)):
            at = text.find(op)
            while at > 0:
                side = text[1:at]
                left = known.get(side)
                # a canonical text's parentheses balance
                if left is None and side.count("(") == side.count(")"):
                    left = self._resolve(side)
                right = left and self._resolve(text[at + len(op):-1])
                if right:
                    f = _new(node)
                    _set(f, "left", left)
                    _set(f, "right", right)
                    return f
                at = text.find(op, at + 1)
        return None


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
