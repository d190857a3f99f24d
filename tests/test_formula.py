import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pragmaql import (
    AQ,
    A,
    And,
    Assert,
    Atom,
    C,
    E,
    Iff,
    Implies,
    K,
    N,
    Not,
    Or,
    ParseError,
    connective_depth,
    desugar,
    parse_assertive,
    parse_radical,
    print_formula,
    quantum_fragment_check,
    radical_atoms,
)

P, Q, R = Atom("p"), Atom("q"), Atom("r")


# ---------------------------------------------------------------------------
# hypothesis strategies

atom_st = st.sampled_from(("p", "q", "r", "s0", "tt")).map(Atom)

radical_st = st.recursive(
    atom_st,
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda lr: And(*lr)),
        st.tuples(kids, kids).map(lambda lr: Or(*lr)),
        st.tuples(kids, kids).map(lambda lr: Implies(*lr)),
        st.tuples(kids, kids).map(lambda lr: Iff(*lr)),
    ),
    max_leaves=20,
)

assertive_st = st.recursive(
    radical_st.map(Assert),
    lambda kids: st.one_of(
        kids.map(N),
        st.tuples(kids, kids).map(lambda lr: K(*lr)),
        st.tuples(kids, kids).map(lambda lr: A(*lr)),
        st.tuples(kids, kids).map(lambda lr: C(*lr)),
        st.tuples(kids, kids).map(lambda lr: E(*lr)),
        st.tuples(kids, kids).map(lambda lr: AQ(*lr)),
    ),
    max_leaves=20,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_smallest_assertive():
    assert parse_assertive("|- p") == Assert(P)


def test_parse_n_binds_tighter_than_k():
    # hand-parse: N grabs one n-production, K then combines the results
    assert parse_assertive("N(|- p) K (|- q)") == K(N(Assert(P)), Assert(Q))


def test_parse_aq():
    assert parse_assertive("(|- p) AQ (|- q)") == AQ(Assert(P), Assert(Q))


def test_parse_dangling_operator_position():
    with pytest.raises(ParseError) as exc:
        parse_assertive("|- p K")
    assert exc.value.position == 7
    assert exc.value.expected  # the accepted continuations are reported


def test_parse_atom_radical():
    assert parse_radical("p") == P


def test_parse_radical_precedence():
    # ~ binds before &, & before |
    assert parse_radical("p & (q | ~r)") == And(P, Or(Q, Not(R)))


def test_parse_radical_dangling():
    with pytest.raises(ParseError):
        parse_radical("p ->")


def test_parse_precedence_without_parens():
    assert parse_assertive("N |- p K |- q") == K(N(Assert(P)), Assert(Q))


def test_parse_full_radical_precedence_chain():
    # hand-parse: ((((~p & q) | r) -> s) <-> t)
    expected = Iff(Implies(Or(And(Not(P), Q), R), Atom("s")), Atom("t"))
    assert parse_radical("~p & q | r -> s <-> t") == expected


def test_implies_right_associative():
    assert parse_radical("p -> q -> r") == Implies(P, Implies(Q, R))


def test_iff_left_associative():
    assert parse_radical("p <-> q <-> r") == Iff(Iff(P, Q), R)


def test_c_right_associative():
    got = parse_assertive("(|- p) C (|- q) C (|- r)")
    assert got == C(Assert(P), C(Assert(Q), Assert(R)))


def test_a_and_aq_share_level_left_associative():
    got = parse_assertive("(|- p) A (|- q) AQ (|- r)")
    assert got == AQ(A(Assert(P), Assert(Q)), Assert(R))


# Precedence and associativity as the module docstring states them:
# operator -> (level, node), where a higher level binds tighter.
RADICAL_LEVELS = {"&": (4, And), "|": (3, Or), "->": (2, Implies), "<->": (1, Iff)}
ASSERTIVE_LEVELS = {"K": (4, K), "AQ": (3, AQ), "A": (3, A), "C": (2, C), "E": (1, E)}
RIGHT_ASSOCIATIVE = {"->", "C"}


def docstring_tree(levels, op1, op2, x, y, z):
    """The tree of ``x op1 y op2 z`` under ``levels``."""
    (level1, node1), (level2, node2) = levels[op1], levels[op2]
    if level1 > level2 or (level1 == level2 and op1 not in RIGHT_ASSOCIATIVE):
        return node2(node1(x, y), z)
    return node1(x, node2(y, z))


@pytest.mark.parametrize("op1, op2", itertools.product(RADICAL_LEVELS, repeat=2))
def test_radical_operator_pair_precedence(op1, op2):
    got = parse_radical(f"p {op1} q {op2} r")
    assert got == docstring_tree(RADICAL_LEVELS, op1, op2, P, Q, R)


@pytest.mark.parametrize("op1, op2", itertools.product(ASSERTIVE_LEVELS, repeat=2))
def test_assertive_operator_pair_precedence(op1, op2):
    got = parse_assertive(f"|- p {op1} |- q {op2} |- r")
    assert got == docstring_tree(ASSERTIVE_LEVELS, op1, op2,
                                 Assert(P), Assert(Q), Assert(R))


@pytest.mark.parametrize("text", ["p &", "p |", "p ->", "p <->", "|- p K",
                                  "|- p AQ", "|- p A", "|- p C", "|- p E"])
def test_dangling_operator_at_every_level(text):
    assertive = text.startswith("|-")
    with pytest.raises(ParseError) as exc:
        (parse_assertive if assertive else parse_radical)(text)
    assert exc.value.position == len(text) + 1
    assert exc.value.expected == ({"N", "|-", "("} if assertive else {"~", "atom", "("})
    assert str(exc.value).endswith("found end of input")


def test_parse_molecular_radical_under_turnstile():
    assert parse_assertive("|- (p & q)") == Assert(And(P, Q))


def test_unknown_token():
    with pytest.raises(ParseError) as exc:
        parse_radical("p $ q")
    assert exc.value.position == 3
    with pytest.raises(ParseError):
        parse_assertive("Nq")  # keywords need a word boundary


# The parse-error contract: text, grammar, message, position, expected.
# One row or more per place the parser can fail, in both grammars, and per
# way the tokenizer can meet an unknown character.
PARSE_ERRORS = [
    # no operand where one must start
    ("", "radical", "syntax error at position 1: expected (, atom, ~, found end of input",
     1, {"(", "atom", "~"}),
    ("", "assertive", "syntax error at position 1: expected (, N, |-, found end of input",
     1, {"(", "N", "|-"}),
    ("  \t", "radical", "syntax error at position 4: expected (, atom, ~, found end of input",
     4, {"(", "atom", "~"}),
    ("  \t", "assertive", "syntax error at position 4: expected (, N, |-, found end of input",
     4, {"(", "N", "|-"}),
    ("p & )", "radical", "syntax error at position 5: expected (, atom, ~, found ')'",
     5, {"(", "atom", "~"}),
    ("~", "radical", "syntax error at position 2: expected (, atom, ~, found end of input",
     2, {"(", "atom", "~"}),
    ("|- p K K", "assertive", "syntax error at position 8: expected (, N, |-, found 'K'",
     8, {"(", "N", "|-"}),
    ("N", "assertive", "syntax error at position 2: expected (, N, |-, found end of input",
     2, {"(", "N", "|-"}),
    ("p", "assertive", "syntax error at position 1: expected (, N, |-, found 'p'",
     1, {"(", "N", "|-"}),
    # `)` after a radical, after an assertive, and after `|- (`
    ("(p & q", "radical", "syntax error at position 7: expected ), found end of input",
     7, {")"}),
    ("(p q)", "radical", "syntax error at position 4: expected ), found 'q'", 4, {")"}),
    ("(|- p", "assertive", "syntax error at position 6: expected ), found end of input",
     6, {")"}),
    ("(|- p |- q)", "assertive", "syntax error at position 7: expected ), found '|-'",
     7, {")"}),
    ("|- (p & q", "assertive", "syntax error at position 10: expected ), found end of input",
     10, {")"}),
    ("|- (p K", "assertive", "syntax error at position 7: expected ), found 'K'", 7, {")"}),
    # atom or `(` after `|-`
    ("|-", "assertive", "syntax error at position 3: expected (, atom, found end of input",
     3, {"(", "atom"}),
    ("|- K", "assertive", "syntax error at position 4: expected (, atom, found 'K'",
     4, {"(", "atom"}),
    ("|- ~p", "assertive", "syntax error at position 4: expected (, atom, found '~'",
     4, {"(", "atom"}),
    ("|- |- p", "assertive", "syntax error at position 4: expected (, atom, found '|-'",
     4, {"(", "atom"}),
    # end of input
    ("p q", "radical", "syntax error at position 3: expected end of input, found 'q'",
     3, {"end of input"}),
    ("p )", "radical", "syntax error at position 3: expected end of input, found ')'",
     3, {"end of input"}),
    ("|- p |- q", "assertive",
     "syntax error at position 6: expected end of input, found '|-'", 6, {"end of input"}),
    ("|- p)", "assertive", "syntax error at position 5: expected end of input, found ')'",
     5, {"end of input"}),
    # unknown characters after spaces, a tab, a newline and U+00A0, and in a word;
    # the whole text is tokenized first, so they win over a syntax error before them
    ("p   $", "radical", "unknown token at position 5: '$'", 5, set()),
    ("p\t$", "radical", "unknown token at position 3: '$'", 3, set()),
    ("p\n$", "radical", "unknown token at position 3: '$'", 3, set()),
    ("p $", "radical", "unknown token at position 3: '$'", 3, set()),
    ("|- p K #", "assertive", "unknown token at position 8: '#'", 8, set()),
    ("Nq", "assertive", "unknown token at position 1: 'N'", 1, set()),
    ("AQx", "assertive", "unknown token at position 1: 'A'", 1, set()),
    ("|- p AQx |- q", "assertive", "unknown token at position 6: 'A'", 6, set()),
    ("a$b", "radical", "unknown token at position 2: '$'", 2, set()),
    ("p q $", "radical", "unknown token at position 5: '$'", 5, set()),
    ("P", "radical", "unknown token at position 1: 'P'", 1, set()),
    ("p & 1", "radical", "unknown token at position 5: '1'", 5, set()),
    # operators split by a space
    ("| - p", "assertive", "unknown token at position 3: '-'", 3, set()),
    ("p | - q", "radical", "unknown token at position 5: '-'", 5, set()),
    ("p - > q", "radical", "unknown token at position 3: '-'", 3, set()),
    ("p <- > q", "radical", "unknown token at position 3: '<'", 3, set()),
    # whitespace before the end: end of input sits at len(text) + 1
    ("p &   ", "radical", "syntax error at position 7: expected (, atom, ~, found end of input",
     7, {"(", "atom", "~"}),
    ("|- p K \n", "assertive",
     "syntax error at position 9: expected (, N, |-, found end of input", 9, {"(", "N", "|-"}),
    ("|- (p\t", "assertive", "syntax error at position 7: expected ), found end of input",
     7, {")"}),
]


@pytest.mark.parametrize("text, grammar, message, position, expected", PARSE_ERRORS)
def test_parse_error_contract(text, grammar, message, position, expected):
    parse = parse_assertive if grammar == "assertive" else parse_radical
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert exc.value.position == position
    assert exc.value.expected == frozenset(expected)


def unwrap(f, node):
    """The operand under a chain of ``node`` (``Not`` or ``N``) and the
    chain's length, without recursing (``==`` recurses once per level)."""
    depth = 0
    while isinstance(f, node):
        f, depth = f.operand, depth + 1
    return f, depth


@pytest.mark.parametrize("parse, text, node, depth, leaf", [
    (parse_radical, "(" * 250 + "p" + ")" * 250, Not, 0, P),
    (parse_assertive, "(" * 250 + "|- p" + ")" * 250, N, 0, Assert(P)),
    (parse_assertive, "|- " + "(" * 250 + "p" + ")" * 250, N, 0, Assert(P)),
    (parse_radical, "~" * 800 + "p", Not, 800, P),
    (parse_assertive, "N " * 800 + "|- p", N, 800, Assert(P)),
], ids=["radical-parens", "assertive-parens", "turnstile-parens", "radical-not",
        "assertive-n"])
def test_deep_nesting_parses_at_default_recursion_limit(parse, text, node, depth, leaf):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = parse(text)
    finally:
        sys.setrecursionlimit(limit)
    assert unwrap(got, node) == (leaf, depth)


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("P")
    with pytest.raises(ValueError):
        Atom("1a")
    assert Atom("a_1").name == "a_1"


# ---------------------------------------------------------------------------
# printing


def test_print_examples():
    assert print_formula(Assert(P)) == "(|- p)"
    assert print_formula(N(Assert(P))) == "N((|- p))"
    assert print_formula(AQ(Assert(P), Assert(Q))) == "((|- p) AQ (|- q))"


def test_print_molecular_and_negated_radicals_round_trip():
    for ast in (Assert(And(P, Q)), Assert(Not(P)), Assert(Not(And(P, Q)))):
        assert parse_assertive(print_formula(ast)) == ast


@given(radical_st)
def test_radical_round_trip(f):
    assert parse_radical(print_formula(f)) == f


@given(assertive_st)
def test_assertive_round_trip(f):
    assert parse_assertive(print_formula(f)) == f


# ---------------------------------------------------------------------------
# quantum fragment


def test_fragment_accepts_n_k_over_atoms():
    report = quantum_fragment_check(K(N(Assert(P)), Assert(Q)))
    assert report.is_quantum
    assert report.violations == ()


def test_fragment_rejects_molecular_radical():
    report = quantum_fragment_check(Assert(And(P, Q)))
    assert not report.is_quantum
    assert report.violations[0].path == ()
    assert report.violations[0].reason == "molecular-radical"


def test_fragment_rejects_forbidden_connectives():
    for ctor in (A, C, E):
        report = quantum_fragment_check(ctor(Assert(P), Assert(Q)))
        assert not report.is_quantum
        assert report.violations[0].reason == "forbidden-connective"


def test_fragment_paths_point_at_nested_nodes():
    report = quantum_fragment_check(K(C(Assert(P), Assert(Q)), Assert(And(P, Q))))
    assert not report.is_quantum
    assert set(report.violations) == {
        ((0,), "forbidden-connective"),
        ((1,), "molecular-radical"),
    }


def test_fragment_allows_aq():
    assert quantum_fragment_check(AQ(Assert(P), N(Assert(Q)))).is_quantum


# ---------------------------------------------------------------------------
# desugar


def test_desugar_aq():
    got = desugar(AQ(Assert(P), Assert(Q)))
    assert got == N(K(N(Assert(P)), N(Assert(Q))))


def test_desugar_fixpoint_without_aq():
    f = K(N(Assert(P)), Assert(Q))
    assert desugar(f) == f


def test_desugar_nested_aq():
    # apply the rewrite by hand, innermost first
    a, b, c = Assert(P), Assert(Q), Assert(R)
    inner = N(K(N(a), N(b)))
    expected = N(K(N(inner), N(c)))
    assert desugar(AQ(AQ(a, b), c)) == expected


@given(assertive_st)
def test_desugar_idempotent(f):
    assert desugar(desugar(f)) == desugar(f)


@given(assertive_st)
def test_desugar_preserves_fragment_membership(f):
    assert (quantum_fragment_check(desugar(f)).is_quantum
            == quantum_fragment_check(f).is_quantum)


# ---------------------------------------------------------------------------
# helpers


def test_connective_depth():
    assert connective_depth(Assert(P)) == 0
    assert connective_depth(N(Assert(P))) == 1
    assert connective_depth(K(N(Assert(P)), Assert(Q))) == 2


def test_radical_atoms_order_and_dedup():
    f = parse_radical("q & p | q -> r")
    assert radical_atoms(f) == ("q", "p", "r")
