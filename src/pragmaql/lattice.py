"""Quotient lattice of quantum formulas under equal pragmatic extension.

Formulas over a chosen atom set are generated in one loop of rounds, but
classes rather than raw formulas are expanded: two formulas whose
extensions agree entry-wise within the merge tolerance fall into one
class, so growth is bounded by the class count instead of being
exponential in depth.  Each round combines only the class pairs that
include a class new in the round before, computing K and AQ for each
unordered pair once (both commute and are idempotent), and writes each
result's class into the negation/meet/join tables as it is found.  Rounds
up to the requested depth enumerate member formulas; later rounds close
the class set, synthesizing a representative from existing ones for any
class first produced there.  The loop ends when a round finds no new
class, or stops with a ``not-saturated`` error past ``MAX_CLASSES``.

The resulting structure carries the three operation tables, the class
order read off the meet table (i is below j when their meet is class i),
and bottom/top.  It is checked against the ortholattice and orthomodular
laws, and for order-isomorphism onto its own projectors: the order by
``leq``, and meets and joins by dimension count (Grassmann's identity),
with one values-only SVD per unordered pair that checks both of its table
entries.  Tolerances follow the policy in ``pragmaql.hilbert``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .formula import (
    AQ,
    Assert,
    AssertiveFormula,
    Atom,
    K,
    N,
    parse_assertive,
    print_formula,
)
from .hilbert import (
    DEFAULT_EPS,
    Projector,
    decode_matrix,
    encode_matrix,
    join,
    make_projector,
    meet,
    ortho,
)
from .hilbert import _class_tol, _deviation, _is_tolerance, _rank_cutoff
from .model import Model

__all__ = [
    "LatticeElement", "QuotientLattice", "LawReport",
    "generate_quotient", "verify_ortholattice", "verify_orthomodular",
    "find_distributivity_violation", "verify_isomorphism",
    "export_lattice", "import_lattice",
]


@dataclass(frozen=True)
class LawReport:
    """One verified law; ``counterexample`` is present exactly when it fails."""

    law: str
    holds: bool
    counterexample: tuple | None = None


@dataclass(frozen=True, eq=False)
class LatticeElement:
    """One equivalence class: canonical formula, projector, and the member
    formulas retained during enumeration.

    Hand-built fixtures may leave ``formula``/``projector`` as None;
    ``synthesized`` marks classes first produced by a closure round (past
    the requested depth) rather than by the enumeration rounds.
    """

    index: int
    formula: AssertiveFormula | None
    projector: Projector | None
    members: tuple[AssertiveFormula, ...] = ()
    synthesized: bool = False

    @property
    def label(self) -> str:
        if self.formula is None:
            return f"#{self.index}"
        return print_formula(self.formula)


@dataclass(eq=False)
class QuotientLattice:
    """Classes with their order matrix and negation/meet/join tables."""

    elements: list[LatticeElement]
    order: np.ndarray       # bool, order[i, j] <=> class i below class j
    neg_table: np.ndarray   # int, involution
    meet_table: np.ndarray  # int, greatest lower bound
    join_table: np.ndarray  # int, least upper bound
    bottom: int
    top: int
    eps: float = DEFAULT_EPS
    class_tol: float = _class_tol(DEFAULT_EPS)  # projector distance that merges classes

    def __len__(self) -> int:
        return len(self.elements)

    def projector(self, index: int) -> Projector:
        p = self.elements[index].projector
        if p is None:
            raise ValueError(f"class {index} carries no projector")
        return p


# ---------------------------------------------------------------------------
# generation


# classes one generation may find: eight times the block-sum ceiling of 128
# in perfbench/blocksum.py.  Three generic subspaces can generate an
# infinite lattice, which no number of rounds saturates
MAX_CLASSES = 1024


def generate_quotient(model: Model, atoms, depth: int) -> QuotientLattice:
    """Build the quotient lattice generated by ``atoms`` up to ``depth``.

    One loop of rounds, starting from the elementary assertions, applies
    N to every class and K/AQ to each unordered pair of classes once: a
    round combines only the pairs that include a class found in the round
    before (semi-naive evaluation), since every other pair was already
    combined with the same operands.  K and AQ commute and are idempotent,
    so ``meet``/``join`` run for i < j only: (j, i) takes the class of
    (i, j) and (i, i) is class i, and while enumerating their formulas
    still join that class's members.  Each result's class
    index goes into the negation/meet/join tables as it is found, so the
    tables are total when a round finds no new class (saturation).

    ``depth`` counts connective nesting.  Rounds 1 to ``depth`` enumerate:
    operands are each class's first-found formula, and every result joins
    its class's members.  Later rounds close the set: operands are the
    canonical representatives (the shortlex-least member), and only a
    result with a new projector creates a class, flagged ``synthesized``.

    Three or more generic subspaces can generate an infinite lattice, so
    generation stops with ``ModelError(code="not-saturated")`` when it
    finds a class past ``MAX_CLASSES``.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    atoms = [str(a) for a in atoms]
    if not atoms:
        raise ValueError("need at least one atom")
    initial = [model.atom_projector(a) for a in atoms]

    tol = _class_tol(model.eps)
    projs: list[Projector] = []
    stack = np.empty((16, model.dim, model.dim), dtype=np.complex128)  # projs' matrices
    members: list[list[AssertiveFormula]] = []
    synthesized: list[bool] = []
    operands: list[AssertiveFormula] = []   # first members, then representatives
    neg: dict[int, int] = {}
    meets: dict[tuple[int, int], int] = {}
    joins: dict[tuple[int, int], int] = {}
    steps = [(meet, K, meets), (join, AQ, joins)]
    enumerating = True

    def add_member(i: int, formula: AssertiveFormula) -> int:
        """Class ``i``, with ``formula`` added to its members while enumerating."""
        if enumerating and formula not in members[i]:
            members[i].append(formula)
        return i

    def record(p: Projector, formula: AssertiveFormula) -> int:
        """Index of the first class within ``tol`` of ``p``, made if none is.

        The class matrices sit in ``stack`` (capacity doubled when full), so
        one max-entry distance from ``p`` to every class finds the first hit.
        """
        nonlocal stack
        n = len(projs)
        hits = np.flatnonzero(_deviation(stack[:n], p.matrix) <= tol)
        if hits.size:
            return add_member(int(hits[0]), formula)
        if n == MAX_CLASSES:
            raise ModelError(f"generation did not saturate: round {rounds} found class "
                             f"{n + 1}, past the budget of {MAX_CLASSES}",
                             code="not-saturated")
        if n == len(stack):
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[n] = p.matrix
        projs.append(p)
        members.append([formula])
        synthesized.append(not enumerating)
        operands.append(formula)
        return len(projs) - 1

    # shortlex: plain lexicographic order would favor longer members, since
    # "(" sorts below every other formula character
    def shortlex(f: AssertiveFormula):
        text = print_formula(f)
        return (len(text), text)

    rounds = 0
    for a, p in zip(atoms, initial):
        record(p, Assert(Atom(a)))

    seen = 0   # classes [0, seen) were already combined with each other
    for rounds in itertools.count(1):
        count = len(projs)
        if enumerating and (rounds > depth or seen == count):
            # members are final once enumeration ends
            enumerating = False
            operands[:] = [min(m, key=shortlex) for m in members]
        if seen == count:
            break
        for i in range(seen, count):
            neg[i] = record(ortho(projs[i]), N(operands[i]))
        # the pairs that include a class new in the last round, row-major,
        # made afresh for each pass
        pairs = lambda: ((i, j) for i in range(count)
                         for j in range(seen if i < seen else 0, count))
        # the order fixes class indices and member order: enumeration
        # applies one connective to all pairs before the next, closure
        # applies both to each pair in turn
        passes = [[step] for step in steps] if enumerating else [steps]
        # (j, i) is filled earlier in row-major order, in this pass or in
        # this pair's closure step; classes lie more than tol apart, so
        # recomputing (j, i) or (i, i) would find that same class
        for batch in passes:
            for i, j in pairs():
                for op, connective, table in batch:
                    formula = connective(operands[i], operands[j])
                    if i < j:
                        table[i, j] = record(op(projs[i], projs[j], eps=model.eps), formula)
                    else:
                        table[i, j] = add_member(table[j, i] if i > j else i, formula)
        seen = count

    n = len(projs)
    meet_table = np.array([[meets[i, j] for j in range(n)] for i in range(n)], dtype=int)
    bottom = next(i for i in range(n) if projs[i].rank == 0)
    top = next(i for i in range(n) if projs[i].rank == projs[i].dim)

    elements = [
        LatticeElement(i, operands[i], projs[i], tuple(members[i]), synthesized[i])
        for i in range(n)
    ]
    return QuotientLattice(
        elements=elements,
        order=meet_table == np.arange(n)[:, None],
        neg_table=np.array([neg[i] for i in range(n)], dtype=int),
        meet_table=meet_table,
        join_table=np.array([[joins[i, j] for j in range(n)] for i in range(n)],
                            dtype=int),
        bottom=bottom,
        top=top,
        eps=model.eps,
        class_tol=tol,
    )


# ---------------------------------------------------------------------------
# law verification (pure table checks; fixtures without projectors work too)


def _first(bad: np.ndarray) -> tuple | None:
    """Index tuple of the first True entry in row-major order, if any."""
    if not bad.any():
        return None
    return tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))


def _report(law: str, bad: np.ndarray) -> LawReport:
    failure = _first(bad)
    return LawReport(law, failure is None, failure)


def verify_ortholattice(lat: QuotientLattice) -> list[LawReport]:
    """Involution, De Morgan, complement, and absorption, over all classes."""
    neg, mt, jt = lat.neg_table, lat.meet_table, lat.join_table
    x = np.arange(len(lat))
    col = x[:, None]
    return [
        _report("involution", neg[neg] != x),
        _report("de-morgan", (neg[mt] != jt[np.ix_(neg, neg)])
                | (neg[jt] != mt[np.ix_(neg, neg)])),
        _report("complement", (mt[x, neg] != lat.bottom) | (jt[x, neg] != lat.top)),
        _report("absorption", (mt[col, jt] != col) | (jt[col, mt] != col)),
    ]


def verify_orthomodular(lat: QuotientLattice) -> LawReport:
    """x below y implies y = x join (neg x meet y), over all ordered pairs."""
    x = np.arange(len(lat))
    return _report("orthomodular", lat.order & (
        lat.join_table[x[:, None], lat.meet_table[lat.neg_table]] != x))


def find_distributivity_violation(lat: QuotientLattice) -> tuple[int, int, int] | None:
    """First triple, scanning class indices lexicographically, where
    a meet (b join c) differs from (a meet b) join (a meet c)."""
    mt, jt = lat.meet_table, lat.join_table
    for a in range(len(lat)):   # one a at a time: all triples at once take n^3 memory
        bc = _first(mt[a, jt] != jt[mt[a, :, None], mt[a, None, :]])
        if bc is not None:
            return (a, *bc)
    return None


def _span_ranks(u: np.ndarray, ranks: np.ndarray, i: np.ndarray, j: np.ndarray,
                tol: float) -> np.ndarray:
    """For each pair (i_k, j_k), the number of singular values above ``tol``
    of [B_i | B_j], with B_c the first ``ranks[c]`` columns of ``u[c]``: the
    dimension of the span of the two ranges.

    Pairs with one column count r_i + r_j share one values-only SVD, in
    batches of at most 2**16 matrix entries, which keep its temporaries and
    so the peak memory small at dim 16.  Each batch holds the transposes of
    the [B_i | B_j], which have the same singular values.
    """
    counts = np.zeros(len(i), dtype=int)
    width = ranks[i] + ranks[j]
    for c in np.unique(width):
        picked = np.flatnonzero(width == c)
        t = np.arange(c)
        step = max(1, 2**16 // max(1, c * u.shape[1]))
        for at in range(0, len(picked), step):
            k = picked[at:at + step]
            # row t of pair k: column t of B_i below r_i, else column t - r_i of B_j
            first = t < ranks[i[k], None]
            rows = u[np.where(first, i[k, None], j[k, None]), :,
                     np.where(first, t, t - ranks[i[k], None])]
            counts[k] = np.count_nonzero(np.linalg.svd(rows, compute_uv=False) > tol, axis=1)
    return counts


def verify_isomorphism(lat: QuotientLattice) -> LawReport:
    """The class-to-projector map is an order isomorphism.

    Checks injectivity (projectors distinct beyond eps), that the class
    order is subspace inclusion by ``leq``, that the negation table commutes
    with orthocomplement within the class merge tolerance, and that the
    meet and join tables name intersection and span.  Those two are checked
    by dimension count, not by the ``meet``/``join`` that built the tables:
    with r_i the rank of class i and s_ij the dimension of the span of
    classes i and j, both counted at the rank cutoff, the meet entry M is
    right when M is below i and j and has rank r_i + r_j - s_ij, and the
    join entry J when i and j are below J and J has rank s_ij.  By
    Grassmann's identity, dim(U meet W) + dim(U join W) = dim U + dim W,
    this forces M = U meet W and J = U join W.  Ranks and range bases come
    from one SVD of the class matrices, not from their stored ranks; s_ij
    is one values-only SVD per unordered pair, which checks both
    table[i, j] and table[j, i].  The counterexample names the first failed
    aspect (injective, order, negation, then meet before join at each
    pair), row-major within it.
    """
    n = len(lat)
    stack = np.stack([lat.projector(i).matrix for i in range(n)])
    d = stack.shape[1]
    comp = np.eye(d) - stack
    fail = lambda *at: LawReport("order-isomorphism", False, at)

    # row by row: an (n, n, dim, dim) batch would hold n times the memory
    clash = np.array([_deviation(stack, p) <= lat.eps for p in stack])
    below = np.array([_deviation(stack @ p, p) <= lat.eps for p in stack])
    for aspect, bad in (("injective", np.triu(clash, 1)), ("order", lat.order != below),
                        ("negation", _deviation(stack[lat.neg_table], comp) > lat.class_tol)):
        found = _first(bad)
        if found is not None:
            return fail(aspect, *found)
    # the order check passed, so ``below`` is the class order; u's columns
    # come sorted by singular value, so the first r of them span the range
    tol = _rank_cutoff(lat.eps, d)
    u, s, _ = np.linalg.svd(stack)
    ranks = np.count_nonzero(s > tol, axis=1)
    i, j = np.triu_indices(n)
    span = np.zeros((n, n), dtype=int)
    span[i, j] = span[j, i] = _span_ranks(u, ranks, i, j, tol)
    x = np.arange(n)
    row, col = x[:, None], x[None, :]
    mt, jt = lat.meet_table, lat.join_table
    bad = np.stack([
        ~below[mt, row] | ~below[mt, col] | (ranks[mt] != ranks[row] + ranks[col] - span),
        ~below[row, jt] | ~below[col, jt] | (ranks[jt] != span),
    ], axis=-1)   # (i, j, 0 meet / 1 join)
    found = _first(bad)
    if found is not None:
        return fail(("meet", "join")[found[2]], found[0], found[1])
    return LawReport("order-isomorphism", True)


# ---------------------------------------------------------------------------
# export / import


def export_lattice(lat: QuotientLattice, format: str = "structured"):
    """Render as a Graphviz Hasse diagram (``"dot"``) or a JSON-shaped
    document (``"structured"``) that ``import_lattice`` reads back."""
    if format == "dot":
        return _to_dot(lat)
    if format == "structured":
        return _to_document(lat)
    raise ValueError(f"unknown export format {format!r}")


def _cover_pairs(lat: QuotientLattice):
    """(i, j) with i strictly below j and no class strictly between, row-major."""
    strict = (lat.order & ~np.eye(len(lat), dtype=bool)).astype(int)
    return zip(*np.nonzero(strict & (strict @ strict == 0)))


def _to_dot(lat: QuotientLattice) -> str:
    def quote(label: str) -> str:
        return label.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph quotient_lattice {", "  rankdir=BT;"]
    for e in lat.elements:
        lines.append(f'  n{e.index} [label="{quote(e.label)}"];')
    for i, j in _cover_pairs(lat):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_document(lat: QuotientLattice) -> dict:
    elements = []
    for e in lat.elements:
        elements.append({
            "index": e.index,
            "formula": None if e.formula is None else print_formula(e.formula),
            "synthesized": bool(e.synthesized),
            "members": [print_formula(m) for m in e.members],
            "rank": None if e.projector is None else int(e.projector.rank),
            "projector": None if e.projector is None
            else encode_matrix(e.projector.matrix),
        })
    return {
        "eps": float(lat.eps),
        "class_tol": float(lat.class_tol),
        "bottom": int(lat.bottom),
        "top": int(lat.top),
        "elements": elements,
        "order": [[bool(v) for v in row] for row in lat.order],
        "neg": [int(v) for v in lat.neg_table],
        "meet": [[int(v) for v in row] for row in lat.meet_table],
        "join": [[int(v) for v in row] for row in lat.join_table],
    }


def _entries(document: dict, key: str, kind: type, ndim: int) -> np.ndarray:
    """``document[key]`` as an ``ndim``-dimensional array, if it is one and
    every entry has exactly type ``kind``: a bool is no int, and neither a
    float nor a string is converted."""
    values = np.array(document[key], dtype=object)
    if values.ndim != ndim or not all(type(x) is kind for x in values.flat):
        shape = ("a single", "a list of", "a list of lists of")[ndim]
        raise ModelError(f"lattice {key!r} must be {shape} {kind.__name__}", code="schema")
    return values.astype(kind)


def import_lattice(document) -> QuotientLattice:
    """Rebuild a lattice from the structured export document."""
    if not isinstance(document, dict):
        raise ModelError("lattice document must be a mapping", code="schema")
    try:
        eps, class_tol = document["eps"], document["class_tol"]
        bottom = int(_entries(document, "bottom", int, 0))
        top = int(_entries(document, "top", int, 0))
        raw_elements = document["elements"]
        order = _entries(document, "order", bool, 2)
        neg_table = _entries(document, "neg", int, 1)
        meet_table = _entries(document, "meet", int, 2)
        join_table = _entries(document, "join", int, 2)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed lattice document: {exc}", code="schema") from exc
    if not (_is_tolerance(eps) and _is_tolerance(class_tol)):
        raise ModelError(f"eps ({eps!r}) and class_tol ({class_tol!r}) must be finite "
                         "positive numbers", code="schema")
    eps, class_tol = float(eps), float(class_tol)

    if not isinstance(raw_elements, list):
        raise ModelError("lattice elements must be a list", code="schema")
    n = len(raw_elements)
    if order.shape != (n, n) or meet_table.shape != (n, n) or \
            join_table.shape != (n, n) or neg_table.shape != (n,):
        raise ModelError("lattice tables do not match the element count",
                         code="schema")
    if not (0 <= bottom < n and 0 <= top < n) or any(
            t.min() < 0 or t.max() >= n for t in (neg_table, meet_table, join_table)):
        raise ModelError("lattice document names a class index out of range",
                         code="schema")

    elements = []
    for i, raw in enumerate(raw_elements):
        if not isinstance(raw, dict):
            raise ModelError(f"lattice element {i} must be a mapping", code="schema")
        text = raw.get("formula")
        texts = raw.get("members", [])
        synthesized = raw.get("synthesized", False)
        if not (text is None or isinstance(text, str)) or not isinstance(texts, list) \
                or not all(isinstance(m, str) for m in texts) \
                or not isinstance(synthesized, bool):
            raise ModelError(f"lattice element {i}: formula and members must be "
                             "formula text, synthesized a boolean", code="schema")
        formula = None if text is None else parse_assertive(text)
        projector = None if raw.get("projector") is None else \
            make_projector(decode_matrix(raw["projector"]), eps=eps)
        index, rank = raw.get("index", i), raw.get("rank")
        if type(index) is not int or index != i or rank is not None and (
                projector is None or type(rank) is not int or rank != projector.rank):
            raise ModelError(f"lattice element {i}: index {index!r} or rank {rank!r} "
                             "does not match its place or projector", code="schema")
        members = tuple(parse_assertive(m) for m in texts)
        elements.append(LatticeElement(i, formula, projector, members, synthesized))
    return QuotientLattice(
        elements=elements,
        order=order,
        neg_table=neg_table,
        meet_table=meet_table,
        join_table=join_table,
        bottom=bottom,
        top=top,
        eps=eps,
        class_tol=class_tol,
    )
