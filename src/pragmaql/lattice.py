"""Quotient lattice of quantum formulas under equal pragmatic extension.

``generate_quotient`` builds the lattice: the classes of formulas whose
extensions agree entry-wise within the merge tolerance, their negation,
meet and join tables, the class order read off the meet table (i is below
j when their meet is class i), and bottom/top.  The lattice is checked
against the ortholattice and orthomodular laws, and for order-isomorphism
onto its own projectors: the order by ``leq``, and meets and joins by
dimension count (Grassmann's identity), from the span counts that
generation names entries by: a pair of classes that are neither bottom
nor top forms one product P_i P_j, and spans r_i + r_j - tr(P_i P_j) with
no SVD where the two matrices commute, or else r_i plus the principal-angle
sines between them above the cutoff, the singular values of P_j - P_i P_j,
one values-only SVD per chunk of pairs.  Where that count is
ill-conditioned, by the same bound generation names entries under, an
entry is checked against the kernel's result.  ``export_lattice`` and
``import_lattice`` write and read it.  Tolerances follow the policy in
``pragmaql.hilbert``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ParseError, ProjectorError
from .formula import (
    AQ,
    Assert,
    AssertiveFormula,
    Atom,
    K,
    N,
    print_formula,
)
from .formula import _Printer, _Reader
from .hilbert import (
    DEFAULT_EPS,
    Projector,
    decode_array,
    encode_array,
)
from .hilbert import (
    _class_tol, _deviation, _is_tolerance, _nested, _pair_spans, _projectors, _rank_cutoff,
    _span_dims, _square_matrix,
)
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

# matrix entries per batched temporary: per chunk of pairs, for every
# span-count SVD (dim x dim entries a pair: 64 pairs at dim 16, 1,024 at
# dim 4) and generation's kernel calls (2 dim x dim: 32 and 512 pairs), and
# per class-lookup temporary.  It bounds the peak memory at dim 16:
# generation chunks four times as large were no faster there but tripled
# its peak traced memory
_BATCH_ENTRIES = 2**14


def generate_quotient(model: Model, atoms, depth: int) -> QuotientLattice:
    """Build the quotient lattice generated by ``atoms`` up to ``depth``.

    Rounds apply N to each class and K and AQ to each pair of classes until
    one finds no new class (``_closure``).  Rounds 1 to ``depth`` enumerate:
    every result joins its class's members (``_members``), and a repeated
    atom is ignored.  Later rounds only close the set, and a class they make
    is ``synthesized``.  Past ``MAX_CLASSES`` classes generation raises
    ``ModelError(code="not-saturated")``; a ``class_tol`` that merges the
    zero or the identity projector into another class leaves no bottom or
    top: ``ModelError(code="coarse-tolerance")``.
    """
    if isinstance(atoms, str):
        raise TypeError("atoms must be a sequence of atom names, not one string")
    if isinstance(depth, bool) or not isinstance(depth, int):
        raise TypeError(f"depth must be an int, got {type(depth).__name__}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    atoms = list(dict.fromkeys(str(a) for a in atoms))
    if not atoms:
        raise ValueError("need at least one atom")
    initial = [model.atom_projector(a) for a in atoms]
    d, eps = model.dim, model.eps
    stack, ranks, neg, meet_table, join_table, atom_class = _closure(initial, d, eps, depth)
    members, operands, enumerated = _members(atoms, atom_class, neg, meet_table, join_table,
                                             depth)
    n = len(ranks)
    elements = [LatticeElement(i, operands[i], Projector(d, stack[i], ranks[i]),
                               tuple(members[i]), i >= enumerated) for i in range(n)]
    return QuotientLattice(elements=elements, order=meet_table == np.arange(n)[:, None],
                           neg_table=neg, meet_table=meet_table, join_table=join_table,
                           bottom=ranks.index(0), top=ranks.index(d), eps=eps,
                           class_tol=_class_tol(eps))


def _closure(initial: list[Projector], d: int, eps: float, depth: int):
    """``(matrices, ranks, neg, meet, join, atom_class)``: the classes that
    ``initial`` generates, their symmetric tables and the class of each of
    ``initial``, with no formulas.

    A result's class is the first within ``class_tol``, made if none is, so
    indices follow the order of the results.  A round takes N of each class
    new in the round before, then the meets and joins of the pairs i < j
    with j new, row-major (semi-naive): rounds 1 to ``depth`` all meets
    before all joins, later rounds each pair's meet, then its join.  Each
    pair's span dimension s_ij (``_pair_span_dims``: from the product of the
    two class matrices, and a row of a values-only SVD for a pair of classes
    that are neither bottom nor top and whose matrices do not commute, none
    for any other) names most entries by Grassmann's identity: s_ij = r_i
    makes the join i and the meet j, s_ij = r_j the reverse, r_i + r_j the
    meet the zero matrix and dim the join the identity.  The counts also order the classes: c is below i when
    s_ci = r_i, and the order grows with the class store, with one margin
    per pair.  Of the other entries, the order names the meet of i and j
    as the one class made before the round of rank r_i + r_j - s_ij below
    both, and the join as the one of rank s_ij above both, where a
    Davis-Kahan bound puts the kernel's result within the cutoff of it
    (``ordered``).  The kernel (``pragmaql.hilbert._pair_spans``, chunks of
    ``_BATCH_ENTRIES // (2 dim**2)`` pairs) takes the entries neither names
    and those whose class rounding at the cutoff could move (``named``);
    past a cutoff of ``class_tol`` (dim > 100) it takes all.  So every new
    class is the kernel's matrix or the exact zero or identity, and every
    entry the first class of the kernel's result.

    The N of a round's new classes are looked up in one ``_first_hits``
    batch, and only its misses go through ``record``, in class order.  In
    each chunk, the entries of each step whose class is known when the
    chunk begins (named by count or by the order, a settled bound, or a
    kernel result that ``_first_hits`` finds among the classes made before
    the chunk) are written in one assignment.  The rest go through
    ``record`` pair by pair, the meet before the join: kernel results near
    no earlier class, and bottom and top entries while ``settled`` is -1.
    Each is looked up among the classes made since the chunk began, as a
    pair-by-pair loop would.  Tolerances and cutoffs are those of
    ``pragmaql.hilbert``.
    """
    tol, cutoff = _class_tol(eps), _rank_cutoff(eps, d)
    chunk = max(1, _BATCH_ENTRIES // (2 * d * d))
    # the class store: projector matrices, ranks and crowded flags, the
    # span-count order of the classes: below[a, b] when a's range is in b's
    # by count, and each pair's margin (``_pair_span_dims``), and the meet (0)
    # and join (1) tables at i < j, all grown together
    stack = np.empty((16, d, d), dtype=np.complex128)
    ranks = np.empty(len(stack), dtype=int)
    crowded = np.empty(len(stack), dtype=bool)
    below = np.zeros((len(stack),) * 2, dtype=bool)
    margin = np.zeros((len(stack),) * 2)
    tables = np.zeros((2,) + (len(stack),) * 2, dtype=int)
    size, neg = 0, []
    # the meet's bottom and the join's top as the rank count names them, and
    # each one's first class if it is the same at tol -/+ cutoff: -1 while no
    # class is within tol + cutoff, -2 where rounding could move it
    bounds = np.stack([np.zeros((d, d)), np.eye(d)]).astype(np.complex128)
    settled = np.full(2, -1)

    def record(matrix: np.ndarray, rank: int, searched: int) -> int:
        """The first class within ``tol`` of ``matrix``, made if none is;
        none of the first ``searched`` classes is."""
        nonlocal stack, ranks, crowded, below, margin, tables, size
        n = size
        off = _deviation(stack[:n], matrix)   # one deviation for the search and the flag
        later = np.flatnonzero(off[searched:] <= tol)
        if later.size:
            return searched + int(later[0])
        if n == MAX_CLASSES:
            raise ModelError(f"generation did not saturate: round {rounds} found class "
                             f"{n + 1}, past the budget of {MAX_CLASSES}",
                             code="not-saturated")
        if n == len(stack):
            stack, ranks, crowded = (np.concatenate([a, np.empty_like(a)])
                                     for a in (stack, ranks, crowded))
            below, margin = (np.pad(a, (0, n)) for a in (below, margin))
            tables = np.pad(tables, ((0, 0), (0, n), (0, n)))
        stack[n], ranks[n] = matrix, rank
        # the kernel's copy of a class is off it by up to the cutoff, so it
        # may lie within tol of an earlier class when this one is crowded
        crowded[n] = bool((off <= tol + cutoff).any())
        if (settled == -1).any():
            near = _deviation(bounds, matrix)
            first = (settled == -1) & (near <= tol + cutoff)
            settled[first] = np.where(near[first] <= tol - cutoff, n, -2)
        size = n + 1
        return n

    def named(meet: bool, i: np.ndarray, j: np.ndarray, span: np.ndarray):
        """(decided, hit): whether each pair's span dimension names its meet
        or join, and the class it names.  r_i and r_j name an operand unless
        it is crowded; of two classes with one range the later is crowded,
        and the kernel's result lies within cutoff / sqrt 2 of the earlier.
        r_i + r_j and dim name the bound ``settled`` holds unless it is -2."""
        ri, rj = ranks[i], ranks[j]
        bound = settled[0 if meet else 1]
        decided = (span == (ri + rj if meet else d)) & (bound > -2)
        hit = np.full(len(i), bound)
        for r, operand in ((ri, j if meet else i), (rj, i if meet else j)):
            rule = (span == r) & ~crowded[operand]
            hit = np.where(rule, operand, hit)
            decided |= rule
        return decided, hit

    def ordered(meet: bool, i: np.ndarray, j: np.ndarray, span: np.ndarray, count: int):
        """(decided, hit): whether the span-count order of the first
        ``count`` classes names each pair's meet or join, and the class c it
        names: of rank r_i + r_j - s_ij below i and j for a meet, of rank
        s_ij above both for a join.  Neither an inclusion (the operand
        rules') nor a bottom or top entry (``settled``'s) is named, nor one
        that more than one class fits or that a crowded class fits.  The
        kernel's result lies within about sqrt(alpha_ci² + alpha_cj²) /
        sqrt(1 - cos theta_min) of c (Davis and Kahan, 1970: the sines that
        the count dropped over the smallest angle that it kept), and c is
        taken only where that is at most the cutoff."""
        ri, rj = ranks[i], ranks[j]
        target = ri + rj - span if meet else span
        decided = (span >= 0) & (span != ri) & (span != rj) & (target > 0) & (target < d)
        hit = np.zeros(len(i), dtype=int)
        rows = np.flatnonzero(decided)
        step = max(1, _BATCH_ENTRIES // count)
        for at in range(0, len(rows), step):
            k = rows[at:at + step]
            # (pair, class): the classes of the target rank on the right side of both
            if meet:
                fits = below[:count, i[k]].T & below[:count, j[k]].T
            else:
                fits = below[i[k], :count] & below[j[k], :count]
            fits &= ranks[:count] == target[k, None]
            hit[k] = fits.argmax(axis=1)
            decided[k] = fits.sum(axis=1) == 1
        decided &= ~crowded[hit] & (np.hypot(margin[hit, i], margin[hit, j])
                                    <= cutoff * margin[i, j])
        return decided, hit

    def fill(steps, i: np.ndarray, j: np.ndarray, span: np.ndarray, count: int) -> None:
        """Write the table entries of ``steps`` (0 meet, 1 join) for the
        pairs (i_k, j_k) of one chunk.  An entry whose class is already
        known is written with the others of its step in one assignment; the
        rest go through ``record``, pair by pair and meet before join."""
        n = size
        pending = []   # (pair, step, matrix, rank)
        for step in steps:
            meet = step == 0
            decided, hits = named(meet, i, j, span)
            rest = np.flatnonzero(~decided)
            rule, c = ordered(meet, i[rest], j[rest], span[rest], count)
            hits[rest[rule]] = c[rule]
            rest = rest[~rule]
            missed = {}   # the kernel's results that no class of the first n is near
            if rest.size:
                mats, rks = _pair_spans(stack[i[rest]], stack[j[rest]], eps, meet)
                hits[rest] = found = _first_hits(stack[:n], mats, tol)
                missed = {int(rest[k]): (mats[k], int(rks[k]))
                          for k in np.flatnonzero(found < 0)}
            known = hits >= 0
            tables[step, i[known], j[known]] = hits[known]
            bound = (bounds[step], step * d)
            pending += [(k, step, *missed.get(k, bound)) for k in np.flatnonzero(~known).tolist()]
        pending.sort(key=lambda entry: entry[:2])
        for k, step, matrix, rank in pending:
            tables[step, i[k], j[k]] = record(matrix, rank, n)

    rounds, seen = 0, 0   # classes [0, seen) were already combined with each other
    atom_class = [record(p.matrix, p.rank, 0) for p in initial]
    for rounds in itertools.count(1):
        count = size
        if seen == count:
            break
        comp = np.eye(d) - stack[seen:count]
        found = _first_hits(stack[:count], comp, tol)
        for k in np.flatnonzero(found < 0).tolist():
            found[k] = record(comp[k], d - int(ranks[seen + k]), count)
        neg += found.tolist()
        pi, pj = np.triu_indices(count, 1)
        pi, pj = pi[pj >= seen], pj[pj >= seen]
        # -1 names no entry: past a cutoff of tol the kernel's copy of a
        # class may lie beyond tol of it
        span = np.full(len(pi), -1)
        if cutoff <= tol:
            span, alpha, gap = _pair_span_dims(stack, ranks, pi, pj, eps)
            # the margin of an inclusion is alpha, of any other pair the gap
            up, down = span == ranks[pj], span == ranks[pi]
            below[pi, pj], below[pj, pi] = up, down
            margin[pi, pj] = margin[pj, pi] = np.where(up | down, alpha, gap)
        for steps in ([0], [1]) if rounds <= depth else [[0, 1]]:
            for at in range(0, len(pi), chunk):
                k = slice(at, at + chunk)
                fill(steps, pi[k], pj[k], span[k], count)
        seen = count

    ranks = ranks[:size].tolist()
    for bound, rank in (("zero", 0), ("identity", d)):
        if rank not in ranks:
            raise ModelError(f"no class has rank {rank}: class_tol {tol:.3g} merged the "
                             f"{bound} projector into another class", code="coarse-tolerance")
    meet_table, join_table = (_symmetric_table(t[:size, :size]) for t in tables)
    return stack[:size], ranks, np.array(neg, dtype=int), meet_table, join_table, atom_class


def _members(atoms: list[str], atom_class: list[int], neg: np.ndarray, meet: np.ndarray,
             join: np.ndarray, depth: int):
    """``(members, operands, enumerated)``: each class's member formulas and
    operand, and the class count when enumeration ended.

    ``_closure``'s rounds are replayed on its tables alone, in its order:
    the atoms' |- a, then per round N of each new class and K and AQ of each
    pair with one, so a table entry equal to the class count is a new class,
    whose first member is its operand.  Rounds 1 to ``depth`` enumerate:
    each ordered pair (i, j) with a new class, (i, i) included, is combined
    once, and every result joins its class.  When they end, or a round finds
    no class, each operand becomes its class's shortlex-least member, and
    later rounds add only the formulas of new classes.
    """
    neg, meet, join = neg.tolist(), meet.tolist(), join.tolist()
    members: list[list[AssertiveFormula]] = []
    operands: list[AssertiveFormula] = []   # first members, then representatives
    enumerated = None

    def add(c: int, formula: AssertiveFormula) -> None:
        if c < len(members):
            members[c].append(formula)
        else:
            members.append([formula])
            operands.append(formula)

    # shortlex: plain lexicographic order would favor longer members, since
    # "(" sorts below every other formula character.  Members share their
    # operands, which one printer prints once
    printed = _Printer()
    shortlex = lambda f: (len(printed(f)), printed(f))
    for a, c in zip(atoms, atom_class):
        add(c, Assert(Atom(a)))
    seen = 0
    for rounds in itertools.count(1):
        count = len(members)
        if enumerated is None and (rounds > depth or seen == count):
            enumerated = count
            operands[:] = [min(m, key=shortlex) for m in members]
        if seen == count:
            break
        # past enumeration only a new class takes a formula, and no (j, i)
        # or (i, i) entry is new
        enumerating = rounds <= depth
        for i in range(seen, count):
            if enumerating or neg[i] == len(members):
                add(neg[i], N(operands[i]))
        for steps in ([(K, meet)], [(AQ, join)]) if enumerating else [[(K, meet), (AQ, join)]]:
            for i in range(count):
                for j in range(seen if i < seen else 0, count):
                    for connective, table in steps:
                        if enumerating or table[i][j] == len(members):
                            add(table[i][j], connective(operands[i], operands[j]))
        seen = count
    return members, operands, enumerated


def _pair_span_dims(stack: np.ndarray, ranks: np.ndarray, i, j, eps: float):
    """``(span, alpha, gap)``: the span dimension of the ranges of classes
    i_k and j_k for each k, from their matrices ``stack`` and their ranks,
    and its margins (see ``pragmaql.hilbert._span_dims``).  A pair with a
    rank-0 or rank-dim class spans r_i + r_j or dim, with alpha 0 and gap 1,
    and takes no product.  The others go to ``_span_dims`` in chunks of
    ``_BATCH_ENTRIES // dim**2`` pairs: one product P_i P_j each, and one row
    of a values-only SVD each for those whose matrices do not commute."""
    d = stack.shape[-1]
    ri, rj = ranks[i], ranks[j]
    span = np.where((ri == d) | (rj == d), d, ri + rj)
    alpha, gap = np.zeros(len(span)), np.ones(len(span))
    rows = np.flatnonzero((ri > 0) & (ri < d) & (rj > 0) & (rj < d))
    chunk = max(1, _BATCH_ENTRIES // (d * d))
    for at in range(0, len(rows), chunk):
        k = rows[at:at + chunk]
        span[k], alpha[k], gap[k] = _span_dims(stack[i[k]], ri[k], stack[j[k]], rj[k], eps)
    return span, alpha, gap


def _first_hits(stack: np.ndarray, mats: np.ndarray, tol: float) -> np.ndarray:
    """For each of ``mats``, the first index into ``stack`` within ``tol`` by
    max-entry distance, or -1: the ``_deviation`` test ``record`` makes.

    Only pairs whose diagonals lie within ``tol`` can be within it, so the
    diagonals are compared first and the full matrices only for those
    pairs; each temporary holds at most ``_BATCH_ENTRIES`` entries.
    """
    hits = np.full(len(mats), -1)
    n, d = len(stack), stack.shape[1]
    diag = np.diagonal(stack, axis1=1, axis2=2)
    step = max(1, _BATCH_ENTRIES // max(1, n * d))
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for at in range(0, len(mats), step):
        part = np.diagonal(mats[at:at + step], axis1=1, axis2=2)
        r, c = np.nonzero(_deviation(diag[None], part[:, None], axes=1) <= tol)
        rows.append(r + at)
        cols.append(c)
    # row-major, so each result's candidates come in class order
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    close = np.empty(len(rows), dtype=bool)
    step = _BATCH_ENTRIES // (d * d) or 1
    for at in range(0, len(rows), step):
        k = slice(at, at + step)
        close[k] = _deviation(stack[cols[k]], mats[rows[k]]) <= tol
    rows, cols = rows[close], cols[close]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    hits[rows[first]] = cols[first]
    return hits


def _symmetric_table(upper: np.ndarray) -> np.ndarray:
    """The table with ``upper[i, j]`` at (i, j) and (j, i) for i < j, and i at (i, i)."""
    table = np.triu(upper, 1)
    table += table.T
    np.fill_diagonal(table, np.arange(len(table)))
    return table


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
    this forces M = U meet W and J = U join W.  Ranks come from one full
    SVD of the class matrices, not from their stored ranks or from
    generation, and so do the projectors V Vᴴ onto each class's leading
    singular vectors V: idempotent to rounding, as generation's classes
    are, where an imported matrix may be off by the tolerance policy's
    eps * dim, which the count would read as an angle; s_ij from
    generation's count (``_pair_span_dims``) on those: r_i + r_j or dim for a pair with the bottom or top class,
    r_i + r_j - tr(P_i P_j) for a pair whose matrices commute, and one row
    of a values-only SVD of P_j - P_i P_j for every other unordered pair,
    which checks both table[i, j] and table[j, i].  The count is
    trusted as far as generation's order rule trusts it: an entry that is
    neither operand nor of rank 0 or dim passes by count only where
    sqrt(alpha_Mi² + alpha_Mj²) / sqrt(1 - cos theta_min) is at most the
    cutoff (see ``_span_dims``); any other is compared with the kernel's
    result (``_pair_spans``) within ``class_tol``.  The
    counterexample names the first failed aspect (injective, order,
    negation, then meet before join at each pair), row-major within it.
    At a rank cutoff of 1 or more no singular value of a projector exceeds
    it, so every class would read as rank 0 and the meet and join checks
    could not fail: the report then fails with ``("coarse-tolerance",)``.
    A class with no projector, which an imported document may leave, fails
    it with ``("no-projector", i)`` for the first such class i.
    """
    n = len(lat)
    missing = [e.index for e in lat.elements if e.projector is None]
    if missing:
        return LawReport("order-isomorphism", False, ("no-projector", missing[0]))
    stack = np.stack([lat.projector(i).matrix for i in range(n)])
    d = stack.shape[1]
    if _rank_cutoff(lat.eps, d) >= 1:
        return LawReport("order-isomorphism", False, ("coarse-tolerance",))
    comp = np.eye(d) - stack
    fail = lambda *at: LawReport("order-isomorphism", False, at)

    # in chunks of rows, each (rows, n, dim, dim) temporary within the budget
    clash, below = np.empty((2, n, n), dtype=bool)
    step = max(1, _BATCH_ENTRIES // (n * d * d))
    for at in range(0, n, step):
        p = stack[at:at + step, None]
        clash[at:at + step] = _deviation(stack, p) <= lat.eps
        below[at:at + step] = _deviation(stack @ p, p) <= lat.eps
    for aspect, bad in (("injective", np.triu(clash, 1)), ("order", lat.order != below),
                        ("negation", _deviation(stack[lat.neg_table], comp) > lat.class_tol)):
        found = _first(bad)
        if found is not None:
            return fail(aspect, *found)
    # the order check passed, so ``below`` is the class order
    cutoff = _rank_cutoff(lat.eps, d)
    u, s, _ = np.linalg.svd(stack)
    ranks = np.count_nonzero(s > cutoff, axis=1)
    v = np.where(np.arange(d) < ranks[:, None, None], u, 0)
    exact = v @ v.conj().swapaxes(1, 2)
    i, j = np.triu_indices(n, 1)
    span, alpha, gap = np.diag(ranks), np.zeros((n, n)), np.ones((n, n))
    counts = _pair_span_dims(exact, ranks, i, j, lat.eps)
    for table, values in zip((span, alpha, gap), counts):
        table[i, j] = table[j, i] = values
    x = np.arange(n)
    row, col = x[:, None], x[None, :]
    mt, jt = lat.meet_table, lat.join_table
    bad = np.stack([
        ~below[mt, row] | ~below[mt, col] | (ranks[mt] != ranks[row] + ranks[col] - span),
        ~below[row, jt] | ~below[col, jt] | (ranks[jt] != span),
    ], axis=-1)   # (i, j, 0 meet / 1 join)
    # an entry that names neither operand nor a bottom or top class is
    # decided by count only within generation's order-rule bound; past it,
    # by its distance from the kernel's result
    for k, table in enumerate((mt, jt)):
        rank = ranks[table]
        loose = (table != row) & (table != col) & (rank > 0) & (rank < d) & (
            np.hypot(alpha[table, row], alpha[table, col]) > cutoff * gap)
        a, b = np.nonzero(loose)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        chunk = max(1, _BATCH_ENTRIES // (2 * d * d))
        for at in range(0, len(a), chunk):
            e = slice(at, at + chunk)
            mats, _ = _pair_spans(exact[lo[e]], exact[hi[e]], lat.eps, k == 0)
            bad[a[e], b[e], k] = _deviation(mats, stack[table[a[e], b[e]]]) > lat.class_tol
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
    printed = _Printer()   # generated members share operands, printed once
    elements = []
    for e in lat.elements:
        elements.append({
            "index": e.index,
            "formula": None if e.formula is None else printed(e.formula),
            "synthesized": bool(e.synthesized),
            "members": [printed(m) for m in e.members],
            "rank": None if e.projector is None else int(e.projector.rank),
            "projector": None if e.projector is None
            else encode_array(e.projector.matrix),
        })
    return {
        "eps": float(lat.eps),
        "class_tol": float(lat.class_tol),
        "bottom": int(lat.bottom),
        "top": int(lat.top),
        "elements": elements,
        "order": np.asarray(lat.order, dtype=bool).tolist(),
        "neg": np.asarray(lat.neg_table, dtype=int).tolist(),
        "meet": np.asarray(lat.meet_table, dtype=int).tolist(),
        "join": np.asarray(lat.join_table, dtype=int).tolist(),
    }


def _entries(document: dict, key: str, kind: type, ndim: int) -> np.ndarray:
    """``document[key]`` as an ``ndim``-dimensional array, if it is one and
    every entry has exactly type ``kind``: a bool is no int, and neither a
    float nor a string is converted."""
    values = _nested(document[key], ndim, lambda t: t is kind)
    if values is None:
        shape = ("a single", "a list of", "a list of lists of")[ndim]
        raise ModelError(f"lattice {key!r} must be {shape} {kind.__name__}", code="schema")
    return values.astype(kind)


def import_lattice(document) -> QuotientLattice:
    """Rebuild a lattice from the structured export document.  A malformed
    one is a ``ModelError``, which names the first bad element and keeps its
    ``ProjectorError``'s code (``schema`` for formula text).

    Formula texts are read by one ``formula._Reader`` per document: each
    distinct text once, and a canonical one from the texts of its operands,
    which the document holds, so a generated document sends only its atom
    texts to the parser; every formula is ``parse_assertive``'s, and a text
    that does not parse raises the parser's error.  The element projectors
    are decoded by one call when all are well formed, and checked in one
    batched pass per dimension, before the elements are read; each
    element's error, from its formula, its projector, then its members, is
    raised at its turn, as a check element by element would, and no element
    after the first bad one is read.  A document whose rank cutoff is 1 or
    more, at which every projector has rank 0, is a
    ``ModelError(code="coarse-tolerance")``.  Last, the formulas are checked
    against the classes and tables (``_check_formulas``): a member that its
    class and the tables contradict is a ``ModelError(code="schema")`` that
    names the first such element and member.
    """
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

    # every projector is decoded and checked before any formula is read, and
    # its error waits for its element's turn, so the first bad element is named
    keys = [i for i, raw in enumerate(raw_elements)
            if isinstance(raw, dict) and raw.get("projector") is not None]
    projectors, errors = _element_projectors(
        keys, [raw_elements[i]["projector"] for i in keys], eps)

    parse = _Reader()   # members name their operands by other texts of the document
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
        try:
            formula = None if text is None else parse(text)
            if i in errors:
                raise errors[i]
            projector = projectors.get(i)
            members = tuple(map(parse, texts))
        except ParseError as exc:
            raise ModelError(f"lattice element {i}: {exc}", code="schema") from exc
        except ProjectorError as exc:
            raise ModelError(f"lattice element {i}: {exc}", code=exc.code) from exc
        index, rank = raw.get("index", i), raw.get("rank")
        if type(index) is not int or index != i or rank is not None and (
                projector is None or type(rank) is not int or rank != projector.rank):
            raise ModelError(f"lattice element {i}: index {index!r} or rank {rank!r} "
                             "does not match its place or projector", code="schema")
        elements.append(LatticeElement(i, formula, projector, members, synthesized))
    dims = sorted({e.projector.dim for e in elements if e.projector is not None})
    if len(dims) > 1:
        raise ModelError(f"lattice element projectors differ in dimension: {dims}",
                         code="schema")
    cutoff = _rank_cutoff(eps, dims[0]) if dims else 0.0
    if cutoff >= 1:
        raise ModelError(f"rank cutoff {cutoff:.3g} (eps {eps:.3g} at dim {dims[0]}) is 1 "
                         "or more: every projector reads as rank 0", code="coarse-tolerance")
    _check_formulas(elements, raw_elements, neg_table, meet_table, join_table)
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


def _element_projectors(keys: list, entries: list, eps: float) -> tuple[dict, dict]:
    """The ``make_projector`` result of the matrix each of ``entries``
    encodes, by its key, and the ``ProjectorError`` of each that is no
    square, finite projector.

    One ``decode_array`` call decodes them all when they are finite square
    matrices of one dimension.  Otherwise each is decoded on its own, so
    that each bad one keeps its own error.  The matrices of each dimension
    are checked in one batched pass."""
    try:
        stack = decode_array(entries, 3)
    except ProjectorError:
        stack = None
    errors = {}
    if stack is not None and stack.shape[1] == stack.shape[2] and np.isfinite(stack).all():
        groups = [(keys, stack)]
    else:
        by_dim: dict[int, list] = {}   # (key, matrix) pairs
        for i, entry in zip(keys, entries):
            try:
                m = _square_matrix(decode_array(entry, 2))
                by_dim.setdefault(len(m), []).append((i, m))
            except ProjectorError as exc:
                errors[i] = exc
        groups = [([i for i, _ in pairs], np.stack([m for _, m in pairs]))
                  for pairs in by_dim.values()]
    projectors = {}
    for group, matrices in groups:
        made, bad = _projectors(matrices, eps)
        projectors.update(zip(group, made))
        errors.update((group[k], exc) for k, exc in bad.items())
    return projectors, errors


def _check_formulas(elements: list[LatticeElement], raw_elements: list, neg: np.ndarray,
                    meet: np.ndarray, join: np.ndarray) -> None:
    """Raise ``ModelError(code="schema")`` at the first element, member by
    member and then its formula, that its class and the tables contradict.

    A member is ``(|- a)`` for an atom a, or N, K or AQ of members of some
    class, and lies in no other class; ``N(x)`` lies in the negation of x's
    class, ``(x K y)`` in the meet entry of x's and y's classes and ``(x AQ
    y)`` in the join entry.  The formula is one of the members.  Elements
    with no formula are skipped.  Formulas equal to a member are the
    member's node, as ``formula._Reader`` returns them, so each is found by
    its identity.
    """
    checked = [e for e in elements if e.formula is not None]
    # id(member) -> the first class to list it
    classes = {id(m): e.index for e in reversed(checked) for m in reversed(e.members)}
    owner = classes.get
    neg, meet, join = neg.tolist(), meet.tolist(), join.tolist()
    for e in checked:
        c = e.index
        for k, m in enumerate(e.members):
            kind, fault = type(m), None
            if classes[id(m)] != c:
                fault = f"is a member of class {classes[id(m)]} too"
            elif kind is N:
                x = owner(id(m.operand))
                if x is None:
                    fault = "has an operand that no class lists as a member"
                elif neg[x] != c:
                    fault = f"lies in class {neg[x]}, the negation of class {x}"
            elif kind is K or kind is AQ:
                x, y = owner(id(m.left)), owner(id(m.right))
                table, entry = (meet, "meet") if kind is K else (join, "join")
                if x is None or y is None:
                    fault = "has an operand that no class lists as a member"
                elif table[x][y] != c:
                    fault = f"lies in class {table[x][y]}, the {entry} of classes {x} and {y}"
            elif kind is not Assert or type(m.radical) is not Atom:
                fault = "is outside the quantum fragment"
            if fault is not None:
                text = raw_elements[c]["members"][k]
                raise ModelError(f"lattice element {c}: member {text!r} {fault}", code="schema")
        if owner(id(e.formula)) != c:
            raise ModelError(f"lattice element {c}: formula {raw_elements[c]['formula']!r} is "
                             "not one of its members", code="schema")
