"""Partial truth, empirical justification, and the extension map.

Truth side: a radical formula has a truth value in a state only when
every atom in it names a property whose probability in that state is 0
or 1 (within eps, see ``pragmaql.hilbert``); evaluation is classical there.

Justification side: every quantum assertive formula denotes a closed
subspace (its *pragmatic extension*), and the formula is justified in a
state exactly when the state's ray lies inside that subspace.  Elementary
assertions land on the atom's property; ``N``, ``K``, ``AQ`` land on
orthocomplement, intersection, and closed span.  Those form an
orthomodular lattice, whose laws decide some ``K`` and ``AQ`` nodes with
no SVD: x K x = x AQ x = x, x K N x = 0, x AQ N x = 1, 1 K y = y and
1 AQ y = 1.

Formulas with ``A``, ``C`` or ``E``, or with molecular radicals under the
assertion sign, have no extension and are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

import numpy as np

from .errors import ModelError, NonQuantumFormulaError
from .formula import (
    And,
    Assert,
    AssertiveFormula,
    Atom,
    Iff,
    Implies,
    K,
    N,
    Not,
    Or,
    RadicalFormula,
    parse_assertive,
    parse_radical,
    print_formula,
    quantum_fragment_check,
    radical_atoms,
)
from .hilbert import Projector, StateVector, contains_state, leq, ortho
from .hilbert import (_check_same_dim, _contains_states, _join, _meet, _outer,
                      _random_states, _with_bases)
from .model import Finding, Model, ValidationReport, validate_model

__all__ = [
    "TruthValue3", "JustificationValue", "Overlay", "load_overlay",
    "born_probability", "classify_property", "sigma",
    "pragmatic_extension", "justify", "precedes",
    "check_cc", "validate_overlay",
]


class TruthValue3(Enum):
    """Partial truth value.

    UNDEFINED marks the absence of a truth value in the given state; it
    is not a third truth value.
    """

    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "Undefined"

    def __str__(self) -> str:
        return self.value


class JustificationValue(Enum):
    """J: an empirical proof exists; U: none exists (not: refuted)."""

    J = "J"
    U = "U"

    def __str__(self) -> str:
        return self.value


StateLike = Union[str, StateVector]
PropertyLike = Union[str, Projector]
RadicalLike = Union[str, RadicalFormula]
AssertiveLike = Union[str, AssertiveFormula]


def _resolve_state(model: Model, state: StateLike) -> StateVector:
    if isinstance(state, StateVector):
        _check_same_dim(state, model)
        return state
    return model.state(state)


def _resolve_property(model: Model, prop: PropertyLike) -> Projector:
    if isinstance(prop, Projector):
        _check_same_dim(prop, model)
        return prop
    return model.projector(prop)


def _resolve_radical(radical: RadicalLike) -> RadicalFormula:
    return parse_radical(radical) if isinstance(radical, str) else radical


def _resolve_quantum(formula: AssertiveLike) -> AssertiveFormula:
    """The formula, parsed if it is a text, once it passes the fragment check."""
    f = parse_assertive(formula) if isinstance(formula, str) else formula
    report = quantum_fragment_check(f)
    if not report.is_quantum:
        raise NonQuantumFormulaError(
            f"formula is outside the quantum fragment: {print_formula(f)}",
            violations=report.violations,
        )
    return f


# ---------------------------------------------------------------------------
# truth side


def born_probability(model: Model, state: StateLike, prop: PropertyLike) -> float:
    """Probability <psi, P psi> for the state's ray, clamped to [0, 1]."""
    psi = _resolve_state(model, state).amplitudes
    p = _resolve_property(model, prop)
    value = float(np.real(np.vdot(psi, p.matrix @ psi)))
    return min(1.0, max(0.0, value))


def classify_property(model: Model, state: StateLike,
                      prop: PropertyLike) -> TruthValue3:
    """TRUE at probability 1, FALSE at probability 0 (within model.eps),
    UNDEFINED anywhere in between."""
    p = born_probability(model, state, prop)
    if _probability_one(p, model.eps):
        return TruthValue3.TRUE
    if p <= model.eps:
        return TruthValue3.FALSE
    return TruthValue3.UNDEFINED


def _probability_one(p, eps: float):
    """The TRUE test, |p - 1| <= eps, of a probability or an array of them."""
    return abs(p - 1.0) <= eps


def sigma(model: Model, state: StateLike, radical: RadicalLike) -> TruthValue3:
    """Partial truth of a radical in a state.

    Undefined unless every atom of the radical is objective (classifies
    TRUE or FALSE) in the state; classical recursion over the connectives
    otherwise.
    """
    r = _resolve_radical(radical)
    props = {name: model.atom_projector(name) for name in radical_atoms(r)}
    env: dict[str, bool] = {}
    for name, p in props.items():
        value = classify_property(model, state, p)
        if value is TruthValue3.UNDEFINED:
            return TruthValue3.UNDEFINED
        env[name] = value is TruthValue3.TRUE
    return TruthValue3.TRUE if _classical(r, env) else TruthValue3.FALSE


def _classical(r: RadicalFormula, env: dict[str, bool]) -> bool:
    if isinstance(r, Atom):
        return env[r.name]
    if isinstance(r, Not):
        return not _classical(r.operand, env)
    a = _classical(r.left, env)
    b = _classical(r.right, env)
    if isinstance(r, And):
        return a and b
    if isinstance(r, Or):
        return a or b
    if isinstance(r, Implies):
        return (not a) or b
    if isinstance(r, Iff):
        return a == b
    raise TypeError(f"not a radical formula: {r!r}")


# ---------------------------------------------------------------------------
# justification side


def pragmatic_extension(model: Model, formula: AssertiveLike) -> Projector:
    """The closed subspace of states in which the formula is justified."""
    return _projector(_extension(model, _resolve_quantum(formula), {}))


def _extension(model: Model, f: AssertiveFormula, memo: dict) -> tuple:
    """The extension of the quantum formula ``f`` as (key, core, negated),
    each distinct subformula evaluated once, left to right.

    The core is an atom's projector or the (range, complement) bases of a
    K or AQ result, and ``negated`` selects the core's orthocomplement, so
    N swaps the two and N N g evaluates as g.  An atom is keyed by its
    name, N g by (N, g's key).  A K or AQ that the orthomodular laws decide
    from its operands' keys and ranks (``_by_laws``) is that triple, with
    no SVD.  ``memo`` lives for one call and holds each other K and AQ
    evaluated in it, keyed by its class and its operands' keys; a new
    entry's key is the int count of entries before it.  A computed result
    of rank 0 or dim keeps its computed bases and its int key.
    """
    if isinstance(f, Assert):
        return f.radical.name, model.atom_projector(f.radical.name), False
    if isinstance(f, N):
        key, core, negated = _extension(model, f.operand, memo)
        return key[1] if negated else (N, key), core, not negated
    x, y = _extension(model, f.left, memo), _extension(model, f.right, memo)
    meet = isinstance(f, K)
    decided = _by_laws(meet, x, y, model.dim)
    if decided is not None:
        return decided
    key = (f.__class__, x[0], y[0])
    entry = memo.get(key)
    if entry is None:
        bx, by = _range(x), _range(y)
        if meet:
            entry = (len(memo), _meet(bx, by, model.eps), False)
        else:   # AQ: the derived disjunction lands on the closed span
            entry = (len(memo), _join(bx, by, model.eps), False)
        memo[key] = entry
    return entry


def _by_laws(meet: bool, x: tuple, y: tuple, dim: int) -> tuple | None:
    """The K (``meet`` true) or AQ of the ``_extension`` triples ``x`` and
    ``y`` where an orthomodular law decides it from their keys and ranks,
    else None.

    x K x = x AQ x = x, key included; x K N x is the zero subspace and
    x AQ N x the whole space; with an operand of rank 0, AQ is the other
    operand (K goes on to ``_meet``, which returns its zero without an
    SVD); with one of rank dim, K is the other operand and AQ the whole
    space.
    """
    kx, ky = x[0], y[0]
    if kx == ky:
        return x
    if kx == (N, ky) or ky == (N, kx):
        return _bound(dim, not meet)
    rx, ry = _rank(x), _rank(y)
    if meet:
        return y if rx == dim else x if ry == dim else None
    if not rx:
        return y
    if not ry:
        return x
    return _bound(dim, True) if dim in (rx, ry) else None


def _bound(dim: int, whole: bool) -> tuple:
    """The zero subspace, or the whole space (``whole``), as an
    ``_extension`` triple: the zero has ``_meet``'s zero bases (a dim x 0
    basis and the identity as complement) and the key None, and the whole
    space is the zero negated, keyed (N, None), so N maps each to the
    other."""
    core = (np.zeros((dim, 0), dtype=np.complex128), np.eye(dim, dtype=np.complex128))
    for basis in core:
        basis.setflags(write=False)
    return ((N, None) if whole else None), core, whole


def _rank(extension: tuple) -> int:
    """Dimension of an ``_extension`` triple's subspace, with no SVD."""
    _, core, negated = extension
    if isinstance(core, Projector):
        return core.dim - core.rank if negated else core.rank
    return core[negated].shape[1]


def _range(extension: tuple) -> np.ndarray:
    """Orthonormal basis of an ``_extension`` triple's subspace."""
    _, core, negated = extension
    if isinstance(core, Projector):
        return core._complement_basis() if negated else core.basis()
    return core[negated]


def _projector(extension: tuple) -> Projector:
    """The projector of an ``_extension`` triple: an atom's own, or its
    ``ortho``; B Bᴴ of a K or AQ result's basis B, symmetrized, or I minus
    that.  It keeps the triple's two bases."""
    _, core, negated = extension
    if isinstance(core, Projector):
        return ortho(core) if negated else core
    m = _outer(core[0])
    return _with_bases(np.eye(m.shape[0]) - m if negated else m,
                       core[negated], core[not negated])


def justify(model: Model, state: StateLike,
            formula: AssertiveLike) -> JustificationValue:
    """J exactly when the state lies in the formula's pragmatic extension."""
    psi = _resolve_state(model, state)
    p = pragmatic_extension(model, formula)
    if contains_state(p, psi, model.eps):
        return JustificationValue.J
    return JustificationValue.U


def precedes(model: Model, first: AssertiveLike, second: AssertiveLike) -> bool:
    """Justification-preserving order between two quantum formulas.

    Decided by extension inclusion, which settles the "in every state"
    quantifier algebraically over the whole continuum of pure states.  The
    two extensions share one memo, so a subformula of both is evaluated
    once; the first formula is checked and evaluated before the second.
    """
    memo: dict = {}
    p = _projector(_extension(model, _resolve_quantum(first), memo))
    q = _projector(_extension(model, _resolve_quantum(second), memo))
    return leq(p, q, model.eps)


# ---------------------------------------------------------------------------
# correctness check


def check_cc(model: Model, *, samples: int = 1000, seed: int = 0) -> ValidationReport:
    """Justification is sound for truth: wherever an atom's assertion is
    justified, the atom must evaluate TRUE.

    Runs over every declared state plus ``samples`` random unit states and
    every atom, in one stacked pass: one draw for all random states, one
    product of the stacked atom projectors with all probes, whose images
    decide containment for every (atom, probe) pair, and, for the justified
    pairs, the Born probability from the same image, clamped to [0, 1] and
    tested as ``classify_property`` tests TRUE.  Findings come atom first,
    then probe.  An invalid model is refused: the validation findings come
    back with a ``model-invalid`` error and no counterexample search runs.
    The validation is ``validate_model``'s, which runs its checks once per
    model, so a model that ``load_model`` built is not checked again.  A
    negative ``samples`` or ``seed`` raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    base = validate_model(model)
    if not base.ok:
        refusal = Finding("error", "model-invalid",
                          "correctness check not run on an invalid model")
        return ValidationReport(base.findings + (refusal,))
    atoms, names, d = list(model.atom_map), list(model.states), model.dim
    # the reshapes give a model with no states or no atoms its empty stacks
    declared = np.array([s.amplitudes for s in model.states.values()]).reshape(len(names), d)
    psis = np.concatenate([declared, _random_states(d, samples, np.random.default_rng(seed))])
    matrices = np.array([model.atom_projector(a).matrix for a in atoms])
    images = matrices.reshape(len(atoms), d, d) @ psis.T
    atom_of, probe_of = np.nonzero(_contains_states(images, psis, model.eps))
    p = np.einsum("kd,kd->k", psis[probe_of].conj(), images[atom_of, :, probe_of]).real
    false = ~_probability_one(p.clip(0.0, 1.0), model.eps)

    def label(k: int) -> str:
        return names[k] if k < len(names) else f"sample-{k - len(names)}"
    return ValidationReport(tuple(
        Finding("error", "cc-counterexample",
                f"atom {atoms[a]!r} is justified but not true in state {label(k)}")
        for a, k in zip(atom_of[false].tolist(), probe_of[false].tolist())))


# ---------------------------------------------------------------------------
# overlays: broader partial truth assignments


@dataclass(frozen=True)
class Overlay:
    """Partial truth assignment keyed by (state name, atom name).

    May assign values where the model leaves atoms undefined, but must
    coincide with the model wherever both are defined.
    """

    assignments: Mapping[tuple[str, str], bool] = field(default_factory=dict)


def load_overlay(document) -> Overlay:
    """Build an overlay from ``{"assignments": [{"state", "atom", "value"}]}``."""
    if not isinstance(document, dict) or \
            not isinstance(document.get("assignments"), list):
        raise ModelError(
            "overlay document must be a mapping with an 'assignments' list",
            code="schema",
        )
    assignments: dict[tuple[str, str], bool] = {}
    for i, entry in enumerate(document["assignments"]):
        if not isinstance(entry, dict) or \
                not isinstance(entry.get("state"), str) or \
                not isinstance(entry.get("atom"), str) or \
                not isinstance(entry.get("value"), bool):
            raise ModelError(
                f"overlay assignment #{i} must have string 'state'/'atom' "
                "and boolean 'value'",
                code="schema",
            )
        key = (entry["state"], entry["atom"])
        if key in assignments and assignments[key] != entry["value"]:
            raise ModelError(
                f"overlay assigns both values to state {key[0]!r}, atom {key[1]!r}",
                code="conflicting-assignment",
            )
        assignments[key] = entry["value"]
    return Overlay(assignments)


def validate_overlay(model: Model, overlay: Overlay) -> ValidationReport:
    """Consistency of an overlay with the model's own partial assignment.

    Wherever the model classifies an atom TRUE or FALSE, the overlay must
    agree if it assigns anything; where the model is undefined, the
    overlay may assign freely.  Unresolvable names are reported as
    findings rather than raised.
    """
    findings: list[Finding] = []
    for (state, atom), value in overlay.assignments.items():
        if state not in model.states:
            findings.append(Finding(
                "error", "unknown-state", f"overlay names unknown state {state!r}"))
            continue
        if atom not in model.atom_map:
            findings.append(Finding(
                "error", "unknown-atom", f"overlay names unknown atom {atom!r}"))
            continue
        quantum = classify_property(model, state, model.atom_map[atom])
        if quantum is TruthValue3.UNDEFINED:
            continue
        if (quantum is TruthValue3.TRUE) != value:
            findings.append(Finding(
                "error", "contradicts-quantum-assignment",
                f"overlay assigns {value} to atom {atom!r} in state {state!r}, "
                f"but the model assigns {quantum}",
            ))
    return ValidationReport(tuple(findings))
