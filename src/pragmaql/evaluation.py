"""Partial truth, empirical justification, and the extension map.

Truth side: a radical formula has a truth value in a state only when
every atom in it names a property whose probability in that state is 0
or 1 (within eps, see ``pragmaql.hilbert``); evaluation is classical there.

Justification side: every quantum assertive formula denotes a closed
subspace (its *pragmatic extension*), and the formula is justified in a
state exactly when the state's ray lies inside that subspace.  Elementary
assertions land on the atom's property; ``N``, ``K``, ``AQ`` land on
orthocomplement, intersection, and closed span.

Formulas with ``A``, ``C`` or ``E``, or with molecular radicals under the
assertion sign, have no extension and are rejected here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

import numpy as np

from .errors import ModelError, NonQuantumFormulaError, ProjectorError, UnknownNameError
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
from .hilbert import (
    Projector,
    StateVector,
    contains_state,
    join,
    leq,
    meet,
    ortho,
    random_state,
)
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
        if state.dim != model.dim:
            raise ProjectorError(
                f"state dim {state.dim} does not match model dim {model.dim}",
                code="dimension-mismatch",
            )
        return state
    return model.state(state)


def _resolve_property(model: Model, prop: PropertyLike) -> Projector:
    if isinstance(prop, Projector):
        if prop.dim != model.dim:
            raise ProjectorError(
                f"projector dim {prop.dim} does not match model dim {model.dim}",
                code="dimension-mismatch",
            )
        return prop
    return model.projector(prop)


def _resolve_radical(radical: RadicalLike) -> RadicalFormula:
    return parse_radical(radical) if isinstance(radical, str) else radical


def _resolve_assertive(formula: AssertiveLike) -> AssertiveFormula:
    return parse_assertive(formula) if isinstance(formula, str) else formula


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
    if abs(p - 1.0) <= model.eps:
        return TruthValue3.TRUE
    if p <= model.eps:
        return TruthValue3.FALSE
    return TruthValue3.UNDEFINED


def sigma(model: Model, state: StateLike, radical: RadicalLike) -> TruthValue3:
    """Partial truth of a radical in a state.

    Undefined unless every atom of the radical is objective (classifies
    TRUE or FALSE) in the state; classical recursion over the connectives
    otherwise.
    """
    r = _resolve_radical(radical)
    names = radical_atoms(r)
    for name in names:
        if name not in model.atom_map:
            raise UnknownNameError(f"unknown atom {name!r}")
    env: dict[str, bool] = {}
    for name in names:
        value = classify_property(model, state, model.atom_map[name])
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
    f = _resolve_assertive(formula)
    report = quantum_fragment_check(f)
    if not report.is_quantum:
        raise NonQuantumFormulaError(
            f"formula is outside the quantum fragment: {print_formula(f)}",
            violations=report.violations,
        )
    return _extension(model, f)


def _extension(model: Model, f: AssertiveFormula) -> Projector:
    if isinstance(f, Assert):
        return model.atom_projector(f.radical.name)
    if isinstance(f, N):
        return ortho(_extension(model, f.operand))
    if isinstance(f, K):
        return meet(_extension(model, f.left), _extension(model, f.right),
                    eps=model.eps)
    # AQ: the derived disjunction lands on the closed span
    return join(_extension(model, f.left), _extension(model, f.right),
                eps=model.eps)


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
    quantifier algebraically over the whole continuum of pure states.
    """
    return leq(
        pragmatic_extension(model, first),
        pragmatic_extension(model, second),
        model.eps,
    )


# ---------------------------------------------------------------------------
# correctness check


def check_cc(model: Model, *, samples: int = 1000, seed: int = 0) -> ValidationReport:
    """Justification is sound for truth: wherever an atom's assertion is
    justified, the atom must evaluate TRUE.

    Runs over every declared state plus ``samples`` random unit states and
    every atom.  An invalid model is refused: the validation findings come
    back with a ``model-invalid`` error and no counterexample search runs.
    A negative ``samples`` raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    base = validate_model(model)
    if not base.ok:
        refusal = Finding("error", "model-invalid",
                          "correctness check not run on an invalid model")
        return ValidationReport(base.findings + (refusal,))

    rng = np.random.default_rng(seed)
    probes: list[tuple[str, StateVector]] = list(model.states.items())
    probes += [(f"sample-{i}", random_state(model.dim, rng))
               for i in range(samples)]

    findings: list[Finding] = []
    for atom in model.atom_map:
        assertion = Assert(Atom(atom))
        for label, psi in probes:
            if justify(model, psi, assertion) is JustificationValue.J and \
                    sigma(model, psi, Atom(atom)) is not TruthValue3.TRUE:
                findings.append(Finding(
                    "error", "cc-counterexample",
                    f"atom {atom!r} is justified but not true in state {label}",
                ))
    return ValidationReport(tuple(findings))


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
