"""Assertive quantum logic over finite-dimensional Hilbert models.

The package separates two questions about a physical statement: whether
it is *true* in a state (a partial, three-valued matter) and whether it
is *empirically justified* there (a total, two-valued one).  Formulas of
the assertive language denote closed subspaces through their
justification conditions, and the quotient of formulas by equal
denotation is an orthomodular lattice, isomorphic to the lattice of the
model's closed subspaces.
"""

import importlib

from .errors import (
    ModelError,
    NonQuantumFormulaError,
    ParseError,
    PragmaQLError,
    ProjectorError,
    UnknownNameError,
)
from .formula import (
    AQ,
    A,
    And,
    Assert,
    AssertiveFormula,
    Atom,
    C,
    E,
    Formula,
    FragmentReport,
    FragmentViolation,
    Iff,
    Implies,
    K,
    N,
    Not,
    Or,
    RadicalFormula,
    connective_depth,
    desugar,
    parse_assertive,
    parse_radical,
    print_formula,
    quantum_fragment_check,
    radical_atoms,
)

# Public name -> the numpy-backed submodule that defines it.  These are
# imported on first lookup (PEP 562), so that parsing formulas, which needs
# only the stdlib modules above, does not load numpy.
_LAZY = {
    **dict.fromkeys((
        "DEFAULT_EPS", "Projector", "StateVector", "contains_state",
        "identity_projector", "join", "leq", "make_projector", "make_state",
        "meet", "ortho", "projector_from_span", "projectors_close",
        "random_projector", "random_state", "state_projector", "zero_projector",
    ), "hilbert"),
    **dict.fromkeys((
        "Finding", "Model", "ValidationReport", "bundled_model",
        "bundled_model_document", "bundled_model_names", "load_model",
        "load_model_file", "qubit_zx", "validate_model",
    ), "model"),
    **dict.fromkeys((
        "JustificationValue", "Overlay", "TruthValue3", "born_probability",
        "check_cc", "classify_property", "justify", "load_overlay",
        "pragmatic_extension", "precedes", "sigma", "validate_overlay",
    ), "evaluation"),
    **dict.fromkeys((
        "LatticeElement", "LawReport", "QuotientLattice", "export_lattice",
        "find_distributivity_violation", "generate_quotient", "import_lattice",
        "verify_isomorphism", "verify_ortholattice", "verify_orthomodular",
    ), "lattice"),
}


def __getattr__(name: str):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value   # later lookups do not reach __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "PragmaQLError", "ParseError", "ProjectorError", "ModelError",
    "UnknownNameError", "NonQuantumFormulaError",
    "Atom", "Not", "And", "Or", "Implies", "Iff",
    "Assert", "N", "K", "A", "C", "E", "AQ",
    "RadicalFormula", "AssertiveFormula", "Formula",
    "FragmentReport", "FragmentViolation",
    "parse_radical", "parse_assertive", "print_formula",
    "quantum_fragment_check", "desugar", "connective_depth", "radical_atoms",
    "DEFAULT_EPS", "Projector", "StateVector",
    "make_projector", "projector_from_span", "make_state",
    "zero_projector", "identity_projector", "state_projector",
    "ortho", "meet", "join", "leq", "projectors_close", "contains_state",
    "random_state", "random_projector",
    "Finding", "ValidationReport", "Model",
    "load_model", "load_model_file", "validate_model",
    "bundled_model", "bundled_model_document", "bundled_model_names", "qubit_zx",
    "TruthValue3", "JustificationValue", "Overlay", "load_overlay",
    "born_probability", "classify_property", "sigma",
    "pragmatic_extension", "justify", "precedes", "check_cc", "validate_overlay",
    "LatticeElement", "QuotientLattice", "LawReport",
    "generate_quotient", "verify_ortholattice", "verify_orthomodular",
    "find_distributivity_violation", "verify_isomorphism",
    "export_lattice", "import_lattice",
]
