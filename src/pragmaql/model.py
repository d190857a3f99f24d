"""Model documents: named states, named properties, and the atom map.

A model bundles one physical system: its Hilbert dimension, a finite
sample of named pure states, named properties (projectors), and the atom
interpretation mapping each propositional letter one-to-one onto the
declared properties.  Declared states are only a sample; operations that
quantify over *all* states decide by subspace algebra, never by
enumerating this sample.

Document schema (JSON-shaped)::

    {"dim": int,
     "eps": float?,                       # default 1e-9
     "states": {name: [[re, im], ...]},
     "properties": {name: {"span": [vector, ...]} | {"matrix": [[...]]}},
     "atoms": {atom: property}}

Unknown top-level keys (``name``, ``description``, ...) are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ModelError, ProjectorError, UnknownNameError
from .formula import ATOM_NAME_RE
from .hilbert import (
    DEFAULT_EPS,
    Projector,
    StateVector,
    decode_matrix,
    decode_vector,
    make_projector,
    make_state,
)
from .hilbert import _is_tolerance, _projector_defects

__all__ = [
    "Finding", "ValidationReport", "Model",
    "load_model", "load_model_file", "validate_model",
    "bundled_model", "bundled_model_document", "bundled_model_names", "qubit_zx",
]

# far past the desk scale (dim up to ~16); one dim x dim complex matrix at
# the cap takes 256 MiB
MAX_DIM = 4096


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation pass; ``ok`` means no error-level findings."""

    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")


@dataclass(frozen=True, eq=False)
class Model:
    """A validated physical system.

    Immutable after load; the atom map sends each atom name to a property
    name, bijectively onto the declared properties.
    """

    dim: int
    states: dict[str, StateVector]
    properties: dict[str, Projector]
    atom_map: dict[str, str]
    eps: float = DEFAULT_EPS

    def state(self, name: str) -> StateVector:
        try:
            return self.states[name]
        except KeyError:
            raise UnknownNameError(f"unknown state {name!r}") from None

    def projector(self, name: str) -> Projector:
        try:
            return self.properties[name]
        except KeyError:
            raise UnknownNameError(f"unknown property {name!r}") from None

    def atom_projector(self, atom: str) -> Projector:
        try:
            return self.properties[self.atom_map[atom]]
        except KeyError:
            raise UnknownNameError(f"unknown atom {atom!r}") from None


# ---------------------------------------------------------------------------
# loading


def _require(document: dict, key: str, kind, code: str = "schema"):
    if key not in document:
        raise ModelError(f"model document is missing {key!r}", code=code)
    value = document[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelError(
            f"model document key {key!r} must be {kind}, got {type(value).__name__}",
            code=code,
        )
    return value


def load_model(document) -> Model:
    """Build a validated :class:`Model` from a JSON-shaped mapping.

    Parsing checks the document's shape: key types, ``dim`` (1 to
    ``MAX_DIM``, checked before anything is allocated), ``eps``, the
    complex entries, and each state and property on its own.  States are
    normalized when their norm is within 1e-6 of 1, and rejected
    otherwise; properties become projectors of dimension ``dim`` (matrix
    forms checked within eps).  The built model then raises the first
    error ``validate_model`` reports, as ``ModelError`` with its code.
    """
    if not isinstance(document, dict):
        raise ModelError("model document must be a mapping", code="schema")
    dim = _require(document, "dim", int)
    if not 1 <= dim <= MAX_DIM:
        raise ModelError(f"dim must be an integer from 1 to {MAX_DIM}, got {dim}",
                         code="schema")
    eps = document.get("eps", DEFAULT_EPS)
    if not _is_tolerance(eps):
        raise ModelError(f"eps must be a finite positive number, got {eps!r}",
                         code="schema")
    eps = float(eps)

    states: dict[str, StateVector] = {}
    for name, entries in _require(document, "states", dict).items():
        try:
            states[name] = make_state(decode_vector(entries))
        except ProjectorError as exc:
            raise ModelError(f"state {name!r}: {exc}", code=exc.code) from exc

    properties: dict[str, Projector] = {}
    for name, spec in _require(document, "properties", dict).items():
        if not isinstance(spec, dict) or len(spec.keys() & {"span", "matrix"}) != 1:
            raise ModelError(
                f"property {name!r} must give exactly one of 'span' or 'matrix'",
                code="schema",
            )
        try:
            if "span" in spec:
                vectors = spec["span"]
                if not isinstance(vectors, list):
                    raise ModelError(
                        f"property {name!r}: 'span' must be a list of vectors",
                        code="schema",
                    )
                properties[name] = make_projector(
                    [decode_vector(v) for v in vectors], dim=dim, eps=eps
                )
            else:
                properties[name] = make_projector(
                    decode_matrix(spec["matrix"]), dim=dim, eps=eps
                )
        except ProjectorError as exc:
            raise ModelError(f"property {name!r}: {exc}", code=exc.code) from exc

    model = Model(dim=dim, states=states, properties=properties,
                  atom_map=dict(_require(document, "atoms", dict)), eps=eps)
    errors = validate_model(model).errors()
    if errors:
        raise ModelError(errors[0].message, code=errors[0].code)
    return model


def load_model_file(path) -> Model:
    """Read a JSON model document from ``path`` and load it."""
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{path}: not valid JSON ({exc})", code="schema") from exc
    return load_model(document)


# ---------------------------------------------------------------------------
# validation


def validate_model(model: Model) -> ValidationReport:
    """Check every invariant of a model; never raises, never mutates.

    This is the one place that decides whether a model is valid:
    ``load_model`` raises its first error, and ``check_cc`` refuses a model
    with any.  Findings come in order: tolerance, states (dimension, unit
    norm), properties (dimension, projector defects), then per atom its
    name and target, then the bijection onto the declared properties.  An
    eps that is no tolerance (see ``pragmaql.hilbert``) is reported, and
    replaced by a 1e-12 floor for the numeric checks themselves.
    """
    findings: list[Finding] = []
    eff = model.eps
    if not _is_tolerance(eff):
        eff, finite = 1e-12, -math.inf < model.eps <= 0
        findings.append(Finding(
            "warning" if finite else "error",
            "degenerate-tolerance" if finite else "bad-tolerance",
            f"eps = {model.eps} is not a finite positive number; using 1e-12 floor",
        ))

    for name, s in model.states.items():
        if s.dim != model.dim:
            findings.append(Finding(
                "error", "dimension-mismatch",
                f"state {name!r} has dim {s.dim}, model dim is {model.dim}",
            ))
            continue
        norm = float(np.linalg.norm(s.amplitudes))
        if not abs(norm - 1.0) <= eff:   # a NaN norm fails too
            findings.append(Finding(
                "error", "non-unit-state",
                f"state {name!r} has norm {norm:.9g}",
            ))

    for name, p in model.properties.items():
        if p.dim != model.dim:
            findings.append(Finding(
                "error", "dimension-mismatch",
                f"property {name!r} has dim {p.dim}, model dim is {model.dim}",
            ))
            continue
        for code, dev in _projector_defects(p.matrix, p.rank, eff):
            findings.append(Finding(
                "error", code,
                f"property {name!r} (rank {p.rank}) deviates by {dev:.3g}",
            ))

    targets = []   # the atoms' targets that name a declared property
    for atom, target in model.atom_map.items():
        if not isinstance(atom, str) or not ATOM_NAME_RE.match(atom):
            findings.append(Finding(
                "error", "invalid-atom-name",
                f"atom name {atom!r} is not a valid atom lexeme",
            ))
        if isinstance(target, str) and target in model.properties:
            targets.append(target)
        else:
            findings.append(Finding(
                "error", "unknown-property",
                f"atom {atom!r} maps to unknown property {target!r}",
            ))
    if len(set(targets)) != len(model.atom_map) or set(targets) != set(model.properties):
        findings.append(Finding(
            "error", "non-bijective-atom-map",
            "atom map is not a bijection onto the declared properties",
        ))

    return ValidationReport(tuple(findings))


# ---------------------------------------------------------------------------
# bundled reference models


def _data_dir():
    return resources.files(__package__) / "data"


def bundled_model_names() -> list[str]:
    """Names of the reference models that ship with the package."""
    return sorted(
        entry.name[:-5]
        for entry in _data_dir().iterdir()
        if entry.name.endswith(".json")
    )


def bundled_model_document(name: str) -> dict:
    entry = _data_dir() / f"{name}.json"
    if not entry.is_file():
        raise UnknownNameError(
            f"no bundled model {name!r}; available: {', '.join(bundled_model_names())}"
        )
    return json.loads(entry.read_text())


def bundled_model(name: str) -> Model:
    """Load one of the reference models by name (see ``bundled_model_names``)."""
    return load_model(bundled_model_document(name))


def qubit_zx() -> Model:
    """The two-dimensional reference model: z/x eigenstates, Ez and Ex lines."""
    return bundled_model("qubit-zx")
