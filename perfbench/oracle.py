"""Reference answers computed without the code under test.

Subspaces are plain projector matrices.  The intersection of two ranges is
the null space of the stacked matrix ``[(I - P); (I - Q)]``, the closed
span follows from it by De Morgan, and a state is justified by ``P`` when
``max |P psi - psi| <= eps``.  Formulas are nested tuples::

    ("atom", name)  ("not", r)  ("and" | "or" | "implies" | "iff", l, r)
    ("assert", radical)  ("N", f)  ("K" | "AQ" | "A" | "C" | "E", l, r)

``from_ast`` converts a pragmaql formula object into that form by reading
its fields, so outputs of the library can be compared structurally.
"""

from __future__ import annotations

import numpy as np
# bound at import, which run.py does before a traced run wraps np.linalg.svd,
# so hilbert.svd.calls never counts the reference SVDs
from numpy.linalg import svd

# Every benchmark geometry keeps principal angles far above this, so the
# rank decision here never sits near the library's own cutoff.
RANK_TOL = 1e-6

RADICAL_OPS = {"and": "&", "or": "|", "implies": "->", "iff": "<->"}
_AST_NAMES = {"Atom": "atom", "Not": "not", "And": "and", "Or": "or",
              "Implies": "implies", "Iff": "iff", "Assert": "assert",
              "N": "N", "K": "K", "AQ": "AQ", "A": "A", "C": "C", "E": "E"}


def meet(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[0])
    _, s, vh = svd(np.vstack([eye - p, eye - q]))
    null = vh[int(np.sum(s > RANK_TOL)):].conj().T
    return null @ null.conj().T


def join(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[0])
    return eye - meet(eye - p, eye - q)


def ortho(p: np.ndarray) -> np.ndarray:
    return np.eye(p.shape[0]) - p


def leq(p: np.ndarray, q: np.ndarray) -> bool:
    return float(np.max(np.abs(p - q @ p), initial=0.0)) <= RANK_TOL


def close(p: np.ndarray, q: np.ndarray, tol: float) -> bool:
    return float(np.max(np.abs(p - q), initial=0.0)) <= tol


def justified(p: np.ndarray, psi: np.ndarray, eps: float) -> bool:
    return float(np.max(np.abs(p @ psi - psi))) <= eps


def classify(p: np.ndarray, psi: np.ndarray, eps: float) -> str:
    prob = min(1.0, max(0.0, float(np.real(np.vdot(psi, p @ psi)))))
    if abs(prob - 1.0) <= eps:
        return "True"
    if prob <= eps:
        return "False"
    return "Undefined"


def truth(r: tuple, env: dict[str, bool]) -> bool:
    op = r[0]
    if op == "atom":
        return env[r[1]]
    if op == "not":
        return not truth(r[1], env)
    a, b = truth(r[1], env), truth(r[2], env)
    return {"and": a and b, "or": a or b,
            "implies": (not a) or b, "iff": a == b}[op]


def radical_atoms(r: tuple) -> list[str]:
    if r[0] == "atom":
        return [r[1]]
    return list(dict.fromkeys(a for sub in r[1:] for a in radical_atoms(sub)))


def sigma(atom_proj: dict, psi: np.ndarray, r: tuple, eps: float) -> str:
    env = {}
    for name in radical_atoms(r):
        value = classify(atom_proj[name], psi, eps)
        if value == "Undefined":
            return value
        env[name] = value == "True"
    return "True" if truth(r, env) else "False"


class Extensions:
    """Memoized pragmatic extensions over one atom interpretation."""

    def __init__(self, atom_proj: dict[str, np.ndarray]):
        self.atom_proj = atom_proj
        self.memo: dict[tuple, np.ndarray] = {}

    def __call__(self, f: tuple) -> np.ndarray:
        hit = self.memo.get(f)
        if hit is not None:
            return hit
        op = f[0]
        if op == "assert":
            value = self.atom_proj[f[1][1]]
        elif op == "N":
            value = ortho(self(f[1]))
        elif op == "K":
            value = meet(self(f[1]), self(f[2]))
        elif op == "AQ":
            value = join(self(f[1]), self(f[2]))
        else:
            raise ValueError(f"no extension for {op}")
        self.memo[f] = value
        return value


def from_ast(node) -> tuple:
    kind = _AST_NAMES[type(node).__name__]
    if kind == "atom":
        return ("atom", node.name)
    if kind == "assert":
        return ("assert", from_ast(node.radical))
    if kind in ("not", "N"):
        return (kind, from_ast(node.operand))
    return (kind, from_ast(node.left), from_ast(node.right))


def tokens(f: tuple) -> list[str]:
    """Tokens of the canonical printed form."""
    op = f[0]
    if op == "atom":
        return [f[1]]
    if op == "not":
        return ["~"] + tokens(f[1])
    if op in RADICAL_OPS:
        return ["("] + tokens(f[1]) + [RADICAL_OPS[op]] + tokens(f[2]) + [")"]
    if op == "assert":
        body = tokens(f[1])
        if f[1][0] == "not":
            body = ["("] + body + [")"]
        return ["(", "|-"] + body + [")"]
    if op == "N":
        return ["N", "("] + tokens(f[1]) + [")"]
    return ["("] + tokens(f[1]) + [op] + tokens(f[2]) + [")"]

