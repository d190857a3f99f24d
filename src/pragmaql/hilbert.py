"""Finite-dimensional complex subspace algebra, and the tolerance policy.

Closed subspaces are represented by their orthogonal projectors
(Hermitian idempotent complex matrices); pure states by unit vectors,
understood as rays (global phase never matters to any operation here).
``ortho``, ``meet``, ``join`` and ``leq`` realize the lattice of closed
subspaces: orthocomplement, intersection, closed span, and inclusion.
Matrices serialize as row-major nested lists with each complex entry a
two-element ``[re, im]`` array.

Tolerance policy: each numerical decision in the package follows one of
these rules, written once, here (``eps``: the model tolerance, default 1e-9).

- A tolerance is an int or float, not a bool, finite and > 0.  Loading and
  importing reject any other; ``validate_model`` reports it, as a warning
  if finite and <= 0, and checks with a 1e-12 floor.
- Rank cutoff: singular values at or below ``eps * sqrt(dim)`` are zero.
- ``leq`` (Q P = P), ``contains_state`` (P psi = psi), ``projectors_close``
  and lattice injectivity hold at a max-entry deviation <= eps.
- A projector is Hermitian and idempotent within eps, with a trace within
  ``eps * dim`` of its rank, 0 <= rank <= dim.
- Class merge: projectors within ``10 * eps`` are one quotient class, and
  a lattice's negation table is checked against ``ortho`` at that bound.
  Its meet and join tables are checked by rank count at the rank cutoff,
  with the inclusions they need decided by ``leq``.
- In ``evaluation``: TRUE at probability |p - 1| <= eps, FALSE at p <= eps.

Each test is written so that a NaN deviation fails it, and a projector
input with a NaN or infinite entry is rejected before any rule runs.

A generated lattice orders classes by the rank cutoff (i is below j when
their meet is i), ``leq`` by max-entry deviation.  Turning one range vector
of a rank-r subspace out of it by theta, both find inclusion at theta <=
0.5 * eps, neither at theta >= 2 * eps * sqrt(2 * dim); between, they may
disagree (seen on random pairs, dim 2-16).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ProjectorError

__all__ = [
    "DEFAULT_EPS", "Projector", "StateVector",
    "make_projector", "projector_from_span", "make_state",
    "zero_projector", "identity_projector", "state_projector",
    "ortho", "meet", "join", "leq",
    "projectors_close", "contains_state",
    "random_state", "random_projector",
    "encode_complex", "decode_complex", "encode_vector", "decode_vector",
    "encode_matrix", "decode_matrix",
]

DEFAULT_EPS = 1e-9


def _is_tolerance(value) -> bool:
    # the chained comparison also rejects NaN and an int too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _rank_cutoff(eps: float, dim: int) -> float:
    return eps * np.sqrt(dim)


def _class_tol(eps: float) -> float:
    return 10 * eps


def _deviation(a: np.ndarray, b: np.ndarray, axes: int = 2) -> np.ndarray:
    """Max |a - b| over the last ``axes`` axes (0 if empty), batched over the rest."""
    return np.abs(a - b).max(axis=tuple(range(-axes, 0)), initial=0.0)


def _projector_defects(m: np.ndarray, rank: int, eps: float) -> list[tuple[str, float]]:
    """(code, deviation) for each invariant ``m`` breaks as a rank-``rank``
    projector: idempotence is measured on the Hermitian part, which it keeps,
    and a rank outside [0, dim] fails the trace check whatever the trace."""
    d = m.shape[0]
    h = (m + m.conj().T) / 2.0
    checks = (("not-hermitian", float(_deviation(m, m.conj().T)), eps),
              ("not-idempotent", float(_deviation(h @ h, h)), eps),
              ("bad-rank", abs(float(np.trace(h).real) - rank),
               eps * d if 0 <= rank <= d else -1.0))
    return [(code, dev) for code, dev, bound in checks if not dev <= bound]


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit vector in C^dim, representing a pure state as a ray."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if a.shape[0] != self.dim:
            raise ProjectorError(
                f"state has {a.shape[0]} amplitudes, expected {self.dim}",
                code="dimension-mismatch",
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def make_state(amplitudes, *, normalize_tol: float = 1e-6) -> StateVector:
    """Build a unit state, normalizing away rounding up to ``normalize_tol``.

    Rejects the zero vector, and anything whose norm deviates from 1 by
    more than the tolerance (hand-typed decimals like 0.7071 are fine).
    """
    a = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(a))
    if norm <= normalize_tol:
        raise ProjectorError("zero state vector", code="zero-state")
    if not abs(norm - 1.0) <= normalize_tol:   # a NaN norm fails too
        raise ProjectorError(
            f"state norm {norm:.9g} is not 1 within {normalize_tol}",
            code="non-unit-state",
        )
    return StateVector(a.shape[0], a / norm)


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto a closed subspace of C^dim.

    ``matrix`` is Hermitian and idempotent (up to the tolerance used at
    construction); ``rank`` is the subspace dimension.  Construct through
    ``make_projector``, which validates; direct construction skips the
    checks and exists for tests that need deliberately broken data.
    The range basis is computed once, on the first ``basis()`` call, and
    kept on the instance as a read-only array.
    """

    dim: int
    matrix: np.ndarray
    rank: int

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (self.dim, self.dim):
            raise ProjectorError(
                f"matrix shape {m.shape} does not match dim {self.dim}",
                code="dimension-mismatch",
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def basis(self) -> np.ndarray:
        """Orthonormal basis of the range, as a dim x rank column matrix.

        The first call runs the SVD; every later call returns the same
        read-only array.
        """
        b = self.__dict__.get("_basis")
        if b is None:
            if self.rank == 0:
                b = np.zeros((self.dim, 0), dtype=np.complex128)
            else:
                u, _, _ = np.linalg.svd(self.matrix)
                b = u[:, : self.rank]
            b.setflags(write=False)
            self.__dict__["_basis"] = b
        return b

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank})"


def make_projector(spec, dim: int | None = None, eps: float = DEFAULT_EPS) -> Projector:
    """Validating constructor.

    ``spec`` is either a square complex matrix (2-d ndarray: checked to be
    a projector within ``eps``, then symmetrized) or a sequence of spanning
    vectors (the projector onto their span, built by rank-revealing
    orthonormalization).  An empty spanning list needs an explicit ``dim``.
    """
    if not (isinstance(spec, np.ndarray) and spec.ndim == 2):
        return projector_from_span(spec, dim, eps)
    m = np.asarray(spec, dtype=np.complex128)
    if m.shape[0] != m.shape[1]:
        raise ProjectorError(
            f"projector matrix must be square, got shape {m.shape}",
            code="dimension-mismatch",
        )
    if dim is not None and m.shape[0] != dim:
        raise ProjectorError(
            f"matrix is {m.shape[0]}x{m.shape[0]}, expected dim {dim}",
            code="dimension-mismatch",
        )
    _require_finite(m)
    rank = round(float(np.trace(m).real))
    defects = _projector_defects(m, rank, eps)
    if defects:
        code, dev = defects[0]
        raise ProjectorError(f"matrix is not a projector ({code}, deviation {dev:.3g})",
                             code=code)
    return Projector(m.shape[0], (m + m.conj().T) / 2.0, rank)


def projector_from_span(vectors, dim: int | None = None,
                        eps: float = DEFAULT_EPS) -> Projector:
    """Orthogonal projector onto the span of ``vectors``.

    Directions with singular value at or below the rank cutoff are
    dropped, so nearly dependent spanning sets collapse cleanly.
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if dim is None:
        if not vecs:
            raise ProjectorError(
                "an empty span needs an explicit dim", code="dimension-mismatch"
            )
        dim = int(vecs[0].shape[0])
    for v in vecs:
        if v.shape[0] != dim:
            raise ProjectorError(
                f"spanning vector of length {v.shape[0]}, expected {dim}",
                code="dimension-mismatch",
            )
    if not vecs:
        return zero_projector(dim)
    a = np.column_stack(vecs)
    _require_finite(a)
    return _span(a, eps)


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ProjectorError("projector input has a NaN or infinite entry",
                             code="schema")


def _span(a: np.ndarray, eps: float) -> Projector:
    """Projector onto the span of the columns of ``a``, up to the rank cutoff."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return _from_basis(a.shape[0], u[:, s > _rank_cutoff(eps, a.shape[0])])


def _from_basis(dim: int, basis: np.ndarray) -> Projector:
    m = basis @ basis.conj().T
    m = (m + m.conj().T) / 2.0  # exactly Hermitian after symmetrization
    return Projector(dim, m, basis.shape[1])


def zero_projector(dim: int) -> Projector:
    return Projector(dim, np.zeros((dim, dim), dtype=np.complex128), 0)


def identity_projector(dim: int) -> Projector:
    return Projector(dim, np.eye(dim, dtype=np.complex128), dim)


def state_projector(state: StateVector) -> Projector:
    """Rank-1 projector onto the state's ray."""
    return _from_basis(state.dim, state.amplitudes.reshape(-1, 1))


# ---------------------------------------------------------------------------
# lattice operations


def _check_same_dim(a, b) -> None:
    """dimension-mismatch unless ``a.dim == b.dim`` (projectors, states, models)."""
    if a.dim != b.dim:
        raise ProjectorError(
            f"dimension mismatch: {a.dim} vs {b.dim}", code="dimension-mismatch"
        )


def ortho(p: Projector) -> Projector:
    """Orthocomplement: projector onto the orthogonal subspace."""
    return Projector(p.dim, np.eye(p.dim) - p.matrix, p.dim - p.rank)


def meet(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> Projector:
    """Projector onto the intersection of the two ranges.

    With orthonormal bases B_p, B_q of the ranges, a vector lies in both
    exactly when B_p x = B_q y for some coordinates x, y, i.e. when
    (x, y) is in the null space of the stacked constraint [B_p | -B_q].
    The left blocks of an orthonormal null-space basis therefore
    parametrize the intersection; the image B_p x is re-orthonormalized.
    Rank-revealing throughout, no iteration to tune.
    """
    _check_same_dim(p, q)
    if p.rank == 0 or q.rank == 0:
        return zero_projector(p.dim)
    bp, bq = p.basis(), q.basis()
    _, s, vh = np.linalg.svd(np.hstack([bp, -bq]))
    # singular values come sorted, so the null space is spanned by vh's last rows
    null_basis = vh[np.count_nonzero(s > _rank_cutoff(eps, p.dim)):].conj().T
    if null_basis.shape[1] == 0:
        return zero_projector(p.dim)
    return _span(bp @ null_basis[: bp.shape[1], :], eps)


def join(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> Projector:
    """Projector onto the closed span of the union of the two ranges.

    Computed directly by orthonormalizing the stacked bases; agrees with
    the De Morgan route ortho(meet(ortho(p), ortho(q))) within eps.
    """
    _check_same_dim(p, q)
    if p.rank == 0:
        return q
    if q.rank == 0:
        return p
    return _span(np.hstack([p.basis(), q.basis()]), eps)


def leq(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> bool:
    """Range inclusion, decided by Q P = P within eps (max-entry)."""
    _check_same_dim(p, q)
    return float(_deviation(q.matrix @ p.matrix, p.matrix)) <= eps


def projectors_close(p: Projector, q: Projector, tol: float = DEFAULT_EPS) -> bool:
    """Max-entry agreement of the two matrices within ``tol``."""
    _check_same_dim(p, q)
    return float(_deviation(p.matrix, q.matrix)) <= tol


def contains_state(p: Projector, state: StateVector,
                   eps: float = DEFAULT_EPS) -> bool:
    """Ray membership: P psi = psi within eps (max-entry)."""
    _check_same_dim(p, state)
    return bool(_contains_states(p.matrix, state.amplitudes[None, :], eps)[0])


def _contains_states(matrix: np.ndarray, psis: np.ndarray, eps: float) -> np.ndarray:
    """Ray membership for each row of the ``(m, dim)`` array ``psis``, by one
    ``P @ psis.T``: a boolean array of length m."""
    return _deviation((matrix @ psis.T).T, psis, axes=1) <= eps


# ---------------------------------------------------------------------------
# random sampling


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-uniform ray: normalized standard complex Gaussian components."""
    return StateVector(dim, _random_states(dim, 1, rng)[0])


def _random_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-uniform rays as the rows of a ``(count, dim)`` array.

    Each draw reads ``dim`` real normals, then ``dim`` imaginary ones, from
    the stream; a draw whose norm is <= 1e-6 is discarded and the next one
    taken, so the rows are the draws of ``count`` ``random_state`` calls.
    """
    rows = np.empty((0, dim), dtype=np.complex128)
    while rows.shape[0] < count:
        x = rng.standard_normal((count - rows.shape[0], 2 * dim))
        z = x[:, :dim] + 1j * x[:, dim:]
        norms = np.linalg.norm(z, axis=1)
        keep = norms > 1e-6
        rows = np.vstack([rows, z[keep] / norms[keep, None]])
    return rows


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> Projector:
    """Haar-random projector of the given rank."""
    if not 0 <= rank <= dim:
        raise ProjectorError(f"rank {rank} out of range for dim {dim}",
                             code="bad-rank")
    if rank == 0:
        return zero_projector(dim)
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    qmat, _ = np.linalg.qr(z)
    return _from_basis(dim, qmat[:, :rank])


# ---------------------------------------------------------------------------
# serialization: complex entries as [re, im], matrices row-major


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def decode_complex(entry) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in entry)):
        raise ProjectorError(
            f"complex entries must be [re, im] number pairs, got {entry!r}",
            code="schema",
        )
    return complex(entry[0], entry[1])


def _encode_entries(a: np.ndarray) -> list:
    """``a`` as nested lists with each entry an ``[re, im]`` pair of floats,
    by one ``tolist`` of the stacked parts; the same lists as
    ``encode_complex`` on each entry, and the sign of a zero is kept."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def encode_vector(v: np.ndarray) -> list[list[float]]:
    return _encode_entries(np.asarray(v).reshape(-1))


def decode_vector(entries) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise ProjectorError(
            f"vector must be a list of [re, im] pairs, got {entries!r}",
            code="schema",
        )
    return np.array([decode_complex(e) for e in entries], dtype=np.complex128)


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return _encode_entries(m)


def decode_matrix(rows) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ProjectorError(
            f"matrix must be a non-empty list of rows, got {rows!r}", code="schema"
        )
    decoded = [decode_vector(row) for row in rows]
    width = decoded[0].shape[0]
    if any(row.shape[0] != width for row in decoded):
        raise ProjectorError("matrix rows have inconsistent lengths", code="schema")
    return np.array(decoded, dtype=np.complex128)
