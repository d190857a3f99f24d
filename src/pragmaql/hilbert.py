"""Finite-dimensional complex subspace algebra.

Closed subspaces are represented by their orthogonal projectors
(Hermitian idempotent complex matrices); pure states by unit vectors,
understood as rays (global phase never matters to any operation here).
``ortho``, ``meet``, ``join`` and ``leq`` realize the lattice of closed
subspaces: orthocomplement, intersection, closed span, and inclusion.

All comparisons use max-entry absolute deviation against a tolerance
``eps`` (default 1e-9); rank decisions drop singular values at or below
``eps * sqrt(dim)``.  Matrices serialize as row-major nested lists with
each complex entry a two-element ``[re, im]`` array.
"""

from __future__ import annotations

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
    if abs(norm - 1.0) > normalize_tol:
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
    Hermitian and idempotent within ``eps``, then symmetrized) or a
    sequence of spanning vectors (the projector onto their span, built by
    rank-revealing orthonormalization).  An empty spanning list needs an
    explicit ``dim``.
    """
    if isinstance(spec, np.ndarray) and spec.ndim == 2:
        return _projector_from_matrix(spec, dim, eps)
    return projector_from_span(spec, dim, eps)


def _projector_from_matrix(m, dim: int | None, eps: float) -> Projector:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ProjectorError(
            f"projector matrix must be square, got shape {m.shape}",
            code="dimension-mismatch",
        )
    if dim is not None and m.shape[0] != dim:
        raise ProjectorError(
            f"matrix is {m.shape[0]}x{m.shape[0]}, expected dim {dim}",
            code="dimension-mismatch",
        )
    d = m.shape[0]
    herm_dev = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
    if herm_dev > eps:
        raise ProjectorError(
            f"matrix is not Hermitian (max deviation {herm_dev:.3g})",
            code="not-hermitian",
        )
    m = (m + m.conj().T) / 2.0
    idem_dev = float(np.max(np.abs(m @ m - m))) if d else 0.0
    if idem_dev > eps:
        raise ProjectorError(
            f"matrix is not idempotent (max deviation {idem_dev:.3g})",
            code="not-idempotent",
        )
    trace = float(np.trace(m).real)
    rank = int(round(trace))
    if abs(trace - rank) > eps * max(d, 1) or not 0 <= rank <= d:
        raise ProjectorError(
            f"trace {trace:.9g} is not close to an integer rank",
            code="bad-rank",
        )
    return Projector(d, m, rank)


def projector_from_span(vectors, dim: int | None = None,
                        eps: float = DEFAULT_EPS) -> Projector:
    """Orthogonal projector onto the span of ``vectors``.

    Directions with singular value at or below ``eps * sqrt(dim)`` are
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
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = u[:, s > eps * np.sqrt(dim)]
    return _from_basis(dim, keep)


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


def _check_same_dim(p: Projector, q: Projector) -> None:
    if p.dim != q.dim:
        raise ProjectorError(
            f"dimension mismatch: {p.dim} vs {q.dim}", code="dimension-mismatch"
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
    stacked = np.hstack([bp, -bq])
    _, s, vh = np.linalg.svd(stacked)
    tol = eps * np.sqrt(p.dim)
    ncols = stacked.shape[1]
    null_mask = np.ones(ncols, dtype=bool)
    null_mask[: s.shape[0]] = s <= tol
    null_basis = vh.conj().T[:, null_mask]
    if null_basis.shape[1] == 0:
        return zero_projector(p.dim)
    image = bp @ null_basis[: bp.shape[1], :]
    u, s2, _ = np.linalg.svd(image, full_matrices=False)
    keep = u[:, s2 > tol]
    return _from_basis(p.dim, keep)


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
    stacked = np.hstack([p.basis(), q.basis()])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = u[:, s > eps * np.sqrt(p.dim)]
    return _from_basis(p.dim, keep)


def leq(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> bool:
    """Range inclusion, decided by Q P = P within eps (max-entry)."""
    _check_same_dim(p, q)
    return float(np.max(np.abs(q.matrix @ p.matrix - p.matrix))) <= eps


def projectors_close(p: Projector, q: Projector, tol: float = DEFAULT_EPS) -> bool:
    """Max-entry agreement of the two matrices within ``tol``."""
    _check_same_dim(p, q)
    return float(np.max(np.abs(p.matrix - q.matrix))) <= tol


def contains_state(p: Projector, state: StateVector,
                   eps: float = DEFAULT_EPS) -> bool:
    """Ray membership: P psi = psi within eps (max-entry)."""
    if state.dim != p.dim:
        raise ProjectorError(
            f"state dim {state.dim} does not match projector dim {p.dim}",
            code="dimension-mismatch",
        )
    psi = state.amplitudes
    return float(np.max(np.abs(p.matrix @ psi - psi))) <= eps


# ---------------------------------------------------------------------------
# random sampling


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-uniform ray: normalized standard complex Gaussian components."""
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-6:
            return StateVector(dim, z / norm)


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


def encode_vector(v: np.ndarray) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v).reshape(-1)]


def decode_vector(entries) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise ProjectorError(
            f"vector must be a list of [re, im] pairs, got {entries!r}",
            code="schema",
        )
    return np.array([decode_complex(e) for e in entries], dtype=np.complex128)


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    return [[encode_complex(z) for z in row] for row in np.asarray(m)]


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
