"""Finite-dimensional complex subspace algebra, and the tolerance policy.

Closed subspaces are represented by their orthogonal projectors
(Hermitian idempotent complex matrices); pure states by unit vectors,
understood as rays (global phase never matters to any operation here).
``ortho``, ``meet``, ``join`` and ``leq`` realize the lattice of closed
subspaces: orthocomplement, intersection, closed span, and inclusion.
They work on orthonormal bases; ``_meet`` and ``_join`` return a result's
range and complement bases, on which extensions are evaluated.
``encode_array`` and ``decode_array`` write and read arrays as row-major
nested lists with each complex entry a two-element ``[re, im]`` list.

Tolerance policy: each numerical decision in the package follows one of
these rules, written once, here (``eps``: the model tolerance, default 1e-9).

- A tolerance is an int or float, not a bool, finite and > 0.  Loading and
  importing reject any other; ``validate_model`` reports it, as a warning
  if finite and <= 0, and checks with a 1e-12 floor.
- Rank cutoff: singular values at or below ``eps * sqrt(dim)`` are zero.
  A span dimension counts the sines of its pair's principal angles above
  the sine cutoff c' = c sqrt(2 - c²), c the rank cutoff: in exact
  arithmetic the count of the stacked projectors' singular values above c.
- Compatibility: two projectors P and Q commute when max |PQ - (PQ)ᴴ| is
  at most tau = c' / (100 dim).  Their span dimension is then r_P + r_Q -
  tr(PQ), rounded, with no SVD.  Commuting projectors have principal angles
  of 0 and 90 degrees only (Halmos, 1969).  ||[P, Q]||_2 is at most dim
  times the max-entry commutator, and it bounds sin theta cos theta for
  every angle.  So within tau every angle lies within about dim * tau <=
  c' / 100 of 0 or 90 degrees, far on its side of the sine cutoff, and the
  count is the one the sines give.  The same bound stands in for the
  margins below: 1.02 dim times the commutator for alpha, and
  sqrt(1 - that) for the gap where the count keeps a sine.  At eps 1e-9,
  tau is 1e-11 at dim 2 and 3.5e-12 at dim 16.
- ``leq`` (Q P = P), ``contains_state`` (P psi = psi), ``projectors_close``
  and lattice injectivity hold at a max-entry deviation <= eps.
- A projector is Hermitian and idempotent within eps, with a trace within
  ``eps * dim`` of its rank, 0 <= rank <= dim.
- Class merge: projectors within ``10 * eps`` are one quotient class, and
  a lattice's negation table is checked against ``ortho`` at that bound.
  Its meet and join tables are checked by rank and span count at the rank
  cutoff, with the inclusions they need decided by ``leq``.  Generation
  names a meet or join class by rank count only where rounding at the
  cutoff cannot move it: no earlier class within ``10 * eps`` plus the
  cutoff of a named operand, the same first class of the zero or identity
  matrix at ``10 * eps`` minus and plus the cutoff, and a cutoff of at most
  ``10 * eps``.  It names any other meet or join by the order the counts
  give (the one earlier class of the counted rank below or above both
  operands) only where the Davis-Kahan bound sqrt(alpha_ci² + alpha_cj²)
  / sqrt(1 - cos theta_min) is at most the cutoff: alpha the largest sine
  at or below the sine cutoff of each operand with that class, theta_min
  the operands' smallest angle whose sine is above it.  Verification
  checks an entry past that bound against the batched meet or join within
  ``10 * eps``.  Neither rule changes a tolerance or a cutoff.
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

import math
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
    "encode_array", "decode_array",
]

DEFAULT_EPS = 1e-9


def _is_tolerance(value) -> bool:
    # the chained comparison also rejects NaN and an int too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _rank_cutoff(eps: float, dim: int) -> float:
    # math.sqrt gives numpy's value at a sixth of the cost of a numpy scalar
    return eps * math.sqrt(dim)


def _sine_cutoff(eps: float, dim: int) -> float:
    """c sqrt(2 - c²) for the rank cutoff c, capped at 1: the largest sine
    of a principal angle that a span count treats as a shared direction."""
    c = min(_rank_cutoff(eps, dim), 1.0)
    return c * math.sqrt(2 - c * c)


def _compatible_tol(eps: float, dim: int) -> float:
    """tau: the max-entry commutator at or below which two projectors count
    as commuting, one hundredth of the sine cutoff over ``dim``."""
    return _sine_cutoff(eps, dim) / (100 * dim)


def _class_tol(eps: float) -> float:
    return 10 * eps


def _deviation(a: np.ndarray, b: np.ndarray, axes: int = 2) -> np.ndarray:
    """Max |a - b| over the last ``axes`` axes (0 if empty), batched over the rest."""
    return np.abs(a - b).max(axis=tuple(range(-axes, 0)), initial=0.0)


def _projector_defects(m: np.ndarray, rank, eps: float) -> list[tuple[int, str, float]]:
    """(k, code, deviation) for each invariant that ``m[k]``, of a stack of
    square matrices, breaks as a rank-``rank[k]`` projector, by k: the
    deviations of the whole stack come from one batched pass.  Idempotence
    is measured on the Hermitian part, which it keeps, and a rank outside
    [0, dim] fails the trace check whatever the trace."""
    d = m.shape[-1]
    # entries near the float limit overflow to inf and NaN, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        mh = m.conj().swapaxes(1, 2)
        h = (m + mh) / 2.0
        deviations = zip(_deviation(m, mh).tolist(), _deviation(h @ h, h).tolist(),
                         np.trace(h, axis1=1, axis2=2).real.tolist(), rank)
    defects = []
    for k, (herm, idem, trace, r) in enumerate(deviations):
        checks = (("not-hermitian", herm, eps), ("not-idempotent", idem, eps),
                  ("bad-rank", abs(trace - r), eps * d if 0 <= r <= d else -1.0))
        defects += [(k, code, dev) for code, dev, bound in checks if not dev <= bound]
    return defects


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
    with np.errstate(over="ignore"):   # amplitudes near the float limit: an inf norm, which fails
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
    A projector is immutable and its matrix read-only.  It keeps two
    read-only orthonormal bases once it has them: of its range
    (``basis()``) and of the orthocomplement.  ``meet`` and ``join`` results
    are built with both, from their one full SVD, and ``ortho`` results with
    their operand's two, swapped; any other projector computes each from an
    SVD on first use.
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

        Unless the projector was built with it, the first call takes it
        from an SVD of the matrix; every later call returns the same
        read-only array.
        """
        b = self.__dict__.get("_basis")
        if b is None:
            b = self.__dict__["_basis"] = _leading_columns(self.matrix, self.rank)
        return b

    def _complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the orthocomplement, as ``basis()`` is of the
        range: unless the projector was built with it, from an SVD of I - P."""
        c = self.__dict__.get("_complement")
        if c is None:
            c = self.__dict__["_complement"] = _leading_columns(
                np.eye(self.dim) - self.matrix, self.dim - self.rank)
        return c

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
    (p,), errors = _projectors(_square_matrix(spec, dim)[None], eps)
    if errors:
        raise errors[0]
    return p


def _projectors(m: np.ndarray, eps: float) -> tuple[list[Projector], dict[int, ProjectorError]]:
    """``make_projector`` of each matrix of the stack ``m`` of square, finite
    matrices, by one batched check: each symmetrized, with the rank its
    trace claims (-1, which fails, where the trace is not finite), and the
    ``ProjectorError`` of its first defect by k for each that is not a
    projector within ``eps``."""
    with np.errstate(over="ignore", invalid="ignore"):   # only where the check fails
        symmetric = (m + m.conj().swapaxes(1, 2)) / 2.0
        traces = np.trace(m, axis1=1, axis2=2).real.tolist()
    ranks = [round(t) if math.isfinite(t) else -1 for t in traces]
    errors: dict[int, ProjectorError] = {}
    for k, code, dev in _projector_defects(m, ranks, eps):
        errors.setdefault(k, ProjectorError(
            f"matrix is not a projector ({code}, deviation {dev:.3g})", code=code))
    return [Projector(m.shape[-1], h, r) for h, r in zip(symmetric, ranks)], errors


def _square_matrix(spec: np.ndarray, dim: int | None = None) -> np.ndarray:
    """The 2-d array ``spec`` as a complex matrix, if it is square, of
    ``dim`` rows where that is given, and finite."""
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
    return m


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
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    return _from_basis(dim, u[:, sv > _rank_cutoff(eps, dim)])


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ProjectorError("projector input has a NaN or infinite entry",
                             code="schema")


def _span(a: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only orthonormal bases of the span of the columns of ``a``, up
    to the rank cutoff, and of its orthocomplement, from one full SVD."""
    d, n = a.shape
    # an SVD of d or more columns already has all d columns of U
    u, s, _ = np.linalg.svd(a, full_matrices=n < d)
    # selecting the columns by mask copies them column-major; ``_meet``
    # multiplies by a kept basis, and a product's rounding follows its layout
    basis = u[:, : s.size][:, s > _rank_cutoff(eps, d)]
    return _read_only(basis), _read_only(u[:, basis.shape[1]:])


def _from_basis(dim: int, basis: np.ndarray) -> Projector:
    return Projector(dim, _outer(basis), basis.shape[1])


def _outer(basis: np.ndarray) -> np.ndarray:
    """B Bᴴ of the orthonormal columns B, symmetrized."""
    m = basis @ basis.conj().T
    return (m + m.conj().T) / 2.0  # exactly Hermitian after symmetrization


def _with_bases(matrix: np.ndarray, basis: np.ndarray, complement: np.ndarray) -> Projector:
    """The projector ``matrix`` onto the span of the orthonormal columns
    ``basis``, built with them as its ``basis()`` and ``complement`` as its
    orthocomplement's."""
    p = Projector(basis.shape[0], matrix, basis.shape[1])
    p.__dict__.update(_basis=basis, _complement=complement)
    return p


def _leading_columns(m: np.ndarray, rank: int) -> np.ndarray:
    """The first ``rank`` left singular vectors of ``m``, read-only; at rank
    0, no SVD."""
    if rank == 0:
        return _read_only(np.zeros((m.shape[0], 0), dtype=np.complex128))
    return _read_only(np.linalg.svd(m)[0][:, :rank])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    """Orthocomplement: projector onto the orthogonal subspace.

    Its matrix is I minus ``p.matrix``.  It is built with ``p``'s two
    bases, swapped: ``p``'s complement basis is its ``basis()``, and
    ``p.basis()`` its complement's.
    """
    return _with_bases(np.eye(p.dim) - p.matrix, p._complement_basis(), p.basis())


def meet(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> Projector:
    """Projector onto the intersection of the two ranges.

    Its matrix is B Bᴴ, symmetrized, of the orthonormal columns B that
    ``_meet`` finds from the two range bases, and it keeps B as its
    ``basis()`` and the rest of B's full SVD as its complement's.
    """
    _check_same_dim(p, q)
    b, c = _meet(p.basis(), q.basis(), eps)
    return _with_bases(_outer(b), b, c)


def join(p: Projector, q: Projector, eps: float = DEFAULT_EPS) -> Projector:
    """Projector onto the closed span of the union of the two ranges.

    With an operand of rank 0 the result is the other operand itself.
    Otherwise it is built as ``meet``'s, from the bases ``_join`` finds;
    it agrees with the De Morgan route ortho(meet(ortho(p), ortho(q)))
    within eps.
    """
    _check_same_dim(p, q)
    if p.rank == 0:
        return q
    if q.rank == 0:
        return p
    b, c = _join(p.basis(), q.basis(), eps)
    return _with_bases(_outer(b), b, c)


def _meet(bp: np.ndarray, bq: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the intersection of the spans of the orthonormal
    columns ``bp`` and ``bq``, and of its orthocomplement.

    A vector lies in both exactly when B_p x = B_q y for some coordinates
    x, y, i.e. when (x, y) is in the null space of the stacked constraint
    [B_p | -B_q].  The left blocks of an orthonormal null-space basis
    therefore parametrize the intersection, and the image B_p x is
    re-orthonormalized.  Rank-revealing throughout, no iteration to tune.
    The zero subspace has the identity as its complement basis.
    """
    d = bp.shape[0]
    if bp.shape[1] and bq.shape[1]:
        _, s, vh = np.linalg.svd(np.hstack([bp, -bq]))
        # singular values come sorted, so the null space is spanned by vh's last rows
        null_basis = vh[np.count_nonzero(s > _rank_cutoff(eps, d)):].conj().T
        if null_basis.shape[1]:
            return _span(bp @ null_basis[: bp.shape[1], :], eps)
    return (_read_only(np.zeros((d, 0), dtype=np.complex128)),
            _read_only(np.eye(d, dtype=np.complex128)))


def _join(bp: np.ndarray, bq: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the span of the orthonormal columns ``bp`` and
    ``bq``, and of its orthocomplement: the stacked bases orthonormalized."""
    return _span(np.hstack([bp, bq]), eps)


# Batched meet and join, for quotient generation.  ``meet``/``join`` and
# extension evaluation stay on range bases: the kernel returns no basis to
# hand on, and on one pair it costs more (17 against 10 us at dim 2, 59
# against 45 us at dim 16; best of 7, 2 CPUs).


def _pair_spans(a: np.ndarray, b: np.ndarray, eps: float,
                meet: bool) -> tuple[np.ndarray, np.ndarray]:
    """The meet (``meet`` true) or join of the ranges of the projector
    matrices ``a[k]`` and ``b[k]`` for each k: ``(k, dim, dim)`` matrices and
    ``(k,)`` ranks.

    One stacked SVD of the ``2 dim x dim`` matrices [(I - A); (I - B)] for a
    meet, whose null space is the intersection, or [A; B] for a join, whose
    row space is the span.  The rank-deciding singular values are
    sqrt(1 - cos theta) over the principal angles theta, as for the stacked
    bases [B_a | -B_b] of ``meet`` and [B_a | B_b] of ``join``.  A result
    is V Vᴴ of the kept rows of vh, symmetrized, and a rank-0 result is the
    zero matrix, with no -0. entry.
    """
    d = a.shape[-1]
    if meet:
        a, b = np.eye(d) - a, np.eye(d) - b
    _, s, vh = np.linalg.svd(np.concatenate([a, b], axis=1), full_matrices=False)
    kept = (s <= _rank_cutoff(eps, d)) if meet else (s > _rank_cutoff(eps, d))
    v = np.where(kept[:, None, :], vh.conj().swapaxes(1, 2), 0)   # kept rows as columns
    m = v @ v.conj().swapaxes(1, 2)
    m += m.conj().swapaxes(1, 2)   # in place: the temporaries stay small
    m /= 2.0
    return m, np.count_nonzero(kept, axis=1)


def _span_factors(frames: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(complements, ranges)``: the premasked factors of ``_span_dims`` for
    the frames ``frames[k]`` (unitaries whose first ``ranks[k]`` columns span
    a range, the rest its complement).  ``complements[k]`` is the conjugate
    transpose of the frame with its range rows zeroed, ``ranges[k]`` the
    frame with its complement columns zeroed."""
    at, ranks = np.arange(frames.shape[-1]), ranks[:, None, None]
    return (np.where(at[:, None] >= ranks, frames.conj().swapaxes(1, 2), 0),
            np.where(at < ranks, frames, 0))


def _span_dims(complements: np.ndarray, ra: np.ndarray, ranges: np.ndarray,
               eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(span, alpha, gap)``: the dimension of the span of the ranges A_k
    and B_k for each k, and the two margins of that count, from the rank
    ``ra[k]`` of A_k and the premasked factors of ``_span_factors``:
    ``complements[k]`` of A_k's frame F_a, ``ranges[k]`` of B_k's F_b.

    The span is A_k plus the part of B_k outside A_k, so it is r_a plus the
    count of singular values above the cutoff of the block of F_aᴴ F_b
    whose rows are A's complement and whose columns are B's range: the
    sines of the principal angles between A and B (Björck and Golub, 1973).
    The product of the two factors is that block with every other entry
    zero, and one values-only SVD of the ``(k, dim, dim)`` products counts
    them all.  The stacked
    [A; B] of ``_pair_spans``'s join has singular values sqrt(1 - cos theta)
    there, so its rank cutoff c is the sine cutoff c sqrt(2 - c²), and the
    counts are the same in exact arithmetic.  A cutoff of 1 or more, which
    no projector's own singular values exceed, keeps a sine cutoff of 1.
    Lattice generation and verification count by it the pairs whose
    projectors do not commute (``_compatible_span_dims`` counts the rest).

    From the same singular values: ``alpha`` is the largest sine at or below
    the sine cutoff (0 for none), how far the count treats a turned
    direction as shared, and ``gap`` is sqrt(1 - cos theta_min) of the
    smallest angle whose sine is above it (1, at 90 degrees, for none): the
    smallest of the kernel's singular values that the count keeps apart."""
    s = np.linalg.svd(complements @ ranges, compute_uv=False)
    above = s > _sine_cutoff(eps, complements.shape[-1])
    alpha = np.where(above, 0.0, s).max(axis=1, initial=0.0)
    # the smallest sine above the cutoff, clipped to 1 against rounding;
    # sqrt(1 - cos) as sin / sqrt(1 + cos) loses no digits at small angles
    sin = np.where(above, np.minimum(s, 1.0), 1.0).min(axis=1, initial=1.0)
    gap = sin / np.sqrt(1.0 + np.sqrt(1.0 - sin * sin))
    return ra + np.count_nonzero(above, axis=1), alpha, gap


def _compatible_span_dims(a: np.ndarray, ra: np.ndarray, b: np.ndarray, rb: np.ndarray,
                          eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(compatible, span, alpha, gap)``: which of the pairs of projector
    matrices ``a[k]`` and ``b[k]``, of ranks ``ra[k]`` and ``rb[k]``, commute
    within ``_compatible_tol``, and for each pair that does, in order, the
    span count and the margins of ``_span_dims``, with no SVD.

    Both matrices are Hermitian, so (AB)ᴴ = BA and one product gives the
    commutator AB - (AB)ᴴ.  A commuting pair's angles are 0 or 90 degrees
    (Halmos, 1969), AB projects onto the intersection and the span is r_a +
    r_b - tr(AB), rounded.  Within tau the angles are near those: the
    commutator's 2-norm, at most dim times its largest entry, bounds
    sin theta cos theta for every angle, so a small sine is at most 1.02 dim
    times the largest entry, and so is the cosine of an angle near 90
    degrees.  ``alpha`` is that bound, and ``gap`` is sqrt(1 - bound) where
    the count keeps a sine, 1 where it keeps none."""
    ab = a @ b
    comm = _deviation(ab, ab.conj().swapaxes(1, 2))
    compatible = comm <= _compatible_tol(eps, a.shape[-1])
    ab, ra = ab[compatible], ra[compatible]
    span = ra + rb[compatible] - np.rint(np.trace(ab, axis1=1, axis2=2).real).astype(int)
    alpha = 1.02 * a.shape[-1] * comm[compatible]
    return compatible, span, alpha, np.where(span > ra, np.sqrt(1.0 - alpha), 1.0)


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
    # the (dim, 1) column of the batched path, so the product rounds alike
    col = state.amplitudes[None, :].T
    return bool(np.abs(p.matrix @ col - col).max(initial=0.0) <= eps)


def _contains_states(images: np.ndarray, psis: np.ndarray, eps: float) -> np.ndarray:
    """Ray membership of each row psi of the ``(n, dim)`` array ``psis`` in
    each projector P of a stack, from the images ``P @ psis.T`` of shape
    ``(..., dim, n)``: max |P psi - psi| <= eps, a boolean array of shape
    ``(..., n)``."""
    return _deviation(images.swapaxes(-1, -2), psis, axes=1) <= eps


# ---------------------------------------------------------------------------
# random sampling


def random_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-uniform ray: normalized standard complex Gaussian components.

    The draw is one row of ``_random_states``, bit for bit: ``dim`` real
    normals, then ``dim`` imaginary ones, a draw of norm <= 1e-6 discarded,
    and the norm that ``np.linalg.norm`` takes along a row."""
    if dim < 1:
        raise ValueError(f"a random state needs dim >= 1, got {dim}")
    while True:
        x = rng.standard_normal(2 * dim)
        z = x[:dim] + 1j * x[dim:]
        norm = np.sqrt(np.add.reduce((z.conj() * z).real))
        if norm > 1e-6:
            return StateVector(dim, z / norm)


def _random_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-uniform rays as the rows of a ``(count, dim)`` array.

    Each draw reads ``dim`` real normals, then ``dim`` imaginary ones, from
    the stream, and all ``count`` draws are read at once.  A draw whose norm
    is <= 1e-6 is discarded and the rows still missing are drawn after the
    kept ones, so the rows are the draws of ``count`` ``random_state``
    calls.  When every draw is kept, the normalized draw is the result.  A
    ``dim`` below 1 is a ``ValueError``: no draw of it has a nonzero norm.
    """
    if dim < 1:
        raise ValueError(f"a random state needs dim >= 1, got {dim}")
    x = rng.standard_normal((count, 2 * dim))
    z = x[:, :dim] + 1j * x[:, dim:]
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-6
    if keep.all():
        return z / norms[:, None]
    rows = z[keep] / norms[keep, None]
    return np.concatenate([rows, _random_states(dim, count - rows.shape[0], rng)])


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
# serialization: complex entries as [re, im], arrays row-major


def _nested(entries, ndim: int, accepts) -> np.ndarray | None:
    """``entries`` as an ``ndim``-dimensional object array whose entry types
    all pass ``accepts`` (tested once per distinct type), or None."""
    try:
        values = np.array(entries, dtype=object)
    except ValueError:   # a nested list that numpy cannot shape
        return None
    if values.ndim != ndim or not all(map(accepts, set(map(type, values.flat)))):
        return None
    return values


def encode_array(a: np.ndarray) -> list:
    """``a`` as nested lists with each entry an ``[re, im]`` pair of floats,
    by one ``tolist`` of the stacked parts; the sign of a zero is kept."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode_array(entries, ndim: int) -> np.ndarray:
    """The ``ndim``-dimensional complex array that ``encode_array`` wrote as
    ``entries``: lists nested ``ndim`` deep of ``[re, im]`` pairs, each an
    int or float and not a bool.  One ``astype`` converts them all, and
    the sign of a zero is kept; other input is a ``schema`` error."""
    values = _nested(entries, ndim + 1,
                     lambda t: issubclass(t, (int, float)) and not issubclass(t, bool))
    if values is None or values.shape[-1] != 2:
        raise ProjectorError(f"complex entries must be {ndim}-level nested lists of "
                             "[re, im] number pairs", code="schema")
    try:
        return values.astype(np.float64).view(np.complex128)[..., 0]
    except OverflowError:
        raise ProjectorError("an [re, im] entry is beyond float range",
                             code="schema") from None
