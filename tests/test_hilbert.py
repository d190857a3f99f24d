import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmaql import (
    JustificationValue,
    Projector,
    ProjectorError,
    contains_state,
    identity_projector,
    join,
    justify,
    leq,
    make_projector,
    make_state,
    meet,
    ortho,
    pragmatic_extension,
    precedes,
    projector_from_span,
    projectors_close,
    random_projector,
    random_state,
    state_projector,
    zero_projector,
)
from pragmaql.hilbert import (
    DEFAULT_EPS,
    _class_tol,
    _contains_states,
    _deviation,
    _pair_spans,
    _random_states,
    _span_dims,
    decode_array,
    encode_array,
)

from helpers import defective_planes

P_Z = make_projector(np.diag([1.0, 0.0]).astype(complex))
P_X = make_projector(np.full((2, 2), 0.5, dtype=complex))


def close(p, q, tol=1e-9):
    return projectors_close(p, q, tol)


# ---------------------------------------------------------------------------
# construction


def test_span_of_basis_vector():
    p = projector_from_span([[1, 0]], dim=2)
    assert np.allclose(p.matrix, np.diag([1, 0]))
    assert p.rank == 1


def test_span_of_diagonal_vector_is_outer_product():
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    p = projector_from_span([v])
    assert np.allclose(p.matrix, np.outer(v, v.conj()), atol=1e-12)
    assert p.rank == 1


def test_empty_span_is_zero():
    p = projector_from_span([], dim=2)
    assert p.rank == 0
    assert np.all(p.matrix == 0)


def test_empty_span_needs_dim():
    with pytest.raises(ProjectorError):
        projector_from_span([])


def test_dependent_spanning_set_collapses():
    p = projector_from_span([[1, 0], [2, 0], [1e-12, 0]], dim=2)
    assert p.rank == 1
    assert close(p, P_Z)


def test_matrix_validation():
    with pytest.raises(ProjectorError) as exc:
        make_projector(np.array([[0, 1], [0, 0]], dtype=complex))
    assert exc.value.code == "not-hermitian"
    with pytest.raises(ProjectorError) as exc:
        make_projector(np.eye(2, dtype=complex) * 0.5)
    assert exc.value.code == "not-idempotent"
    with pytest.raises(ProjectorError) as exc:
        make_projector(np.eye(2, dtype=complex), dim=3)
    assert exc.value.code == "dimension-mismatch"


@pytest.mark.parametrize("d", [3, 4, 8, 16])
def test_a_matrix_projector_is_idempotent_to_rounding(d):
    # a matrix with a range eigenvalue 1 - 0.9 d eps passes the check; the
    # projector made from it is the one onto its leading singular vectors,
    # within eps of it, built with both bases
    _, raw = defective_planes(d)
    p = make_projector(raw)
    assert p.rank == 2
    assert _deviation(p.matrix, raw) <= DEFAULT_EPS
    assert _deviation(p.matrix @ p.matrix, p.matrix) <= d * np.finfo(float).eps
    assert _deviation(raw @ raw, raw) > d * np.finfo(float).eps
    b, c = p.basis(), p._complement_basis()
    assert b.shape == (d, 2) and c.shape == (d, d - 2)
    assert np.allclose(np.hstack([b, c]).conj().T @ np.hstack([b, c]), np.eye(d), atol=1e-14)
    assert np.allclose(b @ b.conj().T, p.matrix, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_projector_input_rejected(bad):
    # rejected before the trace is rounded to a rank or the span goes to an SVD
    for spec in (np.array([[bad, 0], [0, 0]], dtype=complex), [[bad, 0]]):
        with pytest.raises(ProjectorError) as exc:
            make_projector(spec)
        assert exc.value.code == "schema"


@pytest.mark.parametrize("diagonal", [[1e308, 1e308], [1e308, 0.0]])
def test_projector_input_near_the_float_limit_is_not_a_projector(diagonal):
    # the trace or the Hermitian part overflows; that is a failed check,
    # with no OverflowError from rounding the trace and no RuntimeWarning
    with pytest.raises(ProjectorError) as exc:
        make_projector(np.diag(diagonal).astype(complex))
    assert exc.value.code == "not-idempotent"


@pytest.mark.parametrize("amplitudes", [[1e155, 0], [1e200, 0], [0, 1e200j], [1e308, 1e308]])
def test_state_norm_beyond_the_float_limit_is_not_a_unit_norm(amplitudes):
    # the squared norm overflows to inf, with no RuntimeWarning: a non-unit state
    with pytest.raises(ProjectorError) as exc:
        make_state(amplitudes)
    assert exc.value.code == "non-unit-state"
    assert "state norm inf" in str(exc.value)


def test_state_normalization_and_rejection():
    s = make_state([0.707107, 0.707107])  # hand-typed decimals are fine
    assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12
    with pytest.raises(ProjectorError) as exc:
        make_state([0, 0])
    assert exc.value.code == "zero-state"
    with pytest.raises(ProjectorError) as exc:
        make_state([0.5, 0])
    assert exc.value.code == "non-unit-state"
    for bad in ([np.nan, 0], [np.inf, 0], [1, complex(0, np.nan)]):
        # a NaN norm fails both norm tests; it must not pass as a unit state
        with pytest.raises(ProjectorError) as exc:
            make_state(bad)
        assert exc.value.code == "non-unit-state"


# ---------------------------------------------------------------------------
# orthocomplement


def test_ortho_zero_is_identity():
    assert close(ortho(zero_projector(3)), identity_projector(3))


def test_ortho_involution_random():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(20):
            p = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
            assert close(ortho(ortho(p)), p)


def test_ortho_of_diagonal_line():
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    assert np.allclose(ortho(P_X).matrix, expected, atol=1e-12)


def test_ortho_rank():
    rng = np.random.default_rng(3)
    p = random_projector(4, 3, rng)
    assert ortho(p).rank == 1


# ---------------------------------------------------------------------------
# meet / join / leq


def test_meet_idempotent():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        p = random_projector(dim, int(rng.integers(1, dim + 1)), rng)
        assert close(meet(p, p), p)


def test_meet_of_distinct_lines_is_zero():
    assert meet(P_Z, P_X).rank == 0


def test_meet_of_overlapping_planes_is_shared_line():
    p = projector_from_span([[1, 0, 0], [0, 1, 0]], dim=3)
    q = projector_from_span([[0, 1, 0], [0, 0, 1]], dim=3)
    expected = projector_from_span([[0, 1, 0]], dim=3)
    assert close(meet(p, q), expected, 1e-12)


def test_meet_with_complex_shared_line():
    line = np.array([1, 1j, 0]) / np.sqrt(2)
    p = projector_from_span([line, [0, 0, 1]], dim=3)
    q = projector_from_span([line, [0, 1, 0]], dim=3)
    got = meet(p, q)
    assert close(got, projector_from_span([line]), 1e-12)


def test_meet_with_identity():
    assert close(meet(P_X, identity_projector(2)), P_X)


def test_join_of_distinct_lines_is_identity():
    assert close(join(P_Z, P_X), identity_projector(2))


def test_join_with_zero():
    assert close(join(P_X, zero_projector(2)), P_X)


def test_join_with_complement_is_identity():
    rng = np.random.default_rng(13)
    for dim in (2, 3, 4):
        p = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
        assert close(join(p, ortho(p)), identity_projector(dim), 1e-8)


def test_leq_zero_below_everything():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4):
        q = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
        assert leq(zero_projector(dim), q)


def test_leq_distinct_lines():
    assert not leq(P_Z, P_X)
    assert not leq(P_X, P_Z)


def test_meet_is_lower_bound():
    rng = np.random.default_rng(19)
    for dim in (2, 3, 4):
        for _ in range(10):
            p = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
            m = meet(p, q)
            assert leq(m, p, 1e-8) and leq(m, q, 1e-8)


def test_leq_reflexive_and_antisymmetric():
    rng = np.random.default_rng(23)
    for dim in (2, 3):
        p = random_projector(dim, 1, rng)
        q = random_projector(dim, 1, rng)
        assert leq(p, p)
        if leq(p, q, 1e-8) and leq(q, p, 1e-8):
            assert close(p, q, 1e-8)


def test_leq_transitive_on_nested_chain():
    rng = np.random.default_rng(29)
    q = random_projector(4, 3, rng)
    basis = q.basis()
    p = make_projector(basis[:, :1] @ basis[:, :1].conj().T)
    r = make_projector(basis[:, :2] @ basis[:, :2].conj().T)
    assert leq(p, r, 1e-8) and leq(r, q, 1e-8) and leq(p, q, 1e-8)


# ---------------------------------------------------------------------------
# algebraic laws


def test_de_morgan_random_pairs():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        for _ in range(25):
            p = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
            q = random_projector(dim, int(rng.integers(0, dim + 1)), rng)
            assert close(join(p, q), ortho(meet(ortho(p), ortho(q))), 1e-8)


def test_orthomodular_law_nested_pairs():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        for _ in range(25):
            q_rank = int(rng.integers(1, dim + 1))
            q = random_projector(dim, q_rank, rng)
            sub = int(rng.integers(0, q_rank + 1))
            basis = q.basis()[:, :sub]
            p = make_projector(basis @ basis.conj().T)
            assert leq(p, q, 1e-8)
            assert close(join(p, meet(ortho(p), q)), q, 1e-8)


def test_distributivity_fails_in_dim_two():
    left = meet(P_Z, join(P_X, ortho(P_X)))
    right = join(meet(P_Z, P_X), meet(P_Z, ortho(P_X)))
    assert close(left, P_Z)
    assert right.rank == 0
    assert not close(left, right, 1e-3)


def test_meet_join_commutative_associative():
    rng = np.random.default_rng(41)
    for dim in (2, 3):
        for _ in range(10):
            p, q, r = (random_projector(dim, int(rng.integers(0, dim + 1)), rng)
                       for _ in range(3))
            assert close(meet(p, q), meet(q, p), 1e-8)
            assert close(join(p, q), join(q, p), 1e-8)
            assert close(meet(meet(p, q), r), meet(p, meet(q, r)), 1e-8)
            assert close(join(join(p, q), r), join(p, join(q, r)), 1e-8)


def test_dimension_mismatch_rejected():
    with pytest.raises(ProjectorError):
        meet(P_Z, identity_projector(3))
    with pytest.raises(ProjectorError):
        leq(P_Z, identity_projector(3))


# ---------------------------------------------------------------------------
# states


def test_state_projector_membership():
    s = make_state([1, 0])
    assert contains_state(P_Z, s)
    assert not contains_state(P_X, s)
    assert close(state_projector(s), P_Z)


def test_membership_respects_meet_and_join():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = random_projector(3, int(rng.integers(0, 4)), rng)
        q = random_projector(3, int(rng.integers(0, 4)), rng)
        s = random_state(3, rng)
        in_meet = contains_state(meet(p, q), s, 1e-8)
        assert in_meet == (contains_state(p, s, 1e-8)
                           and contains_state(q, s, 1e-8))
        if contains_state(p, s, 1e-8) or contains_state(q, s, 1e-8):
            assert contains_state(join(p, q), s, 1e-8)


def test_membership_on_states_constructed_inside_subspaces():
    rng = np.random.default_rng(47)
    p = random_projector(4, 2, rng)
    q = random_projector(4, 3, rng)
    m = meet(p, q)
    if m.rank:  # generic 2+3 planes in dim 4 intersect in a line
        coords = rng.standard_normal(m.rank) + 1j * rng.standard_normal(m.rank)
        vec = m.basis() @ coords
        s = make_state(vec / np.linalg.norm(vec))
        assert contains_state(p, s, 1e-8)
        assert contains_state(q, s, 1e-8)


def test_random_state_is_unit():
    rng = np.random.default_rng(53)
    for dim in (2, 3, 4):
        s = random_state(dim, rng)
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12


class StubNormals:
    """Hands out a fixed stream of normals in the shapes asked for, counting
    what it has handed out; the draws at ``tiny`` are scaled to norm ~1e-9."""

    def __init__(self, dim, tiny, seed=0):
        self.stream = np.random.default_rng(seed).standard_normal(4096)
        for k in tiny:
            self.stream[2 * dim * k: 2 * dim * (k + 1)] *= 1e-9
        self.used = 0

    def standard_normal(self, size):
        n = int(np.prod(size))
        out = self.stream[self.used: self.used + n].reshape(size)
        self.used += n
        return out


def _loop_states(dim, count, rng):
    """The per-state loop: redraw while the norm is at most 1e-6."""
    rows = []
    while len(rows) < count:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = float(np.linalg.norm(z))
        if norm > 1e-6:
            rows.append(z / norm)
    return np.array(rows, dtype=complex).reshape(count, dim)


@pytest.mark.parametrize("count", [0, 50])
def test_batched_states_read_the_stream_like_random_state(count):
    for dim in range(1, 17):
        batch_rng, rng = np.random.default_rng(dim), np.random.default_rng(dim)
        batch = _random_states(dim, count, batch_rng)
        single = [random_state(dim, rng).amplitudes for _ in range(count)]
        assert batch.shape == (count, dim)
        loop = _loop_states(dim, count, np.random.default_rng(dim))
        for other in (np.array(single).reshape(count, dim), loop):
            assert np.abs(batch - other).max(initial=0) <= 1e-15
        # both leave the generator at the same point
        assert batch_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("tiny", [(0,), (0, 7), (3, 4, 49)])
def test_batched_states_redraw_tiny_rows_like_the_loop(tiny):
    for dim in (1, 2, 5):
        batch_rng, loop_rng = StubNormals(dim, tiny), StubNormals(dim, tiny)
        batch = _random_states(dim, 50, batch_rng)
        loop = _loop_states(dim, 50, loop_rng)
        assert np.abs(batch - loop).max() <= 1e-15
        assert batch_rng.used == loop_rng.used == 2 * dim * (50 + len(tiny))


@pytest.mark.parametrize("tiny", [(), (0, 7)])
def test_random_state_is_a_row_of_the_batch_bit_for_bit(tiny):
    # random_state draws one state without the batch's bookkeeping, but
    # reads the stream, redraws and normalizes as _random_states does
    for dim in range(1, 17):
        for batch_rng, rng in ((np.random.default_rng([dim, 5]), np.random.default_rng([dim, 5])),
                               (StubNormals(dim, tiny), StubNormals(dim, tiny))):
            batch = _random_states(dim, 40, batch_rng)
            single = np.stack([random_state(dim, rng).amplitudes for _ in range(40)])
            assert single.tobytes() == batch.tobytes()
        assert batch_rng.used == rng.used == 2 * dim * (40 + len(tiny))


def test_contains_state_is_the_batch_test_bit_for_bit():
    # contains_state tests one state without the batch's bookkeeping; at an
    # eps equal to the batch's own deviation, and one ulp below it, both
    # must decide alike, so the deviations agree to the last bit
    rng = np.random.default_rng(61)
    for dim in range(1, 17):
        projs = [random_projector(dim, r, rng) for r in range(dim + 1)]
        for p in projs:
            basis = p.basis()
            states = [random_state(dim, rng) for _ in range(3)]
            if basis.shape[1]:   # states in the range, off P psi = psi by rounding
                coords = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
                vec = basis @ coords
                states.append(make_state(vec / np.linalg.norm(vec)))
            for psi in states:
                psis = psi.amplitudes[None, :]
                images = p.matrix @ psis.T
                dev = float(_deviation(images.swapaxes(-1, -2), psis, axes=1)[0])
                for eps in (DEFAULT_EPS, dev, np.nextafter(dev, 0.0)):
                    expected = bool(_contains_states(images, psis, eps)[0])
                    assert contains_state(p, psi, eps) is expected
                assert contains_state(p, psi, dev)
                assert not contains_state(p, psi, np.nextafter(dev, 0.0)) or dev == 0.0


@pytest.mark.parametrize("dim", [0, -1])
def test_random_states_refuse_a_dim_below_one(dim):
    # no draw of dim 0 has a nonzero norm, so redrawing would never end
    for draw in (lambda rng: _random_states(dim, 2, rng), lambda rng: random_state(dim, rng)):
        with pytest.raises(ValueError, match="dim >= 1"):
            draw(np.random.default_rng(0))


def test_random_projector_is_valid():
    rng = np.random.default_rng(59)
    for dim in (2, 3, 4):
        for rank in range(dim + 1):
            p = random_projector(dim, rank, rng)
            rebuilt = make_projector(p.matrix)  # passes validation
            assert rebuilt.rank == rank


@pytest.mark.parametrize("dim, rank", [(3, 0), (3, 1), (4, 2), (3, 3)])
def test_basis_is_computed_once_and_read_only(dim, rank):
    p = random_projector(dim, rank, np.random.default_rng(61))
    b = p.basis()
    assert p.basis() is b
    assert b.shape == (dim, rank)
    with pytest.raises(ValueError):
        b[...] = 0
    expected = np.linalg.svd(p.matrix)[0][:, :rank]
    assert b.dtype == expected.dtype and b.tobytes() == expected.tobytes()
    # the orthocomplement's basis comes from an SVD of I - P, whether or not
    # P's own basis was computed first
    fresh = random_projector(dim, rank, np.random.default_rng(61))
    assert ortho(fresh).basis().tobytes() == ortho(p).basis().tobytes()


def sharing_pair(dim, rng):
    """Two projectors from spans that share a random subspace, so that
    their meet is not zero."""
    common = rng.integers(1, dim)
    vectors = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p_extra, q_extra = rng.integers(0, dim - common + 1, size=2)
    shared = list(vectors[:common])
    return (projector_from_span(shared + list(vectors[common:common + p_extra])),
            projector_from_span(shared + list(vectors[dim - q_extra:])))


def assert_is_basis_of(b, p):
    assert b.shape == (p.dim, p.rank)
    with pytest.raises(ValueError):
        b[...] = 0
    eps = DEFAULT_EPS
    assert float(np.abs(b.conj().T @ b - np.eye(p.rank)).max(initial=0.0)) <= eps
    assert float(np.abs(b @ b.conj().T - p.matrix).max(initial=0.0)) <= eps


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_meet_join_and_ortho_hand_on_their_basis(monkeypatch, dim):
    # each meet and join result's basis() is the orthonormal columns it was
    # built from, and ortho takes its operand's complement basis as its own,
    # a meet's and a join's included: no basis() below runs an SVD
    rng = np.random.default_rng(dim)
    svd, calls = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    for _ in range(4):
        p, q = sharing_pair(dim, rng)
        p.basis(), q.basis()
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        pq_meet, pq_join = meet(p, q), join(p, q)
        operands = [p, q, pq_meet, pq_join]
        results = [pq_meet, pq_join] + [ortho(x) for x in operands]
        made = len(calls)
        bases = [r.basis() for r in results]
        assert len(calls) == made
        monkeypatch.setattr(np.linalg, "svd", svd)
        for b, r in zip(bases, results):
            assert r.basis() is b
            assert_is_basis_of(b, r)
        for operand, complement in zip(operands, bases[2:]):
            overlap = operand.basis().conj().T @ complement
            assert float(np.abs(overlap).max(initial=0.0)) <= DEFAULT_EPS
            assert ortho(ortho(operand)).basis() is operand.basis()


def eager_matrix(result, operands):
    """The matrix that ``result``, of a connective over ``operands``, had
    when results formed theirs as they were made: I minus the operand's for
    an orthocomplement, else B Bᴴ of its basis B, symmetrized."""
    if len(operands) == 1:
        return np.eye(result.dim) - operands[0].matrix
    b = result.basis()
    m = b @ b.conj().T
    return (m + m.conj().T) / 2.0


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_results_hold_the_eager_matrix(dim):
    # seeded chains of meets, joins and orthocomplements over random
    # projectors; each result holds the matrix an eager build gives, read-only
    rng = np.random.default_rng(200 + dim)
    pool = [random_projector(dim, int(rng.integers(1, dim)), rng) for _ in range(3)]
    for step in range(60):
        kind = int(rng.integers(3))
        operands = [pool[int(i)] for i in rng.integers(len(pool), size=1 if kind == 2 else 2)]
        result = (meet, join, ortho)[kind](*operands)
        if any(result is x for x in operands) or kind == 0 and result.rank == 0:
            continue   # a join's operand, or a meet's eager zero
        expected = eager_matrix(result, operands)
        for name, value in (("matrix", expected), ("rank", 0), ("dim", dim)):
            with pytest.raises(AttributeError):
                setattr(result, name, value)
        if step % 3 == 0:
            result.basis()   # a basis first must not change the matrix
        assert np.array_equal(result.matrix, expected)
        assert result.matrix is result.matrix
        with pytest.raises(ValueError):
            result.matrix[0, 0] = 0
        pool.append(result)


def test_a_long_chain_of_orthocomplements_forms_without_recursing(qubit):
    # each N's matrix is I minus its operand's, formed on first read; at the
    # default recursion limit a chain the parser accepts must form too
    text = "N " * 800 + "|- az"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = pragmatic_extension(qubit, text)
        assert np.array_equal(p.matrix, qubit.atom_projector("az").matrix)
        assert justify(qubit, "z+", text) is JustificationValue.J
        assert justify(qubit, "z-", "N " + text) is JustificationValue.J
        assert precedes(qubit, text, text)
        chain = [ortho(P_X)]
        for _ in range(5000):
            chain.append(ortho(chain[-1]))
        assert np.array_equal(chain[-1].matrix, np.eye(2) - chain[-2].matrix)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# tolerance policy: leq and meet at the inclusion threshold


def turned_basis(dim, rank, seed, theta):
    """A Haar-random unitary u, and the first ``rank`` columns of u with the
    last one turned towards column ``rank`` by the angle ``theta``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    turned = u[:, :rank].copy()
    turned[:, -1] = np.cos(theta) * u[:, rank - 1] + np.sin(theta) * u[:, rank]
    return u, turned


def turned_pair(dim, rank, seed, theta):
    """A Haar-random rank-``rank`` projector p, and q: p with one range
    vector turned out of it by the angle ``theta``."""
    u, turned = turned_basis(dim, rank, seed, theta)
    return projector_from_span(list(u[:, :rank].T)), projector_from_span(list(turned.T))


def kernel_meet(p, q, eps):
    """``meet`` by the batched kernel of generation, on a batch of one."""
    mats, ranks = _pair_spans(p.matrix[None], q.matrix[None], eps, True)
    return Projector(p.dim, mats[0], int(ranks[0]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim_rank=st.integers(2, 16).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       seed=st.integers(0, 2**32 - 1), inside=st.booleans(), scale=st.floats(0.0, 1.0))
def test_leq_and_meet_agree_outside_the_band(dim_rank, seed, inside, scale):
    # Inclusion by leq (max-entry deviation) and by meet (rank cutoff) both
    # hold at theta <= 0.5 eps and both fail at theta >= 2 eps sqrt(2 dim),
    # up to 5 times that.  In the band between, the two rules may disagree,
    # so no angle is drawn from it and nothing is asserted there.  Generation's
    # kernel, whose meets order a lattice's classes, is held to the same band.
    dim, rank = dim_rank
    eps = DEFAULT_EPS
    if inside:
        theta = 0.5 * eps * scale
    else:
        theta = 2 * eps * np.sqrt(2 * dim) * (1 + 4 * scale)
    p, q = turned_pair(dim, rank, seed, theta)
    assert leq(p, q, eps) == inside
    for m in (meet(p, q, eps), kernel_meet(p, q, eps)):
        merged = projectors_close(m, p, _class_tol(eps))
        if inside:
            assert m.rank == rank and merged
        else:
            assert m.rank == rank - 1 and not merged


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim_rank=st.integers(2, 16).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 6.0))
def test_kernel_is_accurate_above_the_band(dim_rank, seed, scale):
    # From the band's edge up to 10^6 times it, the kernel's meet and join
    # are the exact intersection and span within 1e-7
    dim, rank = dim_rank
    eps = DEFAULT_EPS
    theta = 2 * eps * np.sqrt(2 * dim) * 10 ** scale
    u, turned = turned_basis(dim, rank, seed, theta)
    p, q = (projector_from_span(list(b.T)) for b in (u[:, :rank], turned))
    for is_meet, exact in ((True, u[:, :rank - 1]), (False, u[:, :rank + 1])):
        mats, ranks = _pair_spans(p.matrix[None], q.matrix[None], eps, is_meet)
        assert ranks[0] == exact.shape[1]
        assert np.abs(mats[0] - exact @ exact.conj().T).max() <= 1e-7


def _kernel_cases(dim):
    """Projectors at dim ``dim`` and the pairs (i, j) to combine: every rank
    pair, 0 and dim included, in both orders and with itself, then near-band
    pairs, a range vector turned by theta in [0.1 eps, 10 eps sqrt(2 dim)],
    whose meets straddle the rank cutoff."""
    rng = np.random.default_rng(dim)
    projs = [random_projector(dim, r, rng) for r in range(dim + 1)]
    pairs = [(x, y) for x in range(dim + 1) for y in range(dim + 1)]
    for rank in range(1, dim):
        for theta in np.geomspace(0.1 * DEFAULT_EPS, 10 * DEFAULT_EPS * np.sqrt(2 * dim), 5):
            projs += turned_pair(dim, rank, 1000 * dim + rank, theta)
            pairs.append((len(projs) - 2, len(projs) - 1))
    i, j = (np.array(side) for side in zip(*pairs))
    return projs, i, j


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", range(2, 17))
def test_kernel_matches_meet_and_join(dim):
    # generation combines class pairs through this kernel, on stacked
    # projectors instead of range bases: its ranks are meet/join's on every
    # pair, near-band ones included, and its matrices agree on the generic ones
    projs, i, j = _kernel_cases(dim)
    stack = np.stack([p.matrix for p in projs])
    generic = (dim + 1) ** 2
    for is_meet, op in ((True, meet), (False, join)):
        mats, ranks = _pair_spans(stack[i], stack[j], DEFAULT_EPS, is_meet)
        for k in range(len(i)):
            ref = op(projs[i[k]], projs[j[k]], DEFAULT_EPS)
            assert ranks[k] == ref.rank, (op.__name__, k)
            if k < generic:
                assert np.abs(mats[k] - ref.matrix).max() <= 1e-13, (op.__name__, k)
            # a row's bits do not depend on its batch, so the chunk size
            # of generation cannot move an export
            one_mats, one_ranks = _pair_spans(stack[i[k:k + 1]], stack[j[k:k + 1]],
                                              DEFAULT_EPS, is_meet)
            assert _same_bits(one_mats[0], mats[k]) and one_ranks[0] == ranks[k]
        # a rank-0 result is the zero matrix, with no -0. entry to print
        zero = mats[ranks == 0].view(float)
        assert zero.size and not zero.any() and not np.signbit(zero).any()
        if is_meet:
            # the near-band pairs put rows of both meet ranks into one batch
            near = set(zip((projs[x].rank for x in i[generic:]), ranks[generic:]))
            assert any((r, r) in near and (r, r - 1) in near for r in range(1, dim))


def _near_span_pairs(dim, count):
    """``count`` seeded turned pairs for each rank 1 to dim - 1, by angles
    drawn log-uniformly from [0.1, 10] eps sqrt(2 dim).  The least nonzero
    singular value of the stacked pair, sqrt(1 - cos theta), is about
    theta / sqrt 2, so it crosses the rank cutoff eps sqrt(dim) near
    eps sqrt(2 dim)."""
    rng = np.random.default_rng([dim, 18])
    edge = DEFAULT_EPS * np.sqrt(2 * dim)
    return [turned_pair(dim, rank, int(rng.integers(2**32)), 10 ** rng.uniform(-1, 1) * edge)
            for rank in range(1, dim) for _ in range(count)]


def span_dims(pairs):
    """``_span_dims`` of the projector pairs ``pairs``, stacked."""
    (a, ra), (b, rb) = ((np.stack([pair[k].matrix for pair in pairs]),
                         np.array([pair[k].rank for pair in pairs])) for k in (0, 1))
    return _span_dims(a, ra, b, rb, DEFAULT_EPS)


@pytest.mark.parametrize("dim", range(2, 17))
def test_span_count_is_the_rank_of_join(dim):
    # generation and verification count a pair's span dimension from the
    # trace of P Q where the two commute, and from the sines of its principal
    # angles, the singular values of Q - P Q, where they do not; it must be
    # the rank of ``join``, which counts on the range bases [B_p | B_q], on
    # every rank pair (0 and dim included) and on pairs whose span straddles
    # the rank cutoff
    projs, i, j = _kernel_cases(dim)
    near = _near_span_pairs(dim, 24)
    for pairs in ([(projs[x], projs[y]) for x, y in zip(i, j)], near):
        span = span_dims(pairs)[0].tolist()
        assert span == [join(p, q, DEFAULT_EPS).rank for p, q in pairs]
    # the near pairs, counted last, fall on both sides of the cutoff at every rank
    outcomes = set(zip((p.rank for p, _ in near), span))
    assert all({(r, r), (r, r + 1)} <= outcomes for r in range(1, dim))


def _outer(columns):
    return columns @ columns.conj().T


@pytest.mark.parametrize("dim", range(2, 17))
def test_span_count_turns_at_the_sine_cutoff(dim):
    # the rank cutoff c on the stacked [P; Q] is the cutoff c sqrt(2 - c^2)
    # on the sines of the principal angles: a rank-r range with one vector
    # turned out of it by a sine 1% above that spans r + 1 with the range,
    # and by a sine 1% below it r.  The ranges are the first r columns of
    # the unitary u, and of u with the turned column and the one it turns
    # toward rotated.  The margins follow the turned sine: below the cutoff
    # it is alpha and no angle is kept (gap 1, at 90 degrees); above it
    # alpha is the rounding of the zero singular values of Q - P Q, a few
    # units of machine epsilon per dim, and the gap is sqrt(1 - cos theta)
    c = DEFAULT_EPS * np.sqrt(dim)
    cases = []
    for rank in range(1, dim):
        for factor, span in ((1.01, rank + 1), (0.99, rank)):
            theta = np.arcsin(factor * c * np.sqrt(2 - c * c))
            u, turned = turned_basis(dim, rank, 100 * dim + rank, theta)
            a, b = _outer(u[:, :rank]), _outer(turned)
            # sqrt(1 - cos theta), which rounds to 0 as written at these angles
            alpha, gap = (0.0, np.sqrt(2) * np.sin(theta / 2)) if factor > 1 else (np.sin(theta), 1.0)
            cases += [(a, b, rank, span, alpha, gap), (b, a, rank, span, alpha, gap)]
    a, b, ranks, expected, alpha, gap = (np.array(side) for side in zip(*cases))
    found = _span_dims(a, ranks, b, ranks, DEFAULT_EPS)
    assert (found[0] == expected).all()
    np.testing.assert_allclose(found[1], alpha, rtol=1e-6, atol=dim * np.finfo(float).eps)
    np.testing.assert_allclose(found[2], gap, rtol=1e-6)


def test_span_margins_of_exact_pairs():
    # lines of C^3 at a right angle, at 60 degrees and one line twice: no
    # sine is dropped, so alpha is 0 up to rounding, and the gap is
    # sqrt(1 - cos theta) of the smallest kept angle, 1 where none is kept.
    # The lines at a right angle and the repeated line commute, and are
    # counted from the trace of their product
    e = np.eye(3)
    line = lambda v: make_projector(_outer(np.array(v, dtype=complex)[:, None]))
    x, y, turned = line(e[0]), line(e[1]), line((e[0] + np.sqrt(3) * e[1]) / 2)
    span, alpha, gap = span_dims([(x, y), (x, turned), (x, x)])
    assert span.tolist() == [2, 2, 1]
    assert alpha[[0, 2]].tolist() == [0.0, 0.0] and alpha[1] <= 3 * np.finfo(float).eps
    np.testing.assert_allclose(gap, [1.0, np.sqrt(0.5), 1.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# complex amplitudes and serialization


def test_complex_line_projector():
    v = np.array([1, 1j]) / np.sqrt(2)
    p = projector_from_span([v])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(p.matrix, expected, atol=1e-12)
    assert contains_state(p, make_state(v))
    assert not contains_state(p, make_state([1, 0]))
    assert close(ortho(ortho(p)), p)
    assert meet(p, P_Z).rank == 0


def test_encode_decode_round_trip():
    v = decode_array([[1, 0], [0, 1]], 1)
    assert np.array_equal(v, np.array([1, 1j]))
    assert encode_array(v) == [[1.0, 0.0], [0.0, 1.0]]
    m = decode_array([[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]]], 2)
    assert np.array_equal(m, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert decode_array(encode_array(m), 2).tolist() == m.tolist()


def test_decode_keeps_the_sign_of_zero():
    # == cannot tell -0.0 from 0.0, and the JSON can
    for entries in ([[-0.0, -0.0]], [[-0.0, 0.0], [0.0, -0.0]]):
        v = decode_array(entries, 1)
        assert json.dumps(encode_array(v)) == json.dumps(entries)
    m = [[[-0.0, -0.0], [0.5, -0.0]], [[0.5, 0.0], [-0.0, 0.0]]]
    assert json.dumps(encode_array(decode_array(m, 2))) == json.dumps(m)


@pytest.mark.parametrize("values", [
    np.array([[0.5, -0.5j], [0.5j + 1e-17, -0.0 - 0.0j]]),
    np.array([[1.0, -0.0], [0.1, 2.5]]),
    np.array([[1, 0], [-3, 2]]),
    np.array([[-0.0, 0.0], [0.0, -0.0]], dtype=np.complex64),
])
def test_encoding_matches_encode_complex_per_entry(values):
    def encode_complex(z):   # the per-entry reference
        return [float(z.real), float(z.imag)]

    values.setflags(write=False)
    expected = [[encode_complex(z) for z in row] for row in values]
    # == cannot tell -0.0 from 0.0, and the JSON can
    assert json.dumps(encode_array(values)) == json.dumps(expected)
    assert json.dumps(encode_array(values.reshape(-1))) == json.dumps(
        [encode_complex(z) for z in values.reshape(-1)])
    assert all(type(x) is float for row in encode_array(values) for z in row for x in z)
    assert json.dumps(encode_array(decode_array(expected, 2))) == json.dumps(expected)


def test_decode_rejects_malformed_entries():
    cases = [
        ([[1, 0], [1]], 1),
        ([[1, 0], [True, 0]], 1),
        ([[[1, 0]], [[0, 0], [1, 0]]], 2),
        ([], 2),
        ([[1, 0], [10 ** 400, 0]], 1),
        ([[[1, 0], [0, 0]], [[0, 0], [0, -(10 ** 400)]]], 2),
        # ragged at the third level: one entry is not a pair
        ([[[1, 0], [0, 0]], [[0, 0], [1]]], 2),
        ([[[1, 0], [0, 0]], [[0, 0], [1, 0, 0]]], 2),
        ([[[1, 0], [0, 0]], [[0, 0], [1, [0]]]], 2),
        ([[1, 0], ["0", 0]], 1),
        ([[1, 0], [None, 0]], 1),
        ([[1, 0], [0, 1]], 2),
        ([[[1, 0]]], 1),
        ({"re": 1, "im": 0}, 1),
        (7, 1),
    ]
    for entries, ndim in cases:
        with pytest.raises(ProjectorError) as exc:
            decode_array(entries, ndim)
        assert exc.value.code == "schema", entries
