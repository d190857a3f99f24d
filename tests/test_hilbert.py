import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pragmaql import (
    ProjectorError,
    contains_state,
    identity_projector,
    join,
    leq,
    make_projector,
    make_state,
    meet,
    ortho,
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
    _random_states,
    decode_matrix,
    decode_vector,
    encode_complex,
    encode_matrix,
    encode_vector,
)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_projector_input_rejected(bad):
    # rejected before the trace is rounded to a rank or the span goes to an SVD
    for spec in (np.array([[bad, 0], [0, 0]], dtype=complex), [[bad, 0]]):
        with pytest.raises(ProjectorError) as exc:
            make_projector(spec)
        assert exc.value.code == "schema"


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


# ---------------------------------------------------------------------------
# tolerance policy: leq and meet at the inclusion threshold


def turned_pair(dim, rank, seed, theta):
    """A Haar-random rank-``rank`` projector p, and q: p with one range
    vector turned out of it by the angle ``theta``."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((dim, dim))
                     + 1j * rng.standard_normal((dim, dim)))[0]
    turned = u[:, :rank].copy()
    turned[:, -1] = np.cos(theta) * u[:, rank - 1] + np.sin(theta) * u[:, rank]
    return projector_from_span(list(u[:, :rank].T)), projector_from_span(list(turned.T))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(dim_rank=st.integers(2, 16).flatmap(
           lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       seed=st.integers(0, 2**32 - 1), inside=st.booleans(), scale=st.floats(0.0, 1.0))
def test_leq_and_meet_agree_outside_the_band(dim_rank, seed, inside, scale):
    # Inclusion by leq (max-entry deviation) and by meet (rank cutoff) both
    # hold at theta <= 0.5 eps and both fail at theta >= 2 eps sqrt(2 dim),
    # up to 5 times that.  In the band between, the two rules may disagree,
    # so no angle is drawn from it and nothing is asserted there.
    dim, rank = dim_rank
    eps = DEFAULT_EPS
    if inside:
        theta = 0.5 * eps * scale
    else:
        theta = 2 * eps * np.sqrt(2 * dim) * (1 + 4 * scale)
    p, q = turned_pair(dim, rank, seed, theta)
    m = meet(p, q, eps)
    merged = projectors_close(m, p, _class_tol(eps))
    if inside:
        assert leq(p, q, eps) and m.rank == rank and merged
    else:
        assert not leq(p, q, eps) and m.rank == rank - 1 and not merged


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
    v = decode_vector([[1, 0], [0, 1]])
    assert np.array_equal(v, np.array([1, 1j]))
    assert encode_vector(v) == [[1.0, 0.0], [0.0, 1.0]]
    m = decode_matrix([[[0.5, 0], [0, -0.5]], [[0, 0.5], [0.5, 0]]])
    assert np.array_equal(m, np.array([[0.5, -0.5j], [0.5j, 0.5]]))
    assert decode_matrix(encode_matrix(m)).tolist() == m.tolist()


@pytest.mark.parametrize("values", [
    np.array([[0.5, -0.5j], [0.5j + 1e-17, -0.0 - 0.0j]]),
    np.array([[1.0, -0.0], [0.1, 2.5]]),
    np.array([[1, 0], [-3, 2]]),
    np.array([[-0.0, 0.0], [0.0, -0.0]], dtype=np.complex64),
])
def test_encoding_matches_encode_complex_per_entry(values):
    values.setflags(write=False)
    expected = [[encode_complex(z) for z in row] for row in values]
    # == cannot tell -0.0 from 0.0, and the JSON can
    assert json.dumps(encode_matrix(values)) == json.dumps(expected)
    assert json.dumps(encode_vector(values)) == json.dumps(
        [encode_complex(z) for z in values.reshape(-1)])
    assert all(type(x) is float for row in encode_matrix(values) for z in row for x in z)


def test_decode_rejects_malformed_entries():
    with pytest.raises(ProjectorError):
        decode_vector([[1, 0], [1]])
    with pytest.raises(ProjectorError):
        decode_vector([[1, 0], [True, 0]])
    with pytest.raises(ProjectorError):
        decode_matrix([[[1, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(ProjectorError):
        decode_matrix([])
