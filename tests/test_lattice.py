import dataclasses
import hashlib
import itertools
import json
import re
import time

import numpy as np
import pytest

import pragmaql.hilbert
import pragmaql.lattice
from pragmaql import (
    AQ,
    K,
    N,
    Assert,
    Atom,
    LatticeElement,
    LawReport,
    ModelError,
    ParseError,
    QuotientLattice,
    UnknownNameError,
    bundled_model,
    bundled_model_document,
    bundled_model_names,
    export_lattice,
    find_distributivity_violation,
    generate_quotient,
    identity_projector,
    import_lattice,
    justify,
    ortho,
    parse_assertive,
    print_formula,
    projector_from_span,
    projectors_close,
    random_state,
    verify_isomorphism,
    verify_ortholattice,
    verify_orthomodular,
    zero_projector,
)

from pragmaql.hilbert import _pair_spans, join, leq, meet

from helpers import blocksum, o6_fixture, seeded_c3_triple


def find_class(lat, projector, tol=1e-8):
    hits = [e.index for e in lat.elements
            if projectors_close(e.projector, projector, tol)]
    assert len(hits) == 1, f"expected exactly one class, found {hits}"
    return hits[0]


@pytest.fixture(scope="module")
def mo2(qubit):
    return generate_quotient(qubit, ["az", "ax"], 3)


@pytest.fixture(scope="module")
def boolean4(qubit):
    return generate_quotient(qubit, ["az"], 2)


@pytest.fixture(scope="module")
def planes(ququart):
    return generate_quotient(ququart, ["bl", "bd", "bc"], 1)  # 36 classes


# ---------------------------------------------------------------------------
# generation


def test_mo2_has_exactly_six_classes(qubit, mo2):
    assert len(mo2) == 6
    ez = qubit.projector("Ez")
    ex = qubit.projector("Ex")
    expected = [zero_projector(2), ez, ortho(ez), ex, ortho(ex),
                identity_projector(2)]
    for p in expected:
        find_class(mo2, p)  # exactly one class per projector


def test_mo2_representatives_and_flags(mo2):
    labels = {e.label for e in mo2.elements}
    assert {"(|- az)", "(|- ax)", "N((|- az))", "N((|- ax))"} <= labels
    assert not any(e.synthesized for e in mo2.elements)
    assert mo2.elements[mo2.bottom].projector.rank == 0
    assert mo2.elements[mo2.top].projector.rank == 2


def test_single_atom_depth_one_closes_to_four_classes(qubit):
    lat = generate_quotient(qubit, ["az"], 1)
    assert len(lat) == 4
    enumerated = [e for e in lat.elements if not e.synthesized]
    assert {e.label for e in enumerated} == {"(|- az)", "N((|- az))"}
    assert lat.elements[lat.bottom].synthesized
    assert lat.elements[lat.top].synthesized


def test_single_atom_depth_two_enumerates_all_four(boolean4):
    assert len(boolean4) == 4
    assert not any(e.synthesized for e in boolean4.elements)


def test_depth_saturation(qubit, mo2):
    # the lantern is already complete at depth 2 and never grows again
    for depth in (2, 5):
        lat = generate_quotient(qubit, ["az", "ax"], depth)
        assert len(lat) == 6
        for e in lat.elements:
            find_class(mo2, e.projector)


def test_generation_is_deterministic(qubit):
    a = generate_quotient(qubit, ["az", "ax"], 3)
    b = generate_quotient(qubit, ["az", "ax"], 3)
    assert [e.label for e in a.elements] == [e.label for e in b.elements]
    assert np.array_equal(a.order, b.order)
    assert np.array_equal(a.meet_table, b.meet_table)


def test_generation_argument_errors(qubit):
    with pytest.raises(ValueError):
        generate_quotient(qubit, ["az"], 0)
    with pytest.raises(ValueError):
        generate_quotient(qubit, [], 2)
    with pytest.raises(UnknownNameError):
        generate_quotient(qubit, ["nosuch"], 2)


@pytest.mark.parametrize("atoms, depth", [
    ("az", 1),          # one string is not a list of atom names
    ("az,ax", 1),
    (["az"], "2"),
    (["az"], 1.5),
    (["az"], 2.0),
    (["az"], True),
    (["az"], None),
])
def test_generation_rejects_a_string_of_atoms_and_a_depth_that_is_no_int(qubit, atoms, depth):
    with pytest.raises(TypeError):
        generate_quotient(qubit, atoms, depth)


def named_entries(lat):
    """For each i < j, whether the rank rules of generation name the meet and
    the join, with s_ij read off the join table: span r_i or r_j (r_i != r_j)
    names both, r_i + r_j the meet (bottom) and dim the join (top)."""
    n, d = len(lat), lat.projector(0).dim
    r = np.array([lat.projector(c).rank for c in range(n)])
    i, j = np.triu_indices(n, 1)
    s = r[lat.join_table[i, j]]
    operand = ((s == r[i]) | (s == r[j])) & (r[i] != r[j])
    return operand | (s == r[i] + r[j]), operand | (s == d)


def assert_no_class_near_a_threshold(lat):
    # where no class is crowded and no class lies within class_tol -/+ the
    # rank cutoff of the zero or identity matrix, the rank rules decide
    # every entry they name
    stack = np.stack([lat.projector(c).matrix for c in range(len(lat))])
    d = stack.shape[1]
    cutoff = lat.eps * np.sqrt(d)
    far = np.abs(stack[:, None] - stack[None]).max(axis=(2, 3)) + np.eye(len(lat)) * 2
    assert far.min() > lat.class_tol + cutoff
    for bound in (np.zeros((d, d)), np.eye(d)):
        dist = np.abs(stack - bound).max(axis=(1, 2))
        assert not ((dist > lat.class_tol - cutoff) & (dist <= lat.class_tol + cutoff)).any()


BUNDLED_LATTICES = [
    ("qubit-zx", ("az", "ax"), 3),
    ("qutrit-lines", ("aa", "ab", "ap"), 1),
    ("ququart-planes", ("bl", "bd", "bc"), 1),
]


def span_margins(lat):
    """``{(i, j): (span, alpha, gap)}`` that ``_span_dims`` gives each pair
    i < j of classes other than bottom and top, every pair one row of it,
    commuting or not, on frames from one full SVD of the class matrices."""
    stack = np.stack([lat.projector(c).matrix for c in range(len(lat))])
    d = stack.shape[1]
    ranks = np.array([lat.projector(c).rank for c in range(len(lat))])
    complements, ranges = pragmaql.hilbert._span_factors(np.linalg.svd(stack)[0], ranks)
    i, j = inner_pair_indices(ranks, d, 0, len(lat))
    found = pragmaql.hilbert._span_dims(complements[i], ranks[i], ranges[j], lat.eps)
    return dict(zip(zip(i.tolist(), j.tolist()), zip(*found)))


def commuting_pairs(lat):
    """(n, n) bool: whether the matrices P and Q of classes i and j commute
    within the compatibility tolerance tau, by max |P Q - Q P|.  No pair of
    the lattices checked here has a commutator within a factor of 100 of
    tau, so the rounding of either product cannot move a pair across it."""
    stack = np.stack([lat.projector(c).matrix for c in range(len(lat))])
    tau = pragmaql.hilbert._compatible_tol(lat.eps, stack.shape[1])
    comm = np.abs(stack[:, None] @ stack[None] - stack[None] @ stack[:, None]).max(axis=(2, 3))
    assert not ((comm > tau / 100) & (comm <= tau * 100)).any()
    return comm <= tau


def order_named_entries(lat, margins, made):
    """For each i < j, whether the order rule of generation names the meet
    and the join: the one class c among the ``made[j]`` classes made before
    the pair's round with rank r_i + r_j - s_ij below i and j (a meet), or
    with rank s_ij above both (a join), where s_ij is neither r_i nor r_j,
    c is no bottom or top, and sqrt(alpha_ci² + alpha_cj²) is at most the
    cutoff times the gap of (i, j).  ``margins[i, j]`` holds the (span,
    alpha, gap) of ``span_margins``; a pair with bottom or top takes no
    row.  No class of the lattices checked here is crowded."""
    n, d = len(lat), lat.projector(0).dim
    r = np.array([lat.projector(c).rank for c in range(n)])
    span, alpha, gap = np.diag(r), np.zeros((n, n)), np.ones((n, n))
    for i, j in itertools.combinations(range(n), 2):
        bounded = r[i] in (0, d) or r[j] in (0, d)
        found = (d if d in (r[i], r[j]) else r[i] + r[j], 0.0, 1.0) if bounded else margins[i, j]
        for table, value in zip((span, alpha, gap), found):
            table[i, j] = table[j, i] = value
    below = span == r[None, :]   # below[a, b]: a's range in b's, by count
    cutoff = lat.eps * np.sqrt(d)
    named = np.zeros((2, n, n), dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        s = span[i, j]
        for k, target in enumerate((r[i] + r[j] - s, s)):
            if s in (r[i], r[j]) or not 0 < target < d:
                continue
            fits = [c for c in range(made[j]) if r[c] == target and (
                below[c, i] and below[c, j] if k == 0 else below[i, c] and below[j, c])]
            named[k, i, j] = len(fits) == 1 and \
                np.hypot(alpha[fits[0], i], alpha[fits[0], j]) <= cutoff * gap[i, j]
    iu = np.triu_indices(n, 1)
    return named[0][iu], named[1][iu]


@pytest.mark.parametrize("name, atoms, depth", BUNDLED_LATTICES)
def test_generation_takes_a_rank_row_per_pair_that_does_not_commute_and_kernel_rows_for_the_rest(
        all_models, monkeypatch, name, atoms, depth):
    # each unordered pair i < j of classes other than bottom and top whose
    # matrices do not commute is one row of the values-only rank SVD, with
    # the count and margins that row gives on its own; a commuting pair is
    # counted from the trace and takes none.  The kernel then takes exactly
    # the entries that neither the rank count nor the order of the classes
    # by count names a class for, with the margins of a row for every pair
    calls = record_svds(monkeypatch)
    kernel = {"meet": 0, "join": 0}
    pair_spans = pragmaql.lattice._pair_spans

    def counted_kernel(a, b, eps, meet):
        kernel["meet" if meet else "join"] += len(a)
        return pair_spans(a, b, eps, meet)

    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", counted_kernel)
    lat = generate_quotient(all_models[name], atoms, depth)
    monkeypatch.undo()
    assert_no_class_near_a_threshold(lat)
    n, d = len(lat), lat.projector(0).dim
    ranks = np.array([lat.projector(c).rank for c in range(n)])
    apart, margins = ~commuting_pairs(lat), span_margins(lat)
    rows, pairs, made, seen = [], [], [], 0   # made[j]: the class count before j's round
    for calls_of_round in generation_rounds(calls, d):
        count = seen + calls_of_round[0][0][0]
        rows += [row for call in calls_of_round if call[0] == "rows" for row in zip(*call[3])]
        i, j = inner_pair_indices(ranks, d, seen, count, apart)
        pairs += zip(i.tolist(), j.tolist())
        made += [count] * (count - seen)
        seen = count
    # a class and its negation commute, so some inner pairs take no row
    assert len(pairs) < len(margins) == n * (n - 1) // 2 - (2 * n - 3)
    assert rows == [margins[pair] for pair in pairs]
    meet_named, join_named = named_entries(lat)
    meet_ordered, join_ordered = order_named_entries(lat, margins, made)
    assert not (meet_named & meet_ordered).any() and not (join_named & join_ordered).any()
    # in MO2 every entry is an operand, bottom or top
    assert meet_ordered.any() and join_ordered.any() or name == "qubit-zx"
    assert kernel == {"meet": int((~meet_named & ~meet_ordered).sum()),
                      "join": int((~join_named & ~join_ordered).sum())}


def factor_ranks(ranges):
    """The ranks of the frames whose premasked range factors (``_span_dims``'s
    third argument) are ``ranges``: the count of their nonzero columns, as a
    frame's range columns are unit vectors and its others are zeroed."""
    return np.count_nonzero((ranges != 0).any(axis=1), axis=1)


def record_svds(monkeypatch):
    """A list that each later ``np.linalg.svd`` call appends its
    ``(shape, compute_uv, full_matrices)`` to, and each call of the
    lattice module's ``_span_dims``, which generation and verification
    both call through ``_pair_span_dims``, ``("rows", ranks a, ranks b,
    (span, alpha, gap))``."""
    calls = []
    svd, span_dims = np.linalg.svd, pragmaql.lattice._span_dims

    def counted_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv, full_matrices))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    def counted_rows(complements, ra, ranges, eps):
        found = span_dims(complements, ra, ranges, eps)
        calls.append(("rows", ra.tolist(), factor_ranks(ranges).tolist(), found))
        return found

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(pragmaql.lattice, "_span_dims", counted_rows)
    return calls


def generation_rounds(calls, d):
    """``calls`` of ``record_svds`` split at each round's full ``(k, d, d)``
    frame SVD, which begins the round's list."""
    rounds = []
    for call in calls:
        if call[1:] == (True, True) and call[0][1:] == (d, d):
            rounds.append([])
        rounds[-1].append(call)
    return rounds


def inner_pair_indices(ranks, d, seen, count, apart=None):
    """The pairs i < j with seen <= j < count, row-major, whose classes are
    neither bottom (rank 0) nor top (rank d), and where ``apart`` is given
    only those with ``apart[i, j]``, as index arrays i and j."""
    i, j = np.triu_indices(count, 1)
    inner = (ranks > 0) & (ranks < d)
    keep = (j >= seen) & inner[i] & inner[j]
    if apart is not None:
        keep &= apart[i, j]
    return i[keep], j[keep]


def inner_pairs(ranks, d, seen, count, apart=None):
    """The rank pairs (r_i, r_j) of ``inner_pair_indices``."""
    i, j = inner_pair_indices(ranks, d, seen, count, apart)
    return list(zip(ranks[i].tolist(), ranks[j].tolist()))


@pytest.mark.parametrize("name, atoms, depth", BUNDLED_LATTICES)
def test_span_rows_leave_out_the_bottom_and_top_classes(all_models, monkeypatch,
                                                       name, atoms, depth):
    # a pair with the bottom or the top class spans r_i + r_j or dim, and a
    # commuting pair r_i + r_j - tr(P_i P_j), so neither side sends either
    # to the rank SVD: each generation round sends its other pairs, and
    # verification those of all n(n-1)/2 - (2n-3) pairs without bottom or
    # top whose matrices do not commute
    calls = record_svds(monkeypatch)
    lat = generate_quotient(all_models[name], atoms, depth)
    n, d = len(lat), lat.projector(0).dim
    ranks = np.array([lat.projector(c).rank for c in range(n)])
    apart = ~commuting_pairs(lat)
    seen, total = 0, 0
    for calls_of_round in generation_rounds(calls, d):
        count = seen + calls_of_round[0][0][0]
        sent = [pair for call in calls_of_round if call[0] == "rows"
                for pair in zip(call[1], call[2])]
        assert sent == inner_pairs(ranks, d, seen, count, apart)
        seen, total = count, total + len(sent)
    assert seen == n and 0 < total < n * (n - 1) // 2 - (2 * n - 3)
    calls.clear()
    assert verify_isomorphism(lat).holds
    sent = [pair for call in calls if call[0] == "rows" for pair in zip(call[1], call[2])]
    assert sent == inner_pairs(ranks, d, 0, n, apart)
    assert len(sent) == total


@pytest.mark.parametrize("seed", range(4))
def test_generation_past_the_class_budget_is_not_saturated(seed):
    model = pragmaql.load_model(seeded_c3_triple(seed))
    start = time.perf_counter()
    with pytest.raises(ModelError) as exc:
        generate_quotient(model, ["a0", "a1", "a2"], 1)
    assert time.perf_counter() - start < 2.0
    assert exc.value.code == "not-saturated"
    assert f"class {pragmaql.lattice.MAX_CLASSES + 1}" in str(exc.value)
    assert re.search(r"round \d+", str(exc.value))


def coarse_qubit():
    """qubit-zx at eps 0.05: class_tol 0.5 is the distance from the zero
    matrix to the projector of ax."""
    doc = bundled_model_document("qubit-zx")
    doc["eps"] = 0.05
    return pragmaql.load_model(doc)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_class_tol_that_merges_the_zero_projector_is_coarse_tolerance(depth):
    with pytest.raises(ModelError) as exc:
        generate_quotient(coarse_qubit(), ["ax", "az"], depth)
    assert exc.value.code == "coarse-tolerance"
    assert str(exc.value) == ("no class has rank 0: class_tol 0.5 merged the zero "
                              "projector into another class")


def test_class_tol_that_merges_in_the_other_atom_order_leaves_laws_failing():
    # with az first, the meet of az and ax, exactly zero, still merges into
    # ax; N of the computed top is off zero by rounding, just past class_tol
    # of ax, so it makes a bottom
    lat = generate_quotient(coarse_qubit(), ["az", "ax"], 2)
    assert (len(lat), lat.bottom, lat.top) == (6, 5, 4)
    assert lat.meet_table[0, 1] == 1
    reports = verify_ortholattice(lat) + [verify_orthomodular(lat), verify_isomorphism(lat)]
    assert [r.counterexample for r in reports] == [
        None, (0, 1), (0,), (0, 1), (0, 0), ("order", 1, 0)]
    assert find_distributivity_violation(lat) == (0, 0, 1)


@pytest.mark.parametrize("name, atoms", [
    ("ququart-planes", ("bl", "bd", "bc")),
    ("qutrit-lines", ("aa", "ab", "ap")),
])
def test_generation_svds_are_its_rank_chunks_and_its_kernel_calls(monkeypatch, name, atoms):
    # a fresh model, so no projector arrives with its basis already cached
    # and any basis generation computed would be counted.  It keeps none:
    # each round takes one full SVD of its new classes for their frames,
    # then one values-only (k, dim, dim) SVD per chunk of its pairs whose
    # matrices do not commute, for their span counts, then one stacked
    # (k, 2 dim, dim) SVD per call of the batched kernel, and nothing else
    # makes one
    model = bundled_model(name)
    calls = record_svds(monkeypatch)
    pair_spans = pragmaql.lattice._pair_spans

    def counted_kernel(a, b, eps, meet):
        calls.append(("kernel", len(a)))
        return pair_spans(a, b, eps, meet)

    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", counted_kernel)
    lat = generate_quotient(model, list(atoms), 1)
    monkeypatch.undo()
    n, d = len(lat), model.dim
    ranks = np.array([lat.projector(c).rank for c in range(n)])
    apart = ~commuting_pairs(lat)
    chunk = pragmaql.lattice._BATCH_ENTRIES // (d * d)
    calls = [call for call in calls if call[0] != "rows"]
    seen, kernels, total = 0, 0, 0
    for calls_of_round in generation_rounds(calls, d):
        count = seen + calls_of_round[0][0][0]
        rows = len(inner_pairs(ranks, d, seen, count, apart))
        total += rows
        head = [((count - seen, d, d), True, True)] + [
            ((min(chunk, rows - at), d, d), False, True) for at in range(0, rows, chunk)]
        assert calls_of_round[:len(head)] == head
        kernel = calls_of_round[len(head):]
        sizes = [call[1] for call in kernel if call[0] == "kernel"]
        assert kernel == [call for k in sizes
                          for call in (("kernel", k), ((k, 2 * d, d), True, False))]
        seen, kernels = count, kernels + len(sizes)
    assert seen == n and kernels > 0 and 0 < total < len(inner_pairs(ranks, d, 0, n))


# sha256 of each export's float-free content, recorded before generation
# became a single round loop; class indices, representatives, member order
# and tables must not move
EXPORT_DIGESTS = {
    ("qubit-zx", ("az", "ax"), 1): "4f2d7c7ca10c8d2570bf3c117f32810e42d3738c13da7db9866dff81770777d9",
    ("qubit-zx", ("az", "ax"), 2): "83aa743e9ccad76965066beb89087d4a0de573cf9a93f3f6ca77666831bebbd8",
    ("qubit-zx", ("az", "ax"), 3): "83aa743e9ccad76965066beb89087d4a0de573cf9a93f3f6ca77666831bebbd8",
    ("qutrit-lines", ("aa", "ab", "ap"), 1): "618b04300c55349a9b2d13379ae8082ca6323e8043d93a1869e18dee138d292c",
    ("qutrit-lines", ("aa", "ab", "ap"), 2): "5b539d78a50131d5536de4dd5235897d766d1b7c1994e42073fb593caec55b26",
    ("qutrit-lines", ("aa", "ab", "ap"), 3): "072e6cd3c9fec92d123716515a17073832202ff21fcd694a54df95be73f5b736",
    ("ququart-planes", ("bl", "bd", "bc"), 1): "bba422c833510de1ed368f5321a7395cc688694546e8923d448dcd54ec3b5de8",
    ("ququart-planes", ("bl", "bd", "bc"), 2): "385e5b35169cb87486a512001b160c79bab5149f20fecbe590262f49a342bff5",
    ("ququart-planes", ("bl", "bd", "bc"), 3): "6f0a4e204d76c0c74e64217981b779ee9d7148276a1cfcd65bb665f2ae9f35e6",
    ("qubit-zx", ("az",), 1): "26b1b161a739f84e784c5c5481bddd4148b880d38894fcf90426f4a10322d10d",
    # every other order of the atoms, recorded before members were replayed
    # from the tables
    ("qubit-zx", ("ax", "az"), 1): "1cf95763c475685de3ce6c9bdb4c2661577250521b92075de65948d396166c61",
    ("qubit-zx", ("ax", "az"), 2): "ea53c4de23748878029e147449525bb31e03e24538c7739cb30b4ec0989a0d39",
    ("qubit-zx", ("ax", "az"), 3): "ea53c4de23748878029e147449525bb31e03e24538c7739cb30b4ec0989a0d39",
    ("qutrit-lines", ("aa", "ap", "ab"), 1): "7598cfb75a5a2e1c7bef90f573a1c355937b4c5115cbe02241a5b12157db133f",
    ("qutrit-lines", ("aa", "ap", "ab"), 2): "e0802a3dfffefba6360b6514fc0cae09ae11f2c3dfa352da32c88efde3788f36",
    ("qutrit-lines", ("aa", "ap", "ab"), 3): "3004ad2d73c3b7164064edd317aa98986312556667fd745b39b723268460fa32",
    ("qutrit-lines", ("ab", "aa", "ap"), 1): "e72a1a8b6c5433dbc85be92364ce15328d8a199cd882a421af0b82196dd8c3ae",
    ("qutrit-lines", ("ab", "aa", "ap"), 2): "105416bcf35aa7648dd61e12efad5f25f1dd7fe934ed1e7263e9cb2b7029f9a8",
    ("qutrit-lines", ("ab", "aa", "ap"), 3): "3b1736404fb1929f3ec81a0ac9002aefdca9d6625d6432cfc3d02117fc835d93",
    ("qutrit-lines", ("ab", "ap", "aa"), 1): "68b324afa057915ae74666f346d641aafada308d8cfdd9662757b64156d78844",
    ("qutrit-lines", ("ab", "ap", "aa"), 2): "0acee995395dcc1a39ca68fb9b229bfeace516d233c07ee033648231b9903487",
    ("qutrit-lines", ("ab", "ap", "aa"), 3): "06b3b78e9527279af561ef0eae388181d431aa2c1f71bd6331479907c798cb32",
    ("qutrit-lines", ("ap", "aa", "ab"), 1): "c3c3b8015882a7d1ea41e2d67e487702ada8f4c0ff79c276a09d09de0bd0aa91",
    ("qutrit-lines", ("ap", "aa", "ab"), 2): "216c6fcb15b9da65495ec460924fa40f77084970d0d138972aecf4b3cbe08afb",
    ("qutrit-lines", ("ap", "aa", "ab"), 3): "fbd486913ca5520706a9ec053de5695d5a4fe5d136781f2776efce3db3b291f0",
    ("qutrit-lines", ("ap", "ab", "aa"), 1): "900841de86ff7e1ebc279734f6d4f9fac4dddce898082c270f77b47fecf8e62d",
    ("qutrit-lines", ("ap", "ab", "aa"), 2): "0c2b5fb8254ff75397ec7c58dcc4b94cfcaf95c6d1d700363cca3c9d1203d9e6",
    ("qutrit-lines", ("ap", "ab", "aa"), 3): "8a0f5f52406aec74b63c1ab8cc5d46e14ba5a45b421492e9b041dcd12672ed51",
    ("ququart-planes", ("bl", "bc", "bd"), 1): "c488777f5a74ad0bd369b7302588b2eb70166070eeaa166ead436efaba4de035",
    ("ququart-planes", ("bl", "bc", "bd"), 2): "36d44d1169171aac1bad733ba2084f3d48e3dcacb464d5b7c6fecf80777fb50e",
    ("ququart-planes", ("bl", "bc", "bd"), 3): "75f7bd715da87feb200fb3d24cf4f989cf201f7e71ceefe3a617cbf4aa1dc965",
    ("ququart-planes", ("bd", "bl", "bc"), 1): "84a51029192206c91bbfa072dc20ac730fd26418e4b04ae1a34afaaf86ab014b",
    ("ququart-planes", ("bd", "bl", "bc"), 2): "2ae50866c09675ec504ad90d2b79eedd2eefe634c03c0c22bacf1813112f2b01",
    ("ququart-planes", ("bd", "bl", "bc"), 3): "fa97659d002c0d0a03ea4a83abc9f7f91f73667378c35355305084203ad98fc6",
    ("ququart-planes", ("bd", "bc", "bl"), 1): "2c9cf0afa682beafdcd1bbef395b8438af7af244c73966b4af213a4f0d202a18",
    ("ququart-planes", ("bd", "bc", "bl"), 2): "3c721aee8f5ea39f2d0b8886a90b993aa20c5c2d64bc662bc507c9805a366cf1",
    ("ququart-planes", ("bd", "bc", "bl"), 3): "c2a3e64a07c581b04e0cc82366ba04bafc4f7591d1b3ebf19417f2d7fb30389c",
    ("ququart-planes", ("bc", "bl", "bd"), 1): "00c59b6a6d30bda38baae65668ce15357e97c5011dfc58a0cc1eeee78ce11abd",
    ("ququart-planes", ("bc", "bl", "bd"), 2): "d1c19793168bfdd4425410881152bdc139bfc43faa7789757c5f517fb648169d",
    ("ququart-planes", ("bc", "bl", "bd"), 3): "943c204aaf0717bfee59d529440d011038c0d658369941c029418dba1ebb8ebb",
    ("ququart-planes", ("bc", "bd", "bl"), 1): "797dd64d140fe5e8930b4b74b0759196b631d29da4f3a1246683787ad6c8ae3e",
    ("ququart-planes", ("bc", "bd", "bl"), 2): "4624aba40e07db7cccd455730a70d94e62ef5211a57e2fb6e1f0679ddcc2491a",
    ("ququart-planes", ("bc", "bd", "bl"), 3): "1c755217740c400ad1868a0b36b3a22403a773020b8864355180bb322a13e8f9",
}


def _float_free_digest(lat):
    doc = export_lattice(lat, "structured")
    skeleton = {key: doc[key] for key in ("bottom", "top", "order", "neg", "meet", "join")}
    skeleton["elements"] = [{key: e[key] for key in ("formula", "members", "synthesized", "rank")}
                            for e in doc["elements"]]
    return hashlib.sha256(json.dumps(skeleton, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name, atoms, depth", list(EXPORT_DIGESTS))
def test_generation_output_is_pinned(all_models, name, atoms, depth):
    lat = generate_quotient(all_models[name], list(atoms), depth)
    assert _float_free_digest(lat) == EXPORT_DIGESTS[name, atoms, depth]


@pytest.mark.parametrize("name", ["qubit-zx", "qutrit-lines", "ququart-planes"])
def test_no_class_lists_a_member_twice(all_models, name):
    # each (connective, operand pair) is combined once, so distinct atoms
    # never make the same formula twice
    model = all_models[name]
    for r in range(1, len(model.atom_map) + 1):
        for atoms in itertools.permutations(sorted(model.atom_map), r):
            for depth in (1, 2, 3):
                lat = generate_quotient(model, list(atoms), depth)
                for e in lat.elements:
                    assert len(set(e.members)) == len(e.members), (atoms, depth, e.index)


def test_repeated_atom_is_ignored(qubit):
    for depth in (1, 2, 3):
        repeated = generate_quotient(qubit, ["az", "az", "ax"], depth)
        once = generate_quotient(qubit, ["az", "ax"], depth)
        assert export_lattice(repeated, "structured") == export_lattice(once, "structured")


@pytest.mark.parametrize("cap", [1, 7])
def test_batch_budget_does_not_change_the_lattice(all_models, monkeypatch, cap):
    # at a cap this small every chunk and every verification batch holds
    # one pair, so each result is looked up in batch among all the classes
    # made by then, where the default cap finds some of them in the search
    # over the classes made since their chunk began, and the entries that a
    # chunk sends to ``record`` come one pair at a time.  The bundled models
    # are checked, and the block-sum and near-threshold families of the
    # differential test below
    def outputs():
        for name, model in all_models.items():
            for depth in (1, 2, 3):
                lat = generate_quotient(model, sorted(model.atom_map), depth)
                yield json.dumps(export_lattice(lat, "structured")), verify_isomorphism(lat)
        for family in ("block-sum", "crowded", "one-range", "coarse", "wide-cutoff"):
            # the wide-cutoff family patches the rank cutoff for its own lattice only
            with pytest.MonkeyPatch.context() as patch:
                for lat in differential_lattices(family, patch):
                    yield json.dumps(export_lattice(lat, "structured")), verify_isomorphism(lat)

    default = list(outputs())
    monkeypatch.setattr(pragmaql.lattice, "_BATCH_ENTRIES", cap)
    assert list(outputs()) == default


@pytest.mark.parametrize("name", ["qubit-zx", "qutrit-lines", "ququart-planes"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_order_is_read_off_the_meet_table(all_models, name, depth):
    model = all_models[name]
    lat = generate_quotient(model, sorted(model.atom_map), depth)
    n = len(lat)
    assert np.array_equal(lat.order, lat.meet_table == np.arange(n)[:, None])
    # on these models the meet's rank cutoff and leq's max-entry rule agree
    projs = [lat.projector(i) for i in range(n)]
    assert np.array_equal(lat.order, [[leq(p, q, lat.eps) for q in projs] for p in projs])


@pytest.mark.parametrize("dim", range(2, 17))
def test_block_sum_lattices_match_their_symbolic_lattice(dim):
    # two dense models per dim with 4-32 classes, whose lattice blocksum.py
    # computes without the library: the exact class count, a one-to-one match
    # of class projectors to the symbolic ones, and the tables under it
    for k in range(2):
        bs, symbolic = blocksum.draw(np.random.default_rng([dim, k]),
                                     np.random.default_rng([dim, k, 1]),
                                     dim, 2 + k, (4, 32))
        model = pragmaql.load_model(blocksum.document(bs))
        lat = generate_quotient(model, list(model.atom_map), 1)
        assert len(lat) == len(symbolic)
        exact = np.stack([bs.projector(e) for e in symbolic])
        close = np.array([[float(np.abs(lat.projector(c).matrix - m).max()) <= lat.class_tol
                           for m in exact] for c in range(len(lat))])
        assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all()
        element = [symbolic[int(np.argmax(row))] for row in close]
        index = {e: c for c, e in enumerate(element)}
        n = len(lat)
        assert lat.neg_table.tolist() == [index[blocksum.ortho(e)] for e in element]
        for table, op in ((lat.meet_table, blocksum.meet), (lat.join_table, blocksum.join)):
            assert table.tolist() == [[index[op(element[a], element[b])] for b in range(n)]
                                      for a in range(n)]


def assert_members_follow_the_tables(model, atoms, lat):
    """Each member lies where the tables put it, whatever way the members
    were built: |- a in the first class within class_tol of a's projector,
    N(f) in neg[class f], K(f, g) and AQ(f, g) in meet and join[class f,
    class g].  Every operand is itself a member.  A class's formula is its
    shortlex-least member, or its only one if it is synthesized."""
    where = {}
    for e in lat.elements:
        for m in e.members:
            assert where.setdefault(print_formula(m), e.index) == e.index
    cls = lambda f: where[print_formula(f)]
    stack = np.stack([lat.projector(c).matrix for c in range(len(lat))])
    for a in atoms:
        close = np.abs(stack - model.atom_projector(a).matrix).max(axis=(1, 2)) <= lat.class_tol
        assert cls(Assert(Atom(a))) == int(np.argmax(close)) and close.any()
    for e in lat.elements:
        for m in e.members:
            if isinstance(m, N):
                assert e.index == lat.neg_table[cls(m.operand)], print_formula(m)
            elif isinstance(m, (K, AQ)):
                table = lat.meet_table if isinstance(m, K) else lat.join_table
                assert e.index == table[cls(m.left), cls(m.right)], print_formula(m)
            else:
                assert isinstance(m, Assert) and m.radical.name in atoms
        if e.synthesized:
            assert e.members == (e.formula,)
        else:
            text = print_formula(e.formula)
            assert min((len(t), t) for t in map(print_formula, e.members)) == (len(text), text)


@pytest.mark.parametrize("name", ["qubit-zx", "qutrit-lines", "ququart-planes"])
def test_members_follow_the_tables_in_every_atom_order(all_models, name):
    model = all_models[name]
    for atoms in itertools.permutations(sorted(model.atom_map)):
        for depth in (1, 2, 3):
            lat = generate_quotient(model, list(atoms), depth)
            assert_members_follow_the_tables(model, atoms, lat)


@pytest.mark.parametrize("dim", [4, 9, 16])
def test_members_follow_the_tables_of_block_sum_lattices(dim):
    for k in range(2):
        bs, _ = blocksum.draw(np.random.default_rng([dim, k]),
                              np.random.default_rng([dim, k, 1]), dim, 2 + k, (4, 32))
        model = pragmaql.load_model(blocksum.document(bs))
        for depth in (1, 2):
            lat = generate_quotient(model, list(model.atom_map), depth)
            assert_members_follow_the_tables(model, list(model.atom_map), lat)


def span_model(dim, *spans, eps=1e-9):
    """A model whose atoms a0, a1, ... project onto the spans of the real
    vectors in each of ``spans``."""
    return pragmaql.load_model({
        "dim": dim, "eps": eps, "states": {},
        "properties": {f"P{k}": {"span": [[[float(x), 0.0] for x in v] for v in vectors]}
                       for k, vectors in enumerate(spans)},
        "atoms": {f"a{k}": f"P{k}" for k in range(len(spans))},
    })


def differential_lattices(family, monkeypatch):
    if family == "bundled":
        for model in (bundled_model(name) for name in
                      ("qubit-zx", "qutrit-lines", "ququart-planes")):
            for depth in (1, 2, 3):
                yield generate_quotient(model, sorted(model.atom_map), depth)
    elif family == "block-sum":
        for dim in range(2, 17):
            bs, _ = blocksum.draw(np.random.default_rng([dim, 7]),
                                  np.random.default_rng([dim, 7, 1]), dim, 2 + dim % 3, (4, 32))
            model = pragmaql.load_model(blocksum.document(bs))
            yield generate_quotient(model, list(model.atom_map), 1)
    elif family == "crowded":
        # the line a1 is 1.5 eps off the plane a2, inside the rank cutoff, so
        # rank names a1 their meet; but a0 lies 10.4 eps from a1 on the other
        # side of the plane, so a1 is crowded, and the kernel's meet, turned
        # toward the plane, lies within class_tol of a0
        eps, line = 1e-9, lambda t: [(np.cos(t), 0.0, np.sin(t))]
        yield generate_quotient(span_model(3, line(-8.9 * eps), line(1.5 * eps),
                                           [(1, 0, 0), (0, 1, 0)]), ["a0", "a1", "a2"], 1)
    elif family == "one-range":
        # two lines of C^64 10.5 eps apart: two classes, one range by the
        # cutoff of 8 eps, since sqrt(1 - cos theta) is 7.4 eps
        eps, unit = 1e-9, lambda t: [(np.cos(t), np.sin(t)) + (0.0,) * 62]
        yield generate_quotient(span_model(64, unit(0.0), unit(10.5 * eps)), ["a0", "a1"], 1)
    elif family == "coarse":
        yield generate_quotient(coarse_qubit(), ["az", "ax"], 2)
    elif family == "wide-cutoff":
        # past dim 100 the rank cutoff exceeds class_tol; at dim 256 it is
        # 16 eps, given here to C^3 so the kernel stays cheap.  The line a1 is
        # 21 eps off the plane a0, inside that cutoff, and the kernel's meet
        # lies 10.5 eps from a1: a class that no rank count names
        wide = lambda eps, dim: 16 * eps
        monkeypatch.setattr(pragmaql.hilbert, "_rank_cutoff", wide)
        monkeypatch.setattr(pragmaql.lattice, "_rank_cutoff", wide)
        line = [(np.cos(21e-9), 0.0, np.sin(21e-9))]
        yield generate_quotient(span_model(3, [(1, 0, 0), (0, 1, 0)], line), ["a0", "a1"], 1)


@pytest.mark.parametrize("family", ["bundled", "block-sum", "crowded", "one-range", "coarse",
                                    "wide-cutoff"])
def test_every_table_entry_is_the_first_class_of_the_kernel_result(monkeypatch, family):
    # the entries the rank count names, and the guards that hand some of
    # them back to the kernel, must give the class the kernel's own result
    # would find: the first within class_tol among all classes
    for lat in differential_lattices(family, monkeypatch):
        stack = np.stack([lat.projector(c).matrix for c in range(len(lat))])
        i, j = np.triu_indices(len(lat), 1)
        for meet, table in ((True, lat.meet_table), (False, lat.join_table)):
            mats, _ = _pair_spans(stack[i], stack[j], lat.eps, meet)
            close = np.stack([np.abs(mats - p).max(axis=(1, 2)) <= lat.class_tol
                              for p in stack], axis=1)
            assert close.any(axis=1).all()
            assert table[i, j].tolist() == close.argmax(axis=1).tolist(), (family, meet)


def count_decisions(lat, span, alpha, gap):
    """For each pair i < j that is no inclusion by the counts ``span`` (n x
    n), and each class c below both or above both by them that is neither
    i, j, bottom nor top, whether the bound of the order rule and of
    verification trusts the count: sqrt(alpha_ci² + alpha_cj²) <= cutoff *
    gap_ij, with alpha the margin of an inclusion and gap that of any other
    pair.  The meet entries, then the join's."""
    n, d = len(lat), lat.projector(0).dim
    r = np.array([lat.projector(c).rank for c in range(n)])
    below = span == r[None, :]
    margin = np.where(below | below.T, alpha, gap)
    c, i, j = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    fits = (i < j) & ~below[i, j] & ~below[j, i] & (c != i) & (c != j) & (r[c] > 0) & (r[c] < d)
    trusted = np.hypot(margin[c, i], margin[c, j]) <= lat.eps * np.sqrt(d) * margin[i, j]
    return [trusted[fits & below[c, i] & below[c, j]], trusted[fits & below[i, c] & below[j, c]]]


@pytest.mark.parametrize("family", ["exports", "bundled", "block-sum", "crowded", "one-range",
                                    "coarse", "wide-cutoff", "ill-conditioned"])
def test_commuting_pairs_are_counted_as_their_rank_rows_count_them(all_models, monkeypatch,
                                                                   family):
    # on every pair, the span count of _pair_span_dims, which takes a
    # commuting pair's from the trace of its product, equals the count of
    # its own row of _span_dims; and every decision of the order rule's
    # bound comes out the same on the margins of either.  The 12-class
    # lattice that generation closes with the bound off has entries that
    # the bound refuses
    if family == "exports":
        lattices = (generate_quotient(all_models[name], list(atoms), depth)
                    for name, atoms, depth in EXPORT_DIGESTS)
    elif family == "ill-conditioned":
        unbounded_span_dims(monkeypatch)
        lattices = [generate_quotient(planes_and_line(1e-6, 1e-3), ["a0", "a1", "a2"], 1)]
        monkeypatch.undo()
    else:
        lattices = differential_lattices(family, monkeypatch)
    compatible = rows = 0
    for lat in lattices:
        n = len(lat)
        stack = np.stack([lat.projector(c).matrix for c in range(n)])
        ranks = np.array([lat.projector(c).rank for c in range(n)])
        d = stack.shape[1]
        complements, ranges = pragmaql.hilbert._span_factors(np.linalg.svd(stack)[0], ranks)
        i, j = np.triu_indices(n, 1)
        counted = pragmaql.lattice._pair_span_dims(stack, complements, ranges, ranks, i, j,
                                                   lat.eps)
        inner = (ranks[i] > 0) & (ranks[i] < d) & (ranks[j] > 0) & (ranks[j] < d)
        reference = [a.copy() for a in counted]
        for table, values in zip(reference, pragmaql.hilbert._span_dims(
                complements[i[inner]], ranks[i[inner]], ranges[j[inner]], lat.eps)):
            table[inner] = values
        full = []
        for found in (counted, reference):
            tables = [np.diag(ranks), np.zeros((n, n)), np.ones((n, n))]
            for table, values in zip(tables, found):
                table[i, j] = table[j, i] = values
            full.append(tables)
        assert np.array_equal(full[0][0], full[1][0]), family
        for new, old in zip(count_decisions(lat, *full[0]), count_decisions(lat, *full[1])):
            assert np.array_equal(new, old), family
        took = pragmaql.hilbert._compatible_span_dims(stack[i[inner]], ranks[i[inner]],
                                                      stack[j[inner]], ranks[j[inner]],
                                                      lat.eps)[0]
        compatible, rows = compatible + int(took.sum()), rows + int((~took).sum())
    # every family has pairs of both kinds: a class and its negation commute
    assert rows > 0 and compatible > 0


def commutator_pair(d, t, turned):
    """The projector matrices of e1 and of a line of C^d whose max-entry
    commutator with it is exactly t: the line near e1 or, ``turned``, near
    e2, at sine or cosine t from e1."""
    p, q = np.zeros((2, d, d), dtype=complex)
    p[0, 0] = 1.0
    q[0, 1] = q[1, 0] = t
    q[0, 0], q[1, 1] = (t * t, 1 - t * t) if turned else (1 - t * t, t * t)
    return np.stack([p, q])


def pair_span_rows(monkeypatch, stack, eps):
    """``(span, alpha, gap)`` that ``_pair_span_dims`` gives the rank-1
    classes of ``stack``, the number of ``_span_dims`` rows it took, and the
    ``(span, alpha, gap)`` of one ``_span_dims`` row for the pair."""
    ranks = np.array([1, 1])
    complements, ranges = pragmaql.hilbert._span_factors(np.linalg.svd(stack)[0], ranks)
    row = [v[0] for v in pragmaql.hilbert._span_dims(complements[:1], ranks[:1], ranges[1:],
                                                     eps)]
    taken, span_dims = [], pragmaql.lattice._span_dims

    def counted(complements, ra, ranges, eps):
        taken.append(len(ra))
        return span_dims(complements, ra, ranges, eps)

    monkeypatch.setattr(pragmaql.lattice, "_span_dims", counted)
    found = pragmaql.lattice._pair_span_dims(stack, complements, ranges, ranks, np.array([0]),
                                             np.array([1]), eps)
    monkeypatch.undo()
    return [v[0] for v in found], sum(taken), row


@pytest.mark.parametrize("d", [2, 4, 16])
@pytest.mark.parametrize("turned", [False, True])
@pytest.mark.parametrize("factor", [0.1, 1.0, 10.0])
def test_a_pair_commuting_within_tau_takes_no_rank_row(monkeypatch, d, turned, factor):
    # at a commutator of 0.1 and 1 times tau the pair is counted from the
    # trace, at 10 times tau by its row; the count is the row's either way.
    # Within tau alpha and gap bound the exact sine t and sqrt(1 - cos)
    # from the safe side.  The row's gap near 90 degrees reads cos as
    # sqrt(1 - sin²), which rounding moves by about 1e-8
    eps = 1e-9
    t = factor * pragmaql.hilbert._compatible_tol(eps, d)
    stack = commutator_pair(d, t, turned)
    assert np.abs(stack[0] @ stack[1] - stack[1] @ stack[0]).max() == t
    (span, alpha, gap), taken, row = pair_span_rows(monkeypatch, stack, eps)
    assert taken == (factor > 1)
    assert span == row[0] == 1 + turned
    if factor > 1:
        assert (alpha, gap) == (row[1], row[2])
    else:
        sine_cutoff = pragmaql.hilbert._sine_cutoff(eps, d)
        assert max(row[1], 0 if turned else t) <= alpha <= 1.02 * d * t <= sine_cutoff / 98
        assert (gap == 1) == (not turned) and abs(gap - row[2]) < 1e-7
        assert np.sqrt(1 - t) >= gap >= np.sqrt(1 - 1.02 * d * t) if turned else gap == 1


@pytest.mark.parametrize("theta", [1e-7, 1e-6, 1e-3])
@pytest.mark.parametrize("turned", [False, True])
def test_a_pair_turned_well_past_tau_is_counted_by_its_sines(monkeypatch, theta, turned):
    # a sine of 1e-7 or more is above the sine cutoff, so the lines span a
    # plane, which the trace of their product, cos² theta or sin² theta,
    # rounded, would not show; a commutator that large takes a row
    d, eps = 3, 1e-9
    stack = commutator_pair(d, np.sin(theta) * np.cos(theta), turned)
    (span, _, _), taken, row = pair_span_rows(monkeypatch, stack, eps)
    assert (span, taken) == (2, 1) and row[0] == 2


def test_tau_keeps_the_angles_of_a_commuting_pair_far_inside_the_cutoff():
    # d tau is a hundredth of the sine cutoff at every dim up to MAX_DIM,
    # and at the default eps tau is about 1e-11 at dim 2, 3.5e-12 at dim 16
    dims = np.arange(1, pragmaql.model.MAX_DIM + 1)
    for eps in (1e-12, 1e-9, 1e-6, 1e-3):
        tau = np.array([pragmaql.hilbert._compatible_tol(eps, int(d)) for d in dims])
        sine = np.array([pragmaql.hilbert._sine_cutoff(eps, int(d)) for d in dims])
        assert (dims * tau <= sine / 100 * (1 + 1e-15)).all()
    assert 9e-12 < pragmaql.hilbert._compatible_tol(1e-9, 2) < 1.1e-11
    assert 3e-12 < pragmaql.hilbert._compatible_tol(1e-9, 16) < 4e-12


def pair_by_pair_tables(model, atoms, depth):
    """``(matrices, neg, meet, join)`` of a reference closure that takes one
    entry at a time: generation's rounds and order (N of each new class,
    then the pairs i < j with j new, row-major; rounds 1 to ``depth`` all
    meets before all joins, later rounds each pair's meet, then its join),
    with every entry the first class within class_tol of the kernel's
    result for its pair alone, among the classes made before it, made if
    none is.  It names no entry by count."""
    eps, d = model.eps, model.dim
    tol = 10 * eps
    stack = np.empty((0, d, d), dtype=complex)
    neg, tables = {}, ({}, {})

    def record(matrix):
        nonlocal stack
        near = np.flatnonzero(np.abs(stack - matrix).max(axis=(1, 2), initial=0.0) <= tol)
        if near.size:
            return int(near[0])
        stack = np.concatenate([stack, matrix[None]])
        return len(stack) - 1

    for a in dict.fromkeys(atoms):
        record(model.atom_projector(a).matrix)
    seen = 0
    for rounds in itertools.count(1):
        count = len(stack)
        if seen == count:
            break
        for i in range(seen, count):
            neg[i] = record(np.eye(d) - stack[i])
        pairs = [(i, j) for i in range(count) for j in range(max(i + 1, seen), count)]
        for steps in ([0], [1]) if rounds <= depth else [[0, 1]]:
            for i, j in pairs:
                for step in steps:
                    mats, _ = _pair_spans(stack[i][None], stack[j][None], eps, step == 0)
                    tables[step][i, j] = record(mats[0])
        seen = count
    n = len(stack)
    meet_table, join_table = (np.array([[i if i == j else table[min(i, j), max(i, j)]
                                         for j in range(n)] for i in range(n)])
                              for table in tables)
    return stack, [neg[i] for i in range(n)], meet_table, join_table


def plane_line_model():
    """C^3 with the plane a0 = (e1, e2), the line a1 = e3 and the planes
    a2 = (e1, e2 + e3) and a3 = (e1, e2 + 2 e3).  Round 1's one meet chunk,
    pair by pair: a0 and a1 meet in the zero matrix by count while no class
    is near it, so the chunk makes the zero class 6 (after the atoms and
    the lines normal to a2 and a3); a0 and a2 meet in e1, below no class
    made before the round, so the kernel's result makes class 7; the
    kernel's meet of a0 and a3 then lands on class 7, made in this chunk."""
    return span_model(3, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], [(1, 0, 0), (0, 1, 1)],
                      [(1, 0, 0), (0, 1, 2)])


def test_the_records_of_one_chunk_keep_the_pair_order():
    model = plane_line_model()
    lat = generate_quotient(model, ["a0", "a1", "a2", "a3"], 1)
    e1 = np.diag([1.0, 0.0, 0.0])
    assert (lat.bottom, lat.meet_table[0, 2], lat.meet_table[0, 3]) == (6, 7, 7)
    assert np.abs(lat.projector(7).matrix - e1).max() <= 1e-12
    lattices = [(model, ["a0", "a1", "a2", "a3"], depth) for depth in (1, 2)]
    lattices += [(bundled_model(name), sorted(bundled_model(name).atom_map), depth)
                 for name in ("qubit-zx", "qutrit-lines", "ququart-planes") for depth in (1, 2)]
    for model, atoms, depth in lattices:
        lat = generate_quotient(model, atoms, depth)
        stack, neg, meet_table, join_table = pair_by_pair_tables(model, atoms, depth)
        assert len(lat) == len(stack), (atoms, depth)
        assert lat.neg_table.tolist() == neg
        assert lat.meet_table.tolist() == meet_table.tolist(), (atoms, depth)
        assert lat.join_table.tolist() == join_table.tolist(), (atoms, depth)
        mats = np.stack([lat.projector(c).matrix for c in range(len(lat))])
        # a bound class is the exact zero or identity matrix, the kernel's within rounding
        assert np.abs(mats - stack).max() <= 1e-12


def test_order_is_a_partial_order(mo2):
    n = len(mo2)
    order = mo2.order
    assert all(order[i, i] for i in range(n))
    for i in range(n):
        for j in range(n):
            if i != j and order[i, j]:
                assert not order[j, i]
            for k in range(n):
                if order[i, j] and order[j, k]:
                    assert order[i, k]


def test_quotient_soundness_members_justify_alike(qubit, mo2):
    rng = np.random.default_rng(83)
    states = list(qubit.states.values())
    states += [random_state(qubit.dim, rng) for _ in range(200)]
    for element in mo2.elements:
        rep_values = [justify(qubit, psi, element.formula) for psi in states]
        for member in element.members:
            for psi, expected in zip(states, rep_values):
                assert justify(qubit, psi, member) is expected


# ---------------------------------------------------------------------------
# law verification


def test_mo2_is_an_ortholattice(mo2):
    for report in verify_ortholattice(mo2):
        assert report.holds, report
        assert report.counterexample is None


def test_boolean4_is_an_ortholattice(boolean4):
    assert all(r.holds for r in verify_ortholattice(boolean4))


def test_broken_involution_reported(mo2):
    n = len(mo2)
    broken = dataclasses.replace(
        mo2, neg_table=np.array([(i + 1) % n for i in range(n)]))
    reports = {r.law: r for r in verify_ortholattice(broken)}
    assert not reports["involution"].holds
    assert reports["involution"].counterexample is not None


def test_mo2_is_orthomodular(mo2):
    assert verify_orthomodular(mo2).holds


def test_boolean4_is_orthomodular(boolean4):
    assert verify_orthomodular(boolean4).holds


def test_o6_fails_orthomodularity_with_counterexample():
    lat = o6_fixture()
    assert all(r.holds for r in verify_ortholattice(lat))  # it is an ortholattice
    report = verify_orthomodular(lat)
    assert not report.holds
    x, y = report.counterexample
    assert (x, y) == (1, 2)  # a < b but a join (neg a meet b) = a
    assert lat.order[x, y]
    assert lat.join_table[x, lat.meet_table[lat.neg_table[x], y]] != y


def test_mo2_distributivity_violation(mo2, qubit):
    triple = find_distributivity_violation(mo2)
    assert triple is not None
    a, b, c = triple
    # first triple by class-id order: ([|- az], [|- ax], [N(|- az)]) --
    # the same lantern pattern as ([|- az], [|- ax], [N(|- ax)])
    assert mo2.elements[a].label == "(|- az)"
    assert {mo2.elements[b].label, mo2.elements[c].label} <= {
        "(|- ax)", "N((|- az))", "N((|- ax))"}
    left = mo2.meet_table[a, mo2.join_table[b, c]]
    right = mo2.join_table[mo2.meet_table[a, b], mo2.meet_table[a, c]]
    assert left == a
    assert right == mo2.bottom


def test_named_lantern_triple_violates_distributivity(mo2, qubit):
    a = find_class(mo2, qubit.projector("Ez"))
    b = find_class(mo2, qubit.projector("Ex"))
    c = find_class(mo2, ortho(qubit.projector("Ex")))
    left = mo2.meet_table[a, mo2.join_table[b, c]]
    right = mo2.join_table[mo2.meet_table[a, b], mo2.meet_table[a, c]]
    assert left == a and right == mo2.bottom and left != right


def test_boolean4_is_distributive(boolean4):
    assert find_distributivity_violation(boolean4) is None


def test_dim3_noncommuting_lines(qutrit):
    lat = generate_quotient(qutrit, ["aa", "ab"], 3)
    assert len(lat) == 12  # two skew lines in a plane plus the axis factor
    assert verify_orthomodular(lat).holds
    assert verify_isomorphism(lat).holds
    assert find_distributivity_violation(lat) is not None


def test_dim4_noncommuting_planes(ququart):
    lat = generate_quotient(ququart, ["bl", "bd"], 2)
    assert len(lat) == 6  # the lantern again, with rank-2 middles
    assert verify_orthomodular(lat).holds
    assert find_distributivity_violation(lat) is not None


def test_dim4_nested_pair_is_boolean(ququart):
    lat = generate_quotient(ququart, ["bl", "bc"], 2)
    assert len(lat) == 8
    assert verify_orthomodular(lat).holds
    assert find_distributivity_violation(lat) is None


def test_mo2_isomorphism(mo2):
    report = verify_isomorphism(mo2)
    assert report.holds and report.counterexample is None


def test_shared_projector_breaks_injectivity(mo2):
    elements = list(mo2.elements)
    clone = dataclasses.replace(elements[1], projector=elements[0].projector)
    corrupted = dataclasses.replace(mo2, elements=[elements[0], clone]
                                    + elements[2:])
    report = verify_isomorphism(corrupted)
    assert not report.holds
    assert report.counterexample[0] == "injective"


def test_injectivity_reports_first_clash_in_row_major_order(mo2):
    # clashes at (0, 3) and (1, 2): row-major order names (0, 3) first
    elements = list(mo2.elements)
    elements[3] = dataclasses.replace(elements[3], projector=elements[0].projector)
    elements[2] = dataclasses.replace(elements[2], projector=elements[1].projector)
    report = verify_isomorphism(dataclasses.replace(mo2, elements=elements))
    assert report.counterexample == ("injective", 0, 3)


def test_tampered_neg_table_breaks_isomorphism(mo2):
    bad = np.array(mo2.neg_table)
    bad[0], bad[1] = bad[1], bad[0]
    report = verify_isomorphism(dataclasses.replace(mo2, neg_table=bad))
    assert not report.holds
    assert report.counterexample[0] == "negation"


# Tables edited in place, with every check's verdict recorded before the
# checks were vectorised: (lattice, edits as (table, index, value),
# verify_isomorphism counterexample, verify_ortholattice counterexamples in
# law order, verify_orthomodular counterexample, distributivity triple).
# Each edit set leaves several failures, so the row-major first one and the
# aspect order (injective, order, negation, then meet before join at each
# pair) are what is pinned.
TAMPERED = [
    ("mo2", [("order", (4, 0), False), ("order", (1, 2), True)],
     ("order", 1, 2), [None, None, None, None], (1, 2), (0, 1, 2)),
    ("mo2", [("order", (5, 5), False), ("meet_table", (0, 0), 1)],
     ("order", 5, 5), [None, (0, 0), None, (0, 0)], None, (0, 0, 1)),
    ("mo2", [("neg_table", (4,), 4), ("meet_table", (0, 1), 0)],
     ("negation", 4), [(5,), (0, 1), (4,), None], (4, 0), (0, 2, 3)),
    ("mo2", [("neg_table", (0,), 3), ("neg_table", (1,), 2)],
     ("negation", 0), [(0,), None, None, None], None, (0, 1, 2)),
    ("mo2", [("meet_table", (3, 1), 0), ("meet_table", (1, 4), 0)],
     ("meet", 1, 4), [None, (1, 3), (3,), (1, 4)], (1, 1), (0, 1, 2)),
    ("mo2", [("meet_table", (3, 2), 0), ("meet_table", (2, 1), 3)],
     ("meet", 2, 1), [None, (0, 3), None, (2, 1)], None, (0, 1, 2)),
    ("mo2", [("join_table", (2, 0), 4), ("join_table", (0, 3), 1)],
     ("join", 0, 3), [None, (0, 2), (2,), (0, 3)], (2, 5), (0, 0, 3)),
    ("mo2", [("join_table", (4, 1), 4), ("join_table", (1, 2), 4)],
     ("join", 1, 2), [None, (1, 2), None, (1, 2)], (4, 1), (0, 1, 3)),
    ("mo2", [("meet_table", (2, 3), 0), ("join_table", (2, 3), 0)],
     ("meet", 2, 3), [None, (0, 1), None, (2, 3)], None, (0, 1, 2)),
    ("mo2", [("join_table", (1, 0), 1), ("meet_table", (1, 3), 1)],
     ("join", 1, 0), [None, (1, 0), (1,), None], (3, 3), (0, 1, 0)),
    ("planes", [("order", (20, 3), True), ("order", (5, 30), True)],
     ("order", 5, 30), [None, None, None, None], (5, 30), (0, 1, 3)),
    ("planes", [("neg_table", (8,), 10), ("neg_table", (20,), 31)],
     ("negation", 8), [(8,), (0, 14), (20,), None], None, (0, 1, 3)),
    ("planes", [("meet_table", (9, 14), 7), ("meet_table", (7, 20), 0)],
     ("meet", 7, 20), [None, (6, 30), None, (9, 14)], (6, 20), (0, 1, 3)),
    ("planes", [("join_table", (3, 17), 6), ("meet_table", (3, 17), 7),
                ("meet_table", (3, 20), 7)],
     ("meet", 3, 17), [None, (0, 14), None, (3, 17)], (0, 17), (0, 1, 3)),
    ("planes", [("join_table", (30, 2), 6), ("join_table", (12, 33), 0)],
     ("join", 12, 33), [None, (10, 29), None, (12, 33)], (30, 31), (0, 1, 3)),
    ("planes", [("join_table", (0, 5), 5), ("join_table", (2, 1), 2)],
     ("join", 0, 5), [None, (0, 5), None, (0, 5)], None, (0, 0, 5)),
]


@pytest.mark.parametrize("name, edits, iso, laws, orthomodular, triple", TAMPERED)
def test_tampered_tables_report_pinned_counterexamples(request, name, edits, iso,
                                                       laws, orthomodular, triple):
    lat = request.getfixturevalue(name)
    tables = {key: np.array(getattr(lat, key))
              for key in ("order", "neg_table", "meet_table", "join_table")}
    for key, at, value in edits:
        tables[key][at] = value
    lat = dataclasses.replace(lat, **tables)
    reports = verify_ortholattice(lat) + [verify_orthomodular(lat), verify_isomorphism(lat)]
    assert reports == [
        LawReport(law, found is None, found) for law, found in
        zip(("involution", "de-morgan", "complement", "absorption", "orthomodular"),
            laws + [orthomodular])
    ] + [LawReport("order-isomorphism", False, iso)]
    found = find_distributivity_violation(lat)
    assert found == triple
    # plain ints, which the CLI's JSON output can carry
    indices = [k for c in [r.counterexample for r in reports] + [found] if c for k in c]
    assert all(type(k) is int for k in indices if not isinstance(k, str))


def loop_reference(lat):
    """Every check as plain loops over class indices, taking the first failure
    in row-major order; isomorphism uses hilbert's meet/join on projectors."""
    n, neg, mt, jt = len(lat), lat.neg_table, lat.meet_table, lat.join_table
    singles, pairs = [(x,) for x in range(n)], list(itertools.product(range(n), repeat=2))

    def first(holds, cases):
        return next((case for case in cases if not holds(*case)), None)

    laws = [
        first(lambda x: neg[neg[x]] == x, singles),
        first(lambda x, y: neg[mt[x, y]] == jt[neg[x], neg[y]]
              and neg[jt[x, y]] == mt[neg[x], neg[y]], pairs),
        first(lambda x: mt[x, neg[x]] == lat.bottom and jt[x, neg[x]] == lat.top, singles),
        first(lambda x, y: mt[x, jt[x, y]] == x and jt[x, mt[x, y]] == x, pairs),
        first(lambda x, y: not lat.order[x, y] or jt[x, mt[neg[x], y]] == y, pairs),
    ]
    triple = first(lambda a, b, c: mt[a, jt[b, c]] == jt[mt[a, b], mt[a, c]],
                   itertools.product(range(n), repeat=3))
    p = [lat.projector(i) for i in range(n)]
    steps = [
        ("injective", pairs, lambda i, j: j <= i or not projectors_close(p[i], p[j], lat.eps)),
        ("order", pairs, lambda i, j: lat.order[i, j] == leq(p[i], p[j], lat.eps)),
        ("negation", singles, lambda i: projectors_close(p[neg[i]], ortho(p[i]), lat.class_tol)),
        (None, [(aspect, i, j) for i, j in pairs for aspect in ("meet", "join")],
         lambda aspect, i, j: projectors_close(
             p[(mt if aspect == "meet" else jt)[i, j]],
             (meet if aspect == "meet" else join)(p[i], p[j], lat.eps), lat.class_tol)),
    ]
    iso = None
    for aspect, cases, holds in steps:
        failure = first(holds, cases)
        if failure is not None:
            iso = failure if aspect is None else (aspect, *failure)
            break
    return laws, triple, iso


@pytest.mark.parametrize("name, seed", [("mo2", s) for s in range(24)]
                         + [("planes", s) for s in range(8)]
                         + [("coordinate_planes_16d", s) for s in range(8)])
def test_checks_match_loop_reference_on_random_edits(request, name, seed):
    lat = request.getfixturevalue(name)
    rng = np.random.default_rng([seed, len(lat)])
    n = len(lat)
    tables = {key: np.array(getattr(lat, key))
              for key in ("order", "neg_table", "meet_table", "join_table")}
    for _ in range(int(rng.integers(1, 4))):
        key = list(tables)[int(rng.integers(4))]
        at = tuple(int(k) for k in rng.integers(n, size=tables[key].ndim))
        tables[key][at] = not tables[key][at] if key == "order" else rng.integers(n)
    elements = list(lat.elements)
    if seed % 4 == 0:   # two classes with one projector
        a, b = (int(k) for k in rng.integers(n, size=2))
        elements[a] = dataclasses.replace(elements[a], projector=elements[b].projector)
    lat = dataclasses.replace(lat, elements=elements, **tables)
    laws, triple, iso = loop_reference(lat)
    reports = verify_ortholattice(lat) + [verify_orthomodular(lat)]
    assert [r.counterexample for r in reports] == laws
    assert find_distributivity_violation(lat) == triple
    assert verify_isomorphism(lat).counterexample == iso


def test_isomorphism_catches_a_generator_that_drops_rank_one_meets(ququart, monkeypatch):
    # a corrupted meet still yields a closed, self-consistent table, so only
    # recomputing meets independently of the generator can expose it
    span_dims, pair_spans = pragmaql.lattice._span_dims, pragmaql.lattice._pair_spans
    compatible_span_dims = pragmaql.lattice._compatible_span_dims

    dropped = []

    # a span count that matches neither a rank rule nor the order rule sends
    # the pair to the kernel; both counts are patched, the SVD rows of pairs
    # that do not commute and the traces of pairs that do, so every pair
    # whose meet has rank 1 reaches the kernel
    def undecided(complements, ra, ranges, eps):
        span, alpha, gap = span_dims(complements, ra, ranges, eps)
        return np.where(ra + factor_ranks(ranges) - span == 1, -1, span), alpha, gap

    def undecided_compatible(a, ra, b, rb, eps):
        compatible, span, alpha, gap = compatible_span_dims(a, ra, b, rb, eps)
        line = ra[compatible] + rb[compatible] - span == 1
        return compatible, np.where(line, -1, span), alpha, gap

    def lossy(a, b, eps, meet):
        mats, ranks = pair_spans(a, b, eps, meet)
        if meet:
            line = ranks == 1
            mats[line], ranks[line] = 0, 0   # the zero projector
            dropped.append(int(line.sum()))
        return mats, ranks

    monkeypatch.setattr(pragmaql.lattice, "_span_dims", undecided)
    monkeypatch.setattr(pragmaql.lattice, "_compatible_span_dims", undecided_compatible)
    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", lossy)
    lat = generate_quotient(ququart, ["bl", "bd", "bc"], 1)
    # the order rule named none of the lines the kernel would drop
    assert sum(dropped) > 0
    # verification counts spans as generation does, unpatched
    monkeypatch.undo()
    # the order is read off the meet table, so it is wrong too: the line bc
    # lies in the plane bl, but their meet no longer is bc
    assert verify_isomorphism(lat) == LawReport("order-isomorphism", False, ("order", 2, 0))
    projs = [lat.projector(i) for i in range(len(lat))]
    inclusion = np.array([[leq(p, q, lat.eps) for q in projs] for p in projs])
    report = verify_isomorphism(dataclasses.replace(lat, order=inclusion))
    assert report == LawReport("order-isomorphism", False, ("meet", 0, 2))


def planes_and_line(theta, phi):
    """Two planes of C^3 that share e1 at the angle ``theta``, and the line
    (1, phi, 0) in the first.  At phi theta <= 1e-9 the line lies in both
    planes by count, the one rank-1 class below both, yet the planes meet
    in e1, about phi from it: the count is ill-conditioned at angle theta."""
    return span_model(3, [(1, 0, 0), (0, 1, 0)],
                      [(1, 0, 0), (0, np.cos(theta), np.sin(theta))], [(1, phi, 0)])


def unbounded_span_dims(monkeypatch):
    """Patch the lattice module's ``_span_dims`` to report no dropped sine
    and no small angle, which turns the order rule's bound off."""
    span_dims = pragmaql.lattice._span_dims

    def unbounded(complements, ra, ranges, eps):
        span, alpha, gap = span_dims(complements, ra, ranges, eps)
        return span, np.zeros_like(alpha), np.ones_like(gap)

    monkeypatch.setattr(pragmaql.lattice, "_span_dims", unbounded)


@pytest.mark.parametrize("theta, phi", [(1e-6, 1e-3), (1e-4, 1e-5)])
def test_an_ill_conditioned_meet_is_left_to_the_kernel(theta, phi):
    # the bound refuses the line as the planes' meet, so the kernel's meet
    # makes new classes, round after round, as it did before the order rule
    with pytest.raises(ModelError) as exc:
        generate_quotient(planes_and_line(theta, phi), ["a0", "a1", "a2"], 1)
    assert exc.value.code == "not-saturated"


def test_isomorphism_bounds_the_entries_it_decides_by_count(monkeypatch):
    # generated with the bound off, the line is the planes' meet and the
    # lattice closes at 12 classes.  Every law holds, and so does the count
    # check; with the bound, verification compares that entry with the
    # kernel's meet, e1, which lies 1e-3 from the line
    model = planes_and_line(1e-6, 1e-3)
    unbounded_span_dims(monkeypatch)
    lat = generate_quotient(model, ["a0", "a1", "a2"], 1)
    assert (len(lat), lat.meet_table[0, 1]) == (12, 2)
    assert verify_isomorphism(lat).holds
    monkeypatch.undo()
    assert all(r.holds for r in verify_ortholattice(lat) + [verify_orthomodular(lat)])
    p = [lat.projector(c) for c in range(3)]
    assert float(np.abs(meet(p[0], p[1], lat.eps).matrix - p[2].matrix).max()) > 1e-4
    assert verify_isomorphism(lat) == LawReport("order-isomorphism", False, ("meet", 0, 1))


@pytest.mark.parametrize("key, j, i", [
    ("meet_table", 7, 3), ("join_table", 35, 0),
    ("meet_table", 20, 19), ("join_table", 20, 19),
])
def test_isomorphism_checks_the_lower_triangle(planes, key, j, i):
    # verification recomputes each unordered pair once; the entry below the
    # diagonal must still be checked against that recomputation
    assert j > i
    table = np.array(getattr(planes, key))
    table[j, i] = planes.bottom if table[j, i] != planes.bottom else planes.top
    report = verify_isomorphism(dataclasses.replace(planes, **{key: table}))
    assert report == LawReport("order-isomorphism", False, (key[:4], j, i))


@pytest.fixture(scope="module")
def coordinate_planes_16d():
    """Two commuting 8-dimensional coordinate subspaces of C^16: a 16-class
    Boolean lattice, large enough at dim 16 to split the 91 of its 120 pairs
    that verification counts, those without bottom or top, into chunks.
    Every pair commutes, so each is counted from a trace."""
    unit = lambda k: [[float(m == k), 0.0] for m in range(16)]
    return generate_quotient(pragmaql.load_model({
        "dim": 16, "states": {},
        "properties": {"P": {"span": [unit(k) for k in range(8)]},
                       "Q": {"span": [unit(k) for k in range(4, 12)]}},
        "atoms": {"p": "P", "q": "Q"},
    }), ["p", "q"], 1)


@pytest.mark.parametrize("name, batch", [("mo2", None), ("planes", None), ("planes", 16 * 16),
                                         ("coordinate_planes_16d", None)])
def test_isomorphism_takes_one_row_of_singular_values_per_pair_that_does_not_commute(
        request, monkeypatch, name, batch):
    lat = request.getfixturevalue(name)
    n, d = len(lat), lat.projector(0).dim
    apart = ~commuting_pairs(lat)
    if batch is not None:   # chunks of 16 pairs at dim 4
        monkeypatch.setattr(pragmaql.lattice, "_BATCH_ENTRIES", batch)
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert verify_isomorphism(lat).holds
    # one full SVD of the n class matrices gives their frames and ranks;
    # each unordered pair i < j of classes other than bottom and top whose
    # matrices do not commute then takes one row of a values-only (k, dim,
    # dim) SVD of its principal-angle block, chunked as in generation,
    # which checks both of its table entries.  A commuting pair takes none:
    # every pair of the Boolean coordinate_planes_16d commutes
    ranks = np.array([lat.projector(c).rank for c in range(n)])
    rows = len(inner_pairs(ranks, d, 0, n, apart))
    chunk = pragmaql.lattice._BATCH_ENTRIES // (d * d)
    assert calls == [((n, d, d), True)] + [
        ((min(chunk, rows - at), d, d), False) for at in range(0, rows, chunk)]
    assert (rows == 0) == (name == "coordinate_planes_16d")
    assert len(calls) > 2 or batch is None


def test_isomorphism_reads_ranks_off_the_matrices_not_the_stored_rank(planes):
    # a meet entry moved from a common line down to bottom still has both
    # inclusions; with bottom's stored rank set to 1 only the rank counted
    # from its matrix shows the entry is wrong
    ranks = [planes.projector(k).rank for k in range(len(planes))]
    i, j = next((i, j) for i, j in itertools.combinations(range(len(planes)), 2)
                if ranks[planes.meet_table[i, j]] == 1 and planes.meet_table[i, j] not in (i, j))
    table = np.array(planes.meet_table)
    table[i, j] = planes.bottom
    elements = list(planes.elements)
    bottom = elements[planes.bottom]
    elements[planes.bottom] = dataclasses.replace(
        bottom, projector=dataclasses.replace(bottom.projector, rank=1))
    lat = dataclasses.replace(planes, elements=elements, meet_table=table)
    assert verify_isomorphism(lat) == LawReport("order-isomorphism", False, ("meet", i, j))


@pytest.mark.parametrize("key", ["meet_table", "join_table"])
@pytest.mark.parametrize("side", [0, 1])
def test_isomorphism_checks_both_inclusions_of_each_entry(planes, key, side):
    # an entry of the right rank that is below (for a join: above) one
    # operand of the pair but not the other is found by that inclusion alone
    order = planes.order if key == "meet_table" else planes.order.T
    table, n = getattr(planes, key), len(planes)
    rank = [planes.projector(k).rank for k in range(n)]
    i, j, c = next((i, j, c) for i, j in itertools.combinations(range(n), 2)
                   for c in range(n) if rank[c] == rank[table[i, j]]
                   and order[c, (i, j)[side]] and not order[c, (j, i)[side]])
    edited = np.array(table)
    edited[i, j] = c
    report = verify_isomorphism(dataclasses.replace(planes, **{key: edited}))
    assert report == LawReport("order-isomorphism", False, (key[:4], i, j))


def lines_apart(theta):
    """MO2 on two lines of C^2 at angle ``theta``, tables written by hand:
    bottom, the lines a and b, their complements, top."""
    BOT, A_, B_, NA, NB, TOP = range(6)
    a, b = np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])
    perp = lambda v: np.array([-v[1], v[0]])
    projs = [zero_projector(2)] + [projector_from_span([v]) for v in (a, b, perp(a), perp(b))] \
        + [identity_projector(2)]
    order = np.eye(6, dtype=bool)
    order[BOT, :] = order[:, TOP] = True
    # of two comparable classes the lower is the meet and the upper the
    # join; two incomparable ones meet at bottom and join at top
    meet_table = np.where(order, np.arange(6)[:, None], BOT)
    meet_table = np.where(order.T, np.arange(6)[None, :], meet_table)
    join_table = np.where(order, np.arange(6)[None, :], TOP)
    join_table = np.where(order.T, np.arange(6)[:, None], join_table)
    return QuotientLattice(
        elements=[LatticeElement(i, None, p) for i, p in enumerate(projs)],
        order=order, neg_table=np.array([TOP, NA, NB, A_, B_, BOT]),
        meet_table=meet_table, join_table=join_table, bottom=BOT, top=TOP)


@pytest.mark.parametrize("multiple, expected", [
    (0.5, ("injective", 1, 2)),   # the lines are one projector within eps
    (1.5, ("meet", 1, 2)),        # not below each other, but one line by the cutoff
    (1.9, ("meet", 1, 2)),
    (2.1, None),                  # sqrt(1 - cos theta) passes eps * sqrt(2) at 2 eps
    (3.0, None),
    (12.0, None),
])
def test_isomorphism_matches_loop_reference_on_lines_a_few_eps_apart(multiple, expected):
    # between eps and 2 eps, leq finds no inclusion while the rank cutoff
    # finds one common line: both checks must still agree with the loops
    lat = lines_apart(multiple * 1e-9)
    assert verify_isomorphism(lat).counterexample == loop_reference(lat)[2] == expected


def test_fixture_without_projectors_rejected_by_isomorphism():
    assert verify_isomorphism(o6_fixture()) == \
        LawReport("order-isomorphism", False, ("no-projector", 0))


# ---------------------------------------------------------------------------
# export / import


def test_mo2_dot_export(mo2):
    dot = export_lattice(mo2, "dot")
    assert dot.startswith("digraph")
    nodes = re.findall(r'^\s*n(\d+) \[label="(.*)"\];$', dot, re.M)
    edges = re.findall(r"^\s*n(\d+) -> n(\d+);$", dot, re.M)
    assert len(nodes) == 6
    assert len(edges) == 8  # bottom to the four middles, four middles to top
    bottom = str(mo2.bottom)
    top = str(mo2.top)
    assert sum(1 for i, j in edges if i == bottom) == 4
    assert sum(1 for i, j in edges if j == top) == 4
    labels = {label for _, label in nodes}
    assert "(|- az)" in labels


def test_boolean4_dot_is_a_diamond(boolean4):
    dot = export_lattice(boolean4, "dot")
    edges = re.findall(r"^\s*n(\d+) -> n(\d+);$", dot, re.M)
    assert len(edges) == 4


def test_structured_round_trip(mo2):
    doc = export_lattice(mo2, "structured")
    rebuilt = import_lattice(json.loads(json.dumps(doc)))
    assert export_lattice(rebuilt, "structured") == doc
    assert np.array_equal(rebuilt.order, mo2.order)
    assert np.array_equal(rebuilt.meet_table, mo2.meet_table)
    assert np.array_equal(rebuilt.join_table, mo2.join_table)
    assert [e.label for e in rebuilt.elements] == [e.label for e in mo2.elements]
    assert verify_isomorphism(rebuilt).holds


@pytest.mark.parametrize("name", bundled_model_names())
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bundled_lattice_document_round_trip(name, depth):
    model = bundled_model(name)
    doc = export_lattice(generate_quotient(model, sorted(model.atom_map), depth),
                         "structured")
    doc = json.loads(json.dumps(doc))
    assert export_lattice(import_lattice(doc), "structured") == doc


def test_unknown_export_format(mo2):
    with pytest.raises(ValueError):
        export_lattice(mo2, "svg")


def test_import_rejects_malformed_documents(mo2):
    def set_element(key, value):
        return lambda doc: doc["elements"][0].__setitem__(key, value)

    mutations = [
        lambda doc: doc.pop("neg"),
        lambda doc: doc.update(order=doc["order"][:-1]),
        lambda doc: doc.update(elements=7),
        lambda doc: doc["elements"].__setitem__(0, "not a mapping"),
        set_element("members", 7),
        set_element("members", ["(|- az)", 7]),
        set_element("formula", 7),
        set_element("synthesized", "false"),
        lambda doc: doc["neg"].__setitem__(0, 99),
        lambda doc: doc["meet"][0].__setitem__(0, -1),
        lambda doc: doc.update(bottom=99),
        lambda doc: doc.update(bottom=float("inf")),
        lambda doc: doc.update(eps=10 ** 400),
        lambda doc: doc.update(eps=-1.0),
        lambda doc: doc.update(eps=0.0),
        lambda doc: doc.update(eps=float("nan")),
        lambda doc: doc.update(eps=float("inf")),
        lambda doc: doc.update(class_tol=-1.0),
        # a tolerance is an int or float, never a string or a bool
        lambda doc: doc.update(eps="1e-9"),
        lambda doc: doc.update(class_tol="1e-8"),
        lambda doc: doc.update(eps=True),
        # an element's index and rank, when given, must match
        set_element("index", 5),
        set_element("rank", 2),
        set_element("projector", None),
        # indices must be ints (not bools), order entries bools: nothing converts
        lambda doc: doc["neg"].__setitem__(0, 2.7),
        lambda doc: doc["neg"].__setitem__(0, "3"),
        lambda doc: doc["neg"].__setitem__(0, True),
        lambda doc: doc["meet"][0].__setitem__(1, 2.0),
        lambda doc: doc["join"][1].__setitem__(0, "3"),
        lambda doc: doc["join"].__setitem__(1, 3),
        lambda doc: doc.update(bottom=4.9),
        lambda doc: doc.update(bottom="3"),
        lambda doc: doc.update(top=True),
        lambda doc: doc["order"][0].__setitem__(1, "yes"),
        lambda doc: doc["order"][0].__setitem__(1, 0.5),
        lambda doc: doc["order"][0].__setitem__(1, 2),
        lambda doc: doc["order"][0].__setitem__(1, None),
        lambda doc: doc.update(neg=dict(enumerate(doc["neg"]))),
        lambda doc: doc["meet"].__setitem__(0, doc["meet"][0][:-1]),
    ]
    documents = ["not a mapping"]
    for mutate in mutations:
        doc = json.loads(json.dumps(export_lattice(mo2, "structured")))
        mutate(doc)
        documents.append(doc)
    for doc in documents:
        with pytest.raises(ModelError) as info:
            import_lattice(doc)
        assert info.value.code == "schema"


ZERO_2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]


@pytest.mark.parametrize("key, value, code", [
    ("projector", 7, "schema"),
    ("projector", [[[True, 0], [0, 0]], ZERO_2[1]], "schema"),
    ("projector", [[[10 ** 400, 0], [0, 0]], ZERO_2[1]], "schema"),
    ("projector", [[[float("nan"), 0], [0, 0]], ZERO_2[1]], "schema"),
    ("projector", [[[0.5, 0], [0, 0]], ZERO_2[1]], "not-idempotent"),
    ("projector", [[[0, 0], [1, 0]], ZERO_2[1]], "not-hermitian"),
    ("formula", "(|- az", "schema"),
    ("members", ["(|- az)", "az &&"], "schema"),
])
def test_import_names_the_element_of_a_bad_projector_or_formula(mo2, key, value, code):
    doc = json.loads(json.dumps(export_lattice(mo2, "structured")))
    doc["elements"][1][key] = value
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == code
    assert str(info.value).startswith("lattice element 1: ")


def test_import_rejects_projectors_of_different_dimensions(mo2):
    doc = json.loads(json.dumps(export_lattice(mo2, "structured")))
    assert doc["elements"][0]["rank"] in (0, 1)
    doc["elements"][0].update(projector=[[[1, 0]]], rank=1)
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == "schema"
    assert "dimension" in str(info.value)


def mo2_document(mo2):
    return json.loads(json.dumps(export_lattice(mo2, "structured")))


# G is the group "((|- az) AQ (|- ax))": part of members of elements 2 and 3
# and the first member of element 5, so a later text repeats it
G = "((|- az) AQ (|- ax))"


@pytest.mark.parametrize("field, element, text, groups", [
    ("members", 5, f"{G} K", [G]),
    ("members", 5, f"({G} K {G}", [G]),
    ("members", 5, f"{G} {G}", [G]),
    ("members", 5, f"N{G} AQ |- (az &)", [G]),
    ("members", 5, f"({G} K {G}))", [G]),
    ("members", 5, f"{G} K |- az $", [G]),
    ("members", 5, f"N({G}) K (|- az", [G]),
    ("members", 5, f"( {G}\tK {G} AQ N( {G} )", [G]),
    # a group that parses as assertive, where a radical stands, and the reverse
    ("members", 5, "|- (|- az)", ["(|- az)"]),
    ("members", 5, f"{G} K |- (~(|- az))", [G, "(|- az)"]),
    ("members", 5, "|- (az & ax) K (az & ax)", []),
    # a formula whose groups all repeat members of earlier elements
    ("formula", 4, "((|- az) K (|- az)) K (N((|- ax)) K ((|- az) AQ (|- ax))) AQ",
     ["((|- az) K (|- az))", "(N((|- ax)) K ((|- az) AQ (|- ax)))"]),
])
def test_import_parse_error_after_repeated_groups_is_that_of_the_text_alone(
        mo2, field, element, text, groups):
    doc = mo2_document(mo2)
    earlier = [m for e in doc["elements"][:element] for m in e["members"]]
    assert all(any(g in m for m in earlier) for g in groups)
    if field == "formula":
        doc["elements"][element]["formula"] = text
    else:
        doc["elements"][element]["members"].append(text)
    with pytest.raises(ParseError) as alone:
        parse_assertive(text)
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == "schema"
    assert str(info.value) == f"lattice element {element}: {alone.value}"
    cause = info.value.__cause__
    assert isinstance(cause, ParseError)
    assert (str(cause), cause.position, cause.expected) == \
        (str(alone.value), alone.value.position, alone.value.expected)


def respaced(text: str, k: int) -> str:
    """``text`` with the whitespace between its tokens changed: none, tabs
    or doubled spaces, chosen by ``k``, and a space where two letters meet."""
    tokens = re.findall(r"\|-|AQ|[NKACE~&|()]|<->|->|[a-z][a-z0-9_]*", text)
    gaps = ["", " ", "\t", "  ", " \t ", "\n"]
    out = tokens[0]
    for n, (a, b) in enumerate(zip(tokens, tokens[1:])):
        gap = gaps[(k + n) % len(gaps)]
        if not gap and a[-1].isalnum() and b[0].isalnum():
            gap = " "
        out += gap + b
    return out


def test_respaced_document_imports_to_the_same_asts_and_exports_canonically(mo2):
    canonical = mo2_document(mo2)
    doc = json.loads(json.dumps(canonical))
    k = 0
    for e in doc["elements"]:
        e["formula"] = respaced(e["formula"], k)
        e["members"] = [respaced(m, k := k + 1) for m in e["members"]]
    doc["elements"][4]["members"][0] = "(( |- az )K(|- ax))"
    assert canonical["elements"][4]["members"][0] == "((|- az) K (|- ax))"
    texts = [t for e in doc["elements"] for t in [e["formula"], *e["members"]]]
    assert all(any(gap in t for t in texts) for gap in (")K(", "\t", "  ", "\n"))
    back, same = import_lattice(doc), import_lattice(canonical)
    for e, f in zip(back.elements, same.elements):
        assert e.formula == f.formula and e.members == f.members
    assert json.dumps(export_lattice(back, "structured")) == json.dumps(canonical)


def test_import_sends_only_the_atom_texts_of_a_canonical_document_to_the_parser(
        mo2, monkeypatch):
    # every other member is read from the texts of its operands
    doc = mo2_document(mo2)
    texts = [t for e in doc["elements"] for t in [e["formula"], *e["members"]]]
    parsed = []
    parse = pragmaql.formula._parse
    monkeypatch.setattr(pragmaql.formula, "_parse",
                        lambda text, *args: parsed.append(text) or parse(text, *args))
    back = import_lattice(doc)
    assert sorted(parsed) == ["(|- ax)", "(|- az)"]
    assert len(set(texts)) > 40
    for e, raw in zip(back.elements, doc["elements"]):
        assert e.formula == parse(raw["formula"], True)
        assert e.members == tuple(parse(t, True) for t in raw["members"])


@pytest.mark.parametrize("name, atoms, depth", list(EXPORT_DIGESTS))
def test_import_reads_the_parsers_formulas_from_every_pinned_document(
        all_models, name, atoms, depth):
    doc = json.loads(json.dumps(export_lattice(
        generate_quotient(all_models[name], list(atoms), depth), "structured")))
    respaced_doc = json.loads(json.dumps(doc))
    rng = np.random.default_rng([len(name), len(atoms), depth])
    for e in respaced_doc["elements"]:
        e["formula"] = respaced(e["formula"], int(rng.integers(6)))
        e["members"] = [respaced(m, int(rng.integers(6))) for m in e["members"]]
    for document in (doc, respaced_doc):
        for e, raw in zip(import_lattice(document).elements, document["elements"]):
            assert e.formula == parse_assertive(raw["formula"])
            assert e.members == tuple(map(parse_assertive, raw["members"]))


@pytest.mark.parametrize("text", [
    # read by precedence, not by where a split falls: sides that are not
    # canonical texts are never taken
    "(|- az AQ |- ax K |- az)",
    "((|- az AQ |- ax) K (|- az))",
    "(|- az K |- ax)",
    "(|- az) K (|- ax)",
    "N(|- az) K (|- ax)",
    "N((|- az)) K (|- ax)",
    "N((|- az)) AQ N((|- ax)) K (|- az)",
    "(N((|- az)) AQ N((|- ax)) K (|- az))",
    "((|- az) K (|- ax) AQ (|- az))",
    "N((|- az) K (|- ax))",
    "(|- (az & ax))",
    "(|- ~az)",
    # errors are the parser's
    "|- (|- az)",
    "N((|- az)",
    "((|- az) K (|- ax)",
    "((|- az) K )",
    "((|- az) A (|- ax)) K",
    "(|- Az)",
    "",
])
def test_reader_gives_the_parsers_formula_or_error(text):
    reader = pragmaql.formula._Reader()
    # the canonical texts of every side the text could be split into
    for known in ("(|- az)", "(|- ax)", "N((|- az))", "N((|- ax))",
                  "((|- az) K (|- ax))", "((|- ax) K (|- az))", "((|- az) AQ (|- ax))",
                  "(N((|- az)) AQ N((|- ax)))"):
        assert reader(known) == parse_assertive(known)
    try:
        expected = parse_assertive(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            reader(text)
        assert (str(info.value), info.value.position, info.value.expected) == \
            (str(exc), exc.position, exc.expected)
    else:
        assert reader(text) == expected
        assert reader(print_formula(expected)) is reader(text)


def n_chain(depth):
    """The canonical texts of N^k (|- az) for k = 0 .. depth, and the formula
    of the last, built without recursion."""
    texts, f = ["(|- az)"], Assert(Atom("az"))
    for _ in range(depth):
        texts.append(f"N({texts[-1]})")
        f = N(f)
    return texts, f


def test_import_reads_an_n_chain_deeper_than_the_parser_can(mo2):
    texts, deepest = n_chain(900)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_assertive(texts[-1])
    doc = mo2_document(mo2)
    az = next(e["index"] for e in doc["elements"] if e["formula"] == "(|- az)")
    for k, text in enumerate(texts[1:], 1):
        element = doc["elements"][doc["neg"][az] if k % 2 else az]
        if text not in element["members"]:
            element["members"].append(text)
    back = import_lattice(doc)
    assert back.elements[az].members[-1] == deepest
    assert back.elements[doc["neg"][az]].members[-1] == N(deepest.operand.operand)
    # a shorter chain, which the parser reads too, gives its formula
    texts, f = n_chain(200)
    assert pragmaql.formula._Reader()(texts[-1]) == parse_assertive(texts[-1]) == f


def qutrit_lines_document(qutrit):
    return json.loads(json.dumps(export_lattice(
        generate_quotient(qutrit, ["aa", "ab", "ap"], 1), "structured")))


def test_import_refuses_swapped_formulas(qutrit):
    # the law checks, verify_isomorphism included, all pass on this
    # document: only its formulas tie class 0 to the extension of |- aa
    doc = qutrit_lines_document(qutrit)
    first, fourth = doc["elements"][0], doc["elements"][3]
    assert (first["formula"], fourth["formula"]) == ("(|- aa)", "N((|- aa))")
    for key in ("formula", "members"):
        first[key], fourth[key] = fourth[key], first[key]
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == "schema"
    # N-members agree with a class swapped with its negation; a join does not
    assert str(info.value) == ("lattice element 2: member '((|- aa) AQ (|- ab))' lies in "
                               "class 7, the join of classes 3 and 1")


def test_import_refuses_a_formula_its_class_does_not_list(mo2):
    doc = mo2_document(mo2)
    doc["elements"][2]["formula"] = doc["elements"][3]["formula"]
    with pytest.raises(ModelError, match="^lattice element 2: formula .* is not one of its "
                                         "members$") as info:
        import_lattice(doc)
    assert info.value.code == "schema"


def test_import_refuses_an_atom_in_two_classes(qutrit):
    doc = qutrit_lines_document(qutrit)
    doc["elements"][5]["members"].append("( |- aa )")
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == "schema"
    assert str(info.value) == "lattice element 5: member '( |- aa )' is a member of class 0 too"


@pytest.mark.parametrize("member", ["(|- (aa & ab))", "((|- aa) A (|- ab))", "N((|- zz))"])
def test_import_refuses_members_outside_the_fragment_or_the_classes(qutrit, member):
    doc = qutrit_lines_document(qutrit)
    doc["elements"][1]["members"].append(member)
    with pytest.raises(ModelError, match="^lattice element 1: member ") as info:
        import_lattice(doc)
    assert info.value.code == "schema"


def test_import_refuses_seeded_edits_of_members_and_tables(qutrit, ququart):
    rng = np.random.default_rng(7)
    docs = [qutrit_lines_document(qutrit), json.loads(json.dumps(export_lattice(
        generate_quotient(ququart, ["bl", "bd", "bc"], 2), "structured")))]
    for doc in docs:
        n, lat = len(doc["elements"]), import_lattice(doc)
        for _ in range(15):
            # a member moved to another class
            moved = json.loads(json.dumps(doc))
            c = int(rng.integers(n))
            k = int(rng.integers(len(moved["elements"][c]["members"])))
            text = moved["elements"][c]["members"].pop(k)
            moved["elements"][(c + 1 + int(rng.integers(n - 1))) % n]["members"].append(text)
            # a meet or join entry changed under a member of that connective
            changed = json.loads(json.dumps(doc))
            c, member = next(
                (c, m) for c in rng.permutation(n).tolist()
                for m in rng.permutation(doc["elements"][c]["members"]).tolist()
                if m.startswith("(") and not m.startswith("(|- "))
            f = lat.elements[c].members[doc["elements"][c]["members"].index(member)]
            x, y = (next(e.index for e in lat.elements if g in e.members)
                    for g in (f.left, f.right))
            table = changed["meet" if isinstance(f, K) else "join"]
            assert table[x][y] == c
            table[x][y] = table[y][x] = (c + 1 + int(rng.integers(n - 1))) % n
            for bad in (moved, changed):
                with pytest.raises(ModelError, match="^lattice element [0-9]+: (member|formula) ") \
                        as info:
                    import_lattice(bad)
                assert info.value.code == "schema"


def test_import_skips_elements_with_no_formula(mo2):
    # their members are neither checked nor members for the others' check
    doc = mo2_document(mo2)
    for e in doc["elements"]:
        e["formula"] = None
    doc["elements"][2]["members"].append("(|- zz)")
    assert all(e.formula is None for e in import_lattice(doc).elements)
    doc["elements"][0]["formula"] = mo2_document(mo2)["elements"][0]["formula"]
    with pytest.raises(ModelError, match="^lattice element 0: member .* has an operand that "
                                         "no class lists as a member$"):
        import_lattice(doc)


def test_isomorphism_report_names_a_class_with_no_projector(mo2):
    doc = mo2_document(mo2)
    doc["elements"][3].update(projector=None, rank=None)
    lat = import_lattice(doc)
    assert verify_isomorphism(lat) == LawReport("order-isomorphism", False, ("no-projector", 3))
    assert all(r.holds for r in verify_ortholattice(lat))


def test_import_decodes_the_projectors_of_a_well_formed_document_in_one_call(
        planes, monkeypatch):
    # a matrix that decodes but is no projector is found by the batched
    # check; one of another dimension makes the stacked decode fail, and
    # each element is then decoded on its own, so that it is still named
    calls = []
    decode = pragmaql.lattice.decode_array
    monkeypatch.setattr(pragmaql.lattice, "decode_array",
                        lambda entries, ndim: calls.append(ndim) or decode(entries, ndim))
    doc = json.loads(json.dumps(export_lattice(planes, "structured")))
    assert export_lattice(import_lattice(doc), "structured") == doc
    assert calls == [3]
    for fault, decodes in ((bad_projector, [3]), (half_1x1, [3] + [2] * len(planes))):
        calls.clear()
        bad = json.loads(json.dumps(doc))
        fault(bad["elements"][7])
        with pytest.raises(ModelError, match="^lattice element 7: "):
            import_lattice(bad)
        assert calls == decodes


def bad_projector(element):
    element["projector"] = [[[x / 2, y / 2] for x, y in row] for row in element["projector"]]


def bad_member(element):
    element["members"].append("(|- az) K")


def bad_rank(element):
    element["rank"] += 1


def half_1x1(element):
    element["projector"] = [[[0.5, 0.0]]]


def huge(element):
    element["projector"] = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]


def deep_member(element):
    # nested past the parser's recursion limit: its ParseError would name
    # this element, had it been read
    element["members"].append("(" * 1000 + "|- az" + ")" * 1000)


@pytest.mark.parametrize("faults, named, code", [
    # elements 0-3 are the four rank-1 classes, 4 the bottom and 5 the top
    ([(3, bad_projector), (1, bad_member)], 1, "schema"),
    ([(1, bad_projector), (3, bad_member)], 1, "not-idempotent"),
    ([(3, bad_projector), (2, bad_projector)], 2, "not-idempotent"),
    ([(2, bad_rank), (3, bad_projector)], 2, "schema"),
    ([(5, bad_projector), (4, bad_rank)], 4, "schema"),
    # an element's projector is checked before its members and its rank
    ([(2, bad_member), (2, bad_projector), (3, bad_projector)], 2, "not-idempotent"),
    ([(3, bad_rank), (3, bad_projector)], 3, "not-idempotent"),
    # projectors of two dimensions: the first bad one is named, whichever
    # dimension's batch holds it
    ([(3, bad_projector), (1, half_1x1)], 1, "not-idempotent"),
    ([(2, huge), (1, bad_member)], 1, "schema"),
    ([(2, huge), (3, bad_projector)], 2, "not-idempotent"),
    # no element after the first bad one is parsed
    ([(1, bad_projector), (3, deep_member)], 1, "not-idempotent"),
    ([(1, bad_member), (3, deep_member)], 1, "schema"),
])
def test_import_names_the_first_bad_element_after_the_batched_projector_check(
        mo2, faults, named, code):
    doc = mo2_document(mo2)
    for at, fault in faults:
        fault(doc["elements"][at])
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == code
    assert str(info.value).startswith(f"lattice element {named}: ")


@pytest.mark.parametrize("eps, coarse", [(0.2, False), (0.25, True), (0.3, True)])
def test_rank_cutoff_of_one_or_more_is_coarse_tolerance(coordinate_planes_16d, eps, coarse):
    # at dim 16 the rank cutoff eps * 4 reaches 1 at eps 0.25; past it every
    # class would read as rank 0 and the meet and join checks could not fail
    lat = dataclasses.replace(coordinate_planes_16d, eps=eps)
    report = verify_isomorphism(lat)
    doc = json.loads(json.dumps(export_lattice(lat, "structured")))
    if not coarse:
        assert report.holds
        assert export_lattice(import_lattice(doc), "structured") == doc
        return
    assert report == LawReport("order-isomorphism", False, ("coarse-tolerance",))
    with pytest.raises(ModelError) as info:
        import_lattice(doc)
    assert info.value.code == "coarse-tolerance"

