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
    LatticeElement,
    LawReport,
    ModelError,
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


@pytest.mark.parametrize("name, atoms, depth", [
    ("qubit-zx", ("az", "ax"), 3),
    ("qutrit-lines", ("aa", "ab", "ap"), 1),
    ("ququart-planes", ("bl", "bd", "bc"), 1),
])
def test_generation_takes_one_rank_row_per_pair_and_kernel_rows_for_the_rest(
        all_models, monkeypatch, name, atoms, depth):
    # each unordered pair i < j is one row of the values-only rank SVD; the
    # kernel then takes exactly the entries that the rank count names no class for
    calls = {"rank": 0, "meet": 0, "join": 0}
    span_dims, pair_spans = pragmaql.lattice._span_dims, pragmaql.lattice._pair_spans

    def counted_ranks(a, b, eps):
        calls["rank"] += len(a)
        return span_dims(a, b, eps)

    def counted_kernel(a, b, eps, meet):
        calls["meet" if meet else "join"] += len(a)
        return pair_spans(a, b, eps, meet)

    monkeypatch.setattr(pragmaql.lattice, "_span_dims", counted_ranks)
    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", counted_kernel)
    lat = generate_quotient(all_models[name], atoms, depth)
    assert_no_class_near_a_threshold(lat)
    meet_named, join_named = named_entries(lat)
    pairs = len(lat) * (len(lat) - 1) // 2
    assert calls == {"rank": pairs, "meet": int((~meet_named).sum()),
                     "join": int((~join_named).sum())}


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
    # each chunk of pairs takes one values-only SVD for its rank counts,
    # each call of the batched kernel one stacked SVD, and nothing else
    # makes one
    model = bundled_model(name)
    calls = {"values": 0, "full": 0, "rank": 0, "kernel": 0}
    svd, span_dims = np.linalg.svd, pragmaql.lattice._span_dims
    pair_spans = pragmaql.lattice._pair_spans

    def counted_svd(a, *args, **kwargs):
        calls["full" if kwargs.get("compute_uv", True) else "values"] += 1
        return svd(a, *args, **kwargs)

    def counted(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(pragmaql.lattice, "_span_dims", counted("rank", span_dims))
    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", counted("kernel", pair_spans))
    generate_quotient(model, list(atoms), 1)
    assert calls["rank"] > 0 and calls["kernel"] > 0
    assert (calls["values"], calls["full"]) == (calls["rank"], calls["kernel"])


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
    # over the classes made since their chunk began
    def outputs():
        for name, model in all_models.items():
            for depth in (1, 2, 3):
                lat = generate_quotient(model, sorted(model.atom_map), depth)
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

    def undecided(a, b, eps):
        # a span count that matches no rank rule sends the pair to the kernel
        span = span_dims(a, b, eps)
        ranks = [np.rint(np.trace(m, axis1=1, axis2=2).real).astype(int) for m in (a, b)]
        return np.where(ranks[0] + ranks[1] - span == 1, -1, span)

    def lossy(a, b, eps, meet):
        mats, ranks = pair_spans(a, b, eps, meet)
        if meet:
            line = ranks == 1
            mats[line], ranks[line] = 0, 0   # the zero projector
        return mats, ranks

    monkeypatch.setattr(pragmaql.lattice, "_span_dims", undecided)
    monkeypatch.setattr(pragmaql.lattice, "_pair_spans", lossy)
    lat = generate_quotient(ququart, ["bl", "bd", "bc"], 1)
    # verification counts spans with ``_span_dims`` too, unpatched
    monkeypatch.undo()
    # the order is read off the meet table, so it is wrong too: the line bc
    # lies in the plane bl, but their meet no longer is bc
    assert verify_isomorphism(lat) == LawReport("order-isomorphism", False, ("order", 2, 0))
    projs = [lat.projector(i) for i in range(len(lat))]
    inclusion = np.array([[leq(p, q, lat.eps) for q in projs] for p in projs])
    report = verify_isomorphism(dataclasses.replace(lat, order=inclusion))
    assert report == LawReport("order-isomorphism", False, ("meet", 0, 2))


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
    Boolean lattice, large enough at dim 16 to split verification's 120
    pairs into chunks."""
    unit = lambda k: [[float(m == k), 0.0] for m in range(16)]
    return generate_quotient(pragmaql.load_model({
        "dim": 16, "states": {},
        "properties": {"P": {"span": [unit(k) for k in range(8)]},
                       "Q": {"span": [unit(k) for k in range(4, 12)]}},
        "atoms": {"p": "P", "q": "Q"},
    }), ["p", "q"], 1)


@pytest.mark.parametrize("name", ["mo2", "planes", "coordinate_planes_16d"])
def test_isomorphism_takes_one_row_of_singular_values_per_unordered_pair(
        request, monkeypatch, name):
    lat = request.getfixturevalue(name)
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert verify_isomorphism(lat).holds
    n, d = len(lat), lat.projector(0).dim
    # no SVD computes vectors: one of the n class matrices counts the
    # ranks, and each unordered pair i < j then takes one row of a stacked
    # [P_i; P_j] SVD, chunked as in generation, which checks both of its
    # table entries
    pairs, chunk = n * (n - 1) // 2, pragmaql.lattice._BATCH_ENTRIES // (2 * d * d)
    assert calls == [((n, d, d), False)] + [
        ((min(chunk, pairs - at), 2 * d, d), False) for at in range(0, pairs, chunk)]


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
    with pytest.raises(ValueError):
        verify_isomorphism(o6_fixture())


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
