import json
from pathlib import Path

import numpy as np
import pytest

from pragmaql import (
    AQ,
    Atom,
    Finding,
    JustificationValue,
    K,
    Model,
    N,
    NonQuantumFormulaError,
    Overlay,
    Projector,
    ProjectorError,
    StateVector,
    TruthValue3,
    UnknownNameError,
    born_probability,
    bundled_model,
    bundled_model_document,
    load_model,
    check_cc,
    classify_property,
    contains_state,
    desugar,
    join,
    justify,
    leq,
    load_overlay,
    make_projector,
    make_state,
    meet,
    ortho,
    parse_assertive,
    pragmatic_extension,
    precedes,
    print_formula,
    projectors_close,
    random_state,
    sigma,
    state_projector,
    validate_model,
    validate_overlay,
)

from pragmaql import evaluation, hilbert

from helpers import random_quantum

FIXTURES = Path(__file__).parent / "fixtures"

J, U = JustificationValue.J, JustificationValue.U
TRUE, FALSE, UNDEF = TruthValue3.TRUE, TruthValue3.FALSE, TruthValue3.UNDEFINED


def overlay_fixture(name):
    return load_overlay(json.loads((FIXTURES / name).read_text()))


# ---------------------------------------------------------------------------
# born probability and classification


def test_born_eigenstate(qubit):
    assert born_probability(qubit, "z+", "Ez") == pytest.approx(1.0)


def test_born_crossing_state(qubit):
    # oracle: |<z+|x+>|^2 from the raw amplitudes
    z = qubit.state("z+").amplitudes
    x = qubit.state("x+").amplitudes
    expected = abs(np.vdot(z, x)) ** 2
    assert expected == pytest.approx(0.5)
    assert born_probability(qubit, "x+", "Ez") == pytest.approx(expected)


def test_born_orthogonal_state(qubit):
    assert born_probability(qubit, "z-", "Ez") == pytest.approx(0.0, abs=1e-15)


def test_classify_three_cases(qubit):
    assert classify_property(qubit, "z+", "Ez") is TRUE
    assert classify_property(qubit, "z-", "Ez") is FALSE
    assert classify_property(qubit, "x+", "Ez") is UNDEF


def test_classify_probability_and_subspace_tests_agree(qubit, qutrit):
    rng = np.random.default_rng(61)
    for model in (qubit, qutrit):
        probes = list(model.states.values())
        probes += [random_state(model.dim, rng) for _ in range(50)]
        for psi in probes:
            ray = state_projector(psi)
            for prop in model.properties:
                value = classify_property(model, psi, prop)
                p = born_probability(model, psi, prop)
                proj = model.projector(prop)
                assert (value is TRUE) == (abs(p - 1) <= model.eps)
                assert (value is TRUE) == leq(ray, proj, model.eps)
                assert (value is FALSE) == (p <= model.eps)


def test_unknown_names(qubit):
    with pytest.raises(UnknownNameError):
        born_probability(qubit, "y+", "Ez")
    with pytest.raises(UnknownNameError):
        born_probability(qubit, "z+", "Ey")


def test_dimension_mismatch_of_state_and_projector_arguments(qubit):
    # a StateVector or Projector argument is checked against the model dim
    psi3 = make_state([1, 0, 0])
    p3 = make_projector([[1, 0, 0]])
    for call in (lambda: born_probability(qubit, psi3, "Ez"),
                 lambda: justify(qubit, psi3, "|- az"),
                 lambda: sigma(qubit, psi3, "az"),
                 lambda: classify_property(qubit, "z+", p3)):
        with pytest.raises(ProjectorError) as exc:
            call()
        assert exc.value.code == "dimension-mismatch"
        assert str(exc.value) == "dimension mismatch: 3 vs 2"


def test_complex_phases_through_the_whole_stack():
    h = 0.7071067811865476
    model = load_model({
        "dim": 2,
        "states": {"y+": [[h, 0], [0, h]], "z+": [[1, 0], [0, 0]]},
        "properties": {"Ey": {"span": [[[h, 0], [0, h]]]},
                       "Ez": {"span": [[[1, 0], [0, 0]]]}},
        "atoms": {"ay": "Ey", "az": "Ez"},
    })
    assert classify_property(model, "y+", "Ey") is TRUE
    assert born_probability(model, "y+", "Ez") == pytest.approx(0.5)
    assert justify(model, "y+", "|- ay") is J
    assert justify(model, "y+", "N(|- az)") is U
    assert sigma(model, "z+", "ay | az") is UNDEF


# ---------------------------------------------------------------------------
# sigma


def test_sigma_atomic_reduces_to_classify(qubit):
    for state in qubit.states:
        for atom, prop in qubit.atom_map.items():
            assert sigma(qubit, state, Atom(atom)) is \
                classify_property(qubit, state, prop)


def test_sigma_undefined_if_any_atom_undefined(qubit):
    assert sigma(qubit, "z+", "az | ax") is UNDEF


def test_sigma_classical_when_all_atoms_defined(qubit):
    assert sigma(qubit, "z+", "az & ~az") is FALSE
    assert sigma(qubit, "z+", "az | ~az") is TRUE
    assert sigma(qubit, "z-", "az -> az") is TRUE  # false antecedent


def test_sigma_molecular_radicals_evaluable(qutrit):
    # e2 is orthogonal to all three properties, so everything is defined
    assert sigma(qutrit, "e2", "aa | ab | ap") is FALSE
    assert sigma(qutrit, "e2", "~aa & ~ap") is TRUE
    assert sigma(qutrit, "e0", "aa <-> ap") is TRUE


def test_sigma_unknown_atom(qubit):
    with pytest.raises(UnknownNameError):
        sigma(qubit, "z+", "az & nosuch")
    # unknown atoms are reported even when another atom is undefined
    with pytest.raises(UnknownNameError):
        sigma(qubit, "x+", "az & nosuch")


# ---------------------------------------------------------------------------
# pragmatic extension


def test_extension_of_elementary_assertion(qubit):
    assert projectors_close(pragmatic_extension(qubit, "|- az"),
                            qubit.projector("Ez"))


def test_extension_of_negation(qubit):
    assert projectors_close(pragmatic_extension(qubit, "N(|- az)"),
                            ortho(qubit.projector("Ez")))


def test_extension_of_aq_with_complement_is_identity(qubit):
    p = pragmatic_extension(qubit, "(|- az) AQ (N (|- az))")
    assert p.rank == 2
    assert np.allclose(p.matrix, np.eye(2), atol=1e-9)


def test_extension_agrees_with_desugared_form(qubit):
    f = parse_assertive("((|- az) AQ (|- ax)) K N((|- az) AQ N(|- ax))")
    a = pragmatic_extension(qubit, f)
    b = pragmatic_extension(qubit, desugar(f))
    assert projectors_close(a, b, 1e-9)


def warm(model):
    """``model``, its atoms given the bases of their ranges and complements,
    so that only the connectives run SVDs."""
    for p in model.properties.values():
        p.basis()
        p._complement_basis()
    return model


def warm_qutrit():
    """A fresh, warm qutrit-lines model."""
    return warm(bundled_model("qutrit-lines"))


def counting_svds(monkeypatch):
    """The list that each later ``np.linalg.svd`` call appends its input's shape to."""
    calls, svd = [], np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


@pytest.mark.parametrize("text, svds", [
    # two joins, then the meet's null-space SVD and its re-orthonormalization:
    # the meet reads its operands' bases off the joins
    ("((|- aa) AQ (|- ab)) K ((|- ab) AQ (|- ap))", 4),
    # the meet's null-space SVD; the plane N(|- aa) takes aa's complement
    # basis, and meets the line ab only at zero
    ("(N |- aa) K |- ab", 1),
    # equal keys: the join once, and x K x is x
    ("((|- aa) AQ (|- ab)) K ((|- aa) AQ (|- ab))", 1),
    # complementary keys: the join once, and x K N x is zero
    ("N((|- aa) AQ (|- ab)) K ((|- aa) AQ (|- ab))", 1),
    ("((|- aa) AQ (|- ab)) K N((|- aa) AQ (|- ab))", 1),
    # the join once, and the complement's join with ap, which is the whole
    # space; an operand of rank dim: K is the other operand, the first join
    ("(N((|- aa) AQ (|- ab)) AQ |- ap) K ((|- aa) AQ (|- ab))", 2),
    # N N g evaluates as g: the meet's null-space SVD only
    ("N(N(|- aa)) K |- ab", 1),
    # the join, then the meet's two
    ("N N ((|- aa) AQ (|- ab)) K |- ap", 3),
    # the zero meet of two lines has the identity as its complement basis, so
    # N over it runs no SVD and has rank dim: the first meet's null-space SVD,
    # and an operand of rank dim makes the second K the other operand, ap
    ("N((|- aa) K (|- ab)) K |- ap", 1),
    # an operand of rank dim makes AQ the whole space: the first meet's SVD only
    ("N((|- aa) K (|- ab)) AQ |- ap", 1),
    # equal keys: x K x is x, and x AQ x is x, after the join's one SVD
    ("(|- aa) K (|- aa)", 0),
    ("((|- aa) AQ (|- ab)) AQ ((|- aa) AQ (|- ab))", 1),
    # complementary keys: x K N x is zero, x AQ N x the whole space
    ("(|- aa) K N(|- aa)", 0),
    ("(|- aa) AQ N(|- aa)", 0),
])
def test_extension_svds_with_warm_atom_bases(monkeypatch, text, svds):
    model = warm_qutrit()
    calls = counting_svds(monkeypatch)
    extension = pragmatic_extension(model, text)
    assert len(calls) == svds
    extension.basis()
    assert len(calls) == svds


def test_extension_does_not_depend_on_earlier_calls():
    # N over an atom takes its basis from an SVD of I - P, whether or not an
    # earlier call computed the atom's own basis
    text = "N(|- aa) K |- ap"
    fresh = pragmatic_extension(bundled_model("qutrit-lines"), text).matrix
    model = bundled_model("qutrit-lines")
    pragmatic_extension(model, "|- aa K |- ap")
    assert np.array_equal(pragmatic_extension(model, text).matrix, fresh)


@pytest.mark.parametrize("text", [
    "(|- aa) AQ (|- ab)", "N((|- aa) AQ (|- ab)) K |- ap",
    "((|- aa) AQ (|- ab)) K ((|- ab) AQ (|- ap))",
    "N(((|- aa) K (|- ap)) AQ N |- ab) K ((|- ab) AQ (|- ap))",
])
def test_precedes_of_a_formula_and_itself_evaluates_it_once(monkeypatch, text):
    first, second = warm_qutrit(), warm_qutrit()
    calls = counting_svds(monkeypatch)
    pragmatic_extension(first, text)
    once = len(calls)
    assert once > 0
    assert precedes(second, text, text)
    assert len(calls) == 2 * once


def bounds_qutrit():
    """A dim-3 model with a line, a plane, an empty-span property (ae, rank
    0) and a full-span property (af, rank dim)."""
    r = 2 ** -0.5
    return load_model({
        "dim": 3, "states": {},
        "properties": {
            "L": {"span": [[[r, 0], [r, 0], [0, 0]]]},
            "P": {"span": [[[0, 0], [r, 0], [0, r]], [[1, 0], [0, 0], [0, 0]]]},
            "E0": {"span": []},
            "E1": {"span": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                            [[0, 0], [0, 0], [1, 0]]]},
        },
        "atoms": {"al": "L", "ap": "P", "ae": "E0", "af": "E1"},
    })


def composed(model, f):
    """The extension of ``f`` from ``ortho``, ``meet`` and ``join``, node by node."""
    if isinstance(f, N):
        return ortho(composed(model, f.operand))
    if isinstance(f, K):
        return meet(composed(model, f.left), composed(model, f.right), model.eps)
    if isinstance(f, AQ):
        return join(composed(model, f.left), composed(model, f.right), model.eps)
    return model.atom_projector(f.radical.name)


def law_formulas(atoms):
    """For each operand g of a few shapes over the first two atoms, and for
    each atom h: g ∘ g, g ∘ N g, N g ∘ g, g ∘ h, h ∘ g and N g ∘ N h, ∘ each
    of K and AQ.  With a rank-0 or rank-dim atom or operand, each rule of
    ``evaluation._by_laws`` is met."""
    a, b = (parse_assertive(f"|- {name}") for name in atoms[:2])
    operands = [a, N(a), AQ(a, b), K(a, b), N(K(a, b)), AQ(N(a), b)]
    hs = [parse_assertive(f"|- {name}") for name in atoms]
    for g in operands:
        for op in (K, AQ):
            yield from (op(g, g), op(g, N(g)), op(N(g), g))
            for h in hs:
                yield from (op(g, h), op(h, g), op(N(g), N(h)))


@pytest.mark.parametrize("name", ["qubit-zx", "qutrit-lines", "ququart-planes", "bounds"])
def test_laws_agree_with_the_composed_extension(name):
    model = bounds_qutrit() if name == "bounds" else bundled_model(name)
    atoms = list(model.atom_map)
    for f in law_formulas(atoms):
        got, expected = pragmatic_extension(model, f), composed(model, f)
        assert got.rank == expected.rank, print_formula(f)
        assert np.max(np.abs(got.matrix - expected.matrix)) <= 1e-12, print_formula(f)


@pytest.mark.parametrize("text, rank", [
    ("(|- ae) AQ (|- al)", 1), ("(|- al) AQ (|- ae)", 1),   # rank 0: the other operand
    ("(|- ae) K (|- ap)", 0),   # rank 0: _meet's zero branch
    ("(|- af) K (|- ap)", 2), ("(|- ap) K (|- af)", 2),     # rank dim: the other operand
    ("(|- af) AQ (|- al)", 3), ("(|- al) AQ (|- af)", 3),   # rank dim: the whole space
    ("(|- al) K N(|- al)", 0), ("N(|- ap) AQ (|- ap)", 3),  # complementary keys
    ("N((|- al) K N(|- al)) K (|- ap)", 2),   # N over the bound zero has rank dim
    ("((|- ap) AQ (|- ap)) K ((|- ap) AQ (|- ap))", 2),    # equal keys
])
def test_laws_decide_bounds_model_nodes_without_an_svd(monkeypatch, text, rank):
    model = warm(bounds_qutrit())
    calls = counting_svds(monkeypatch)
    extension = pragmatic_extension(model, text)
    assert (extension.rank, calls) == (rank, [])
    extension.basis()
    assert calls == []


@pytest.mark.parametrize("g", ["|- aa", "N |- ap", "(|- aa) AQ (|- ab)",
                               "N((|- aa) K (|- ab))"])
def test_precedes_holds_both_ways_between_g_and_g_with_itself(g):
    model = bundled_model("qutrit-lines")
    for op in ("K", "AQ"):
        twice = f"({g}) {op} ({g})"
        assert precedes(model, g, twice)
        assert precedes(model, twice, g)


def test_precedes_of_an_atom_and_its_meet_with_itself_runs_no_svd(monkeypatch):
    # x K x is x, key included, so the second extension is the atom's own
    model = warm_qutrit()
    calls = counting_svds(monkeypatch)
    assert precedes(model, "|- aa", "(|- aa) K (|- aa)")
    assert calls == []


def test_a_computed_top_keeps_its_computed_matrix(qubit):
    # the laws decide a node only before it is computed: a join that comes out
    # as the whole space keeps its own bases, whose matrix is not exactly I
    expected = join(qubit.atom_projector("az"), qubit.atom_projector("ax"), qubit.eps)
    assert not np.array_equal(expected.matrix, np.eye(2))
    got = pragmatic_extension(qubit, "|- az AQ |- ax")
    assert np.array_equal(got.matrix, expected.matrix)


def test_extension_rejects_non_quantum(qubit):
    for text in ("(|- az) A (|- ax)", "(|- az) C (|- ax)",
                 "(|- az) E (|- ax)", "|- (az & ax)"):
        with pytest.raises(NonQuantumFormulaError) as exc:
            pragmatic_extension(qubit, text)
        assert exc.value.violations


def test_extension_unknown_atom(qubit):
    with pytest.raises(UnknownNameError):
        pragmatic_extension(qubit, "|- nosuch")


def test_extension_homomorphism_random(qubit, qutrit, ququart):
    rng = np.random.default_rng(67)
    for model in (qubit, qutrit, ququart):
        atoms = list(model.atom_map)
        for _ in range(40):
            f = random_quantum(rng, 5, atoms, require_composite=True)
            got = pragmatic_extension(model, f)
            if isinstance(f, N):
                expected = ortho(pragmatic_extension(model, f.operand))
            elif isinstance(f, K):
                expected = meet(pragmatic_extension(model, f.left),
                                pragmatic_extension(model, f.right))
            else:
                expected = join(pragmatic_extension(model, f.left),
                                pragmatic_extension(model, f.right))
            assert projectors_close(got, expected, 1e-8)


# ---------------------------------------------------------------------------
# justification


def test_justify_examples(qubit):
    assert justify(qubit, "z+", "|- az") is J
    assert justify(qubit, "x+", "|- az") is U
    assert justify(qubit, "x+", "N(|- az)") is U  # the three-way middle case
    assert justify(qubit, "z-", "N(|- az)") is J


def test_justify_accepts_state_vectors(qubit):
    assert justify(qubit, qubit.state("z+"), "|- az") is J


def test_justify_rejects_non_quantum(qubit):
    with pytest.raises(NonQuantumFormulaError):
        justify(qubit, "z+", "(|- az) C (|- ax)")
    with pytest.raises(UnknownNameError):
        justify(qubit, "y+", "|- az")


def test_negation_sound_but_not_complete(qubit, qutrit):
    rng = np.random.default_rng(71)
    for model in (qubit, qutrit):
        atoms = list(model.atom_map)
        for _ in range(60):
            f = random_quantum(rng, 4, atoms)
            psi = random_state(model.dim, rng)
            if justify(model, psi, N(f)) is J:
                assert justify(model, psi, f) is U
    # the converse direction fails: witness from the middle case
    assert justify(qubit, "x+", "|- az") is U
    assert justify(qubit, "x+", "N(|- az)") is U


# ---------------------------------------------------------------------------
# precedes


def test_precedes_meet_below_argument(qubit):
    assert precedes(qubit, "(|- az) K (|- ax)", "|- az")


def test_precedes_distinct_lines(qubit):
    assert not precedes(qubit, "|- az", "|- ax")


def test_precedes_reflexive(qubit):
    rng = np.random.default_rng(73)
    for _ in range(10):
        f = random_quantum(rng, 3, list(qubit.atom_map))
        assert precedes(qubit, f, f)


def test_precedes_matches_statewise_justification(qubit):
    rng = np.random.default_rng(79)
    atoms = list(qubit.atom_map)
    pairs = [(random_quantum(rng, 3, atoms), random_quantum(rng, 3, atoms))
             for _ in range(10)]
    states = [random_state(qubit.dim, rng) for _ in range(1000)]
    ordered = [(f, g) for f, g in pairs if precedes(qubit, f, g)]
    assert ordered  # the sample must actually exercise the implication
    for f, g in ordered:
        for psi in states:
            if justify(qubit, psi, f) is J:
                assert justify(qubit, psi, g) is J


@pytest.mark.parametrize("first, second, error", [
    # the first operand is evaluated before the second is parsed or checked
    ("|- nosuch", "(|- aa) A (|- ab)", UnknownNameError),
    ("|- nosuch", "|- aa K", UnknownNameError),
    ("(|- aa) A (|- ab)", "|- nosuch", NonQuantumFormulaError),
    ("N |- aa", "|- nosuch", UnknownNameError),
])
def test_precedes_raises_the_first_operands_error_first(qutrit, first, second, error):
    with pytest.raises(error):
        precedes(qutrit, first, second)


@pytest.mark.parametrize("text, rank", [
    ("N |- aa", 2),
    ("N((|- aa) K (|- ab))", 3),
    ("((|- aa) AQ (|- ab)) K ((|- ab) AQ (|- ap))", 2),
    ("(N |- aa) K |- ap", 1),
    ("(|- aa) AQ (|- ab)", 2),
    ("(|- aa) K (|- ab)", 0),    # two lines meet at zero
])
def test_extension_rank_and_dim_are_ints(qutrit, text, rank):
    # JSON output and callers rely on plain ints, not numpy integers
    p = pragmatic_extension(qutrit, text)
    assert type(p.rank) is int and type(p.dim) is int
    assert p.rank == rank


# ---------------------------------------------------------------------------
# correctness check


def test_check_cc_passes_on_bundled_models(all_models):
    for model in all_models.values():
        report = check_cc(model, samples=200, seed=1)
        assert report.ok, report.findings


def test_check_cc_refuses_invalid_model(qubit):
    bad = Projector(2, np.diag([1.0 + 1e-3, 0.0]).astype(complex), 1)
    corrupted = Model(dim=2, states=dict(qubit.states),
                      properties={**qubit.properties, "Ez": bad},
                      atom_map=dict(qubit.atom_map), eps=qubit.eps)
    report = check_cc(corrupted, samples=10, seed=0)
    assert not report.ok
    codes = {f.code for f in report.errors()}
    assert "model-invalid" in codes
    assert "not-idempotent" in codes
    assert "cc-counterexample" not in codes


def test_check_cc_rejects_negative_samples(qubit):
    with pytest.raises(ValueError, match="samples"):
        check_cc(qubit, samples=-5)
    assert check_cc(qubit, samples=0).ok   # the declared states alone


def test_check_cc_rejects_negative_seed(qubit):
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        check_cc(qubit, samples=10, seed=-1)


def tilted_model():
    """dim 3, one atom on the line e0, eps = 0.6: a state tilted 0.58 towards
    each of e1 and e2 is within eps of the line but not on it."""
    a = 0.58
    return Model(dim=3,
                 states={"tilted": make_state([np.sqrt(1 - 2 * a * a), a, a])},
                 properties={"P": make_projector(np.diag([1, 0, 0]).astype(complex))},
                 atom_map={"a0": "P"}, eps=0.6)


def test_check_cc_reports_counterexamples_in_probe_order():
    model = tilted_model()
    assert validate_model(model).ok
    report = check_cc(model, samples=200, seed=3)
    assert report.findings == tuple(
        Finding("error", "cc-counterexample",
                f"atom 'a0' is justified but not true in state {label}")
        for label in ("tilted", "sample-183"))
    assert [f.code for f in check_cc(model, samples=0).findings] == ["cc-counterexample"]
    # several atoms: atom first, then probe (recorded before probes were batched)
    doc = bundled_model_document("qutrit-lines")
    doc["eps"] = 0.6
    report = check_cc(load_model(doc), samples=200, seed=0)
    assert [f.message.split(" is justified but not true in state ") for f in report.findings] == [
        [f"atom {atom!r}", label] for atom in ("aa", "ab", "ap")
        for label in ("sample-86", "sample-125")]


def test_check_cc_batches_its_probes(ququart, monkeypatch):
    # one stacked pass: one draw, one containment for every (atom, probe)
    # pair, and no sigma, justify, random_state, contains_state,
    # classify_property or born_probability per probe
    cases = [(ququart, 100, 0), (tilted_model(), 200, 3)]
    justified = []
    for model, samples, seed in cases:
        rng = np.random.default_rng(seed)
        probes = list(model.states.values())
        probes += [random_state(model.dim, rng) for _ in range(samples)]
        justified.append(sum(contains_state(model.atom_projector(atom), psi, model.eps)
                             for atom in model.atom_map for psi in probes))
    assert justified[1] > 2   # more justified probes than counterexamples
    for name in ("sigma", "justify", "random_state", "contains_state",
                 "classify_property", "born_probability"):
        for module in (evaluation, hilbert):
            monkeypatch.setattr(module, name, None, raising=False)
    calls, found = {}, []
    for name in ("_random_states", "_contains_states"):
        original = getattr(evaluation, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "_contains_states":
                found.append((result.shape, int(result.sum())))
            return result
        monkeypatch.setattr(evaluation, name, counted)
    for (model, samples, seed), expected in zip(cases, justified):
        calls.update(dict.fromkeys(("_random_states", "_contains_states"), 0))
        found.clear()
        check_cc(model, samples=samples, seed=seed)
        assert calls == {"_random_states": 1, "_contains_states": 1}
        pairs = (len(model.atom_map), len(model.states) + samples)
        assert found == [(pairs, expected)]


def looped_check_cc(model, samples, seed):
    """The reference findings for ``check_cc``, one probe at a time:
    ``contains_state``, then ``sigma`` of the atom, for each atom and probe."""
    rng = np.random.default_rng(seed)
    probes = list(model.states.items())
    probes += [(f"sample-{i}", random_state(model.dim, rng)) for i in range(samples)]
    return tuple(
        Finding("error", "cc-counterexample",
                f"atom {atom!r} is justified but not true in state {label}")
        for atom in model.atom_map for label, psi in probes
        if contains_state(model.atom_projector(atom), psi, model.eps)
        and sigma(model, StateVector(model.dim, psi.amplitudes), Atom(atom)) is not TRUE)


def stretched(model):
    """The model with a copy of each declared state stretched to norm
    1 + eps / 2, which ``validate_model`` accepts: in an atom's range its
    probability is above 1 + eps until it is clamped."""
    scale = 1 + model.eps / 2
    states = {**model.states, **{f"{name}-long": StateVector(model.dim, scale * s.amplitudes)
                                 for name, s in model.states.items()}}
    return Model(dim=model.dim, states=states, properties=dict(model.properties),
                 atom_map=dict(model.atom_map), eps=model.eps)


def block_sum_model(seed, eps=0.3):
    """dim 8: four 2-dimensional blocks behind a Haar-random unitary, each
    of three atoms zero, the block or a seeded line in each block; declared
    states are a range vector of each nonzero atom and two Haar states."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    properties, states = {}, {}
    for j in range(3):
        span = []
        for b in range(4):
            kind, t = int(rng.integers(3)), rng.uniform(0, np.pi)
            span += [[u[:, 2 * b], u[:, 2 * b + 1]], [],
                     [np.cos(t) * u[:, 2 * b] + np.sin(t) * u[:, 2 * b + 1]]][kind]
        properties[f"P{j}"] = make_projector(span, dim=8, eps=eps)
        if span:
            states[f"in{j}"] = make_state(span[0])
    for name in ("h0", "h1"):
        states[name] = random_state(8, rng)
    return Model(dim=8, states=states, properties=properties,
                 atom_map={f"a{j}": f"P{j}" for j in range(3)}, eps=eps)


def edge_model():
    """dim 5, eps 0.5: every probe sits on a bound.  ``edge`` and ``half``
    are within exactly eps of both atoms' ranges, ``half`` has probability
    exactly 1 - eps in ``b``'s, and ``long`` (norm 1.25) has probability
    1.5625 in both ranges before it is clamped."""
    return Model(
        dim=5,
        states={"edge": StateVector(5, [0, 0.5, 0.5, 0.5, 0.5]),
                "half": StateVector(5, [0.5, 0.5, 0.5, 0.5, 0]),
                "long": StateVector(5, [1.25, 0, 0, 0, 0])},
        properties={"P": make_projector(np.diag([1, 0, 0, 0, 0]).astype(complex)),
                    "Q": make_projector(np.diag([1, 1, 0, 0, 0]).astype(complex))},
        atom_map={"a": "P", "b": "Q"}, eps=0.5)


def test_check_cc_matches_the_per_probe_loop():
    no_atoms = Model(dim=2, states={"up": make_state([1, 0])}, properties={}, atom_map={})
    models = [tilted_model(), block_sum_model(7), edge_model(), no_atoms]
    for name in ("qubit-zx", "qutrit-lines", "ququart-planes"):
        for eps in (1e-9, 0.3, 0.6):
            doc = bundled_model_document(name)
            doc["eps"] = eps
            models.append(load_model(doc))
            if eps > 1e-9:
                models.append(stretched(models[-1]))
    found = 0
    for model in models:
        assert validate_model(model).ok
        for samples, seed in ((0, 0), (100, 0), (100, 1), (200, 3)):
            report = check_cc(model, samples=samples, seed=seed)
            assert report.findings == looped_check_cc(model, samples, seed)
            found += len(report.findings)
    assert found > 100
    # the loop shares the containment and TRUE tests; their bounds are pinned here
    assert [f.message for f in check_cc(edge_model(), samples=0).findings] == [
        f"atom {atom!r} is justified but not true in state {label}"
        for atom, label in (("a", "edge"), ("a", "half"), ("b", "edge"))]


def test_check_cc_deterministic(qubit):
    a = check_cc(qubit, samples=50, seed=5)
    b = check_cc(qubit, samples=50, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# overlays


def test_overlay_broader_than_quantum_is_ok(qubit):
    report = validate_overlay(qubit, overlay_fixture("overlay-consistent.json"))
    assert report.ok, report.findings


def test_overlay_contradiction_is_error(qubit):
    report = validate_overlay(qubit, overlay_fixture("overlay-contradicting.json"))
    assert not report.ok
    assert report.errors()[0].code == "contradicts-quantum-assignment"


def test_empty_overlay_ok(qubit):
    assert validate_overlay(qubit, Overlay({})).ok


def test_overlay_unknown_names(qubit):
    report = validate_overlay(
        qubit, Overlay({("y+", "az"): True, ("z+", "nosuch"): False}))
    codes = {f.code for f in report.errors()}
    assert codes == {"unknown-state", "unknown-atom"}


def test_load_overlay_schema():
    with pytest.raises(Exception):
        load_overlay({"assignments": [{"state": "z+"}]})
    with pytest.raises(Exception):
        load_overlay({})
    conflicting = {"assignments": [
        {"state": "z+", "atom": "az", "value": True},
        {"state": "z+", "atom": "az", "value": False},
    ]}
    with pytest.raises(Exception):
        load_overlay(conflicting)
    ov = load_overlay({"assignments": [
        {"state": "x+", "atom": "az", "value": True}]})
    assert ov.assignments == {("x+", "az"): True}
