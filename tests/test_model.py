import numpy as np
import pytest

from pragmaql import (
    Model,
    ModelError,
    Projector,
    StateVector,
    UnknownNameError,
    bundled_model_document,
    bundled_model_names,
    check_cc,
    load_model,
    validate_model,
)


def minimal_document():
    return {
        "dim": 2,
        "states": {"up": [[1, 0], [0, 0]]},
        "properties": {"Eup": {"span": [[[1, 0], [0, 0]]]}},
        "atoms": {"a": "Eup"},
    }


# ---------------------------------------------------------------------------
# loading


def test_qubit_zx_document_contents(qubit):
    assert qubit.dim == 2
    assert set(qubit.states) == {"z+", "z-", "x+", "x-"}
    assert set(qubit.properties) == {"Ez", "Ex"}
    assert qubit.atom_map == {"az": "Ez", "ax": "Ex"}
    assert np.allclose(qubit.projector("Ez").matrix, np.diag([1, 0]))
    assert np.allclose(qubit.projector("Ex").matrix, np.full((2, 2), 0.5),
                       atol=1e-12)
    assert np.allclose(qubit.state("x-").amplitudes,
                       np.array([1, -1]) / np.sqrt(2))


def test_loading_is_deterministic():
    doc = bundled_model_document("qubit-zx")
    first, second = load_model(doc), load_model(doc)
    for name in first.states:
        assert np.array_equal(first.states[name].amplitudes,
                              second.states[name].amplitudes)
    for name in first.properties:
        assert np.array_equal(first.properties[name].matrix,
                              second.properties[name].matrix)


def test_two_atoms_on_one_property_rejected():
    doc = minimal_document()
    doc["atoms"] = {"a": "Eup", "b": "Eup"}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "non-bijective-atom-map"


def test_unmapped_property_rejected():
    doc = minimal_document()
    doc["properties"]["Eother"] = {"span": [[[0, 0], [1, 0]]]}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "non-bijective-atom-map"


def test_zero_state_rejected():
    doc = minimal_document()
    doc["states"]["bad"] = [[0, 0], [0, 0]]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "zero-state"


def test_non_unit_state_rejected():
    for bad in (0.5, float("nan"), float("inf")):
        doc = minimal_document()
        doc["states"]["bad"] = [[bad, 0], [0, 0]]
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert exc.value.code == "non-unit-state"


def test_near_unit_state_normalized():
    doc = minimal_document()
    doc["states"]["diag"] = [[0.707107, 0], [0.707107, 0]]
    model = load_model(doc)
    assert abs(np.linalg.norm(model.state("diag").amplitudes) - 1) < 1e-12


def test_state_dimension_mismatch():
    doc = minimal_document()
    doc["states"]["bad"] = [[1, 0], [0, 0], [0, 0]]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "dimension-mismatch"


def test_invalid_atom_name():
    doc = minimal_document()
    doc["atoms"] = {"Aup": "Eup"}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "invalid-atom-name"


def test_atom_to_unknown_property():
    for target in ("Emissing", ["Eup"], 3, None):
        doc = minimal_document()
        doc["atoms"] = {"a": target}
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert exc.value.code == "unknown-property"


def test_load_raises_first_validation_error():
    # states: dimension, unit norm; then per atom its name and target; then
    # the bijection
    doc = minimal_document()
    doc["states"]["bad"] = [[1, 0], [0, 0], [0, 0]]
    doc["atoms"] = {"Aup": "Emissing"}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "dimension-mismatch"
    assert str(exc.value) == "state 'bad' has dim 3, model dim is 2"
    del doc["states"]["bad"]
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "invalid-atom-name"
    doc["atoms"] = {"a": "Emissing"}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert (exc.value.code, str(exc.value)) == (
        "unknown-property", "atom 'a' maps to unknown property 'Emissing'")


def test_matrix_property_form():
    doc = minimal_document()
    doc["properties"] = {"Eup": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}}
    model = load_model(doc)
    assert model.projector("Eup").rank == 1


def test_non_idempotent_matrix_rejected():
    doc = minimal_document()
    doc["properties"] = {"Eup": {"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "not-idempotent"


def test_schema_violations():
    with pytest.raises(ModelError):
        load_model([])
    for key in ("dim", "states", "properties", "atoms"):
        doc = minimal_document()
        del doc[key]
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert exc.value.code == "schema"
    doc = minimal_document()
    doc["properties"]["Eup"] = {"span": [[[1, 0], [0, 0]]], "matrix": []}
    with pytest.raises(ModelError):
        load_model(doc)
    for eps in (-1, 0, float("nan"), float("inf"), 10**400):
        doc = minimal_document()
        doc["eps"] = eps
        with pytest.raises(ModelError) as exc:
            load_model(doc)
        assert exc.value.code == "schema"
    for bad in (float("nan"), float("inf")):
        for spec in ({"matrix": [[[bad, 0], [0, 0]], [[0, 0], [0, 0]]]},
                     {"span": [[[bad, 0], [0, 0]]]}):
            doc = minimal_document()
            doc["properties"]["Eup"] = spec
            with pytest.raises(ModelError) as exc:
                load_model(doc)
            assert exc.value.code == "schema"


def test_dim_above_the_cap_is_a_schema_error():
    # rejected before any dim x dim matrix is allocated
    doc = {"dim": 4097, "states": {}, "properties": {"E": {"span": []}},
           "atoms": {"a": "E"}}
    with pytest.raises(ModelError) as exc:
        load_model(doc)
    assert exc.value.code == "schema"
    assert "4096" in str(exc.value)


def test_dim_at_the_cap_loads():
    model = load_model({"dim": 4096, "states": {}, "properties": {}, "atoms": {}})
    assert model.dim == 4096


def test_name_lookups(qubit):
    with pytest.raises(UnknownNameError):
        qubit.state("y+")
    with pytest.raises(UnknownNameError):
        qubit.projector("Ey")
    with pytest.raises(UnknownNameError):
        qubit.atom_projector("ay")


# ---------------------------------------------------------------------------
# validation


def test_bundled_models_all_validate(all_models):
    assert set(bundled_model_names()) == {"qubit-zx", "qutrit-lines",
                                          "ququart-planes"}
    for model in all_models.values():
        report = validate_model(model)
        assert report.ok, report.findings


def test_validate_flags_corrupted_projector(qubit):
    bad = np.diag([1.0 + 1e-3, 0.0]).astype(complex)  # |P^2 - P| = 1e-3-ish
    corrupted = Model(
        dim=2,
        states=dict(qubit.states),
        properties={**qubit.properties, "Ez": Projector(2, bad, 1)},
        atom_map=dict(qubit.atom_map),
        eps=qubit.eps,
    )
    report = validate_model(corrupted)
    assert not report.ok
    assert any(f.code == "not-idempotent" for f in report.errors())


def test_validate_flags_nan_state_and_projector(qubit):
    # every norm and deviation test is false for NaN, so each must be
    # written to fail on it rather than to pass
    nan_state = StateVector(2, np.array([np.nan, 0]))
    nan_matrix = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    for states, props, code in (
            ({**qubit.states, "z+": nan_state}, qubit.properties, "non-unit-state"),
            (qubit.states, {**qubit.properties, "Ez": Projector(2, nan_matrix, 1)},
             "not-hermitian")):
        model = Model(dim=2, states=dict(states), properties=dict(props),
                      atom_map=dict(qubit.atom_map), eps=qubit.eps)
        assert code in [f.code for f in validate_model(model).errors()]
        assert [f.code for f in check_cc(model, samples=10).errors()][-1] == "model-invalid"


def test_validate_warns_on_degenerate_tolerance(qubit):
    model = Model(dim=2, states=dict(qubit.states),
                  properties=dict(qubit.properties),
                  atom_map=dict(qubit.atom_map), eps=0.0)
    report = validate_model(model)
    assert report.ok  # warning only
    assert any(f.severity == "warning" and f.code == "degenerate-tolerance"
               for f in report.findings)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_validate_rejects_non_finite_tolerance(qubit, eps):
    # with eps = inf every probe would be justified and true, so check_cc
    # would pass vacuously; it must refuse the model instead
    model = Model(dim=2, states=dict(qubit.states),
                  properties=dict(qubit.properties),
                  atom_map=dict(qubit.atom_map), eps=eps)
    assert [f.code for f in validate_model(model).errors()] == ["bad-tolerance"]
    assert [f.code for f in check_cc(model, samples=10).errors()] == [
        "bad-tolerance", "model-invalid"]


def test_validate_flags_non_bijective_map(qubit):
    model = Model(dim=2, states={}, properties=dict(qubit.properties),
                  atom_map={"az": "Ez", "ax": "Ez"}, eps=qubit.eps)
    report = validate_model(model)
    assert any(f.code == "non-bijective-atom-map" for f in report.errors())


def test_validate_reports_non_string_atom_names_and_targets(qubit):
    # validate_model never raises, even on unhashable or non-string entries
    for atom_map, codes in (
            ({"az": ["Ez"], "ax": "Ex"}, ["unknown-property", "non-bijective-atom-map"]),
            ({"az": None, "ax": "Ex"}, ["unknown-property", "non-bijective-atom-map"]),
            ({1: "Ez", "ax": "Ex"}, ["invalid-atom-name"]),
            ({("az",): "Ez", "ax": "Ex"}, ["invalid-atom-name"])):
        model = Model(dim=2, states={}, properties=dict(qubit.properties),
                      atom_map=atom_map, eps=qubit.eps)
        assert [f.code for f in validate_model(model).findings] == codes


def test_load_then_validate_ok_for_every_accepted_document():
    # every document load_model accepts passes validate_model, at every
    # tolerance down to below double-precision rounding
    docs = {"minimal": minimal_document()}
    docs["minimal-1e-10"] = {**minimal_document(), "eps": 1e-10}
    for name in bundled_model_names():
        docs[name] = bundled_model_document(name)
        for eps in (1e-12, 1e-15, 1e-16, 1e-17, 1e-20):
            docs[name, eps] = {**bundled_model_document(name), "eps": eps}
    rejected = {}
    for key, doc in docs.items():
        try:
            model = load_model(doc)
        except ModelError as exc:
            rejected[key] = exc.code
            continue
        report = validate_model(model)
        assert report.ok, (key, report.findings)
    assert not rejected.keys() & {"minimal", "minimal-1e-10", *bundled_model_names()}
    # the Ex projector is built from a span; its idempotence defect is one
    # rounding unit, above eps = 1e-16
    assert rejected[("qubit-zx", 1e-16)] == "not-idempotent"
