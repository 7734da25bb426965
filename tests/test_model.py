"""Model validation and the strict JSON schema."""

import json

import pytest

from lvjumps import (
    Const,
    MarkSpace,
    ModelSpec,
    Sinusoid,
    constant_model,
    validate_model,
)
from lvjumps.errors import ModelFormatError
from lvjumps.model import (
    InitialState,
    dump_model,
    load_model,
    model_from_payload,
    model_to_payload,
)


def test_valid_benchmark_triple():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.5, gamma=-0.5, weights=(1.0,))
    assert validate_model(m).ok


def test_gamma_at_minus_one_is_flagged():
    m = constant_model(1, a=1.0, b=1.0, sigma=0.5, gamma=-1.0, weights=(1.0,))
    report = validate_model(m)
    assert not report.ok
    assert report.violations[0].coefficient == "gamma_11"
    assert "-1" in report.violations[0].requirement


def test_sinusoid_self_interaction_touching_zero():
    m = ModelSpec(
        n=1,
        a=(Const(1.0),),
        B=((Sinusoid(0.5, 0.5, 1.0, 0.0),),),
        sigma=(Const(0.5),),
        gamma=((),),
        marks=MarkSpace(()),
    )
    report = validate_model(m)
    assert not report.ok
    v = report.violations[0]
    assert v.coefficient == "b_11"
    assert v.attained == 0.0


def test_negative_cross_interaction_flagged():
    m = constant_model(2, a=1.0, b=[[1.0, -0.1], [0.0, 1.0]], sigma=0.0)
    report = validate_model(m)
    assert [v.coefficient for v in report.violations] == ["b_12"]


def test_validation_is_pure():
    m = constant_model(2, a=1.0, b=1.0, sigma=0.3, gamma=0.2, weights=(0.5,))
    assert validate_model(m).to_payload() == validate_model(m).to_payload()


def test_initial_state_positivity():
    with pytest.raises(ModelFormatError):
        InitialState((1.0, 0.0))
    with pytest.raises(ModelFormatError):
        InitialState((float("nan"),))


def test_mark_space():
    ms = MarkSpace((0.5, 1.5))
    assert ms.size == 2
    assert ms.total_mass == 2.0
    with pytest.raises(ModelFormatError):
        MarkSpace((0.0,))


def payload():
    return {
        "n": 1,
        "a": [{"type": "const", "c": 1.0}],
        "B": [[{"type": "const", "c": 1.0}]],
        "sigma": [{"type": "const", "c": 0.5}],
        "marks": {"weights": [1.0]},
        "gamma": [[{"type": "const", "c": -0.5}]],
    }


def test_payload_round_trip():
    m = model_from_payload(payload())
    assert model_to_payload(m) == payload()


def test_unknown_model_field_rejected():
    p = payload()
    p["extra"] = 1
    with pytest.raises(ModelFormatError, match="extra"):
        model_from_payload(p)


def test_unknown_marks_field_rejected():
    p = payload()
    p["marks"]["labels"] = ["x"]
    with pytest.raises(ModelFormatError):
        model_from_payload(p)


def test_missing_field_rejected():
    p = payload()
    del p["sigma"]
    with pytest.raises(ModelFormatError, match="sigma"):
        model_from_payload(p)


def test_dimension_mismatch_rejected():
    p = payload()
    p["a"] = []
    with pytest.raises(ModelFormatError):
        model_from_payload(p)
    p = payload()
    p["gamma"] = [[]]
    with pytest.raises(ModelFormatError):
        model_from_payload(p)


def test_load_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad)


def test_dump_and_load(tmp_path):
    m = model_from_payload(payload())
    f = tmp_path / "m.json"
    dump_model(m, f)
    again = load_model(f)
    assert model_to_payload(again) == payload()
    # file content is plain JSON
    json.loads(f.read_text())
