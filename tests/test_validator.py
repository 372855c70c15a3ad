"""Validator: clean fixtures, the injection suite, determinism, explain."""

from __future__ import annotations

import json
from dataclasses import replace
from decimal import Decimal

import pytest

from muse_anno import Severity, explain, validate_model
from muse_anno.errors import UnknownCode

from injections import BROKEN_MODELS, valid_model


def _error_codes(model):
    return [v.code for v in validate_model(model)
            if v.severity is Severity.ERROR]


def test_clean_fixtures_have_no_violations(bohemian_model, michelle_model,
                                           mozart_score_model):
    assert validate_model(bohemian_model) == []
    assert validate_model(michelle_model) == []
    assert validate_model(mozart_score_model) == []


def test_valid_base_models_are_clean():
    from muse_anno import Modality
    assert validate_model(valid_model(Modality.AUDIO)) == []
    assert validate_model(valid_model(Modality.SCORE)) == []


@pytest.mark.parametrize("code", sorted(BROKEN_MODELS))
def test_injection_yields_exactly_one_error(code):
    model = BROKEN_MODELS[code]()
    assert _error_codes(model) == [code]


def test_v9_names_the_shared_id_and_its_spaces_in_order():
    model = BROKEN_MODELS["V9"]()
    obs = model.annotations[0].observations[0]
    assert [(v.code, v.subject, v.message) for v in validate_model(model)] == [
        ("V9", obs.id,
         "id shared by disjoint spaces: music observation, observation value")]
    # Three spaces on one id and two on another: one report per id, in
    # subject order, each listing its spaces once and sorted.
    annotation = model.annotations[0]
    annotator = replace(annotation.annotator, id=obs.id)
    second = replace(obs, id=annotation.id, value=replace(
        obs.value, id="http://example.org/value/chord/a"))
    clashing = replace(annotation, annotator=annotator,
                       observations=(obs, second))
    reports = [(v.subject, v.message)
               for v in validate_model(replace(model, annotations=(clashing,)))
               if v.code == "V9"]
    assert reports == [
        (annotation.id,
         "id shared by disjoint spaces: music annotation, music observation"),
        (obs.id, "id shared by disjoint spaces: annotator, music observation, "
                 "observation value"),
    ]


def test_v5_on_two_component_audio_annotation_index():
    model = valid_model()
    annotation = model.annotations[0]
    obs = annotation.observations[0]
    two = replace(annotation, interval=replace(
        annotation.interval,
        index=replace(obs.interval.index,
                      components=obs.interval.index.components * 2)))
    broken = replace(model, annotations=(two,))
    assert _error_codes(broken) == ["V5"]


def test_w1_flags_observation_past_file_duration():
    model = replace(valid_model(), file_duration=Decimal("2.0"))
    violations = validate_model(model)
    assert [v.code for v in violations] == ["W1"]
    assert violations[0].severity is Severity.WARNING
    assert "3.0" in violations[0].message


def test_w1_respects_unit_conversion():
    from muse_anno import MusicTimeValueType, MusicTimeDuration
    model = replace(valid_model(), file_duration=Decimal("500.0"))
    annotation = model.annotations[0]
    obs = annotation.observations[0]
    minutes = replace(obs, interval=replace(
        obs.interval,
        duration=MusicTimeDuration(Decimal("10"), MusicTimeValueType.MINUTES)))
    broken = replace(model, annotations=(
        replace(annotation, observations=(minutes,)),))
    assert [v.code for v in validate_model(broken)] == ["W1"]


def test_w2_flags_empty_annotation():
    model = valid_model()
    empty = replace(model.annotations[0], observations=())
    violations = validate_model(replace(model, annotations=(empty,)))
    assert [v.code for v in violations] == ["W2"]
    assert violations[0].subject == empty.id


def test_violation_subjects_name_broken_entities():
    model = BROKEN_MODELS["V10"]()
    violation = validate_model(model)[0]
    assert violation.subject == model.annotations[0].observations[0].id
    model = BROKEN_MODELS["V7"]()
    violation = validate_model(model)[0]
    assert violation.subject == model.annotations[0].id


def test_report_is_deterministic_and_sorted():
    # Stack several problems into one model and check stable ordering.
    model = BROKEN_MODELS["V10"]()
    annotation = model.annotations[0]
    broken = replace(model, annotations=(
        replace(annotation, annotator=None, observations=(
            annotation.observations[0],)),))
    first = validate_model(broken)
    second = validate_model(broken)
    assert first == second
    codes = [v.code for v in first]
    assert codes == sorted(codes, key=lambda c: (c[0], int(c[1:])))
    lines = [v.to_json_line() for v in first]
    assert lines == [v.to_json_line() for v in second]


def test_violation_json_line_shape():
    violation = validate_model(BROKEN_MODELS["V4"]())[0]
    payload = json.loads(violation.to_json_line())
    assert list(payload) == ["code", "subject", "severity", "message"]
    assert payload["code"] == "V4"
    assert payload["severity"] == "Error"


def test_explain_quotes_the_constraints():
    assert "min 1 MusicTimeIndexComponent" in explain("V2")
    assert "one and only one annotator" in explain("V7")
    assert "exactly 1 MusicTimeIndex" in explain("V1")
    assert "disjoint" in explain("V9")


def test_explain_covers_registry_and_rejects_unknown():
    for code in [f"V{i}" for i in range(1, 11)] + ["W1", "W2"]:
        text = explain(code)
        assert text.startswith(code)
    with pytest.raises(UnknownCode):
        explain("V99")
