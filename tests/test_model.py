"""Model factories, operations, and structural properties."""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings

from muse_anno import (
    CHORD_KIND,
    Modality,
    MusicObservation,
    MusicTimeValueType,
    ObservationValue,
    attach_observation,
    audio_interval,
    interval_end,
    make_audio_index,
    make_score_index,
    oracle_cq,
    score_interval,
)
from muse_anno.errors import (
    IncommensurableUnits,
    InvalidBeat,
    InvalidMeasure,
    ModalityMismatch,
    NegativeTime,
)

from strategies import any_models


def test_make_audio_index_single_seconds_component():
    index = make_audio_index(Decimal("0.459"))
    assert len(index.components) == 1
    component = index.components[0]
    assert str(component.value) == "0.459"
    assert component.value_type is MusicTimeValueType.SECONDS


def test_make_audio_index_zero():
    index = make_audio_index(Decimal("0.0"))
    assert str(index.components[0].value) == "0.0"


def test_make_audio_index_negative_raises():
    with pytest.raises(NegativeTime):
        make_audio_index(Decimal("-1.0"))


def test_make_score_index_orders_measure_then_beat():
    index = make_score_index(1, 1)
    assert [(str(c.value), c.value_type) for c in index.components] == \
        [("1", MusicTimeValueType.MEASURE), ("1", MusicTimeValueType.BEAT)]


def test_make_score_index_readback():
    index = make_score_index(4, Decimal("2.5"))
    measure, beat = index.components
    assert str(measure.value) == "4"
    assert measure.value_type is MusicTimeValueType.MEASURE
    assert str(beat.value) == "2.5"
    assert beat.value_type is MusicTimeValueType.BEAT


def test_make_score_index_rejects_bad_metrics():
    with pytest.raises(InvalidMeasure):
        make_score_index(0, 1)
    with pytest.raises(InvalidMeasure):
        make_score_index(2.5, 1)  # type: ignore[arg-type]
    with pytest.raises(InvalidBeat):
        make_score_index(1, Decimal("0.5"))


def _observation(obs_id: str, modality: Modality) -> MusicObservation:
    interval = audio_interval("0.0", "1.0") if modality is Modality.AUDIO \
        else score_interval(1, 1, 1)
    return MusicObservation(
        id=obs_id,
        modality=modality,
        interval=interval,
        value=ObservationValue(obs_id + "/value", CHORD_KIND, "C"),
    )


def test_attach_observation_appends_in_order(bohemian_model):
    annotation = bohemian_model.annotations[0]
    extra = _observation("http://example.org/observation/extra", Modality.AUDIO)
    updated = attach_observation(annotation, extra)
    assert len(updated.observations) == len(annotation.observations) + 1
    assert updated.observations[-1] is extra
    # The original annotation is untouched.
    assert len(annotation.observations) == 3


def test_attach_observation_rejects_modality_mismatch(bohemian_model):
    annotation = bohemian_model.annotations[0]
    foreign = _observation("http://example.org/observation/score", Modality.SCORE)
    with pytest.raises(ModalityMismatch) as excinfo:
        attach_observation(annotation, foreign)
    message = str(excinfo.value)
    assert "audio" in message and "score" in message


def test_interval_end_fixture_case():
    interval = audio_interval(Decimal("0.459"), Decimal("3.663"))
    end, unit = interval_end(interval)
    assert str(end) == "4.122"
    assert unit is MusicTimeValueType.SECONDS
    # Independent oracle: plain decimal addition.
    assert end == Decimal("0.459") + Decimal("3.663")


def test_interval_end_zero():
    end, unit = interval_end(audio_interval(Decimal("0.0"), Decimal("0.0")))
    assert str(end) == "0.0"
    assert unit is MusicTimeValueType.SECONDS


def test_interval_end_metrical_beat_offset():
    end, unit = interval_end(score_interval(1, 1, 2))
    assert end == Decimal(1) + Decimal(2)
    assert unit is MusicTimeValueType.BEAT


def test_interval_end_incommensurable_units():
    interval = audio_interval("1.0", "1.0")
    from dataclasses import replace
    from muse_anno import MusicTimeDuration
    broken = replace(interval, duration=MusicTimeDuration(
        Decimal(1), MusicTimeValueType.MEASURE))
    with pytest.raises(IncommensurableUnits):
        interval_end(broken)


@given(any_models)
@settings(max_examples=60)
def test_modality_closure_and_chain_coherence(model):
    for annotation in model.annotations:
        for obs in annotation.observations:
            assert obs.modality is annotation.modality
            [row] = oracle_cq(8, model, obs.id).rows
            assert row[1] == annotation.annotator.id


@given(any_models)
@settings(max_examples=60)
def test_interval_shapes_by_modality(model):
    for annotation in model.annotations:
        entities = [annotation, *annotation.observations]
        for entity in entities:
            components = entity.interval.index.components
            if entity.modality is Modality.AUDIO:
                assert len(components) == 1
                assert components[0].value_type is MusicTimeValueType.SECONDS
            else:
                assert [c.value_type for c in components] == \
                    [MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT]
