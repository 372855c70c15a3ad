"""Model factories, operations, and structural properties, and the
validator as the one checker of time values."""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse_anno import (
    Modality,
    MusicTimeDuration,
    MusicTimeIndex,
    MusicTimeIndexComponent,
    MusicTimeInterval,
    MusicTimeValueType,
    Severity,
    audio_interval,
    emit_graph,
    interval_end,
    make_audio_index,
    make_score_index,
    oracle_cq,
    score_interval,
    validate_model,
    vocab,
)
from muse_anno.errors import IncommensurableUnits, UnvalidatedModel
from muse_anno.iri import component_iri, duration_iri
from muse_anno.model import SECONDS_CONVERSIONS
from muse_anno.util import MAX_EXPONENT

from injections import valid_model
from strategies import any_models

# The signal-time value types.
AUDIO_TIME_TYPES = frozenset(map(MusicTimeValueType, SECONDS_CONVERSIONS))


def test_make_audio_index_single_seconds_component():
    index = make_audio_index(Decimal("0.459"))
    assert len(index.components) == 1
    component = index.components[0]
    assert str(component.value) == "0.459"
    assert component.value_type is MusicTimeValueType.SECONDS


def test_make_audio_index_zero():
    index = make_audio_index(Decimal("0.0"))
    assert str(index.components[0].value) == "0.0"


def test_factories_read_a_float_by_its_repr_and_refuse_a_non_number():
    interval = audio_interval(0.459, 3.663)
    assert interval.index.components[0].value == Decimal("0.459")
    assert str(interval.duration.value) == "3.663"
    with pytest.raises(ValueError, match="not a decimal: 'abc'"):
        make_audio_index("abc")


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


def test_factories_build_out_of_range_values_as_given():
    index = make_score_index(Decimal("1.5"), Decimal("0.5"))
    assert [str(c.value) for c in index.components] == ["1.5", "0.5"]
    interval = audio_interval("-5", "-1", MusicTimeValueType.BEAT)
    assert str(interval.index.components[0].value) == "-5"
    assert interval.duration == MusicTimeDuration(Decimal(-1),
                                                  MusicTimeValueType.BEAT)


def _with_interval(modality: Modality, interval: MusicTimeInterval):
    """The valid model of ``modality`` with its observation on ``interval``."""
    model = valid_model(modality)
    annotation = model.annotations[0]
    obs = replace(annotation.observations[0], interval=interval)
    return replace(model, annotations=(replace(annotation, observations=(obs,)),))


_OUT_OF_RANGE = {
    "Measure 1.5": (Modality.SCORE, score_interval("1.5", 1, 2), 0),
    "Measure -3": (Modality.SCORE, score_interval(-3, 1, 2), 0),
    "Measure 0": (Modality.SCORE, score_interval(0, 1, 2), 0),
    "Measure of 5000 digits": (
        Modality.SCORE, score_interval("9" * 5000, 1, 2), 0),
    "Beat 0.5": (Modality.SCORE, score_interval(1, "0.5", 2), 1),
    "duration -2 beats": (Modality.SCORE, score_interval(1, 1, -2), None),
    "audio start -5 s": (Modality.AUDIO, audio_interval(-5, 1), 0),
    "audio duration -1 s": (Modality.AUDIO, audio_interval(0, -1), None),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_RANGE))
def test_validator_reports_a_time_value_out_of_range(name):
    modality, interval, position = _OUT_OF_RANGE[name]
    model = _with_interval(modality, interval)
    obs_id = model.annotations[0].observations[0].id
    subject = duration_iri(obs_id) if position is None \
        else component_iri(obs_id, position)
    [violation] = validate_model(model)
    assert (violation.code, violation.subject) == ("V3", subject)
    assert violation.message.endswith(" is out of range")
    with pytest.raises(UnvalidatedModel):
        emit_graph(model)


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


# Values at the edges of every range: negatives, fractions, zeros and
# exponents on both sides of the digit limit and of MAX_EXPONENT.
_time_values = st.one_of(
    st.integers(min_value=-3, max_value=5).map(Decimal),
    st.sampled_from(["0.5", "1.5", "-0.0", "0E+1000000", "2.50", "-1E-3"]
                    ).map(Decimal),
    st.builds(lambda digit, exponent: Decimal(f"{digit}E{exponent}"),
              st.integers(min_value=-9, max_value=9),
              st.sampled_from([-10**6, -40, 1, 40, 4299, 4300, 5000,
                               MAX_EXPONENT, MAX_EXPONENT + 1, 10**6])),
)


@st.composite
def _hand_built_models(draw):
    value_type = draw(st.sampled_from(MusicTimeValueType))
    if value_type in AUDIO_TIME_TYPES:
        modality = Modality.AUDIO
        components = (MusicTimeIndexComponent(draw(_time_values), value_type),)
    else:
        modality = Modality.SCORE
        components = (
            MusicTimeIndexComponent(draw(_time_values), MusicTimeValueType.MEASURE),
            MusicTimeIndexComponent(draw(_time_values), MusicTimeValueType.BEAT))
    duration = MusicTimeDuration(draw(_time_values),
                                 draw(st.sampled_from(MusicTimeValueType)))
    model = _with_interval(modality, MusicTimeInterval(MusicTimeIndex(components),
                                                       duration))
    # A file duration makes the validator compute each signal-time end.
    return replace(model, file_duration=Decimal(10))


@given(_hand_built_models())
@settings(max_examples=300, deadline=None)
def test_a_model_that_validates_emits_exactly_its_time_values(model):
    if any(v.severity is Severity.ERROR for v in validate_model(model)):
        with pytest.raises(UnvalidatedModel):
            emit_graph(model)
        return
    graph = emit_graph(model)
    obs = model.annotations[0].observations[0]
    parts = {component_iri(obs.id, position): component
             for position, component in enumerate(obs.interval.index.components)}
    parts[duration_iri(obs.id)] = obs.interval.duration
    for iri, part in parts.items():
        literal = graph.value(iri, vocab.HAS_TIME_VALUE)
        assert Decimal(literal.lexical) == part.value
