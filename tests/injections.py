"""Minimal models that each break exactly one validation rule.

The model dataclasses and factories are unvalidated, so these fixtures can
assemble any broken state; the validator has to catch them declaratively.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal

from muse_anno import (
    CHORD_KIND,
    HUMAN,
    AnnotationModel,
    Annotator,
    Modality,
    MusicAnnotation,
    MusicObservation,
    MusicalObjectRef,
    MusicTimeIndex,
    MusicTimeIndexComponent,
    MusicTimeInterval,
    MusicTimeValueType,
    ObjectKind,
    ObservationValue,
    audio_interval,
    score_interval,
)

EX = "http://example.org/"


def valid_model(modality: Modality = Modality.AUDIO) -> AnnotationModel:
    """One annotation, one observation, everything by the book."""
    audio = modality is Modality.AUDIO
    interval = audio_interval("1.0", "2.0") if audio else score_interval(1, 1, 2)
    obs = MusicObservation(
        id=EX + "observation/t/0/0",
        modality=modality,
        interval=interval,
        value=ObservationValue(EX + "value/chord/c", CHORD_KIND, "C"),
        confidence=Decimal("0.9"),
    )
    annotation = MusicAnnotation(
        id=EX + "annotation/t/0",
        modality=modality,
        annotator=Annotator(EX + "annotator/a", "A. Tester", HUMAN),
        interval=audio_interval("1.0", "2.0") if audio else score_interval(1, 1, 2),
        observations=(obs,),
    )
    subject = MusicalObjectRef(
        id=EX + "track/t",
        kind=ObjectKind.TRACK if audio else ObjectKind.SCORE,
        title="t",
    )
    return AnnotationModel(subject=subject, annotations=(annotation,))


def _with_observation(model: AnnotationModel,
                      obs: MusicObservation) -> AnnotationModel:
    annotation = replace(model.annotations[0], observations=(obs,))
    return replace(model, annotations=(annotation,))


def _broken_v1() -> AnnotationModel:
    model = valid_model()
    return _with_observation(model, replace(model.annotations[0].observations[0],
                                            interval=None))


def _broken_v2() -> AnnotationModel:
    model = valid_model()
    obs = model.annotations[0].observations[0]
    empty_index = MusicTimeInterval(MusicTimeIndex(()), obs.interval.duration)
    return _with_observation(model, replace(obs, interval=empty_index))


def _broken_v3() -> AnnotationModel:
    model = valid_model()
    obs = model.annotations[0].observations[0]
    bad_component = MusicTimeIndexComponent(Decimal("1.0"), None)
    interval = MusicTimeInterval(MusicTimeIndex((bad_component,)),
                                 obs.interval.duration)
    return _with_observation(model, replace(obs, interval=interval))


def _broken_v4() -> AnnotationModel:
    model = valid_model(Modality.AUDIO)
    obs = model.annotations[0].observations[0]
    score_obs = replace(obs, modality=Modality.SCORE,
                        interval=score_interval(1, 1, 2))
    return _with_observation(model, score_obs)


def _broken_v5() -> AnnotationModel:
    model = valid_model()
    obs = model.annotations[0].observations[0]
    two_components = MusicTimeIndex((
        MusicTimeIndexComponent(Decimal("1.0"), MusicTimeValueType.SECONDS),
        MusicTimeIndexComponent(Decimal("2.0"), MusicTimeValueType.SECONDS),
    ))
    interval = MusicTimeInterval(two_components, obs.interval.duration)
    return _with_observation(model, replace(obs, interval=interval))


def _broken_v6() -> AnnotationModel:
    model = valid_model(Modality.SCORE)
    obs = model.annotations[0].observations[0]
    reversed_index = MusicTimeIndex(tuple(reversed(obs.interval.index.components)))
    interval = MusicTimeInterval(reversed_index, obs.interval.duration)
    return _with_observation(model, replace(obs, interval=interval))


def _broken_v7() -> AnnotationModel:
    model = valid_model()
    annotation = replace(model.annotations[0], annotator=None)
    return replace(model, annotations=(annotation,))


def _broken_v8() -> AnnotationModel:
    model = valid_model()
    annotator = replace(model.annotations[0].annotator, annotator_type=None)
    annotation = replace(model.annotations[0], annotator=annotator)
    return replace(model, annotations=(annotation,))


def _broken_v9() -> AnnotationModel:
    model = valid_model()
    obs = model.annotations[0].observations[0]
    clashing_value = replace(obs.value, id=obs.id)
    return _with_observation(model, replace(obs, value=clashing_value))


def _broken_v10() -> AnnotationModel:
    model = valid_model()
    obs = model.annotations[0].observations[0]
    return _with_observation(model, replace(obs, confidence=Decimal("1.5")))


BROKEN_MODELS = {
    "V1": _broken_v1,
    "V2": _broken_v2,
    "V3": _broken_v3,
    "V4": _broken_v4,
    "V5": _broken_v5,
    "V6": _broken_v6,
    "V7": _broken_v7,
    "V8": _broken_v8,
    "V9": _broken_v9,
    "V10": _broken_v10,
}
