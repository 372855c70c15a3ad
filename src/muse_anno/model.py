"""Typed in-memory model of the music annotation pattern.

The model mirrors the pattern's classes one to one: a musical object
(track or score) carries annotations; each annotation has exactly one
annotator and one time interval and contains modality-compatible
observations; every observation pairs a time interval with a value and an
optional confidence.  Time intervals decompose into an index (one or more
typed components) and a duration, which is what lets one structure carry
both second-based and measure/beat-based positions.

Dataclasses here are frozen but deliberately unvalidated: the factory
functions (``make_audio_index``, ``make_score_index``, ...) enforce the
constructive rules and raise typed errors, while ``validate.validate_model``
re-checks everything declaratively.  Tests exploit this split to inject
broken states that the factories would refuse to build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum

from .errors import (
    IncommensurableUnits,
    InvalidBeat,
    InvalidMeasure,
    ModalityMismatch,
    NegativeTime,
    OrphanObservation,
)
from .iri import DEFAULT_BASE_IRI
from .util import as_decimal


class Modality(Enum):
    AUDIO = "audio"
    SCORE = "score"


class ObjectKind(Enum):
    TRACK = "track"
    SCORE = "score"


class MusicTimeValueType(Enum):
    SECONDS = "Seconds"
    MILLISECONDS = "Milliseconds"
    MINUTES = "Minutes"
    MEASURE = "Measure"
    BEAT = "Beat"


AUDIO_TIME_TYPES = frozenset(
    {MusicTimeValueType.SECONDS, MusicTimeValueType.MILLISECONDS,
     MusicTimeValueType.MINUTES}
)


@dataclass(frozen=True, slots=True)
class AnnotatorType:
    """Classification of an annotator: Human, Machine, Crowdsourcing, or custom."""

    name: str


HUMAN = AnnotatorType("Human")
MACHINE = AnnotatorType("Machine")
CROWDSOURCING = AnnotatorType("Crowdsourcing")


@dataclass(frozen=True, slots=True)
class ValueKind:
    """What sort of thing an observation value is: a chord, a segment, or
    a generic kind tagged with its source namespace."""

    token: str
    namespace: str | None = None

    @classmethod
    def generic(cls, namespace: str) -> "ValueKind":
        return cls("generic", namespace)


CHORD_KIND = ValueKind("chord")
SEGMENT_KIND = ValueKind("segment")


@dataclass(frozen=True, slots=True)
class MusicTimeIndexComponent:
    value: Decimal
    value_type: MusicTimeValueType


@dataclass(frozen=True, slots=True)
class MusicTimeIndex:
    components: tuple[MusicTimeIndexComponent, ...]


@dataclass(frozen=True, slots=True)
class MusicTimeDuration:
    value: Decimal
    value_type: MusicTimeValueType


@dataclass(frozen=True, slots=True)
class MusicTimeInterval:
    index: MusicTimeIndex
    duration: MusicTimeDuration


@dataclass(frozen=True, slots=True)
class Annotator:
    id: str
    name: str | None
    annotator_type: AnnotatorType


@dataclass(frozen=True, slots=True)
class ObservationValue:
    id: str
    kind: ValueKind
    label: str


@dataclass(frozen=True, slots=True)
class MusicObservation:
    id: str
    modality: Modality
    interval: MusicTimeInterval
    value: ObservationValue
    confidence: Decimal | None = None


@dataclass(frozen=True, slots=True)
class MusicAnnotation:
    id: str
    modality: Modality
    subject: str
    annotator: Annotator
    interval: MusicTimeInterval
    observations: tuple[MusicObservation, ...]
    value_kind: ValueKind


@dataclass(frozen=True, slots=True)
class MusicalObjectRef:
    id: str
    kind: ObjectKind
    title: str
    artist: str | None = None


@dataclass(frozen=True, slots=True)
class AnnotationModel:
    """A musical object plus everything annotated about it.

    ``AnnotationModel()`` is the legal empty model: no subject, no
    annotations, and an empty emitted graph.
    """

    subject: MusicalObjectRef | None = None
    annotations: tuple[MusicAnnotation, ...] = ()
    base_iri: str = DEFAULT_BASE_IRI
    file_duration: Decimal | None = None


# --- factories --------------------------------------------------------------

def make_audio_index(seconds: Decimal | int | str | float,
                     value_type: MusicTimeValueType = MusicTimeValueType.SECONDS,
                     ) -> MusicTimeIndex:
    """Single-component index for signal time. Raises NegativeTime."""
    if value_type not in AUDIO_TIME_TYPES:
        raise ValueError(f"{value_type} is not an audio time type")
    value = as_decimal(seconds)
    if not value.is_finite() or value < 0:
        raise NegativeTime(f"audio time must be finite and >= 0, got {seconds}")
    return MusicTimeIndex((MusicTimeIndexComponent(value, value_type),))


def make_score_index(measure: int, beat: Decimal | int | str | float) -> MusicTimeIndex:
    """Two-component metrical index: the measure, then the beat within it.

    Measures are 1-based integers, beats 1-based decimals (fractional
    positions like 2.5 are fine).
    """
    if isinstance(measure, bool) or not isinstance(measure, int) or measure < 1:
        raise InvalidMeasure(f"measure must be an integer >= 1, got {measure!r}")
    beat_value = as_decimal(beat)
    if not beat_value.is_finite() or beat_value < 1:
        raise InvalidBeat(f"beat must be a decimal >= 1, got {beat!r}")
    return MusicTimeIndex((
        MusicTimeIndexComponent(Decimal(measure), MusicTimeValueType.MEASURE),
        MusicTimeIndexComponent(beat_value, MusicTimeValueType.BEAT),
    ))


def _non_negative_duration(value: Decimal | int | str | float,
                           value_type: MusicTimeValueType) -> MusicTimeDuration:
    dec = as_decimal(value)
    if not dec.is_finite() or dec < 0:
        raise NegativeTime(f"duration must be finite and >= 0, got {value}")
    return MusicTimeDuration(dec, value_type)


def audio_interval(start: Decimal | int | str | float,
                   duration: Decimal | int | str | float,
                   value_type: MusicTimeValueType = MusicTimeValueType.SECONDS,
                   ) -> MusicTimeInterval:
    return MusicTimeInterval(
        index=make_audio_index(start, value_type),
        duration=_non_negative_duration(duration, value_type),
    )


def score_interval(measure: int, beat: Decimal | int | str | float,
                   duration_beats: Decimal | int | str | float) -> MusicTimeInterval:
    return MusicTimeInterval(
        index=make_score_index(measure, beat),
        duration=_non_negative_duration(duration_beats, MusicTimeValueType.BEAT),
    )


# --- operations --------------------------------------------------------------

def attach_observation(annotation: MusicAnnotation,
                       obs: MusicObservation) -> MusicAnnotation:
    """Append an observation, enforcing the modality compatibility rule."""
    if obs.modality is not annotation.modality:
        raise ModalityMismatch(annotation.modality.value, obs.modality.value)
    return replace(annotation, observations=annotation.observations + (obs,))


def annotator_of_observation(model: AnnotationModel, obs_id: str) -> Annotator:
    """The annotator an observation inherits from its containing annotation.

    This is the materialized form of the pattern's property chain: an
    observation has no annotator of its own.
    """
    for annotation in model.annotations:
        for obs in annotation.observations:
            if obs.id == obs_id:
                return annotation.annotator
    raise OrphanObservation(obs_id)


def interval_end(interval: MusicTimeInterval) -> tuple[Decimal, MusicTimeValueType]:
    """Start plus duration, in the duration's unit.

    The duration unit must match one of the index components.  For metrical
    intervals this returns a beat offset (beat + duration in beats) with the
    measure context unchanged; it is not a measure-normalized position.
    """
    duration = interval.duration
    for component in interval.index.components:
        if component.value_type is duration.value_type:
            return component.value + duration.value, duration.value_type
    raise IncommensurableUnits(
        [c.value_type.value for c in interval.index.components],
        duration.value_type.value,
    )
