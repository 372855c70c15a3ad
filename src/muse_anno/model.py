"""Typed in-memory model of the music annotation pattern.

The model mirrors the pattern's classes one to one: a musical object
(track or score) carries annotations; each annotation has exactly one
annotator and one time interval and contains modality-compatible
observations; every observation pairs a time interval with a value and an
optional confidence.  Time intervals decompose into an index (one or more
typed components) and a duration, which is what lets one structure carry
both second-based and measure/beat-based positions.

Each fact is stated once.  The musical object an annotation belongs to is
the model's one ``subject``, not a field of the annotation, and the kind
of an annotation's values is each value's own ``kind``.  The signal-time
value types and their seconds (``SECONDS_CONVERSIONS``) and a score
index's value types (``SCORE_INDEX_TYPES``) are the validator's and
ingestion's, and the validator's rule texts name them from there, as they
name the builtin annotator types from ``BUILTIN_ANNOTATOR_TYPES``.
``vocab`` derives its time value, annotator type and value class tables
from the types here.

Dataclasses here are frozen and unvalidated, and the factory functions
(``make_audio_index``, ``make_score_index``, ...) only build them:
``validate.validate_model`` is the one checker of the pattern's rules, the
time values' ranges in ``TIME_VALUE_RANGES`` included, and ``emit_graph``
refuses a model with Errors in the checker's result, run there or passed
in.  Tests exploit this to inject broken states the validator has to catch.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from .errors import IncommensurableUnits
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


# Each signal-time value type's conversion to seconds: the Decimal
# operation and its operand, applied as they stand, so that 1500
# Milliseconds is 1.5 seconds and not 1.500.  ``in_seconds`` reads it, and
# a value type that is not in it is no signal time.  Keyed by the enum
# value: looking a member up by itself would hash it in Python code.
SECONDS_CONVERSIONS = {
    MusicTimeValueType.SECONDS.value: (operator.mul, Decimal(1)),
    MusicTimeValueType.MILLISECONDS.value: (operator.truediv, Decimal(1000)),
    MusicTimeValueType.MINUTES.value: (operator.mul, Decimal(60)),
}

# A score index's components' value types, in order: the measure, then the
# beat within it.
SCORE_INDEX_TYPES = (MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT)

# Each value type's least index value and whether its values are whole
# (written as xsd:integer, so a fraction would be lost); every duration's
# least value is 0.  Keyed by the enum value, as SECONDS_CONVERSIONS is.
TIME_VALUE_RANGES = {
    **{unit: (0, False) for unit in SECONDS_CONVERSIONS},
    MusicTimeValueType.MEASURE.value: (1, True),
    MusicTimeValueType.BEAT.value: (1, False),
}


def in_seconds(value: Decimal, value_type: MusicTimeValueType) -> Decimal | None:
    """``value`` in seconds, or None when ``value_type`` is no signal-time
    type (``SECONDS_CONVERSIONS``)."""
    conversion = SECONDS_CONVERSIONS.get(value_type._value_)
    if conversion is None:
        return None
    operation, operand = conversion
    return operation(value, operand)


@dataclass(frozen=True, slots=True)
class AnnotatorType:
    """Classification of an annotator: Human, Machine, Crowdsourcing, or custom."""

    name: str


HUMAN = AnnotatorType("Human")
MACHINE = AnnotatorType("Machine")
CROWDSOURCING = AnnotatorType("Crowdsourcing")
BUILTIN_ANNOTATOR_TYPES = (HUMAN, MACHINE, CROWDSOURCING)


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
    annotator: Annotator
    interval: MusicTimeInterval
    observations: tuple[MusicObservation, ...]


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
    """Single-component index for signal time."""
    return MusicTimeIndex((MusicTimeIndexComponent(as_decimal(seconds),
                                                   value_type),))


def make_score_index(measure: Decimal | int | str | float,
                     beat: Decimal | int | str | float) -> MusicTimeIndex:
    """Two-component metrical index: the measure, then the beat within it.

    Measures are 1-based integers, beats 1-based decimals (fractional
    positions like 2.5 are fine).
    """
    measure_type, beat_type = SCORE_INDEX_TYPES
    return MusicTimeIndex((
        MusicTimeIndexComponent(as_decimal(measure), measure_type),
        MusicTimeIndexComponent(as_decimal(beat), beat_type),
    ))


def audio_interval(start: Decimal | int | str | float,
                   duration: Decimal | int | str | float,
                   value_type: MusicTimeValueType = MusicTimeValueType.SECONDS,
                   ) -> MusicTimeInterval:
    return MusicTimeInterval(
        index=make_audio_index(start, value_type),
        duration=MusicTimeDuration(as_decimal(duration), value_type),
    )


def score_interval(measure: Decimal | int | str | float,
                   beat: Decimal | int | str | float,
                   duration_beats: Decimal | int | str | float) -> MusicTimeInterval:
    return MusicTimeInterval(
        index=make_score_index(measure, beat),
        duration=MusicTimeDuration(as_decimal(duration_beats),
                                   MusicTimeValueType.BEAT),
    )


# --- operations --------------------------------------------------------------

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
