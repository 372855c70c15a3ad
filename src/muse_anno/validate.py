"""Declarative validation of annotation models.

Each violation code corresponds to one rule of the pattern: the interval,
index and component cardinalities, the modality compatibility between an
annotation and its observations, the single-component shape of audio
indices and the two-component shape of score indices, annotator and
annotator-type cardinality, disjointness of entity identifiers, and the
ranges of time values and confidences.  This is the one place a model's
time values are checked: the model factories only build, and JAMS
ingestion checks the same ranges (``util.checked_number``) only to name a
bad number's JSON path.  V5 and W1 read the signal-time value types and
their seconds from ``model.in_seconds``, and V6 reads the score index's
value types from ``model.SCORE_INDEX_TYPES``.  The rule texts and the V5
and V6 messages name types from those tables, ``model.TIME_VALUE_RANGES``
and ``model.BUILTIN_ANNOTATOR_TYPES``, and are built once, at import.
W-codes are advisory: they flag states the pattern tolerates but that
usually indicate sloppy input.

Checks are hierarchical so that a fixture breaking exactly one rule earns
exactly one code: a missing index reports V1 and suppresses the index
shape checks, an empty index reports V2 and suppresses V5/V6, and so on.
The model is walked once: each check decides an entity's well-formedness
in one place, W1 is worked out only for an interval that check accepted,
and V9 is reported from the identifiers claimed along the way.  Reports
are deterministic: sorted by code rank, then subject IRI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from . import vocab
from .errors import UnknownCode
from .iri import component_iri, duration_iri, index_iri, interval_iri
from .model import (
    BUILTIN_ANNOTATOR_TYPES,
    SCORE_INDEX_TYPES,
    SECONDS_CONVERSIONS,
    TIME_VALUE_RANGES,
    AnnotationModel,
    Annotator,
    AnnotatorType,
    Modality,
    MusicTimeInterval,
    MusicTimeValueType,
    in_seconds,
)
from .util import checked_number


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    subject: str
    message: str
    severity: Severity

    def to_json_data(self) -> dict:
        return {"code": self.code, "subject": self.subject,
                "severity": self.severity.value, "message": self.message}

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_data(), ensure_ascii=False)


@dataclass(frozen=True, slots=True)
class Rule:
    code: str
    severity: Severity
    rule: str
    axiom: str
    hint: str


def _either(names) -> str:
    """``names`` as "A, B or C"."""
    *rest, last = names
    return f"{', '.join(rest)} or {last}" if rest else last


# The type names the rule texts and messages quote, from the model's tables.
_SIGNAL_UNITS = _either(SECONDS_CONVERSIONS)
_WHOLE = _either(t for t, (_, whole) in TIME_VALUE_RANGES.items() if whole)
_FROM_ONE = _either(t for t, (least, _) in TIME_VALUE_RANGES.items() if least == 1)
_MEASURE, _BEAT = (value_type.value for value_type in SCORE_INDEX_TYPES)
_BUILTIN_TYPES = ", ".join(atype.name for atype in BUILTIN_ANNOTATOR_TYPES)
_V5_MESSAGE = \
    f"audio index must be a single {'/'.join(SECONDS_CONVERSIONS)} component"
_V6_MESSAGE = f"score index must be ({_MEASURE}, {_BEAT})"

_RULES = [
    Rule("V1", Severity.ERROR,
         "A music time interval holds exactly one index and exactly one duration.",
         "hasMusicTimeIndex exactly 1 MusicTimeIndex; "
         "hasMusicTimeDuration exactly 1 MusicTimeDuration",
         "Build intervals through audio_interval/score_interval so both parts exist."),
    Rule("V2", Severity.ERROR,
         "A music time index holds at least one component.",
         "hasMusicTimeIndexComponent min 1 MusicTimeIndexComponent",
         "Use make_audio_index or make_score_index to populate the components."),
    Rule("V3", Severity.ERROR,
         "A music time index component or duration carries exactly one value "
         "and exactly one value type, and the value is in the type's range.",
         "hasTimeValue exactly 1 rdfs:Literal; "
         "hasMusicTimeValueType exactly 1 MusicTimeValueType",
         "Give every component and duration a value type and a finite decimal "
         f"value: {_WHOLE} values whole; a {_FROM_ONE} component from 1, "
         "any other component or duration from 0."),
    Rule("V4", Severity.ERROR,
         "An annotation only contains observations of its own modality.",
         "a ScoreMusicAnnotation contains ScoreMusicObservations, otherwise "
         "it contains AudioMusicObservations",
         "Give every observation its annotation's modality."),
    Rule("V5", Severity.ERROR,
         "An audio index is expressed by a single MusicTimeIndexComponent "
         f"whose value type is {_SIGNAL_UNITS}.",
         "AudioMusicAnnotation/AudioMusicObservation start time: exactly one "
         "component with a signal-time value type",
         f"Give audio indices one {_SIGNAL_UNITS} component."),
    Rule("V6", Severity.ERROR,
         "A score index needs two MusicTimeIndexComponents: a "
         f"{_MEASURE} followed by a {_BEAT}.",
         "ScoreMusicAnnotation/ScoreMusicObservation start time: two components, "
         f"{_MEASURE} then {_BEAT}",
         "Use make_score_index for score entities."),
    Rule("V7", Severity.ERROR,
         "An annotation has one and only one annotator.",
         "hasAnnotator: MusicAnnotation -> Annotator, exactly 1",
         "Give the annotation an Annotator; the ingestion fallback policy "
         "covers unknown ones."),
    Rule("V8", Severity.ERROR,
         "An annotator is classified by exactly one annotator type.",
         f"hasAnnotatorType exactly 1 AnnotatorType ({_BUILTIN_TYPES}, ...)",
         f"Set annotator_type to {_BUILTIN_TYPES}, or a named custom type."),
    Rule("V9", Severity.ERROR,
         "Musical object, music annotation, music observation, observation "
         "value, music time interval, annotator and annotator type are "
         "disjoint, so their identifiers never coincide.",
         "MusicalObject, MusicAnnotation, MusicObservation, "
         "MusicObservationValue, MusicTimeInterval, Annotator, AnnotatorType "
         "are disjoint concepts",
         "Mint every entity its own IRI (IriMinter guarantees uniqueness)."),
    Rule("V10", Severity.ERROR,
         "Confidence, when present, lies in [0, 1].",
         "hasConfidence value within the closed unit interval",
         "Scale or drop out-of-range confidences at ingestion time."),
    Rule("W1", Severity.WARNING,
         "An observation extends past the declared file duration.",
         "observation start + duration <= file duration (advisory)",
         "Check the source annotation times against the file metadata."),
    Rule("W2", Severity.WARNING,
         "An annotation contains no observations.",
         "a music annotation is a group of music observations (advisory)",
         "Drop empty annotation blocks or populate them."),
]

RULES: dict[str, Rule] = {rule.code: rule for rule in _RULES}
_RANK = {rule.code: position for position, rule in enumerate(_RULES)}


def explain(code: str) -> str:
    """Human-readable rule text for a violation code."""
    rule = RULES.get(code)
    if rule is None:
        raise UnknownCode(code)
    return f"{rule.code} [{rule.severity.value}]: {rule.rule} " \
           f"Constraint: {rule.axiom}. Hint: {rule.hint}"


def validate_model(model: AnnotationModel) -> list[Violation]:
    """All violations in the model, sorted by code rank then subject IRI.

    One walk over the model: each identifier is claimed for V9 where the
    walk has seen that its entity exists, and V9 is reported from the
    claims once the walk is done.
    """
    found: list[Violation] = []
    # The first space to claim each IRI; a set of them only once a second,
    # different space claims it.
    spaces: dict[str, str] = {}
    shared: dict[str, set[str]] = {}

    def report(code: str, subject: str, message: str) -> None:
        found.append(Violation(code, subject, message, RULES[code].severity))

    def claim(iri: str | None, space: str) -> None:
        if iri:
            first = spaces.setdefault(iri, space)
            if first != space:
                shared.setdefault(iri, {first}).add(space)

    if model.subject is not None:
        claim(model.subject.id, "musical object")
    file_duration = model.file_duration
    # Enum members bound once: reading one off its class is slow.
    audio = Modality.AUDIO
    for annotation in model.annotations:
        claim(annotation.id, "music annotation")
        _check_annotator(annotation.id, annotation.annotator, model.base_iri,
                         report, claim)
        _check_interval(annotation.id, annotation.interval,
                        annotation.modality is not audio, report, claim)
        if not annotation.observations:
            report("W2", annotation.id, "annotation contains no observations")
        for obs in annotation.observations:
            claim(obs.id, "music observation")
            claim(obs.value.id if obs.value else None, "observation value")
            if obs.modality is not annotation.modality:
                report("V4", obs.id,
                       f"{obs.modality.value} observation inside a "
                       f"{annotation.modality.value} annotation")
            end = _check_interval(obs.id, obs.interval,
                                  obs.modality is not audio, report, claim)
            _check_confidence(obs.id, obs.confidence, report)
            if end is not None and file_duration is not None \
                    and end > file_duration:
                report("W1", obs.id,
                       f"observation ends at {end}s, past file duration "
                       f"{file_duration}s")

    for iri in sorted(shared):
        report("V9", iri,
               f"id shared by disjoint spaces: {', '.join(sorted(shared[iri]))}")
    found.sort(key=lambda v: (_RANK[v.code], v.subject, v.message))
    return found


def _check_annotator(annotation_id: str, annotator: object, base_iri: str,
                     report, claim) -> None:
    if not isinstance(annotator, Annotator):
        report("V7", annotation_id, "annotation has no annotator")
        return
    claim(annotator.id, "annotator")
    atype = annotator.annotator_type
    if not isinstance(atype, AnnotatorType) or not atype.name:
        report("V8", annotator.id, "annotator has no well-formed annotator type")
    else:
        claim(vocab.annotator_type_iri(atype, base_iri), "annotator type")


def _check_interval(owner_id: str, interval: object, score: bool,
                    report, claim) -> Decimal | None:
    """Check an entity's interval, a ``score`` one's or an audio one's.
    Return its end in seconds when it is well-formed (no V1, V2 or V3)
    with one component, a duration and signal-time units, which is what
    W1 compares, else None."""
    if not isinstance(interval, MusicTimeInterval):
        report("V1", owner_id, "entity has no music time interval")
        return None
    iv = interval_iri(owner_id)
    claim(iv, "music time interval")
    index = interval.index
    duration = interval.duration
    if index is None or duration is None:
        report("V1", iv, "interval must hold exactly one index and one duration")
        if index is None:
            return None
    if not index.components:
        report("V2", index_iri(owner_id), "index has no components")
        return None

    malformed = False
    for position, component in enumerate(index.components):
        fault = _time_value_fault(component, "component")
        if fault:
            report("V3", component_iri(owner_id, position), fault)
            malformed = True
    fault = duration is not None and _time_value_fault(duration, "duration")
    if fault:
        report("V3", duration_iri(owner_id), fault)
        malformed = True
    if malformed:
        return None

    components = index.components
    start = (in_seconds(components[0].value, components[0].value_type)
             if len(components) == 1 else None)
    if not score:
        if start is None:  # not one component of a signal-time type
            report("V5", index_iri(owner_id), _V5_MESSAGE)
    elif tuple([component.value_type
                for component in components]) != SCORE_INDEX_TYPES:
        report("V6", index_iri(owner_id), _V6_MESSAGE)
    if duration is None or start is None:
        return None
    length = in_seconds(duration.value, duration.value_type)
    return None if length is None else start + length


def _time_value_fault(part, role: str) -> str | None:
    """Why a component or duration breaks V3, or None: it needs a finite
    decimal value and a value type, and the value in the type's range,
    where a duration's least value is 0."""
    value, value_type = part.value, part.value_type
    if isinstance(value, Decimal) and isinstance(value_type, MusicTimeValueType):
        minimum, integral = TIME_VALUE_RANGES[value_type._value_]
        if not isinstance(checked_number(
                value, 0 if role == "duration" else minimum, integral), str):
            return None
        if value.is_finite():
            return f"{value_type.value} {role} value {value} is out of range"
    return f"{role} needs exactly one finite value and one value type"


def _check_confidence(obs_id: str, confidence: Decimal | None, report) -> None:
    if confidence is None:
        return
    if not (isinstance(confidence, Decimal) and confidence.is_finite()
            and 0 <= confidence <= 1):
        report("V10", obs_id, f"confidence {confidence} outside [0, 1]")
