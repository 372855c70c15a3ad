"""Declarative validation of annotation models.

Each violation code corresponds to one rule of the pattern: the interval,
index and component cardinalities, the modality compatibility between an
annotation and its observations, the single-component shape of audio
indices and the (Measure, Beat) shape of score indices, annotator and
annotator-type cardinality, disjointness of entity identifiers, and the
confidence range.  W-codes are advisory: they flag states the pattern
tolerates but that usually indicate sloppy input.

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
    AUDIO_TIME_TYPES,
    AnnotationModel,
    Annotator,
    AnnotatorType,
    Modality,
    MusicTimeInterval,
    MusicTimeValueType,
)


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
         "A music time index component carries exactly one value and exactly "
         "one value type.",
         "hasTimeValue exactly 1 rdfs:Literal; "
         "hasMusicTimeValueType exactly 1 MusicTimeValueType",
         "Give every component and duration a finite decimal value and a value type."),
    Rule("V4", Severity.ERROR,
         "An annotation only contains observations of its own modality.",
         "a ScoreMusicAnnotation contains ScoreMusicObservations, otherwise "
         "it contains AudioMusicObservations",
         "Attach observations via attach_observation, which enforces the rule."),
    Rule("V5", Severity.ERROR,
         "An audio index is expressed by a single MusicTimeIndexComponent "
         "whose value type is Seconds, Milliseconds or Minutes.",
         "AudioMusicAnnotation/AudioMusicObservation start time: exactly one "
         "component with a signal-time value type",
         "Use make_audio_index for audio entities."),
    Rule("V6", Severity.ERROR,
         "A score index needs two MusicTimeIndexComponents: a Measure followed "
         "by a Beat.",
         "ScoreMusicAnnotation/ScoreMusicObservation start time: two components, "
         "Measure then Beat",
         "Use make_score_index for score entities."),
    Rule("V7", Severity.ERROR,
         "An annotation has one and only one annotator.",
         "hasAnnotator: MusicAnnotation -> Annotator, exactly 1",
         "Give the annotation an Annotator; the ingestion fallback policy "
         "covers unknown ones."),
    Rule("V8", Severity.ERROR,
         "An annotator is classified by exactly one annotator type.",
         "hasAnnotatorType exactly 1 AnnotatorType (Human, Machine, "
         "Crowdsourcing, ...)",
         "Set annotator_type to Human, Machine, Crowdsourcing, or a named custom type."),
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
    for annotation in model.annotations:
        claim(annotation.id, "music annotation")
        _check_annotator(annotation.id, annotation.annotator, model.base_iri,
                         report, claim)
        _check_interval(annotation.id, annotation.interval,
                        annotation.modality, report, claim)
        if not annotation.observations:
            report("W2", annotation.id, "annotation contains no observations")
        for obs in annotation.observations:
            claim(obs.id, "music observation")
            claim(obs.value.id if obs.value else None, "observation value")
            if obs.modality is not annotation.modality:
                report("V4", obs.id,
                       f"{obs.modality.value} observation inside a "
                       f"{annotation.modality.value} annotation")
            end = _check_interval(obs.id, obs.interval, obs.modality,
                                  report, claim)
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


def _check_interval(owner_id: str, interval: object, modality: Modality,
                    report, claim) -> Decimal | None:
    """Check an entity's interval; return its end in seconds when it is
    well-formed (no V1, V2 or V3) with one component, a duration and
    signal-time units, which is what W1 compares, else None."""
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
        if not _is_finite_decimal(component.value) or \
                not isinstance(component.value_type, MusicTimeValueType):
            report("V3", component_iri(owner_id, position),
                   "component needs exactly one finite value and one value type")
            malformed = True
    if duration is not None and (
            not _is_finite_decimal(duration.value)
            or not isinstance(duration.value_type, MusicTimeValueType)):
        report("V3", duration_iri(owner_id),
               "duration needs exactly one finite value and one value type")
        malformed = True
    if malformed:
        return None

    types = [component.value_type for component in index.components]
    if modality is Modality.AUDIO:
        if len(types) != 1 or types[0] not in AUDIO_TIME_TYPES:
            report("V5", index_iri(owner_id),
                   "audio index must be a single Seconds/Milliseconds/Minutes "
                   "component")
    else:
        if types != [MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT]:
            report("V6", index_iri(owner_id),
                   "score index must be (Measure, Beat)")
    if duration is None or len(types) != 1:
        return None
    start = _in_seconds(index.components[0].value, types[0])
    length = _in_seconds(duration.value, duration.value_type)
    return None if start is None or length is None else start + length


def _check_confidence(obs_id: str, confidence: Decimal | None, report) -> None:
    if confidence is None:
        return
    if not _is_finite_decimal(confidence) or not (0 <= confidence <= 1):
        report("V10", obs_id, f"confidence {confidence} outside [0, 1]")


_SECONDS_PER = {
    MusicTimeValueType.SECONDS: Decimal(1),
    MusicTimeValueType.MINUTES: Decimal(60),
}


def _in_seconds(value: Decimal, value_type: MusicTimeValueType) -> Decimal | None:
    if value_type is MusicTimeValueType.MILLISECONDS:
        return value / 1000
    factor = _SECONDS_PER.get(value_type)
    return None if factor is None else value * factor


def _is_finite_decimal(value: object) -> bool:
    return isinstance(value, Decimal) and value.is_finite()
