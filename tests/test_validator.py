"""Validator: clean fixtures, the injection suite, determinism, explain."""

from __future__ import annotations

import json
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse_anno import (
    Annotator,
    AnnotatorType,
    Modality,
    MusicTimeDuration,
    MusicTimeIndex,
    MusicTimeIndexComponent,
    MusicTimeInterval,
    MusicTimeValueType,
    Severity,
    Violation,
    explain,
    score_interval,
    validate_model,
    vocab,
)
from muse_anno.errors import UnknownCode
from muse_anno.iri import component_iri, duration_iri, index_iri, interval_iri
from muse_anno.model import SECONDS_CONVERSIONS
from muse_anno.util import int_digit_limit
from muse_anno.validate import _RANK, RULES

from injections import BROKEN_MODELS, EX, valid_model
from strategies import annotation_models

# The signal-time value types.
AUDIO_TIME_TYPES = frozenset(map(MusicTimeValueType, SECONDS_CONVERSIONS))


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


# Each rule's full text.  The parts that name value or annotator types are
# built from the model's tables; this pins what they come to.
_EXPLAINED = {
    "V1": (
        "V1 [Error]: A music time interval holds exactly one index and "
        "exactly one duration. Constraint: hasMusicTimeIndex exactly 1 "
        "MusicTimeIndex; hasMusicTimeDuration exactly 1 "
        "MusicTimeDuration. Hint: Build intervals through "
        "audio_interval/score_interval so both parts exist."),
    "V2": (
        "V2 [Error]: A music time index holds at least one component. "
        "Constraint: hasMusicTimeIndexComponent min 1 "
        "MusicTimeIndexComponent. Hint: Use make_audio_index or "
        "make_score_index to populate the components."),
    "V3": (
        "V3 [Error]: A music time index component or duration carries "
        "exactly one value and exactly one value type, and the value is "
        "in the type's range. Constraint: hasTimeValue exactly 1 "
        "rdfs:Literal; hasMusicTimeValueType exactly 1 "
        "MusicTimeValueType. Hint: Give every component and duration a "
        "value type and a finite decimal value: Measure values whole; a "
        "Measure or Beat component from 1, any other component or "
        "duration from 0."),
    "V4": (
        "V4 [Error]: An annotation only contains observations of its own "
        "modality. Constraint: a ScoreMusicAnnotation contains "
        "ScoreMusicObservations, otherwise it contains "
        "AudioMusicObservations. Hint: Give every observation its "
        "annotation's modality."),
    "V5": (
        "V5 [Error]: An audio index is expressed by a single "
        "MusicTimeIndexComponent whose value type is Seconds, "
        "Milliseconds or Minutes. Constraint: "
        "AudioMusicAnnotation/AudioMusicObservation start time: exactly "
        "one component with a signal-time value type. Hint: Give audio "
        "indices one Seconds, Milliseconds or Minutes component."),
    "V6": (
        "V6 [Error]: A score index needs two MusicTimeIndexComponents: a "
        "Measure followed by a Beat. Constraint: "
        "ScoreMusicAnnotation/ScoreMusicObservation start time: two "
        "components, Measure then Beat. Hint: Use make_score_index for "
        "score entities."),
    "V7": (
        "V7 [Error]: An annotation has one and only one annotator. "
        "Constraint: hasAnnotator: MusicAnnotation -> Annotator, exactly "
        "1. Hint: Give the annotation an Annotator; the ingestion "
        "fallback policy covers unknown ones."),
    "V8": (
        "V8 [Error]: An annotator is classified by exactly one annotator "
        "type. Constraint: hasAnnotatorType exactly 1 AnnotatorType "
        "(Human, Machine, Crowdsourcing, ...). Hint: Set annotator_type "
        "to Human, Machine, Crowdsourcing, or a named custom type."),
    "V9": (
        "V9 [Error]: Musical object, music annotation, music "
        "observation, observation value, music time interval, annotator "
        "and annotator type are disjoint, so their identifiers never "
        "coincide. Constraint: MusicalObject, MusicAnnotation, "
        "MusicObservation, MusicObservationValue, MusicTimeInterval, "
        "Annotator, AnnotatorType are disjoint concepts. Hint: Mint "
        "every entity its own IRI (IriMinter guarantees uniqueness)."),
    "V10": (
        "V10 [Error]: Confidence, when present, lies in [0, 1]. "
        "Constraint: hasConfidence value within the closed unit "
        "interval. Hint: Scale or drop out-of-range confidences at "
        "ingestion time."),
    "W1": (
        "W1 [Warning]: An observation extends past the declared file "
        "duration. Constraint: observation start + duration <= file "
        "duration (advisory). Hint: Check the source annotation times "
        "against the file metadata."),
    "W2": (
        "W2 [Warning]: An annotation contains no observations. "
        "Constraint: a music annotation is a group of music observations "
        "(advisory). Hint: Drop empty annotation blocks or populate them."),
}


@pytest.mark.parametrize("code", sorted(_EXPLAINED))
def test_explain_gives_each_rule_its_full_text(code):
    assert explain(code) == _EXPLAINED[code]


# --- the two-walk validator as an oracle ------------------------------------------

# A validator that walks the model twice, once for the checks and once more
# for V9, and guards W1 on its own: the reference the one walk must report
# exactly as.

def _two_walk_validate(model):
    found = []

    def report(code, subject, message):
        found.append(Violation(code, subject, message, RULES[code].severity))

    for annotation in model.annotations:
        _oracle_annotator(annotation.id, annotation.annotator, report)
        _oracle_interval(annotation.id, annotation.interval,
                         annotation.modality, report)
        if not annotation.observations:
            report("W2", annotation.id, "annotation contains no observations")
        for obs in annotation.observations:
            if obs.modality is not annotation.modality:
                report("V4", obs.id,
                       f"{obs.modality.value} observation inside a "
                       f"{annotation.modality.value} annotation")
            _oracle_interval(obs.id, obs.interval, obs.modality, report)
            if obs.confidence is not None and (
                    not _finite(obs.confidence)
                    or not (0 <= obs.confidence <= 1)):
                report("V10", obs.id,
                       f"confidence {obs.confidence} outside [0, 1]")
            _oracle_file_duration(obs, model.file_duration, report)
    _oracle_disjointness(model, report)
    found.sort(key=lambda v: (_RANK[v.code], v.subject, v.message))
    return found


def _finite(value):
    return isinstance(value, Decimal) and value.is_finite()


def _oracle_annotator(annotation_id, annotator, report):
    if not isinstance(annotator, Annotator):
        report("V7", annotation_id, "annotation has no annotator")
        return
    atype = annotator.annotator_type
    if not isinstance(atype, AnnotatorType) or not atype.name:
        report("V8", annotator.id, "annotator has no well-formed annotator type")


def _oracle_interval(owner_id, interval, modality, report):
    if not isinstance(interval, MusicTimeInterval):
        report("V1", owner_id, "entity has no music time interval")
        return
    index, duration = interval.index, interval.duration
    if index is None or duration is None:
        report("V1", interval_iri(owner_id),
               "interval must hold exactly one index and one duration")
        if index is None:
            return
    if not index.components:
        report("V2", index_iri(owner_id), "index has no components")
        return
    malformed = False
    for position, component in enumerate(index.components):
        if not _finite(component.value) or \
                not isinstance(component.value_type, MusicTimeValueType):
            report("V3", component_iri(owner_id, position),
                   "component needs exactly one finite value and one value type")
            malformed = True
        elif _oracle_out_of_range(component, "component"):
            report("V3", component_iri(owner_id, position),
                   f"{component.value_type.value} component value "
                   f"{component.value} is out of range")
            malformed = True
    if duration is not None and (
            not _finite(duration.value)
            or not isinstance(duration.value_type, MusicTimeValueType)):
        report("V3", duration_iri(owner_id),
               "duration needs exactly one finite value and one value type")
        malformed = True
    elif duration is not None and _oracle_out_of_range(duration, "duration"):
        report("V3", duration_iri(owner_id),
               f"{duration.value_type.value} duration value {duration.value} "
               "is out of range")
        malformed = True
    if malformed:
        return
    types = [component.value_type for component in index.components]
    if modality is Modality.AUDIO:
        if len(types) != 1 or types[0] not in AUDIO_TIME_TYPES:
            report("V5", index_iri(owner_id),
                   "audio index must be a single Seconds/Milliseconds/Minutes "
                   "component")
    elif types != [MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT]:
        report("V6", index_iri(owner_id), "score index must be (Measure, Beat)")


def _oracle_out_of_range(part, role):
    """A Measure or Beat component below 1, any other part below 0, a
    nonzero value of 1E+999997 or more or below 1E-999996, a zero of more
    than 999996 decimal places, or a Measure that is fractional or has more
    digits than ``str(int)`` writes."""
    value, value_type = part.value, part.value_type
    metrical = value_type in (MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT)
    if value < (1 if metrical and role == "component" else 0):
        return True
    if value.adjusted() < -999996:
        return True
    if value == 0:
        return False
    if value.adjusted() >= 999997:
        return True
    limit = int_digit_limit()
    return value_type is MusicTimeValueType.MEASURE and (
        value != value.to_integral_value()
        or limit and value.adjusted() + 1 > limit)


def _oracle_seconds(value, value_type):
    if value_type is MusicTimeValueType.MILLISECONDS:
        return value / 1000
    factor = {MusicTimeValueType.SECONDS: Decimal(1),
              MusicTimeValueType.MINUTES: Decimal(60)}.get(value_type)
    return None if factor is None else value * factor


def _oracle_file_duration(obs, file_duration, report):
    if file_duration is None or not isinstance(obs.interval, MusicTimeInterval):
        return
    index, duration = obs.interval.index, obs.interval.duration
    if index is None or duration is None or len(index.components) != 1:
        return
    component = index.components[0]
    if not _finite(component.value) or \
            not _finite(getattr(duration, "value", None)) or \
            _oracle_out_of_range(component, "component") or \
            _oracle_out_of_range(duration, "duration"):
        return
    start = _oracle_seconds(component.value, component.value_type)
    length = _oracle_seconds(duration.value, duration.value_type)
    if start is None or length is None:
        return
    if start + length > file_duration:
        report("W1", obs.id,
               f"observation ends at {start + length}s, past file duration "
               f"{file_duration}s")


def _oracle_disjointness(model, report):
    spaces = {}

    def claim(iri, space):
        if iri:
            spaces.setdefault(iri, set()).add(space)

    if model.subject is not None:
        claim(model.subject.id, "musical object")
    for annotation in model.annotations:
        claim(annotation.id, "music annotation")
        if isinstance(annotation.annotator, Annotator):
            claim(annotation.annotator.id, "annotator")
            atype = annotation.annotator.annotator_type
            if isinstance(atype, AnnotatorType) and atype.name:
                claim(vocab.annotator_type_iri(atype, model.base_iri),
                      "annotator type")
        if isinstance(annotation.interval, MusicTimeInterval):
            claim(interval_iri(annotation.id), "music time interval")
        for obs in annotation.observations:
            claim(obs.id, "music observation")
            claim(obs.value.id if obs.value else None, "observation value")
            if isinstance(obs.interval, MusicTimeInterval):
                claim(interval_iri(obs.id), "music time interval")
    for iri in sorted(spaces):
        if len(spaces[iri]) > 1:
            report("V9", iri, "id shared by disjoint spaces: "
                              + ", ".join(sorted(spaces[iri])))


def _with_interval(model, interval):
    """The model with its one observation moved onto ``interval``."""
    annotation = model.annotations[0]
    obs = replace(annotation.observations[0], interval=interval)
    return replace(model, annotations=(
        replace(annotation, observations=(obs,)),))


def _unit_interval(value: str, length: str, unit: MusicTimeValueType):
    return MusicTimeInterval(
        MusicTimeIndex((MusicTimeIndexComponent(Decimal(value), unit),)),
        MusicTimeDuration(Decimal(length), unit))


def _shared_across_annotator_type_and_interval():
    """The annotator, its custom type and the annotation's interval share
    ids with the observation, the annotation and each other."""
    model = valid_model()
    annotation = model.annotations[0]
    obs = annotation.observations[0]
    type_iri = EX + "annotator-type/shared"
    annotator = Annotator(type_iri, "Tester", AnnotatorType("Shared"))
    second = replace(obs, id=interval_iri(annotation.id),
                     value=replace(obs.value, id=annotator.id))
    return replace(model, annotations=(replace(
        annotation, annotator=annotator, observations=(obs, second)),))


# Models on which the two validators could part, with the codes each
# gives: W1 beside another code or in each signal-time unit, and ids
# claimed from every kind of place.
_ORACLE_EDGES = {
    "one Seconds component on a score observation": (lambda: _with_interval(
        replace(valid_model(Modality.SCORE), file_duration=Decimal("2")),
        _unit_interval("1.5", "1", MusicTimeValueType.SECONDS)), ["V6", "W1"]),
    "milliseconds past the end": (lambda: _with_interval(
        replace(valid_model(), file_duration=Decimal("2")),
        _unit_interval("1500", "501", MusicTimeValueType.MILLISECONDS)), ["W1"]),
    "minutes past the end": (lambda: _with_interval(
        replace(valid_model(), file_duration=Decimal("89")),
        _unit_interval("1", "0.5", MusicTimeValueType.MINUTES)), ["W1"]),
    "milliseconds exactly at the end": (lambda: _with_interval(
        replace(valid_model(), file_duration=Decimal("2")),
        _unit_interval("1000", "1000", MusicTimeValueType.MILLISECONDS)), []),
    "ids shared across annotator, annotator type and interval": (
        _shared_across_annotator_type_and_interval, ["V9", "V9"]),
    "a fractional Measure": (lambda: _with_interval(
        valid_model(Modality.SCORE), score_interval("1.5", 1, 2)), ["V3"]),
    "a negative duration past the end": (lambda: _with_interval(
        replace(valid_model(), file_duration=Decimal("2")),
        _unit_interval("3", "-1", MusicTimeValueType.MINUTES)), ["V3"]),
    "minutes at the largest exponent": (lambda: _with_interval(
        replace(valid_model(), file_duration=Decimal("2")),
        _unit_interval("9.9E+999996", "9.9E+999996",
                       MusicTimeValueType.MINUTES)), ["W1"]),
    "seconds past the largest exponent": (lambda: _with_interval(
        valid_model(), _unit_interval("1E+999997", "1",
                                      MusicTimeValueType.SECONDS)), ["V3"]),
    "seconds below the least exponent": (lambda: _with_interval(
        valid_model(), _unit_interval("1E-999997", "1",
                                      MusicTimeValueType.SECONDS)), ["V3"]),
    "a zero duration of too many places": (lambda: _with_interval(
        valid_model(), _unit_interval("1", "0E-999997",
                                      MusicTimeValueType.SECONDS)), ["V3"]),
    "an interval without an index": (lambda: _with_interval(
        valid_model(), MusicTimeInterval(None, MusicTimeDuration(
            Decimal("1"), MusicTimeValueType.SECONDS))), ["V1"]),
    "an interval without a duration": (lambda: _with_interval(
        valid_model(), MusicTimeInterval(MusicTimeIndex((
            MusicTimeIndexComponent(Decimal("1"), MusicTimeValueType.SECONDS),
        )), None)), ["V1"]),
    **{f"broken {code}": (make, [code]) for code, make in BROKEN_MODELS.items()},
}

_file_durations = st.none() | st.decimals(min_value=0, max_value=20_000,
                                          places=2, allow_nan=False,
                                          allow_infinity=False)


@pytest.mark.parametrize("name", sorted(_ORACLE_EDGES))
def test_edge_models_validate_as_the_two_walks(name):
    make, codes = _ORACLE_EDGES[name]
    model = make()
    assert [v.code for v in validate_model(model)] == codes
    assert validate_model(model) == _two_walk_validate(model)


@given(st.one_of(annotation_models(max_observations=6), st.sampled_from(
           [make for make, _ in _ORACLE_EDGES.values()]).map(lambda make: make())),
       _file_durations)
@settings(max_examples=120, deadline=None)
def test_one_walk_reports_as_the_two_walks(model, file_duration):
    for model in (model, replace(model, file_duration=file_duration)):
        assert validate_model(model) == _two_walk_validate(model)


@pytest.mark.parametrize("part", ["component", "duration"])
def test_unhashable_value_type_is_a_v3_not_a_crash(part):
    model = replace(valid_model(), file_duration=Decimal("10"))
    interval = model.annotations[0].observations[0].interval
    if part == "component":
        (component,) = interval.index.components
        interval = replace(interval, index=MusicTimeIndex((
            replace(component, value_type=["Seconds"]),)))
    else:
        interval = replace(interval, duration=replace(
            interval.duration, value_type=["Seconds"]))
    assert _error_codes(_with_interval(model, interval)) == ["V3"]


@pytest.mark.parametrize("part", ["component", "duration"])
@pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity", "-Infinity"])
def test_non_finite_time_value_is_one_v3(part, value):
    model = replace(valid_model(), file_duration=Decimal("10"))
    interval = model.annotations[0].observations[0].interval
    if part == "component":
        (component,) = interval.index.components
        interval = replace(interval, index=MusicTimeIndex((
            replace(component, value=Decimal(value)),)))
    else:
        interval = replace(interval, duration=replace(
            interval.duration, value=Decimal(value)))
    (violation,) = validate_model(_with_interval(model, interval))
    assert (violation.code, violation.message) == (
        "V3", f"{part} needs exactly one finite value and one value type")
