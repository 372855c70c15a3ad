"""JAMS ingestion: faithful parsing and lowering into the annotation model.

Parsing keeps everything the file says: numbers arrive as Decimals with
their source spelling, sandboxes ride along verbatim, every key a reader
does not take stays in that object's ``extras`` (a curator's in
``extras["curator"]`` of its annotation metadata), and structural
problems raise errors that name the exact JSON path.  Rows, thousands to
a file, are read by one reader of their own rather than key by key, and
a row's JSON paths are formatted only when an error is raised there; so
are those of the sandbox keys score lowering reads.

Lowering closes the semantic gaps JAMS leaves open.  JAMS does not say
whether annotations were made against a signal or a score, so the caller
picks the modality (``detect_modality_hint`` can suggest one).  JAMS has
no annotator/curator policy, so the annotator is resolved as: the
annotation_metadata ``annotator`` block if non-empty, else the curator,
else a synthetic unknown annotator; the type is Machine when
``annotation_tools`` is non-empty and Human otherwise.  Stock JAMS cannot
carry metrical time at all; score lowering therefore reads the per-row
sandbox keys ``measure``, ``beat`` and ``duration_beats`` (this package's
one documented input extension, see docs/mapping.md).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from decimal import Decimal

from .errors import (
    MalformedJson,
    MissingField,
    ScoreLoweringMissingMetricalTime,
    TypeMismatch,
    UnsupportedNamespace,
)
from .iri import DEFAULT_BASE_IRI, IriMinter
from .model import (
    HUMAN,
    MACHINE,
    CHORD_KIND,
    SCORE_INDEX_TYPES,
    SEGMENT_KIND,
    TIME_VALUE_RANGES,
    AnnotationModel,
    Annotator,
    AnnotatorType,
    Modality,
    MusicAnnotation,
    MusicObservation,
    MusicalObjectRef,
    MusicTimeDuration,
    MusicTimeIndex,
    MusicTimeIndexComponent,
    MusicTimeInterval,
    MusicTimeValueType,
    ObjectKind,
    ObservationValue,
    ValueKind,
    audio_interval,
    score_interval,
)
from .util import canonical_json, checked_number, int_digit_limit, line_column


# --- document types ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class JamsObservationRow:
    time: Decimal
    duration: Decimal
    value: str
    confidence: Decimal | None = None
    sandbox: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class JamsAnnotationMetadata:
    curator_name: str | None = None
    curator_email: str | None = None
    annotator: dict = field(default_factory=dict)
    annotation_tools: str | None = None
    version: str | None = None
    corpus: str | None = None
    annotation_rules: str | None = None
    validation: str | None = None
    data_source: str | None = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class JamsAnnotationBlock:
    namespace: str
    data: tuple[JamsObservationRow, ...]
    annotation_metadata: JamsAnnotationMetadata = JamsAnnotationMetadata()
    sandbox: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class JamsFileMetadata:
    jams_version: str = ""
    title: str = ""
    artist: str = ""
    release: str = ""
    duration: Decimal | None = None
    identifiers: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class JamsDocument:
    file_metadata: JamsFileMetadata
    annotations: tuple[JamsAnnotationBlock, ...]
    sandbox: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class LoweringOptions:
    modality: Modality
    base_iri: str = DEFAULT_BASE_IRI
    strict_namespaces: bool = False


# Namespace to value-kind registry; anything else lowers to a generic kind.
NAMESPACE_KINDS: dict[str, ValueKind] = {
    "chord": CHORD_KIND,
    "segment": SEGMENT_KIND,
    "segment_open": SEGMENT_KIND,
}


# --- parsing -----------------------------------------------------------------

def parse_jams(data: bytes | str) -> JamsDocument:
    """Parse a JAMS JSON document without losing anything it says."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            valid = data[:exc.start].decode("utf-8")
            raise _json_error_at(valid, len(valid),
                                 f"invalid UTF-8: {exc.reason}") from exc
    else:
        text = data
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise _json_error_at(text, exc.start, "lone surrogate") from exc

    try:
        raw = json.loads(text, parse_float=Decimal, parse_constant=_refuse)
    except json.JSONDecodeError as exc:
        raise MalformedJson(exc.msg, exc.lineno, exc.colno) from exc
    except (ValueError, ArithmeticError, RecursionError) as exc:
        raise _first_fault(text, isinstance(exc, RecursionError)) from exc
    # A \uD800-\uDFFF escape may decode to a lone surrogate, which no UTF-8
    # output can carry; only texts holding one are looked at closely.
    if "\\" in text and _SURROGATE_ESCAPE_RE.search(text) and (
            error := _first_fault(text)):
        raise error

    rest = _object(raw, "$")
    file_metadata = _parse_file_metadata(
        _take(rest, "file_metadata", dict, "", required=True))
    annotations_raw = _take(rest, "annotations", list, "", required=True)
    try:
        annotations = tuple(
            _parse_block(block, f"annotations[{i}]")
            for i, block in enumerate(annotations_raw)
        )
    except RecursionError as exc:
        # From Python 3.12 on, json.loads accepts values nested deeper than
        # Python code can recurse into, so canonicalising one (an observation
        # value or an annotator map) can overflow.
        raise _first_fault(text, too_deep=True) from exc
    sandbox = _take(rest, "sandbox", dict, "") or {}
    return JamsDocument(file_metadata, annotations, sandbox, rest)


def _refuse(constant: str):  # json.loads passes NaN and Infinity here
    raise ValueError(constant)


_TOO_DEEP = "arrays and objects nested too deeply"
# JSON strings, numbers and brackets, and the NaN and Infinity tokens that
# json.loads accepts and JSON lacks.
_JSON_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?|[\[{]|[\]}]'
    r"|-?Infinity|NaN")
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _first_fault(text: str, too_deep: bool = False) -> MalformedJson | None:
    """Place what json.loads reports unplaced or lets through: the error at
    the first faulty token (NaN or Infinity, an integer literal over the
    conversion limit, a number no Decimal holds, a string holding a lone
    surrogate), else, if ``too_deep``, at the first bracket of the deepest
    level.  A text with two faulty tokens is reported at the first one."""
    limit = int_digit_limit()
    depth = deepest = where = 0
    for token in _JSON_TOKEN_RE.finditer(text):
        literal = token.group()
        digits, fraction, exponent = token.groups()
        message = None
        if literal in "[{":
            depth += 1
            if depth > deepest:
                deepest, where = depth, token.start()
        elif literal in "]}":
            depth -= 1
        elif literal[0] == '"':
            if _SURROGATE_ESCAPE_RE.search(literal):
                try:
                    json.loads(literal).encode("utf-8")
                except UnicodeEncodeError:
                    message = "string holds a lone surrogate"
        elif exponent:  # no other number can be out of Decimal's range
            try:
                Decimal(literal)
            except ArithmeticError:
                message = "number out of range"
        elif not digits:
            message = f"{literal} is not a JSON value"
        elif not fraction and 0 < limit < len(digits):
            message = "integer literal too long"
        if message:
            return _json_error_at(text, token.start(), message)
    return _json_error_at(text, where, _TOO_DEEP) if too_deep else None


def _json_error_at(text: str, where: int, message: str) -> MalformedJson:
    return MalformedJson(message, *line_column(text, where))


def _take(rest: dict, key: str, expected, parent: str,
          required: bool = False):
    """Pop ``key`` from ``rest``, the keys of the JSON object at ``parent``
    not read yet, and check its value.  ``expected`` is a type (which no
    bool meets) or a function ``(value, path)`` that returns the value
    read.  A null reads as absent (None) unless the key is required."""
    path = f"{parent}.{key}" if parent else key
    if key not in rest:
        if required:
            raise MissingField(path)
        return None
    value = rest.pop(key)
    if value is None and not required:
        return value
    if not isinstance(expected, type):
        return expected(value, path)
    if not isinstance(value, expected) or isinstance(value, bool):
        raise TypeMismatch(path, expected.__name__, value)
    return value


def _object(raw: object, path: str) -> dict:
    """A copy of JSON object ``raw`` for ``_take`` to read from."""
    if not isinstance(raw, dict):
        raise TypeMismatch(path, "object", raw)
    return dict(raw)


def _non_negative(value: object, path: str) -> Decimal:
    number = checked_number(value, 0)
    if isinstance(number, str):
        raise TypeMismatch(path, number, value)
    return number


def _parse_file_metadata(raw: dict) -> JamsFileMetadata:
    rest = dict(raw)
    parent = "file_metadata"
    return JamsFileMetadata(
        duration=_take(rest, "duration", _non_negative, parent),
        jams_version=_take(rest, "jams_version", str, parent) or "",
        title=_take(rest, "title", str, parent) or "",
        artist=_take(rest, "artist", str, parent) or "",
        release=_take(rest, "release", str, parent) or "",
        identifiers=_take(rest, "identifiers", dict, parent) or {},
        extras=rest,
    )


def _parse_block(raw: object, path: str) -> JamsAnnotationBlock:
    rest = _object(raw, path)
    namespace = _take(rest, "namespace", _namespace, path, required=True)
    data = _take(rest, "data", list, path, required=True)
    rows = tuple([_parse_row(row, path, j) for j, row in enumerate(data)])
    metadata = _parse_metadata(
        _take(rest, "annotation_metadata", dict, path) or {},
        f"{path}.annotation_metadata")
    sandbox = _take(rest, "sandbox", dict, path) or {}
    return JamsAnnotationBlock(namespace, rows, metadata, sandbox, rest)


def _namespace(value: object, path: str) -> str:
    if value is None:
        raise MissingField(path)
    if not isinstance(value, str) or not value:
        raise TypeMismatch(path, "non-empty string", value)
    return value


def _parse_row(raw: object, block: str, j: int) -> JamsObservationRow:
    """Row ``j`` of the block at ``block``: read as ``_take`` would, with
    each JSON path formatted only to raise there (a value's, only when it
    is no string)."""
    if not isinstance(raw, dict):
        raise TypeMismatch(f"{block}.data[{j}]", "object", raw)
    # All three must be there before any is checked.
    if "time" not in raw or "duration" not in raw or "value" not in raw:
        missing = next(key for key in ("time", "duration", "value")
                       if key not in raw)
        raise MissingField(f"{block}.data[{j}].{missing}")
    rest = dict(raw)
    time = checked_number(rest.pop("time"), 0)
    if isinstance(time, str):
        raise TypeMismatch(f"{block}.data[{j}].time", time, raw["time"])
    duration = checked_number(rest.pop("duration"), 0)
    if isinstance(duration, str):
        raise TypeMismatch(f"{block}.data[{j}].duration", duration,
                           raw["duration"])
    confidence = rest.pop("confidence", None)
    if confidence is not None:
        confidence = checked_number(confidence)
        if isinstance(confidence, str):
            raise TypeMismatch(f"{block}.data[{j}].confidence", confidence,
                               raw["confidence"])
    sandbox = rest.pop("sandbox", None)
    if sandbox is None:
        sandbox = {}
    elif not isinstance(sandbox, dict):
        raise TypeMismatch(f"{block}.data[{j}].sandbox", "dict", sandbox)
    value = rest.pop("value")
    if not isinstance(value, str):
        value = canonical_json(value, f"{block}.data[{j}].value")
    return JamsObservationRow(time, duration, value, confidence, sandbox, rest)


def _parse_metadata(raw: dict, path: str) -> JamsAnnotationMetadata:
    rest = dict(raw)
    curator = dict(_take(rest, "curator", dict, path) or {})
    curator_name = _take(curator, "name", str, f"{path}.curator")
    curator_email = _take(curator, "email", str, f"{path}.curator")
    if curator:
        rest["curator"] = curator  # the curator's keys not read above
    annotator = _take(rest, "annotator", dict, path) or {}
    if annotator:
        # Lowering keys annotators on this form; parse_jams locates an
        # overflow, and a number too long to write is refused here.
        canonical_json(annotator, f"{path}.annotator")
    return JamsAnnotationMetadata(
        curator_name=curator_name,
        curator_email=curator_email,
        annotator=annotator,
        annotation_tools=_take(rest, "annotation_tools", _string, path),
        version=_take(rest, "version", _string, path),
        corpus=_take(rest, "corpus", _string, path),
        annotation_rules=_take(rest, "annotation_rules", _string, path),
        validation=_take(rest, "validation", _string, path),
        data_source=_take(rest, "data_source", _string, path),
        extras=rest,
    )


def _string(value: object, path: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, Decimal)) and not isinstance(value, bool):
        # JAMS in the wild writes e.g. "version": 1.0 as a number.
        return canonical_json(value, path)
    raise TypeMismatch(path, "string", value)


# --- modality hint -----------------------------------------------------------

def detect_modality_hint(doc: JamsDocument) -> Modality | None:
    """Advisory modality suggestion; never overrides the caller's choice.

    Score when every observation row carries the sandbox keys ``measure``
    and ``beat``, audio when none do and the file declares a duration,
    None otherwise (including mixed evidence).  A file with no rows at all
    falls back to the file duration alone.
    """
    rows = sum(len(block.data) for block in doc.annotations)
    metrical = sum("measure" in row.sandbox and "beat" in row.sandbox
                   for block in doc.annotations for row in block.data)
    if rows and metrical == rows:
        return Modality.SCORE
    if not metrical and doc.file_metadata.duration is not None:
        return Modality.AUDIO
    return None


# --- lowering ----------------------------------------------------------------

def lower_to_model(doc: JamsDocument, opts: LoweringOptions) -> AnnotationModel:
    """Lower a parsed document into the typed annotation model.

    One musical object (track for audio, score for score modality), one
    annotation per JAMS annotation block, one observation per data row.
    Since JAMS has no annotation-level interval, each annotation gets one
    synthesized from its observations: from the earliest observation start
    to the latest observation end, in the observations' unit.  For score
    that end is a beat offset, so the span does not cover the measures it
    crosses (docs/mapping.md, "Annotation interval").
    """
    minter = IriMinter(opts.base_iri)
    title = doc.file_metadata.title
    object_disc = title or "untitled"
    kind = ObjectKind.TRACK if opts.modality is Modality.AUDIO else ObjectKind.SCORE
    subject = MusicalObjectRef(
        id=minter.mint(kind.value, [object_disc]),
        kind=kind,
        title=title,
        artist=doc.file_metadata.artist or None,
    )

    return AnnotationModel(
        subject=subject,
        annotations=tuple(
            _lower_block(block, i, object_disc, opts, minter)
            for i, block in enumerate(doc.annotations)),
        base_iri=opts.base_iri,
        file_duration=doc.file_metadata.duration,
    )


def _lower_block(block: JamsAnnotationBlock, i: int, object_disc: str,
                 opts: LoweringOptions, minter: IriMinter) -> MusicAnnotation:
    value_kind = NAMESPACE_KINDS.get(block.namespace)
    if value_kind is None:
        if opts.strict_namespaces:
            raise UnsupportedNamespace(block.namespace,
                                       f"annotations[{i}].namespace")
        value_kind = ValueKind.generic(block.namespace)

    annotator = resolve_annotator(block.annotation_metadata, minter)
    annotation_id = minter.mint("annotation", [object_disc, str(i)])
    # A row index is its own slug, so this gives the IRIs mint would.
    row_root = minter.mint("observation", [object_disc, str(i)]) + "/"

    token = value_kind.namespace or value_kind.token  # a generic kind's namespace
    values: dict[str, ObservationValue] = {}  # one value object per label
    observations = []
    modality = opts.modality
    audio = modality is Modality.AUDIO
    if audio:
        seconds = MusicTimeValueType.SECONDS
    else:
        measure_type, beat_type = SCORE_INDEX_TYPES
        measure_range = TIME_VALUE_RANGES[measure_type._value_]
        beat_range = TIME_VALUE_RANGES[beat_type._value_]
    # The span's first interval, from the least index (the first row of
    # equal ones), and its latest end, both tracked row by row.
    first = least = end = None
    for j, row in enumerate(block.data):
        if audio:
            start = row.time
            interval = MusicTimeInterval(
                MusicTimeIndex((MusicTimeIndexComponent(start, seconds),)),
                MusicTimeDuration(row.duration, seconds))
            finish = start + row.duration
            key = start
        else:
            measure, start, beats = _metrical_fields(row, i, j, measure_range,
                                                     beat_range)
            interval = MusicTimeInterval(
                MusicTimeIndex((MusicTimeIndexComponent(measure, measure_type),
                                MusicTimeIndexComponent(start, beat_type))),
                MusicTimeDuration(beats, beat_type))
            finish = start + beats
            key = (measure, start)
        if first is None or key < least:
            first, least = interval, key
        if end is None or finish > end:
            end = finish
        label = row.value
        value = values.get(label)
        if value is None:
            value_id = minter.mint("value", [token, label],
                                   key=("value", value_kind, label))
            value = values[label] = ObservationValue(value_id, value_kind, label)
        observations.append(MusicObservation(
            row_root + str(j), modality, interval, value, row.confidence))

    if first is None:
        span = (audio_interval(Decimal(0), Decimal(0)) if audio
                else score_interval(1, Decimal(1), Decimal(0)))
    else:
        # From the first index to the latest end, in the last component's
        # unit: for score a beat offset, dropping the measures in between.
        span = MusicTimeInterval(first.index, MusicTimeDuration(
            end - first.index.components[-1].value, first.duration.value_type))
    return MusicAnnotation(annotation_id, modality, annotator, span,
                           tuple(observations))


def resolve_annotator(metadata: JamsAnnotationMetadata,
                      minter: IriMinter) -> Annotator:
    """Resolve the annotator a JAMS block implies.

    Preference order: the metadata ``annotator`` map when non-empty, then
    the curator, then a synthetic unknown annotator; ``annotator_type``
    gives its type.
    """
    atype = annotator_type(metadata)
    if metadata.annotator:
        raw_name = metadata.annotator.get("name")
        name = raw_name if isinstance(raw_name, str) and raw_name else None
        canonical = canonical_json(metadata.annotator)
        disc = name or "annotator-" + _short_hash(canonical)
        key = ("annotator", canonical, atype.name)
    elif metadata.curator_name or metadata.curator_email:
        name = metadata.curator_name or metadata.curator_email
        disc = name
        key = ("annotator", name, metadata.curator_email, atype.name)
    else:
        name = None
        disc = "unknown-annotator"
        key = ("annotator", "unknown", atype.name)
    return Annotator(
        id=minter.mint("annotator", [disc], key=key),
        name=name,
        annotator_type=atype,
    )


def annotator_type(metadata: JamsAnnotationMetadata) -> AnnotatorType:
    """Machine when ``annotation_tools`` is non-empty, Human otherwise."""
    return MACHINE if metadata.annotation_tools else HUMAN


def _short_hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]


def _metrical_fields(row: JamsObservationRow, i: int, j: int,
                     measure_range: tuple, beat_range: tuple,
                     ) -> tuple[Decimal, Decimal, Decimal]:
    """A score row's measure and beat, in their value types'
    ``TIME_VALUE_RANGES``, and its duration in beats, from 0.  A JSON
    path is formatted only to raise there."""
    sandbox = row.sandbox
    keys = ("measure", "beat", "duration_beats")
    if ("measure" not in sandbox or "beat" not in sandbox
            or "duration_beats" not in sandbox):
        raise ScoreLoweringMissingMetricalTime(
            f"annotations[{i}].data[{j}].sandbox",
            next(key for key in keys if key not in sandbox))
    fields = (checked_number(sandbox["measure"], *measure_range),
              checked_number(sandbox["beat"], *beat_range),
              checked_number(sandbox["duration_beats"], 0))
    for key, number in zip(keys, fields):
        if isinstance(number, str):
            raise TypeMismatch(f"annotations[{i}].data[{j}].sandbox.{key}",
                               number, sandbox[key])
    return fields
