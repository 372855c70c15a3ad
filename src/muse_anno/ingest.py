"""JAMS ingestion: faithful parsing and lowering into the annotation model.

Parsing keeps everything the file says: numbers arrive as Decimals with
their source spelling, sandboxes and unknown keys ride along verbatim, and
structural problems raise errors that name the exact JSON path.

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
import sys
from dataclasses import dataclass, field, replace
from decimal import Decimal
from enum import Enum

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
    SEGMENT_KIND,
    AnnotationModel,
    Annotator,
    Modality,
    MusicAnnotation,
    MusicObservation,
    MusicalObjectRef,
    ObjectKind,
    ObservationValue,
    ValueKind,
    audio_interval,
    interval_end,
    score_interval,
)
from .util import canonical_json, line_column, require_number


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

    def to_json_data(self) -> dict:
        """Reassemble a JSON-ready structure (Decimals preserved) covering
        every known field plus sandboxes and extras."""
        fm = self.file_metadata
        file_metadata: dict = {
            "jams_version": fm.jams_version,
            "title": fm.title,
            "artist": fm.artist,
            "release": fm.release,
            "identifiers": fm.identifiers,
            **fm.extras,
        }
        if fm.duration is not None:
            file_metadata["duration"] = fm.duration
        annotations = []
        for block in self.annotations:
            md = block.annotation_metadata
            metadata: dict = dict(md.extras)
            if md.curator_name is not None or md.curator_email is not None:
                metadata["curator"] = {}
                if md.curator_name is not None:
                    metadata["curator"]["name"] = md.curator_name
                if md.curator_email is not None:
                    metadata["curator"]["email"] = md.curator_email
            metadata["annotator"] = md.annotator
            for key in _METADATA_STRINGS:
                value = getattr(md, key)
                if value is not None:
                    metadata[key] = value
            rows = []
            for row in block.data:
                out: dict = {"time": row.time, "duration": row.duration,
                             "value": row.value, **row.extras}
                if row.confidence is not None:
                    out["confidence"] = row.confidence
                if row.sandbox:
                    out["sandbox"] = row.sandbox
                rows.append(out)
            annotations.append({
                "namespace": block.namespace,
                "data": rows,
                "annotation_metadata": metadata,
                "sandbox": block.sandbox,
                **block.extras,
            })
        return {
            "annotations": annotations,
            "file_metadata": file_metadata,
            "sandbox": self.sandbox,
            **self.extras,
        }


class ModalityHint(Enum):
    AUDIO = "audio"
    SCORE = "score"
    UNKNOWN = "unknown"


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
        raw = json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise MalformedJson(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # an integer past the int conversion limit
        raise _unlocated_json_error(text, "integer literal too long") from exc
    except RecursionError as exc:
        raise _unlocated_json_error(text, _TOO_DEEP) from exc
    # A \uD800-\uDFFF escape may decode to a lone surrogate, which no UTF-8
    # output can carry; only texts holding one are looked at closely.
    if "\\" in text and _SURROGATE_ESCAPE_RE.search(text):
        _reject_lone_surrogates(text)

    if not isinstance(raw, dict):
        raise TypeMismatch("$", "object", raw)

    file_metadata = _parse_file_metadata(_require(raw, "file_metadata", dict))
    annotations_raw = _require(raw, "annotations", list)
    try:
        annotations = tuple(
            _parse_block(block, f"annotations[{i}]")
            for i, block in enumerate(annotations_raw)
        )
    except RecursionError as exc:
        # From Python 3.12 on, json.loads accepts values nested deeper than
        # Python code can recurse into, so canonicalising one (an observation
        # value or an annotator map) can overflow.
        raise _unlocated_json_error(text, _TOO_DEEP) from exc
    sandbox = _optional(raw, "sandbox", dict, "sandbox") or {}
    extras = {k: v for k, v in raw.items()
              if k not in ("annotations", "file_metadata", "sandbox")}
    return JamsDocument(file_metadata, annotations, sandbox, extras)


_TOO_DEEP = "arrays and objects nested too deeply"
_JSON_TOKEN_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?|[\[{]|[\]}]')


def _unlocated_json_error(text: str, message: str) -> MalformedJson:
    """Locate a failure json.loads reports without a position: the first
    integer literal over the conversion limit, or else the first bracket
    at the deepest nesting level."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    depth = deepest = where = 0
    for token in _JSON_TOKEN_RE.finditer(text):
        digits, fraction, exponent = token.groups()
        if digits and not fraction and not exponent and 0 < limit < len(digits):
            where = token.start()
            break
        if token.group() in "[{":
            depth += 1
            if depth > deepest:
                deepest, where = depth, token.start()
        elif token.group() in "]}":
            depth -= 1
    return _json_error_at(text, where, message)


_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(text: str) -> None:
    """Raise MalformedJson at the first string of a parsed JSON text whose
    value holds a surrogate that no escape pairs up."""
    for token in _JSON_TOKEN_RE.finditer(text):
        literal = token.group()
        if literal[0] == '"' and _SURROGATE_ESCAPE_RE.search(literal):
            try:
                json.loads(literal).encode("utf-8")
            except UnicodeEncodeError:
                raise _json_error_at(text, token.start(),
                                     "string holds a lone surrogate") from None


def _json_error_at(text: str, where: int, message: str) -> MalformedJson:
    return MalformedJson(message, *line_column(text, where))


def _require(obj: dict, key: str, expected: type, parent: str = "") -> object:
    path = f"{parent}.{key}" if parent else key
    if key not in obj:
        raise MissingField(path)
    value = obj[key]
    if not isinstance(value, expected) or isinstance(value, bool):
        raise TypeMismatch(path, expected.__name__, value)
    return value


def _optional(obj: dict, key: str, expected: type, path: str):
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, expected) or isinstance(value, bool):
        raise TypeMismatch(path, expected.__name__, value)
    return value


def _parse_file_metadata(raw: dict) -> JamsFileMetadata:
    known = ("jams_version", "title", "artist", "release", "duration",
             "identifiers")
    duration = None
    if raw.get("duration") is not None:
        duration = require_number(raw["duration"], "file_metadata.duration")
        if duration < 0:
            raise TypeMismatch("file_metadata.duration",
                               "non-negative number", raw["duration"])
    return JamsFileMetadata(
        jams_version=_optional(raw, "jams_version", str,
                               "file_metadata.jams_version") or "",
        title=_optional(raw, "title", str, "file_metadata.title") or "",
        artist=_optional(raw, "artist", str, "file_metadata.artist") or "",
        release=_optional(raw, "release", str, "file_metadata.release") or "",
        duration=duration,
        identifiers=_optional(raw, "identifiers", dict,
                              "file_metadata.identifiers") or {},
        extras={k: v for k, v in raw.items() if k not in known},
    )


def _parse_block(raw: object, path: str) -> JamsAnnotationBlock:
    if not isinstance(raw, dict):
        raise TypeMismatch(path, "object", raw)
    namespace = raw.get("namespace")
    if namespace is None:
        raise MissingField(f"{path}.namespace")
    if not isinstance(namespace, str) or not namespace:
        raise TypeMismatch(f"{path}.namespace", "non-empty string", namespace)

    rows = tuple(_parse_row(row, f"{path}.data[{j}]")
                 for j, row in enumerate(_require(raw, "data", list, path)))

    metadata_raw = _optional(raw, "annotation_metadata", dict,
                             f"{path}.annotation_metadata")
    metadata = _parse_metadata(metadata_raw or {}, f"{path}.annotation_metadata")
    sandbox = _optional(raw, "sandbox", dict, f"{path}.sandbox") or {}
    extras = {k: v for k, v in raw.items()
              if k not in ("namespace", "data", "annotation_metadata", "sandbox")}
    return JamsAnnotationBlock(namespace, rows, metadata, sandbox, extras)


def _parse_row(raw: object, path: str) -> JamsObservationRow:
    if not isinstance(raw, dict):
        raise TypeMismatch(path, "object", raw)
    for key in ("time", "duration", "value"):
        if key not in raw:
            raise MissingField(f"{path}.{key}")
    time = require_number(raw["time"], f"{path}.time")
    duration = require_number(raw["duration"], f"{path}.duration")
    if time < 0:
        raise TypeMismatch(f"{path}.time", "non-negative number", raw["time"])
    if duration < 0:
        raise TypeMismatch(f"{path}.duration", "non-negative number",
                           raw["duration"])
    confidence = None
    if raw.get("confidence") is not None:
        confidence = require_number(raw["confidence"], f"{path}.confidence")
    sandbox = _optional(raw, "sandbox", dict, f"{path}.sandbox") or {}
    extras = {k: v for k, v in raw.items()
              if k not in ("time", "duration", "value", "confidence", "sandbox")}
    return JamsObservationRow(
        time=time,
        duration=duration,
        value=_canonical_value(raw["value"]),
        confidence=confidence,
        sandbox=sandbox,
        extras=extras,
    )


def _canonical_value(value: object) -> str:
    return value if isinstance(value, str) else canonical_json(value)


_METADATA_STRINGS = ("annotation_tools", "version", "corpus",
                     "annotation_rules", "validation", "data_source")


def _parse_metadata(raw: dict, path: str) -> JamsAnnotationMetadata:
    curator = _optional(raw, "curator", dict, f"{path}.curator") or {}
    curator_name = _optional(curator, "name", str, f"{path}.curator.name")
    curator_email = _optional(curator, "email", str, f"{path}.curator.email")
    annotator = _optional(raw, "annotator", dict, f"{path}.annotator") or {}
    if annotator:
        # Lowering keys annotators on this form; parse_jams locates an overflow.
        canonical_json(annotator)

    fields: dict[str, str | None] = {}
    for key in _METADATA_STRINGS:
        value = raw.get(key)
        if value is None:
            fields[key] = None
        elif isinstance(value, str):
            fields[key] = value
        elif isinstance(value, (int, Decimal)) and not isinstance(value, bool):
            # JAMS in the wild writes e.g. "version": 1.0 as a number.
            fields[key] = canonical_json(value)
        else:
            raise TypeMismatch(f"{path}.{key}", "string", value)

    known = ("curator", "annotator") + _METADATA_STRINGS
    return JamsAnnotationMetadata(
        curator_name=curator_name,
        curator_email=curator_email,
        annotator=annotator,
        extras={k: v for k, v in raw.items() if k not in known},
        **fields,
    )


# --- modality hint -----------------------------------------------------------

def detect_modality_hint(doc: JamsDocument) -> ModalityHint:
    """Advisory modality suggestion; never overrides the caller's choice.

    Score when every observation row carries the metrical sandbox keys,
    Audio when none do and the file declares a duration, Unknown otherwise
    (including mixed evidence).  A file with no rows at all falls back to
    the file duration alone.
    """
    rows = [row for block in doc.annotations for row in block.data]
    has_duration = doc.file_metadata.duration is not None
    if not rows:
        return ModalityHint.AUDIO if has_duration else ModalityHint.UNKNOWN
    metrical = ["measure" in row.sandbox and "beat" in row.sandbox
                for row in rows]
    if all(metrical):
        return ModalityHint.SCORE
    if not any(metrical) and has_duration:
        return ModalityHint.AUDIO
    return ModalityHint.UNKNOWN


# --- lowering ----------------------------------------------------------------

def lower_to_model(doc: JamsDocument, opts: LoweringOptions) -> AnnotationModel:
    """Lower a parsed document into the typed annotation model.

    One musical object (track for audio, score for score modality), one
    annotation per JAMS annotation block, one observation per data row.
    Since JAMS has no annotation-level interval, each annotation gets a
    synthesized one spanning [earliest observation start, latest
    observation end] in the observations' unit.
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
            _lower_block(block, i, subject, object_disc, opts, minter)
            for i, block in enumerate(doc.annotations)),
        base_iri=opts.base_iri,
        file_duration=doc.file_metadata.duration,
    )


def _lower_block(block: JamsAnnotationBlock, i: int, subject: MusicalObjectRef,
                 object_disc: str, opts: LoweringOptions,
                 minter: IriMinter) -> MusicAnnotation:
    value_kind = NAMESPACE_KINDS.get(block.namespace)
    if value_kind is None:
        if opts.strict_namespaces:
            raise UnsupportedNamespace(block.namespace)
        value_kind = ValueKind.generic(block.namespace)

    annotator = resolve_annotator(block.annotation_metadata, minter)
    annotation_id = minter.mint("annotation", [object_disc, str(i)])
    # A row index is its own slug, so this gives the IRIs mint would.
    row_root = minter.mint("observation", [object_disc, str(i)]) + "/"

    token = value_kind.namespace or value_kind.token  # a generic kind's namespace
    values: dict[str, ObservationValue] = {}  # one value object per label
    observations = []
    for j, row in enumerate(block.data):
        if opts.modality is Modality.AUDIO:
            interval = audio_interval(row.time, row.duration)
        else:
            interval = score_interval(*_metrical_fields(row, i, j))
        label = row.value
        value = values.get(label)
        if value is None:
            value_id = minter.mint("value", [token, label],
                                   key=("value", value_kind, label))
            value = values[label] = ObservationValue(value_id, value_kind, label)
        observations.append(MusicObservation(
            id=row_root + str(j),
            modality=opts.modality,
            interval=interval,
            value=value,
            confidence=row.confidence,
        ))

    return MusicAnnotation(
        id=annotation_id,
        modality=opts.modality,
        subject=subject.id,
        annotator=annotator,
        interval=_span(observations, opts.modality),
        observations=tuple(observations),
        value_kind=value_kind,
    )


def resolve_annotator(metadata: JamsAnnotationMetadata,
                      minter: IriMinter) -> Annotator:
    """Resolve the annotator a JAMS block implies.

    Preference order: the metadata ``annotator`` map when non-empty, then
    the curator, then a synthetic unknown annotator.  The type is Machine
    when ``annotation_tools`` is non-empty, Human otherwise.
    """
    atype = MACHINE if metadata.annotation_tools else HUMAN
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


def _short_hash(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:8]


def _metrical_fields(row: JamsObservationRow, i: int, j: int,
                     ) -> tuple[int, Decimal, Decimal]:
    path = f"annotations[{i}].data[{j}].sandbox"
    sandbox = row.sandbox
    for key in ("measure", "beat", "duration_beats"):
        if key not in sandbox:
            raise ScoreLoweringMissingMetricalTime(path, key)
    measure_raw = sandbox["measure"]
    if isinstance(measure_raw, bool) or not isinstance(measure_raw, (int, Decimal)):
        raise TypeMismatch(f"{path}.measure", "positive integer", measure_raw)
    if isinstance(measure_raw, Decimal):
        if measure_raw != int(measure_raw):
            raise TypeMismatch(f"{path}.measure", "positive integer", measure_raw)
        measure = int(measure_raw)
    else:
        measure = measure_raw
    beat = require_number(sandbox["beat"], f"{path}.beat")
    beats = require_number(sandbox["duration_beats"], f"{path}.duration_beats")
    return measure, beat, beats


def _span(observations: list[MusicObservation], modality: Modality):
    """From the least observation index, ``(seconds,)`` or ``(measure,
    beat)``, with the first row's spelling of equal ones, to the latest
    ``interval_end``.  For score that is a beat offset, so the span counts
    beats from the start's beat and drops the measures in between."""
    if not observations:
        return (audio_interval(Decimal(0), Decimal(0))
                if modality is Modality.AUDIO
                else score_interval(1, Decimal(1), Decimal(0)))
    first = min(observations, key=lambda obs: [
        component.value for component in obs.interval.index.components]).interval
    end = max(interval_end(obs.interval)[0] for obs in observations)
    return replace(first, duration=replace(
        first.duration, value=end - first.index.components[-1].value))
