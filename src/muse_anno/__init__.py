"""muse_anno: JAMS music annotations as a typed annotation-pattern model.

Pipeline: ``parse_jams`` reads a JAMS file faithfully, ``lower_to_model``
turns it into the typed model, ``validate_model`` checks every pattern
constraint, ``emit_graph``/``serialize_turtle``/``serialize_ntriples``
materialize deterministic RDF, and ``answer_cq`` answers the ten
competency questions over the result.
"""

from .cq import CqResult, answer_cq, oracle_cq
from .errors import MuseAnnoError
from .ingest import (
    JamsAnnotationBlock,
    JamsAnnotationMetadata,
    JamsDocument,
    JamsFileMetadata,
    JamsObservationRow,
    LoweringOptions,
    detect_modality_hint,
    lower_to_model,
    parse_jams,
    resolve_annotator,
)
from .iri import IriMinter
from .model import (
    CROWDSOURCING,
    HUMAN,
    MACHINE,
    CHORD_KIND,
    SEGMENT_KIND,
    AnnotationModel,
    Annotator,
    AnnotatorType,
    Modality,
    MusicalObjectRef,
    MusicAnnotation,
    MusicObservation,
    MusicTimeDuration,
    MusicTimeIndex,
    MusicTimeIndexComponent,
    MusicTimeInterval,
    MusicTimeValueType,
    ObjectKind,
    ObservationValue,
    ValueKind,
    audio_interval,
    interval_end,
    make_audio_index,
    make_score_index,
    score_interval,
)
from .rdf import (
    Literal,
    RdfGraph,
    Triple,
    emit_graph,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
)
from .validate import Severity, Violation, explain, validate_model

__version__ = "0.1.0"

__all__ = [
    "AnnotationModel",
    "Annotator",
    "AnnotatorType",
    "CHORD_KIND",
    "CROWDSOURCING",
    "CqResult",
    "HUMAN",
    "IriMinter",
    "JamsAnnotationBlock",
    "JamsAnnotationMetadata",
    "JamsDocument",
    "JamsFileMetadata",
    "JamsObservationRow",
    "Literal",
    "LoweringOptions",
    "MACHINE",
    "Modality",
    "MuseAnnoError",
    "MusicAnnotation",
    "MusicObservation",
    "MusicTimeDuration",
    "MusicTimeIndex",
    "MusicTimeIndexComponent",
    "MusicTimeInterval",
    "MusicTimeValueType",
    "MusicalObjectRef",
    "ObjectKind",
    "ObservationValue",
    "RdfGraph",
    "SEGMENT_KIND",
    "Severity",
    "Triple",
    "ValueKind",
    "Violation",
    "answer_cq",
    "audio_interval",
    "detect_modality_hint",
    "emit_graph",
    "explain",
    "interval_end",
    "lower_to_model",
    "make_audio_index",
    "make_score_index",
    "oracle_cq",
    "parse_jams",
    "parse_turtle",
    "resolve_annotator",
    "score_interval",
    "serialize_ntriples",
    "serialize_turtle",
    "validate_model",
]
