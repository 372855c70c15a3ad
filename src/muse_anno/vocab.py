"""RDF vocabulary of the music annotation pattern.

Namespace and term spellings follow the published pattern
(https://purl.org/andreapoltronieri/music-annotation-pattern) with
fragment-style terms.  Two property names are our own coinage and are
flagged as such in docs/mapping.md: ``hasMusicAnnotation`` (musical object
to annotation) and ``hasMusicObservationValue`` (observation to value).
Display names (object titles, value labels, annotator names) ride on
``rdfs:label``.
"""

from __future__ import annotations

from .iri import DEFAULT_BASE_IRI, base_root, slug
from .model import (
    AnnotatorType,
    Modality,
    MusicTimeValueType,
    ObjectKind,
    ValueKind,
)
from .util import decimal_lexical, integer_lexical

MAP = "https://purl.org/andreapoltronieri/music-annotation-pattern#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF + "type"
RDFS_LABEL = RDFS + "label"

XSD_STRING = XSD + "string"
XSD_DECIMAL = XSD + "decimal"
XSD_INTEGER = XSD + "integer"

# Classes.
TRACK = MAP + "Track"
SCORE = MAP + "Score"
AUDIO_MUSIC_ANNOTATION = MAP + "AudioMusicAnnotation"
SCORE_MUSIC_ANNOTATION = MAP + "ScoreMusicAnnotation"
AUDIO_MUSIC_OBSERVATION = MAP + "AudioMusicObservation"
SCORE_MUSIC_OBSERVATION = MAP + "ScoreMusicObservation"
MUSIC_TIME_INTERVAL = MAP + "MusicTimeInterval"
MUSIC_TIME_INDEX = MAP + "MusicTimeIndex"
MUSIC_TIME_INDEX_COMPONENT = MAP + "MusicTimeIndexComponent"
MUSIC_TIME_DURATION = MAP + "MusicTimeDuration"
ANNOTATOR = MAP + "Annotator"
MUSIC_OBSERVATION_VALUE = MAP + "MusicObservationValue"
CHORD = MAP + "Chord"
SEGMENT = MAP + "Segment"

# Individuals: time value types.
SECONDS = MAP + "Seconds"
MILLISECONDS = MAP + "Milliseconds"
MINUTES = MAP + "Minutes"
MEASURE = MAP + "Measure"
BEAT = MAP + "Beat"

# Individuals: annotator types.
HUMAN = MAP + "Human"
MACHINE = MAP + "Machine"
CROWDSOURCING = MAP + "Crowdsourcing"

# Properties.
HAS_MUSIC_ANNOTATION = MAP + "hasMusicAnnotation"
INCLUDES_MUSIC_OBSERVATION = MAP + "includesMusicObservation"
HAS_ANNOTATOR = MAP + "hasAnnotator"
IS_ANNOTATOR_OF = MAP + "isAnnotatorOf"
HAS_ANNOTATOR_TYPE = MAP + "hasAnnotatorType"
HAS_MUSIC_TIME_INTERVAL = MAP + "hasMusicTimeInterval"
HAS_MUSIC_TIME_INDEX = MAP + "hasMusicTimeIndex"
HAS_MUSIC_TIME_DURATION = MAP + "hasMusicTimeDuration"
HAS_MUSIC_TIME_INDEX_COMPONENT = MAP + "hasMusicTimeIndexComponent"
HAS_MUSIC_TIME_VALUE_TYPE = MAP + "hasMusicTimeValueType"
HAS_TIME_VALUE = MAP + "hasTimeValue"
HAS_CONFIDENCE = MAP + "hasConfidence"
HAS_MUSIC_OBSERVATION_VALUE = MAP + "hasMusicObservationValue"

ANNOTATION_CLASSES = frozenset({AUDIO_MUSIC_ANNOTATION, SCORE_MUSIC_ANNOTATION})
OBSERVATION_CLASSES = frozenset({AUDIO_MUSIC_OBSERVATION, SCORE_MUSIC_OBSERVATION})
OBJECT_CLASSES = frozenset({TRACK, SCORE})
VALUE_CLASSES = frozenset({CHORD, SEGMENT, MUSIC_OBSERVATION_VALUE})

DEFAULT_PREFIXES = {
    "ex": DEFAULT_BASE_IRI,
    "map": MAP,
    "rdf": RDF,
    "rdfs": RDFS,
    "xsd": XSD,
}


# --- model <-> vocabulary mapping ------------------------------------------
#
# These helpers are the single source of truth for how typed model values
# appear in RDF.  Both the emitter and the model-side query oracle use them,
# so the two paths cannot drift apart silently.

# Datatype and value-type IRI of each time value type, keyed by the enum
# value: looking a member up by itself would hash it in Python code.
_TIME_TERMS = {
    MusicTimeValueType.SECONDS.value: (XSD_DECIMAL, SECONDS),
    MusicTimeValueType.MILLISECONDS.value: (XSD_DECIMAL, MILLISECONDS),
    MusicTimeValueType.MINUTES.value: (XSD_DECIMAL, MINUTES),
    MusicTimeValueType.MEASURE.value: (XSD_INTEGER, MEASURE),
    MusicTimeValueType.BEAT.value: (XSD_DECIMAL, BEAT),
}

_BUILTIN_ANNOTATOR_TYPES = {
    "Human": HUMAN,
    "Machine": MACHINE,
    "Crowdsourcing": CROWDSOURCING,
}


def object_class(kind: ObjectKind) -> str:
    return TRACK if kind is ObjectKind.TRACK else SCORE


def annotation_class(modality: Modality) -> str:
    return AUDIO_MUSIC_ANNOTATION if modality is Modality.AUDIO \
        else SCORE_MUSIC_ANNOTATION


def observation_class(modality: Modality) -> str:
    return AUDIO_MUSIC_OBSERVATION if modality is Modality.AUDIO \
        else SCORE_MUSIC_OBSERVATION


def value_class_iri(kind: ValueKind) -> str:
    """RDF class of an observation value.

    Chord and segment values get the specialised classes; any other kind
    falls back to the base observation-value class.
    """
    if kind.token == "chord":
        return CHORD
    if kind.token == "segment":
        return SEGMENT
    return MUSIC_OBSERVATION_VALUE


def annotator_type_iri(atype: AnnotatorType, base_iri: str) -> str:
    """IRI of an annotator-type individual.

    Builtin types map to the vocabulary individuals; custom types become
    instance-side individuals under the base IRI.  Custom names that slug
    to the same token share one IRI, which is harmless for querying.
    """
    builtin = _BUILTIN_ANNOTATOR_TYPES.get(atype.name)
    if builtin is not None:
        return builtin
    return f"{base_root(base_iri)}annotator-type/{slug(atype.name)}"


def time_value_terms(part) -> tuple[str, str, str]:
    """Lexical form, datatype and value-type IRI of a time component or
    duration, from one lookup of its value type: integer spelling for
    measures, fixed-point decimal for everything else."""
    datatype, type_iri = _TIME_TERMS[part.value_type._value_]
    if datatype is XSD_INTEGER:
        return integer_lexical(part.value), datatype, type_iri
    return decimal_lexical(part.value), datatype, type_iri
