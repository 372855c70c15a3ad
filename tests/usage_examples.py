"""Hand-built models for the two bundled usage examples.

These mirror the canonical demonstrations of the pattern: chord
annotations over a score (Mozart's Piano Sonata no. 1 in C major) and
structural segment annotations over an audio track (The Beatles'
*Michelle*).  Entity IRIs are hand-assigned instance names; the emitted
graphs are frozen byte-for-byte in tests/golden/.
"""

from __future__ import annotations

from decimal import Decimal

from muse_anno import (
    CHORD_KIND,
    HUMAN,
    SEGMENT_KIND,
    AnnotationModel,
    Annotator,
    Modality,
    MusicAnnotation,
    MusicObservation,
    MusicalObjectRef,
    ObjectKind,
    ObservationValue,
    audio_interval,
    score_interval,
)

EX = "http://example.org/"


def build_mozart_model() -> AnnotationModel:
    """Score modality: measure+beat indices, beat durations, no confidence."""
    annotator = Annotator(
        id=EX + "annotator/harmony-annotator",
        name="Harmony Annotator",
        annotator_type=HUMAN,
    )
    chord_c = ObservationValue(EX + "value/chord/c", CHORD_KIND, "C")
    chord_g7 = ObservationValue(EX + "value/chord/g7", CHORD_KIND, "G7")
    observations = (
        MusicObservation(
            id=EX + "ChordObservation1",
            modality=Modality.SCORE,
            interval=score_interval(1, 1, 2),
            value=chord_c,
        ),
        MusicObservation(
            id=EX + "ChordObservation2",
            modality=Modality.SCORE,
            interval=score_interval(1, 3, 2),
            value=chord_g7,
        ),
    )
    annotation = MusicAnnotation(
        id=EX + "ScoreAnnotation",
        modality=Modality.SCORE,
        annotator=annotator,
        interval=score_interval(1, 1, 4),
        observations=observations,
    )
    subject = MusicalObjectRef(
        id=EX + "MozartPianoSonataScore",
        kind=ObjectKind.SCORE,
        title="Piano Sonata no. 1 in C major (Allegro)",
        artist="Wolfgang Amadeus Mozart",
    )
    return AnnotationModel(subject=subject, annotations=(annotation,))


def build_michelle_model() -> AnnotationModel:
    """Audio modality: single Seconds components, segment values."""
    annotator = Annotator(
        id=EX + "annotator/matthias-mauch",
        name="Matthias Mauch",
        annotator_type=HUMAN,
    )
    silence = ObservationValue(EX + "value/segment/silence", SEGMENT_KIND,
                               "Silence")
    intro = ObservationValue(EX + "value/segment/intro", SEGMENT_KIND, "Intro")
    observations = (
        MusicObservation(
            id=EX + "SegmentObservation1",
            modality=Modality.AUDIO,
            interval=audio_interval(Decimal("0.0"), Decimal("0.465")),
            value=silence,
        ),
        MusicObservation(
            id=EX + "SegmentObservation2",
            modality=Modality.AUDIO,
            interval=audio_interval(Decimal("0.465"), Decimal("17.935")),
            value=intro,
        ),
    )
    annotation = MusicAnnotation(
        id=EX + "MichelleSegmentAnnotation",
        modality=Modality.AUDIO,
        annotator=annotator,
        interval=audio_interval(Decimal("0.0"), Decimal("18.400")),
        observations=observations,
    )
    subject = MusicalObjectRef(
        id=EX + "BeatlesMichelleTrack",
        kind=ObjectKind.TRACK,
        title="Michelle",
        artist="The Beatles",
    )
    return AnnotationModel(subject=subject, annotations=(annotation,))
