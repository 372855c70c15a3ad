"""Hypothesis strategies generating valid annotation models."""

from __future__ import annotations

from hypothesis import strategies as st

from muse_anno import (
    CHORD_KIND,
    CROWDSOURCING,
    HUMAN,
    MACHINE,
    SEGMENT_KIND,
    AnnotationModel,
    Annotator,
    AnnotatorType,
    IriMinter,
    Modality,
    MusicAnnotation,
    MusicObservation,
    MusicalObjectRef,
    ObjectKind,
    ObservationValue,
    ValueKind,
    audio_interval,
    score_interval,
)

BASE = "http://example.org/"

labels = st.text(min_size=1, max_size=24)
names = st.text(min_size=1, max_size=20)
seconds = st.decimals(min_value=0, max_value=10_000, places=3,
                      allow_nan=False, allow_infinity=False)
beats = st.decimals(min_value=1, max_value=64, places=2,
                    allow_nan=False, allow_infinity=False)
beat_spans = st.decimals(min_value=0, max_value=32, places=2,
                         allow_nan=False, allow_infinity=False)
measures = st.integers(min_value=1, max_value=500)
confidences = st.none() | st.decimals(min_value=0, max_value=1, places=3,
                                      allow_nan=False, allow_infinity=False)

value_kinds = st.sampled_from([CHORD_KIND, SEGMENT_KIND]) | st.from_regex(
    r"[a-z][a-z0-9_]{0,10}", fullmatch=True).map(ValueKind.generic)

annotator_types = st.sampled_from([HUMAN, MACHINE, CROWDSOURCING]) | \
    names.map(AnnotatorType)


@st.composite
def annotation_models(draw, modality: Modality | None = None,
                      max_annotations: int = 2,
                      max_observations: int = 20) -> AnnotationModel:
    """A valid model: passes validate_model with no Errors."""
    if modality is None:
        modality = draw(st.sampled_from([Modality.AUDIO, Modality.SCORE]))
    minter = IriMinter(BASE)
    title = draw(labels)
    kind = ObjectKind.TRACK if modality is Modality.AUDIO else ObjectKind.SCORE
    subject = MusicalObjectRef(
        id=minter.mint(kind.value, [title or "untitled"], key="object"),
        kind=kind,
        title=title,
    )

    annotations = []
    for i in range(draw(st.integers(1, max_annotations))):
        annotator = Annotator(
            id=minter.mint("annotator", [draw(names)], key=("annotator", i)),
            name=draw(st.none() | names),
            annotator_type=draw(annotator_types),
        )
        value_kind = draw(value_kinds)
        observations = []
        for j in range(draw(st.integers(0, max_observations))):
            label = draw(labels)
            value = ObservationValue(
                id=minter.mint("value", ["v", label],
                               key=("value", value_kind, label)),
                kind=value_kind,
                label=label,
            )
            if modality is Modality.AUDIO:
                interval = audio_interval(draw(seconds), draw(seconds))
            else:
                interval = score_interval(draw(measures), draw(beats),
                                          draw(beat_spans))
            observations.append(MusicObservation(
                id=minter.mint("observation", [str(i), str(j)],
                               key=("observation", i, j)),
                modality=modality,
                interval=interval,
                value=value,
                confidence=draw(confidences),
            ))
        if modality is Modality.AUDIO:
            interval = audio_interval(draw(seconds), draw(seconds))
        else:
            interval = score_interval(draw(measures), draw(beats),
                                      draw(beat_spans))
        annotations.append(MusicAnnotation(
            id=minter.mint("annotation", [str(i)], key=("annotation", i)),
            modality=modality,
            annotator=annotator,
            interval=interval,
            observations=tuple(observations),
        ))

    return AnnotationModel(subject=subject, annotations=tuple(annotations),
                           base_iri=BASE)


audio_models = annotation_models(modality=Modality.AUDIO)
score_models = annotation_models(modality=Modality.SCORE)
any_models = annotation_models()
