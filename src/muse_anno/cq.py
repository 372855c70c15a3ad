"""The ten competency questions, answered two independent ways.

``answer_cq`` works purely over an emitted RDF graph; ``oracle_cq``
computes the same result by walking the typed model, graph-free.  The two
paths share only the vocabulary mapping helpers, so comparing them
row-for-row exercises the whole emit/query pipeline.

The questions cover: the typing of annotations for a musical object (1),
annotation time frames and start times (2, 3), annotation membership (4),
observation start times, time frames, values and confidences (5, 6, 7, 9),
the annotator and its type for annotations and observations alike (8), and
the musical object an annotation addresses (10).

Results are flat binding tables: fixed column names per question, cells
holding IRIs or bare literal lexical forms, rows sorted lexicographically.
Questions 3, 5, 6, 7 and 9 are entity-specific and require a subject IRI;
for the others a subject is an optional filter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import vocab
from .errors import SubjectNotFound, SubjectRequired, UnknownCq
from .model import AnnotationModel, MusicAnnotation, MusicObservation
from .rdf import Literal, RdfGraph, Term
from .util import decimal_lexical

SUBJECT_REQUIRED = frozenset({3, 5, 6, 7, 9})

_COLUMNS = {
    1: ("object", "annotation", "annotation_type", "value_kind"),
    2: ("annotation", "component_value", "component_type",
        "duration_value", "duration_type"),
    3: ("annotation", "component_value", "component_type"),
    4: ("annotation", "observation"),
    5: ("observation", "component_value", "component_type"),
    6: ("observation", "component_value", "component_type",
        "duration_value", "duration_type"),
    7: ("observation", "value", "value_kind", "label"),
    8: ("subject", "annotator", "annotator_name", "annotator_type"),
    9: ("observation", "confidence"),
    10: ("annotation", "object"),
}


@dataclass(frozen=True)
class CqResult:
    cq_id: int
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def to_tsv(self) -> str:
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(_tsv_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"cq": self.cq_id, "columns": list(self.columns),
             "rows": [list(row) for row in self.rows]},
            ensure_ascii=False,
        )


def _tsv_cell(cell: str) -> str:
    return (cell.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n").replace("\r", "\\r"))


def _result(cq_id: int, rows: list[tuple[str, ...]]) -> CqResult:
    return CqResult(cq_id, _COLUMNS[cq_id], tuple(sorted(rows)))


def _check_cq_id(cq_id: object) -> int:
    if isinstance(cq_id, bool) or not isinstance(cq_id, int) \
            or not 1 <= cq_id <= 10:
        raise UnknownCq(cq_id)
    return cq_id


def _check_subject_given(cq_id: int, subject: str | None) -> None:
    if cq_id in SUBJECT_REQUIRED and subject is None:
        raise SubjectRequired(cq_id)


# --- graph path ---------------------------------------------------------------

def answer_cq(cq_id: int, graph: RdfGraph, subject: str | None = None) -> CqResult:
    """Answer a competency question over an emitted graph."""
    cq_id = _check_cq_id(cq_id)
    _check_subject_given(cq_id, subject)
    return _GRAPH_HANDLERS[cq_id](graph, subject)


def _lex(term: Term | None) -> str:
    if term is None:
        return ""
    return term.lexical if isinstance(term, Literal) else term


def _typed_subjects(graph: RdfGraph, classes: frozenset[str]) -> list[str]:
    found: list[str] = []
    for cls in sorted(classes):
        found.extend(graph.subjects(vocab.RDF_TYPE, cls))
    return sorted(set(found))


def _graph_pick(graph: RdfGraph, subject: str | None, classes: frozenset[str],
                expected: str) -> list[str]:
    if subject is None:
        return _typed_subjects(graph, classes)
    if classes.isdisjoint(graph.types_of(subject)):
        raise SubjectNotFound(subject, expected)
    return [subject]


def _graph_components(graph: RdfGraph, entity: str) -> list[tuple[str, str]]:
    interval = graph.value(entity, vocab.HAS_MUSIC_TIME_INTERVAL)
    if not isinstance(interval, str):
        return []
    index = graph.value(interval, vocab.HAS_MUSIC_TIME_INDEX)
    if not isinstance(index, str):
        return []
    out = []
    for comp in graph.objects(index, vocab.HAS_MUSIC_TIME_INDEX_COMPONENT):
        if isinstance(comp, str):
            out.append((
                _lex(graph.value(comp, vocab.HAS_TIME_VALUE)),
                _lex(graph.value(comp, vocab.HAS_MUSIC_TIME_VALUE_TYPE)),
            ))
    return out


def _graph_duration(graph: RdfGraph, entity: str) -> tuple[str, str]:
    interval = graph.value(entity, vocab.HAS_MUSIC_TIME_INTERVAL)
    duration = graph.value(interval, vocab.HAS_MUSIC_TIME_DURATION) \
        if isinstance(interval, str) else None
    if not isinstance(duration, str):
        return "", ""
    return (_lex(graph.value(duration, vocab.HAS_TIME_VALUE)),
            _lex(graph.value(duration, vocab.HAS_MUSIC_TIME_VALUE_TYPE)))


def _cq1_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for obj in _graph_pick(graph, subject, vocab.OBJECT_CLASSES, "musical object"):
        for ann in graph.objects(obj, vocab.HAS_MUSIC_ANNOTATION):
            if not isinstance(ann, str):
                continue
            ann_type = next(iter(graph.types_of(ann)), "")
            kinds = set()
            for obs in graph.objects(ann, vocab.INCLUDES_MUSIC_OBSERVATION):
                value = graph.value(obs, vocab.HAS_MUSIC_OBSERVATION_VALUE)
                if isinstance(value, str):
                    kinds.update(graph.types_of(value))
            for kind in sorted(kinds) or [""]:
                rows.append((obj, ann, ann_type, kind))
    return _result(1, rows)


def _cq2_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for ann in _graph_pick(graph, subject, vocab.ANNOTATION_CLASSES, "annotation"):
        dv, dt = _graph_duration(graph, ann)
        for cv, ct in _graph_components(graph, ann):
            rows.append((ann, cv, ct, dv, dt))
    return _result(2, rows)


def _cq3_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for ann in _graph_pick(graph, subject, vocab.ANNOTATION_CLASSES, "annotation"):
        for cv, ct in _graph_components(graph, ann):
            rows.append((ann, cv, ct))
    return _result(3, rows)


def _cq4_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for ann in _graph_pick(graph, subject, vocab.ANNOTATION_CLASSES, "annotation"):
        for obs in graph.objects(ann, vocab.INCLUDES_MUSIC_OBSERVATION):
            if isinstance(obs, str):
                rows.append((ann, obs))
    return _result(4, rows)


def _cq5_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for obs in _graph_pick(graph, subject, vocab.OBSERVATION_CLASSES,
                           "observation"):
        for cv, ct in _graph_components(graph, obs):
            rows.append((obs, cv, ct))
    return _result(5, rows)


def _cq6_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for obs in _graph_pick(graph, subject, vocab.OBSERVATION_CLASSES,
                           "observation"):
        dv, dt = _graph_duration(graph, obs)
        for cv, ct in _graph_components(graph, obs):
            rows.append((obs, cv, ct, dv, dt))
    return _result(6, rows)


def _cq7_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for obs in _graph_pick(graph, subject, vocab.OBSERVATION_CLASSES,
                           "observation"):
        value = graph.value(obs, vocab.HAS_MUSIC_OBSERVATION_VALUE)
        if not isinstance(value, str):
            continue
        kind = next(iter(graph.types_of(value)), "")
        label = _lex(graph.value(value, vocab.RDFS_LABEL))
        rows.append((obs, value, kind, label))
    return _result(7, rows)


def _cq8_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    carriers = graph.subjects(vocab.HAS_ANNOTATOR)
    if subject is not None:
        if subject not in carriers:
            raise SubjectNotFound(subject, "annotation or observation")
        carriers = [subject]
    rows = []
    for entity in carriers:
        annotator = graph.value(entity, vocab.HAS_ANNOTATOR)
        if not isinstance(annotator, str):
            continue
        rows.append((
            entity,
            annotator,
            _lex(graph.value(annotator, vocab.RDFS_LABEL)),
            _lex(graph.value(annotator, vocab.HAS_ANNOTATOR_TYPE)),
        ))
    return _result(8, rows)


def _cq9_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for obs in _graph_pick(graph, subject, vocab.OBSERVATION_CLASSES,
                           "observation"):
        confidence = graph.value(obs, vocab.HAS_CONFIDENCE)
        if confidence is not None:
            rows.append((obs, _lex(confidence)))
    return _result(9, rows)


def _cq10_graph(graph: RdfGraph, subject: str | None) -> CqResult:
    rows = []
    for ann in _graph_pick(graph, subject, vocab.ANNOTATION_CLASSES, "annotation"):
        for obj in graph.subjects(vocab.HAS_MUSIC_ANNOTATION, ann):
            rows.append((ann, obj))
    return _result(10, rows)


_GRAPH_HANDLERS = {
    1: _cq1_graph, 2: _cq2_graph, 3: _cq3_graph, 4: _cq4_graph, 5: _cq5_graph,
    6: _cq6_graph, 7: _cq7_graph, 8: _cq8_graph, 9: _cq9_graph, 10: _cq10_graph,
}


# --- model path (the testing oracle) ------------------------------------------

def oracle_cq(cq_id: int, model: AnnotationModel,
              subject: str | None = None) -> CqResult:
    """Answer a competency question by direct model traversal, no graph."""
    cq_id = _check_cq_id(cq_id)
    _check_subject_given(cq_id, subject)
    return _MODEL_HANDLERS[cq_id](model, subject)


def _model_annotations(model: AnnotationModel,
                       subject: str | None) -> list[MusicAnnotation]:
    if subject is None:
        return list(model.annotations)
    annotation = model.find_annotation(subject)
    if annotation is None:
        raise SubjectNotFound(subject, "annotation")
    return [annotation]


def _model_observations(model: AnnotationModel,
                        subject: str | None) -> list[MusicObservation]:
    if subject is None:
        return [obs for ann in model.annotations for obs in ann.observations]
    obs = model.find_observation(subject)
    if obs is None:
        raise SubjectNotFound(subject, "observation")
    return [obs]


def _model_components(entity) -> list[tuple[str, str]]:
    return [
        (vocab.time_value_lexical(c.value, c.value_type),
         vocab.time_type_iri(c.value_type))
        for c in entity.interval.index.components
    ]


def _model_duration(entity) -> tuple[str, str]:
    duration = entity.interval.duration
    return (vocab.time_value_lexical(duration.value, duration.value_type),
            vocab.time_type_iri(duration.value_type))


def _cq1_model(model: AnnotationModel, subject: str | None) -> CqResult:
    if model.subject is None:
        if subject is not None:
            raise SubjectNotFound(subject, "musical object")
        return _result(1, [])
    if subject is not None and subject != model.subject.id:
        raise SubjectNotFound(subject, "musical object")
    rows = []
    for ann in model.annotations:
        kinds = {vocab.value_class_iri(obs.value.kind)
                 for obs in ann.observations}
        for kind in sorted(kinds) or [""]:
            rows.append((model.subject.id, ann.id,
                         vocab.annotation_class(ann.modality), kind))
    return _result(1, rows)


def _cq2_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for ann in _model_annotations(model, subject):
        dv, dt = _model_duration(ann)
        for cv, ct in _model_components(ann):
            rows.append((ann.id, cv, ct, dv, dt))
    return _result(2, rows)


def _cq3_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for ann in _model_annotations(model, subject):
        for cv, ct in _model_components(ann):
            rows.append((ann.id, cv, ct))
    return _result(3, rows)


def _cq4_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for ann in _model_annotations(model, subject):
        for obs in ann.observations:
            rows.append((ann.id, obs.id))
    return _result(4, rows)


def _cq5_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for obs in _model_observations(model, subject):
        for cv, ct in _model_components(obs):
            rows.append((obs.id, cv, ct))
    return _result(5, rows)


def _cq6_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for obs in _model_observations(model, subject):
        dv, dt = _model_duration(obs)
        for cv, ct in _model_components(obs):
            rows.append((obs.id, cv, ct, dv, dt))
    return _result(6, rows)


def _cq7_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for obs in _model_observations(model, subject):
        rows.append((obs.id, obs.value.id,
                     vocab.value_class_iri(obs.value.kind), obs.value.label))
    return _result(7, rows)


def _cq8_model(model: AnnotationModel, subject: str | None) -> CqResult:
    def row(entity_id: str, ann: MusicAnnotation) -> tuple[str, ...]:
        annotator = ann.annotator
        return (
            entity_id,
            annotator.id,
            annotator.name or "",
            vocab.annotator_type_iri(annotator.annotator_type, model.base_iri),
        )

    rows = []
    if subject is None:
        for ann in model.annotations:
            rows.append(row(ann.id, ann))
            for obs in ann.observations:
                rows.append(row(obs.id, ann))
    else:
        ann = model.find_annotation(subject)
        if ann is not None:
            rows.append(row(subject, ann))
        else:
            containing = model.containing_annotation(subject)
            if containing is None:
                raise SubjectNotFound(subject, "annotation or observation")
            rows.append(row(subject, containing))
    return _result(8, rows)


def _cq9_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for obs in _model_observations(model, subject):
        if obs.confidence is not None:
            rows.append((obs.id, decimal_lexical(obs.confidence)))
    return _result(9, rows)


def _cq10_model(model: AnnotationModel, subject: str | None) -> CqResult:
    rows = []
    for ann in _model_annotations(model, subject):
        rows.append((ann.id, ann.subject))
    return _result(10, rows)


_MODEL_HANDLERS = {
    1: _cq1_model, 2: _cq2_model, 3: _cq3_model, 4: _cq4_model, 5: _cq5_model,
    6: _cq6_model, 7: _cq7_model, 8: _cq8_model, 9: _cq9_model, 10: _cq10_model,
}
