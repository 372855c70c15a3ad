"""The ten competency questions, answered two independent ways.

``answer_cq`` works purely over an emitted RDF graph; ``oracle_cq``
computes the same result by walking the typed model, graph-free.  Each
question is one ``_QUESTIONS`` entry: its columns, the kind of entity its
rows start from, whether a subject is required, and one row function per
path.  The two paths share only those facts and the vocabulary mapping
helpers, so comparing them row-for-row exercises the whole emit/query
pipeline.

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
from typing import Callable, Iterable, Iterator

from . import vocab
from .errors import SubjectNotFound, SubjectRequired, UnknownCq
from .model import AnnotationModel
from .rdf import Literal, RdfGraph, Term
from .util import decimal_lexical

_Row = tuple[str, ...]


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


@dataclass(frozen=True)
class _Question:
    columns: tuple[str, ...]
    root: str    # the kind of entity rows start from; a subject must name one
    subject_required: bool
    graph_rows: Callable[[RdfGraph, list[str]], Iterable[_Row]]
    model_rows: Callable[[AnnotationModel, list], Iterable[_Row]]


def _question(cq_id: object, subject: str | None) -> _Question:
    question = None if isinstance(cq_id, bool) or not isinstance(cq_id, int) \
        else _QUESTIONS.get(cq_id)
    if question is None:
        raise UnknownCq(cq_id)
    if question.subject_required and subject is None:
        raise SubjectRequired(cq_id)
    return question


def answer_cq(cq_id: int, graph: RdfGraph, subject: str | None = None) -> CqResult:
    """Answer a competency question over an emitted graph."""
    question = _question(cq_id, subject)
    roots = _graph_roots(graph, question.root, subject)
    return CqResult(cq_id, question.columns,
                    tuple(sorted(question.graph_rows(graph, roots))))


def oracle_cq(cq_id: int, model: AnnotationModel,
              subject: str | None = None) -> CqResult:
    """Answer a competency question by direct model traversal, no graph."""
    question = _question(cq_id, subject)
    roots = _model_roots(model, question.root, subject)
    return CqResult(cq_id, question.columns,
                    tuple(sorted(question.model_rows(model, roots))))


# --- graph path ---------------------------------------------------------------

# Each root kind as a graph pattern: the predicate its entities carry and
# the objects it must reach (None: any object).
_GRAPH_ROOTS = {
    "musical object": (vocab.RDF_TYPE, vocab.OBJECT_CLASSES),
    "annotation": (vocab.RDF_TYPE, vocab.ANNOTATION_CLASSES),
    "observation": (vocab.RDF_TYPE, vocab.OBSERVATION_CLASSES),
    "annotation or observation": (vocab.HAS_ANNOTATOR, None),
}


def _graph_roots(graph: RdfGraph, kind: str, subject: str | None) -> list[str]:
    predicate, objects = _GRAPH_ROOTS[kind]
    if subject is None:
        if objects is None:
            return graph.subjects(predicate)
        roots = []
        for o in sorted(objects):
            roots += graph.subjects(predicate, o)
        # Drop a subject typed twice but keep each class's sorted order, so
        # that the rows come nearly sorted and sorting them is cheap.
        return list(dict.fromkeys(roots))
    found = graph.objects(subject, predicate)
    if objects is not None:
        found = objects.intersection(found)
    if found:
        return [subject]
    raise SubjectNotFound(subject, kind)


def _lex(term: Term | None) -> str:
    if term is None:
        return ""
    return term.lexical if isinstance(term, Literal) else term


def _graph_start(graph: RdfGraph, roots: list[str],
                 frame: bool = False) -> Iterator[_Row]:
    """One row per index component of each root's interval; with ``frame``
    each row also carries the interval's duration."""
    for root in roots:
        interval = graph.value(root, vocab.HAS_MUSIC_TIME_INTERVAL)
        if not isinstance(interval, str):
            continue
        duration = ()
        if frame:
            node = graph.value(interval, vocab.HAS_MUSIC_TIME_DURATION)
            duration = (_lex(graph.value(node, vocab.HAS_TIME_VALUE)),
                        _lex(graph.value(node, vocab.HAS_MUSIC_TIME_VALUE_TYPE))) \
                if isinstance(node, str) else ("", "")
        index = graph.value(interval, vocab.HAS_MUSIC_TIME_INDEX)
        if not isinstance(index, str):
            continue
        for comp in graph.objects(index, vocab.HAS_MUSIC_TIME_INDEX_COMPONENT):
            if isinstance(comp, str):
                yield (root, _lex(graph.value(comp, vocab.HAS_TIME_VALUE)),
                       _lex(graph.value(comp, vocab.HAS_MUSIC_TIME_VALUE_TYPE)),
                       *duration)


def _graph_frame(graph: RdfGraph, roots: list[str]) -> Iterator[_Row]:
    return _graph_start(graph, roots, frame=True)


def _cq1_graph(graph: RdfGraph, roots: list[str]) -> Iterator[_Row]:
    for obj in roots:
        for ann in graph.objects(obj, vocab.HAS_MUSIC_ANNOTATION):
            if not isinstance(ann, str):
                continue
            kinds = set()
            for obs in graph.objects(ann, vocab.INCLUDES_MUSIC_OBSERVATION):
                value = graph.value(obs, vocab.HAS_MUSIC_OBSERVATION_VALUE)
                if isinstance(value, str):
                    kinds.update(graph.types_of(value))
            for ann_type in graph.types_of(ann) or ("",):
                for kind in kinds or ("",):
                    yield obj, ann, ann_type, kind


def _cq7_graph(graph: RdfGraph, roots: list[str]) -> Iterator[_Row]:
    for obs in roots:
        value = graph.value(obs, vocab.HAS_MUSIC_OBSERVATION_VALUE)
        if isinstance(value, str):
            label = _lex(graph.value(value, vocab.RDFS_LABEL))
            for kind in graph.types_of(value) or ("",):
                yield obs, value, kind, label


def _cq8_graph(graph: RdfGraph, roots: list[str]) -> Iterator[_Row]:
    for entity in roots:
        annotator = graph.value(entity, vocab.HAS_ANNOTATOR)
        if isinstance(annotator, str):
            yield (entity, annotator,
                   _lex(graph.value(annotator, vocab.RDFS_LABEL)),
                   _lex(graph.value(annotator, vocab.HAS_ANNOTATOR_TYPE)))


# --- model path (the testing oracle) ------------------------------------------

# Each root kind as the list of model entities it holds.  A root that may be
# an annotation or an observation is an ``(entity, annotation)`` pair, the
# annotation being the one whose annotator the entity has.
_MODEL_ROOTS = {
    "musical object": lambda model: [model.subject] if model.subject else [],
    "annotation": lambda model: list(model.annotations),
    "observation": lambda model: [
        obs for ann in model.annotations for obs in ann.observations],
    "annotation or observation": lambda model: [
        (entity, ann) for ann in model.annotations
        for entity in (ann, *ann.observations)],
}


def _model_roots(model: AnnotationModel, kind: str, subject: str | None) -> list:
    roots = _MODEL_ROOTS[kind](model)
    if subject is None:
        return roots
    for root in roots:
        if (root[0] if isinstance(root, tuple) else root).id == subject:
            return [root]
    raise SubjectNotFound(subject, kind)


def _model_start(model: AnnotationModel, roots: list,
                 frame: bool = False) -> Iterator[_Row]:
    """The model side of ``_graph_start``."""
    for entity in roots:
        interval = entity.interval
        duration = ()
        if frame:
            lexical, _, type_iri = vocab.time_value_terms(interval.duration)
            duration = (lexical, type_iri)
        for comp in interval.index.components:
            lexical, _, type_iri = vocab.time_value_terms(comp)
            yield entity.id, lexical, type_iri, *duration


def _model_frame(model: AnnotationModel, roots: list) -> Iterator[_Row]:
    return _model_start(model, roots, frame=True)


def _cq1_model(model: AnnotationModel, roots: list) -> Iterator[_Row]:
    for obj in roots:
        for ann in model.annotations:
            kinds = {vocab.value_class_iri(obs.value.kind)
                     for obs in ann.observations}
            for kind in kinds or ("",):
                yield obj.id, ann.id, vocab.annotation_class(ann.modality), kind


def _cq8_model(model: AnnotationModel, roots: list) -> Iterator[_Row]:
    for entity, ann in roots:
        annotator = ann.annotator
        yield (entity.id, annotator.id, annotator.name or "",
               vocab.annotator_type_iri(annotator.annotator_type, model.base_iri))


# --- the questions ------------------------------------------------------------

_START = ("component_value", "component_type")
_FRAME = _START + ("duration_value", "duration_type")

_QUESTIONS = {
    1: _Question(("object", "annotation", "annotation_type", "value_kind"),
                 "musical object", False, _cq1_graph, _cq1_model),
    2: _Question(("annotation",) + _FRAME, "annotation", False,
                 _graph_frame, _model_frame),
    3: _Question(("annotation",) + _START, "annotation", True,
                 _graph_start, _model_start),
    4: _Question(
        ("annotation", "observation"), "annotation", False,
        lambda graph, roots: [
            (ann, obs) for ann in roots
            for obs in graph.objects(ann, vocab.INCLUDES_MUSIC_OBSERVATION)
            if isinstance(obs, str)],
        lambda model, roots: [
            (ann.id, obs.id) for ann in roots for obs in ann.observations]),
    5: _Question(("observation",) + _START, "observation", True,
                 _graph_start, _model_start),
    6: _Question(("observation",) + _FRAME, "observation", True,
                 _graph_frame, _model_frame),
    7: _Question(
        ("observation", "value", "value_kind", "label"), "observation", True,
        _cq7_graph,
        lambda model, roots: [
            (obs.id, obs.value.id, vocab.value_class_iri(obs.value.kind),
             obs.value.label) for obs in roots]),
    8: _Question(("subject", "annotator", "annotator_name", "annotator_type"),
                 "annotation or observation", False, _cq8_graph, _cq8_model),
    9: _Question(
        ("observation", "confidence"), "observation", True,
        lambda graph, roots: [
            (obs, _lex(confidence)) for obs in roots
            if (confidence := graph.value(obs, vocab.HAS_CONFIDENCE)) is not None],
        lambda model, roots: [
            (obs.id, decimal_lexical(obs.confidence)) for obs in roots
            if obs.confidence is not None]),
    10: _Question(
        ("annotation", "object"), "annotation", False,
        lambda graph, roots: [
            (ann, obj) for ann in roots
            for obj in graph.subjects(vocab.HAS_MUSIC_ANNOTATION, ann)],
        lambda model, roots: [(ann.id, ann.subject) for ann in roots]),
}
