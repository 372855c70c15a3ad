"""Competency questions: worked examples, oracle equivalence, errors."""

from __future__ import annotations

import hashlib
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from muse_anno import (answer_cq, audio_interval, emit_graph, oracle_cq,
                       parse_turtle, vocab)
from muse_anno.cq import _QUESTIONS
from muse_anno.errors import SubjectNotFound, SubjectRequired, UnknownCq

from injections import valid_model
from usage_examples import build_michelle_model, build_mozart_model


def _all_subject_calls(model):
    """Every (cq_id, subject) pair that is valid for this model."""
    calls = []
    annotations = model.annotations
    observations = [o for a in annotations for o in a.observations]
    for cq in (1, 2, 4, 8, 10):
        calls.append((cq, None))
    if model.subject is not None:
        calls.append((1, model.subject.id))
    for ann in annotations:
        for cq in (2, 3, 4, 8, 10):
            calls.append((cq, ann.id))
    for obs in observations:
        for cq in (5, 6, 7, 8, 9):
            calls.append((cq, obs.id))
    return calls


def test_cq7_first_fixture_observation(bohemian_graph, bohemian_model):
    obs = bohemian_model.annotations[0].observations[0]
    result = answer_cq(7, bohemian_graph, obs.id)
    assert result.columns == ("observation", "value", "value_kind", "label")
    assert result.rows == ((obs.id, obs.value.id, vocab.CHORD, "N"),)


def test_cq9_mozart_observation_is_empty():
    model = build_mozart_model()
    graph = emit_graph(model)
    obs = model.annotations[0].observations[0]
    assert answer_cq(9, graph, obs.id).rows == ()
    assert oracle_cq(9, model, obs.id).rows == ()


def test_cq9_fixture_observation_has_confidence(bohemian_graph, bohemian_model):
    obs = bohemian_model.annotations[0].observations[0]
    assert answer_cq(9, bohemian_graph, obs.id).rows == ((obs.id, "1.0"),)


def test_cq8_michelle_annotator_is_human():
    model = build_michelle_model()
    graph = emit_graph(model)
    annotation = model.annotations[0]
    result = answer_cq(8, graph, annotation.id)
    assert result.rows == ((annotation.id, annotation.annotator.id,
                            "Matthias Mauch", vocab.HUMAN),)


def test_cq10_mozart_annotation_addresses_the_score():
    model = build_mozart_model()
    graph = emit_graph(model)
    annotation = model.annotations[0]
    result = answer_cq(10, graph, annotation.id)
    assert result.rows == ((annotation.id,
                            "http://example.org/MozartPianoSonataScore"),)


def test_cq4_michelle_annotation_has_two_observations():
    model = build_michelle_model()
    graph = emit_graph(model)
    result = answer_cq(4, graph, model.annotations[0].id)
    assert len(result.rows) == 2


def test_cq3_fixture_annotation_start(bohemian_graph, bohemian_model,
                                      bohemian_doc):
    annotation = bohemian_model.annotations[0]
    result = answer_cq(3, bohemian_graph, annotation.id)
    # Independent oracle: minimum over the source rows, computed by scan.
    earliest = min(row.time for block in bohemian_doc.annotations
                   for row in block.data)
    assert result.rows == ((annotation.id, str(earliest), vocab.SECONDS),)
    assert str(earliest) == "0.0"


def test_cq2_reports_synthesized_time_frame(bohemian_graph, bohemian_model):
    annotation = bohemian_model.annotations[0]
    result = answer_cq(2, bohemian_graph, annotation.id)
    assert result.rows == ((annotation.id, "0.0", vocab.SECONDS,
                            "4.911", vocab.SECONDS),)


def test_cq1_returns_both_type_columns(bohemian_graph, bohemian_model):
    result = answer_cq(1, bohemian_graph)
    assert result.rows == ((bohemian_model.subject.id,
                            bohemian_model.annotations[0].id,
                            vocab.AUDIO_MUSIC_ANNOTATION, vocab.CHORD),)


TWO_TYPES_TTL = """\
@prefix map: <https://purl.org/andreapoltronieri/music-annotation-pattern#> .
@prefix ex: <http://example.org/> .
ex:track a map:Track ; map:hasMusicAnnotation ex:ann , ex:bare .
ex:ann a map:AudioMusicAnnotation , map:ScoreMusicAnnotation ;
    map:includesMusicObservation ex:obs .
ex:bare map:includesMusicObservation ex:obs .
ex:obs a map:AudioMusicObservation ; map:hasMusicObservationValue ex:v .
ex:v a map:Chord , map:Segment ; <http://www.w3.org/2000/01/rdf-schema#label> "C" .
"""


def test_cq1_cq7_give_one_row_per_type_on_a_parsed_graph():
    graph = parse_turtle(TWO_TYPES_TTL)
    track, ann, bare, obs, value = (
        "http://example.org/" + name for name in ("track", "ann", "bare", "obs", "v"))
    assert answer_cq(1, graph).rows == tuple(sorted(
        [(track, ann, ann_type, kind)
         for ann_type in (vocab.AUDIO_MUSIC_ANNOTATION, vocab.SCORE_MUSIC_ANNOTATION)
         for kind in (vocab.CHORD, vocab.SEGMENT)]
        + [(track, bare, "", kind) for kind in (vocab.CHORD, vocab.SEGMENT)]))
    assert answer_cq(7, graph, obs).rows == (
        (obs, value, vocab.CHORD, "C"), (obs, value, vocab.SEGMENT, "C"))


LITERAL_LINKS_TTL = """\
@prefix map: <https://purl.org/andreapoltronieri/music-annotation-pattern#> .
@prefix ex: <http://example.org/> .
ex:track a map:Track ; map:hasMusicAnnotation "ex:lost" , ex:good .
ex:good a map:AudioMusicAnnotation ; map:hasMusicTimeInterval ex:iv .
ex:iv map:hasMusicTimeIndex ex:ix ; map:hasMusicTimeDuration ex:du .
ex:ix map:hasMusicTimeIndexComponent ex:c .
ex:c map:hasTimeValue 0.5 ; map:hasMusicTimeValueType map:Seconds .
ex:du map:hasTimeValue 2 ; map:hasMusicTimeValueType map:Seconds .
ex:flat a map:AudioMusicAnnotation ; map:hasMusicTimeInterval "ex:iv" .
ex:shallow a map:AudioMusicAnnotation ; map:hasMusicTimeInterval ex:iv2 .
ex:iv2 map:hasMusicTimeIndex "ex:ix" ; map:hasMusicTimeDuration ex:du .
"""


def test_cq1_cq2_cq3_skip_links_to_literals_on_a_parsed_graph():
    graph = parse_turtle(LITERAL_LINKS_TTL)
    track, good, flat, shallow = (
        "http://example.org/" + name
        for name in ("track", "good", "flat", "shallow"))
    assert answer_cq(1, graph).rows == (
        (track, good, vocab.AUDIO_MUSIC_ANNOTATION, ""),)
    assert answer_cq(2, graph).rows == (
        (good, "0.5", vocab.SECONDS, "2", vocab.SECONDS),)
    assert answer_cq(3, graph, good).rows == ((good, "0.5", vocab.SECONDS),)
    assert answer_cq(3, graph, flat).rows == ()
    assert answer_cq(3, graph, shallow).rows == ()


def test_cq5_cq6_observation_time_frame(bohemian_graph, bohemian_model):
    obs = bohemian_model.annotations[0].observations[1]
    start = answer_cq(5, bohemian_graph, obs.id)
    assert start.rows == ((obs.id, "0.459", vocab.SECONDS),)
    frame = answer_cq(6, bohemian_graph, obs.id)
    assert frame.rows == ((obs.id, "0.459", vocab.SECONDS,
                           "3.663", vocab.SECONDS),)


def test_oracle_equivalence_on_fixture_models(bohemian_model, michelle_model,
                                              mozart_score_model):
    for model in (bohemian_model, michelle_model, mozart_score_model,
                  build_mozart_model(), build_michelle_model(),
                  replace(valid_model(), subject=None)):
        graph = emit_graph(model)
        for cq, subject in _all_subject_calls(model):
            assert answer_cq(cq, graph, subject) == \
                oracle_cq(cq, model, subject), f"CQ{cq} subject={subject}"


def test_a_model_without_subject_links_no_annotation_to_an_object():
    model = replace(valid_model(), subject=None)
    graph = emit_graph(model)
    assert [t for t in graph if t.predicate == vocab.HAS_MUSIC_ANNOTATION] == []
    assert answer_cq(10, graph).rows == ()
    assert oracle_cq(10, model).rows == ()


def test_the_oracle_keeps_no_reference_to_a_model():
    model = valid_model()
    before = sys.getrefcount(model)
    oracle_cq(3, model, model.annotations[0].id)
    assert sys.getrefcount(model) == before


def test_the_oracle_answers_a_shared_id_from_its_first_root():
    first = valid_model().annotations[0]
    second = replace(first, interval=audio_interval("5.0", "1.0"))
    model = replace(valid_model(), annotations=(first, second))
    rows = oracle_cq(3, model, first.id).rows
    assert rows == oracle_cq(3, replace(model, annotations=(first,)), first.id).rows
    assert rows != oracle_cq(3, replace(model, annotations=(second,)), first.id).rows


def test_cq8_observation_matches_annotation(bohemian_model, bohemian_graph):
    annotation = bohemian_model.annotations[0]
    annotation_row = answer_cq(8, bohemian_graph, annotation.id).rows[0]
    for obs in annotation.observations:
        obs_row = answer_cq(8, bohemian_graph, obs.id).rows[0]
        assert obs_row[1:] == annotation_row[1:]


def test_totality_and_unknown_ids(bohemian_graph, bohemian_model):
    for cq in range(1, 11):
        subject = None
        if cq in (3,):
            subject = bohemian_model.annotations[0].id
        elif cq in (5, 6, 7, 9):
            subject = bohemian_model.annotations[0].observations[0].id
        result = answer_cq(cq, bohemian_graph, subject)
        assert result.cq_id == cq
    for bad in (0, 11, -3, "7", None, True):
        with pytest.raises(UnknownCq):
            answer_cq(bad, bohemian_graph)
        with pytest.raises(UnknownCq):
            oracle_cq(bad, bohemian_model)


def test_subject_required(bohemian_graph, bohemian_model):
    for cq in (3, 5, 6, 7, 9):
        with pytest.raises(SubjectRequired):
            answer_cq(cq, bohemian_graph)
        with pytest.raises(SubjectRequired):
            oracle_cq(cq, bohemian_model)


def test_subject_not_found(bohemian_graph, bohemian_model):
    ghost = "http://example.org/observation/ghost"
    with pytest.raises(SubjectNotFound):
        answer_cq(7, bohemian_graph, ghost)
    with pytest.raises(SubjectNotFound):
        oracle_cq(7, bohemian_model, ghost)
    # An annotation IRI is not an observation.
    with pytest.raises(SubjectNotFound):
        answer_cq(5, bohemian_graph, bohemian_model.annotations[0].id)


@pytest.mark.parametrize("cq, kind", [(1, "a musical object"),
                                      (3, "an annotation"),
                                      (7, "an observation"),
                                      (8, "an annotation or observation")])
def test_subject_not_found_names_the_kind_with_its_article(
        bohemian_graph, bohemian_model, cq, kind):
    ghost = "http://example.org/ghost"
    for answer, source in ((answer_cq, bohemian_graph),
                           (oracle_cq, bohemian_model)):
        with pytest.raises(SubjectNotFound) as excinfo:
            answer(cq, source, ghost)
        assert str(excinfo.value) == f"subject {ghost} does not name {kind}"


def test_any_subject_is_answered_or_refused_as_the_oracle_does():
    # Subjects of the wrong class (intervals, values, annotators, an
    # annotation where an observation is expected, ...) must raise
    # SubjectNotFound exactly when the model oracle does.
    for model in (build_mozart_model(), build_michelle_model()):
        graph = emit_graph(model)
        subjects = sorted({t.subject for t in graph})
        for cq in range(1, 11):
            for subject in subjects + ["http://example.org/ghost"]:
                try:
                    answered = answer_cq(cq, graph, subject)
                except SubjectNotFound:
                    with pytest.raises(SubjectNotFound):
                        oracle_cq(cq, model, subject)
                else:
                    assert answered == oracle_cq(cq, model, subject), \
                        f"CQ{cq} subject={subject}"


def test_rows_are_sorted(bohemian_graph):
    result = answer_cq(4, bohemian_graph)
    assert list(result.rows) == sorted(result.rows)


def test_tsv_and_json_rendering(bohemian_graph, bohemian_model):
    obs = bohemian_model.annotations[0].observations[0]
    result = answer_cq(7, bohemian_graph, obs.id)
    tsv = result.to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "observation\tvalue\tvalue_kind\tlabel"
    assert lines[1].endswith("\tN")
    as_json = result.to_json()
    assert '"cq": 7' in as_json
    assert result.to_tsv() == tsv  # deterministic


def test_tsv_escapes_control_cells():
    from muse_anno.cq import CqResult
    result = CqResult(7, ("a",), (("x\ty\nz",),))
    assert result.to_tsv().splitlines()[1] == "x\\ty\\nz"


def _answers_digest(answer, model) -> str:
    """SHA-256 over the JSON of every valid (cq, subject) call, in order."""
    digest = hashlib.sha256()
    for cq, subject in _all_subject_calls(model):
        digest.update(answer(cq, subject).to_json().encode("utf-8") + b"\n")
    return digest.hexdigest()


# Recorded from the per-question handlers the question table replaced, so a
# wrong column order or root kind shared by both paths still shows here.
PINNED_ANSWER_DIGESTS = {
    "bohemian":
        "8f9212df7d620ddb69fbfc9a25fd5ac3ae943bb3dc3d159b00fa4caa5c560218",
    "michelle":
        "4eae39ed70aaf02a59959dab1b0066d2c5ced5c1604c25bda7e9acd10c834c04",
    "mozart_score":
        "555b051804ac2b2dc6a974752e8413e962e603936018fcfd546088f056891010",
    "usage_mozart":
        "9d564be051d77f33d31ebe2da80eaca13494b3b184d81098588e57d8af1fd5a5",
    "usage_michelle":
        "577c224c140f6590e69fd4beb98680b35706f8e3337dc1f07af8f23c5690b0a6",
}


def test_answers_match_their_pinned_digests(bohemian_model, michelle_model,
                                            mozart_score_model):
    models = {
        "bohemian": bohemian_model,
        "michelle": michelle_model,
        "mozart_score": mozart_score_model,
        "usage_mozart": build_mozart_model(),
        "usage_michelle": build_michelle_model(),
    }
    for name, model in models.items():
        graph = emit_graph(model)
        expected = PINNED_ANSWER_DIGESTS[name]
        assert _answers_digest(
            lambda cq, subject: answer_cq(cq, graph, subject), model) == expected, name
        assert _answers_digest(
            lambda cq, subject: oracle_cq(cq, model, subject), model) == expected, name


CQ_DOC = Path(__file__).resolve().parent.parent / "docs" / "competency_questions.md"


def test_each_documented_query_projects_the_question_columns():
    sections = re.split(r"^### CQ(\d+)\b", CQ_DOC.read_text(encoding="utf-8"),
                        flags=re.M)[1:]
    documented = {int(number): body
                  for number, body in zip(sections[::2], sections[1::2])}
    assert sorted(documented) == sorted(_QUESTIONS)
    for cq, body in documented.items():
        query = re.search(r"```sparql\n(.*?)```", body, re.S)
        assert query is not None, f"CQ{cq} has no sparql block"
        select = re.search(r"SELECT\s+(?:DISTINCT\s+)?(.*?)\s+WHERE",
                           query.group(1), re.S)
        assert select is not None, f"CQ{cq} has no SELECT ... WHERE"
        projected = select.group(1).split()
        assert all(re.fullmatch(r"\?\w+", v) for v in projected), projected
        assert len(projected) == len(_QUESTIONS[cq].columns), f"CQ{cq}"


# Every link the graph-wide CQ1 and CQ8 walks read as single-valued has two
# objects somewhere here, written out of N-Triples order, and annotators and
# values are shared.  Where a pattern expects one object the answer uses the
# first in N-Triples order: a literal sorts before every IRI, so ex:o3's
# annotator and value are literals and it has no CQ7 or CQ8 rows.
SEVERAL_OBJECTS_TTL = """\
@prefix map: <https://purl.org/andreapoltronieri/music-annotation-pattern#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:track a map:Track ; map:hasMusicAnnotation ex:a1 , ex:a2 .
ex:a1 a map:AudioMusicAnnotation ; map:hasAnnotator ex:q , ex:p ;
    map:includesMusicObservation ex:o1 , ex:o2 , ex:o3 .
ex:a2 a map:ScoreMusicAnnotation ; map:hasAnnotator ex:p ;
    map:includesMusicObservation ex:o4 .
ex:o1 a map:AudioMusicObservation ; map:hasAnnotator ex:q , ex:p ;
    map:hasMusicObservationValue ex:v2 , ex:v1 .
ex:o2 a map:AudioMusicObservation ; map:hasAnnotator ex:p ;
    map:hasMusicObservationValue ex:v1 .
ex:o3 a map:AudioMusicObservation ; map:hasAnnotator ex:q , "nobody" ;
    map:hasMusicObservationValue ex:v3 , "lost" .
ex:o4 a map:ScoreMusicObservation ; map:hasAnnotator ex:q ;
    map:hasMusicObservationValue ex:v1 .
ex:p rdfs:label "Zed" , "Ann" ; map:hasAnnotatorType map:Machine , map:Human .
ex:q rdfs:label "Q" .
ex:v1 a map:Segment , map:Chord ; rdfs:label "C" , "B" .
ex:v2 a map:MusicObservationValue .
ex:v3 a ex:Stray .
"""


def _ex(*names: str) -> tuple[str, ...]:
    return tuple("http://example.org/" + name for name in names)


def test_a_link_with_several_objects_answers_with_its_first():
    graph = parse_turtle(SEVERAL_OBJECTS_TTL)
    track, a1, a2, o1, o2, o3, o4, p, q, v1 = _ex(
        "track", "a1", "a2", "o1", "o2", "o3", "o4", "p", "q", "v1")
    cq1 = ((track, a1, vocab.AUDIO_MUSIC_ANNOTATION, vocab.CHORD),
           (track, a1, vocab.AUDIO_MUSIC_ANNOTATION, vocab.SEGMENT),
           (track, a2, vocab.SCORE_MUSIC_ANNOTATION, vocab.CHORD),
           (track, a2, vocab.SCORE_MUSIC_ANNOTATION, vocab.SEGMENT))
    assert answer_cq(1, graph).rows == cq1
    assert answer_cq(1, graph, track).rows == cq1
    cq7 = {o1: ((o1, v1, vocab.CHORD, "B"), (o1, v1, vocab.SEGMENT, "B")),
           o2: ((o2, v1, vocab.CHORD, "B"), (o2, v1, vocab.SEGMENT, "B")),
           o3: (),
           o4: ((o4, v1, vocab.CHORD, "B"), (o4, v1, vocab.SEGMENT, "B"))}
    for obs, rows in cq7.items():
        assert answer_cq(7, graph, obs).rows == rows, obs
    cq8 = {a1: ((a1, p, "Ann", vocab.HUMAN),),
           a2: ((a2, p, "Ann", vocab.HUMAN),),
           o1: ((o1, p, "Ann", vocab.HUMAN),),
           o2: ((o2, p, "Ann", vocab.HUMAN),),
           o3: (),
           o4: ((o4, q, "Q", ""),)}
    assert answer_cq(8, graph).rows == tuple(
        row for rows in cq8.values() for row in rows)
    for entity, rows in cq8.items():
        assert answer_cq(8, graph, entity).rows == rows, entity
