"""Acceptance suite: one test per criterion, reported in the run summary.

Criteria, in order: fixture fidelity (exact values, zero tolerance, under
one second); byte-identical golden graphs for the two worked usage
examples; the 10/10 violation injection matrix; serialization round-trips
and byte determinism over at least 200 generated models; annotator
property-chain materialization over the same corpus; answer/oracle
equivalence for all ten competency questions on the fixtures and on 50
generated models; modality index shapes with cross-injection failing V4;
and decimal-exact end-time arithmetic on the fixture values.
"""

from __future__ import annotations

import time
from dataclasses import replace
from decimal import Decimal

from hypothesis import given, settings

from muse_anno import (
    LoweringOptions,
    Modality,
    MusicTimeValueType,
    Severity,
    Triple,
    answer_cq,
    emit_graph,
    interval_end,
    lower_to_model,
    oracle_cq,
    parse_jams,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
    validate_model,
    vocab,
)

from conftest import FIXTURES, GOLDEN
from injections import BROKEN_MODELS
from usage_examples import build_michelle_model, build_mozart_model
from strategies import any_models, audio_models, score_models
from test_cq import _all_subject_calls


def test_c1_fixture_fidelity():
    started = time.perf_counter()
    doc = parse_jams((FIXTURES / "bohemian_rhapsody.jams").read_bytes())

    block = doc.annotations[0]
    assert [row.value for row in block.data] == ["N", "Bb:maj6", "C:7"]
    assert [str(row.time) for row in block.data] == ["0.0", "0.459", "4.122"]
    assert [str(row.duration) for row in block.data] == \
        ["0.459", "3.663", "0.789"]
    assert [str(row.confidence) for row in block.data] == ["1.0"] * 3
    assert block.annotation_metadata.curator_name == "Matthias Mauch"
    assert block.annotation_metadata.corpus == "Isophonics"
    assert block.namespace == "chord"
    fm = doc.file_metadata
    assert fm.title == "01 Bohemian Rhapsody"
    assert fm.artist == "Queen"
    assert str(fm.duration) == "358.293"
    assert fm.jams_version == "0.2.0"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"parse and checks took {elapsed:.3f}s"


def test_c2_usage_example_golden_graphs():
    mozart = serialize_turtle(emit_graph(build_mozart_model()))
    assert mozart == (GOLDEN / "mozart_chords.ttl").read_text(encoding="utf-8")
    michelle = serialize_turtle(emit_graph(build_michelle_model()))
    assert michelle == (GOLDEN / "michelle_segments.ttl").read_text(
        encoding="utf-8")


def test_c3_violation_injection_matrix():
    outcomes = {}
    for code, build in BROKEN_MODELS.items():
        errors = [v.code for v in validate_model(build())
                  if v.severity is Severity.ERROR]
        outcomes[code] = errors
    assert outcomes == {code: [code] for code in BROKEN_MODELS}
    assert len(outcomes) == 10


@given(any_models)
@settings(max_examples=200)
def test_c4_round_trip_and_byte_determinism(model):
    graph = emit_graph(model)
    turtle = serialize_turtle(graph)
    assert parse_turtle(turtle) == graph
    assert serialize_turtle(graph) == turtle
    ntriples = serialize_ntriples(graph)
    assert serialize_ntriples(graph) == ntriples
    assert len(ntriples.splitlines()) == len(graph)
    assert list(parse_turtle(ntriples)) == list(graph)


@given(any_models)
@settings(max_examples=200)
def test_c5_property_chain_materialization(model):
    graph = emit_graph(model)
    for annotation in model.annotations:
        annotator = annotation.annotator.id
        annotation_row = answer_cq(8, graph, annotation.id).rows[0]
        for obs in annotation.observations:
            assert Triple(obs.id, vocab.HAS_ANNOTATOR, annotator) in graph
            obs_row = answer_cq(8, graph, obs.id).rows[0]
            assert obs_row[1:] == annotation_row[1:]


def test_c6_cq_oracle_equivalence_on_fixtures_and_generated():
    fixture_models = [
        lower_to_model(
            parse_jams((FIXTURES / "bohemian_rhapsody.jams").read_bytes()),
            LoweringOptions(modality=Modality.AUDIO)),
        lower_to_model(
            parse_jams((FIXTURES / "michelle.jams").read_bytes()),
            LoweringOptions(modality=Modality.AUDIO)),
        build_mozart_model(),
        build_michelle_model(),
    ]
    for model in fixture_models:
        _assert_cq_equivalence(model)

    @given(any_models)
    @settings(max_examples=50)
    def run(model):
        _assert_cq_equivalence(model)

    run()


def _assert_cq_equivalence(model):
    graph = emit_graph(model)
    for cq, subject in _all_subject_calls(model):
        assert answer_cq(cq, graph, subject) == oracle_cq(cq, model, subject), \
            f"CQ{cq} subject={subject}"


def test_c7_modality_shapes():
    @given(audio_models)
    @settings(max_examples=50)
    def audio_shape(model):
        codes = [v.code for v in validate_model(model)
                 if v.severity is Severity.ERROR]
        assert "V5" not in codes and codes == []
        for annotation in model.annotations:
            for entity in (annotation, *annotation.observations):
                components = entity.interval.index.components
                assert len(components) == 1
                assert components[0].value_type is MusicTimeValueType.SECONDS

    @given(score_models)
    @settings(max_examples=50)
    def score_shape(model):
        codes = [v.code for v in validate_model(model)
                 if v.severity is Severity.ERROR]
        assert "V6" not in codes and codes == []
        for annotation in model.annotations:
            for entity in (annotation, *annotation.observations):
                assert [c.value_type for c in
                        entity.interval.index.components] == \
                    [MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT]

    @given(audio_models.filter(lambda m: any(a.observations
                                             for a in m.annotations)),
           score_models.filter(lambda m: any(a.observations
                                             for a in m.annotations)))
    @settings(max_examples=50)
    def cross_injection(audio_model, score_model):
        donor = next(a for a in score_model.annotations if a.observations)
        foreign = replace(donor.observations[0], id="http://example.org/alien")
        target = next(a for a in audio_model.annotations if a.observations)
        injected = replace(target,
                           observations=target.observations + (foreign,))
        annotations = tuple(injected if a.id == target.id else a
                            for a in audio_model.annotations)
        broken = replace(audio_model, annotations=annotations)
        codes = {v.code for v in validate_model(broken)
                 if v.severity is Severity.ERROR}
        assert "V4" in codes

    audio_shape()
    score_shape()
    cross_injection()


def test_c8_end_time_arithmetic():
    doc = parse_jams((FIXTURES / "bohemian_rhapsody.jams").read_bytes())
    model = lower_to_model(doc, LoweringOptions(modality=Modality.AUDIO))
    second_chord = model.annotations[0].observations[1]
    end, unit = interval_end(second_chord.interval)
    assert unit is MusicTimeValueType.SECONDS
    assert str(end) == "4.122"
    assert end == Decimal("4.122")
    third_chord_start = doc.annotations[0].data[2].time
    assert end == third_chord_start
    assert str(end) == str(third_chord_start)
