"""JAMS parsing and lowering."""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muse_anno import (
    LoweringOptions,
    Modality,
    ModalityHint,
    MusicTimeValueType,
    ObjectKind,
    audio_interval,
    detect_modality_hint,
    emit_graph,
    lower_to_model,
    mint_iri,
    parse_jams,
    score_interval,
    serialize_turtle,
    vocab,
)
from muse_anno.errors import (
    MalformedJson,
    MissingField,
    MuseAnnoError,
    ScoreLoweringMissingMetricalTime,
    TypeMismatch,
    UnsupportedNamespace,
)
from muse_anno import ingest
from muse_anno.util import canonical_json

from conftest import FIXTURES

EMPTY_CORPUS = ('{"annotations":[],"file_metadata":{"jams_version":"0.2.0",'
                '"title":"","artist":"","duration":0},"sandbox":{}}')

# Frozen expected rows: (time, duration, value, confidence).
EXPECTED_ROWS = [
    ("0.0", "0.459", "N", "1.0"),
    ("0.459", "3.663", "Bb:maj6", "1.0"),
    ("4.122", "0.789", "C:7", "1.0"),
]


def test_parse_fixture_rows(bohemian_doc):
    assert len(bohemian_doc.annotations) == 1
    block = bohemian_doc.annotations[0]
    assert block.namespace == "chord"
    got = [(str(r.time), str(r.duration), r.value, str(r.confidence))
           for r in block.data]
    assert got == EXPECTED_ROWS


def test_parse_fixture_file_metadata(bohemian_doc):
    fm = bohemian_doc.file_metadata
    assert fm.title == "01 Bohemian Rhapsody"
    assert fm.artist == "Queen"
    assert fm.release == ""
    assert fm.jams_version == "0.2.0"
    assert str(fm.duration) == "358.293"
    assert fm.identifiers == {}


def test_parse_fixture_annotation_metadata(bohemian_doc):
    md = bohemian_doc.annotations[0].annotation_metadata
    assert md.curator_name == "Matthias Mauch"
    assert md.curator_email == "m.mauch@qmul.ac.uk"
    assert md.annotator == {}
    assert md.corpus == "Isophonics"
    assert md.version == "1.0"
    assert md.annotation_tools == ""
    assert md.annotation_rules == ""
    assert md.validation == ""
    assert md.data_source == ""


def test_parse_round_trips_known_fields(bohemian_source, bohemian_doc):
    """Re-serialized values match the source, decimal-equal for numbers."""
    source = json.loads(bohemian_source, parse_float=Decimal)
    data = bohemian_doc.to_json_data()
    assert data["file_metadata"]["title"] == source["file_metadata"]["title"]
    assert data["file_metadata"]["duration"] == source["file_metadata"]["duration"]
    assert str(data["file_metadata"]["duration"]) == "358.293"
    src_rows = source["annotations"][0]["data"]
    out_rows = data["annotations"][0]["data"]
    for src, out in zip(src_rows, out_rows):
        assert out["time"] == src["time"]
        assert str(out["time"]) == str(src["time"])
        assert out["duration"] == src["duration"]
        assert out["value"] == src["value"]
        assert out["confidence"] == src["confidence"]
    md = data["annotations"][0]["annotation_metadata"]
    assert Decimal(md["version"]) == source["annotations"][0][
        "annotation_metadata"]["version"]


def test_parse_empty_corpus():
    doc = parse_jams(EMPTY_CORPUS)
    assert doc.annotations == ()
    assert str(doc.file_metadata.duration) == "0"


def test_parse_accepts_bytes_and_str(bohemian_source):
    assert parse_jams(bohemian_source) == parse_jams(
        bohemian_source.decode("utf-8"))


def test_malformed_json_reports_position():
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams('{"annotations": [,]}')
    assert excinfo.value.line == 1
    assert excinfo.value.column > 1


def test_invalid_utf8_reports_malformed():
    with pytest.raises(MalformedJson):
        parse_jams(b'{"a": "\xff"}')
    # Located by line and character column, not by byte offset.
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(b'{\n  "t": "\xc3\xa9\xc3\xa9\xff"}')
    assert (excinfo.value.line, excinfo.value.column) == (2, 11)


def test_overlong_integer_reports_malformed_at_the_literal():
    # A fraction and a digit string of the same length are fine; only the
    # integer literal is past Python's int conversion limit.
    long_digits = "7" * 5000
    text = (f'{{"x": 0.{long_digits}, "y": "{long_digits}",\n'
            f' "z": [1, {long_digits}]}}')
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert (excinfo.value.line, excinfo.value.column) == (2, 11)


def test_deep_nesting_reports_malformed():
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(b"[" * 100_000)
    assert (excinfo.value.line, excinfo.value.column) == (1, 100_000)


def _nested_value_jams(depth: int) -> str:
    """A JAMS whose one observation value nests ``depth`` arrays deep."""
    return ('{"annotations":[{"namespace":"chord","data":[{"time":0.0,'
            '"duration":1.0,"value":' + "[" * depth + "]" * depth + '}]}],'
            '"file_metadata":{"title":"x","duration":10.0},"sandbox":{}}')


@pytest.mark.parametrize("depth", [990, 5000])
def test_deeply_nested_value_reports_malformed_at_the_deepest_bracket(depth):
    # Up to Python 3.11 json.loads refuses these; from 3.12 on it nests
    # deeper than Python code can recurse, and canonicalising the value
    # overflows instead.  Both give the same error.
    text = _nested_value_jams(depth)
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert str(excinfo.value) == ("arrays and objects nested too deeply "
                                  f"(line 1, column {text.index('[]') + 1})")


def test_value_overflowing_while_canonicalised_reports_malformed(monkeypatch):
    def overflow(value):
        raise RecursionError
    monkeypatch.setattr(ingest, "canonical_json", overflow)
    text = _nested_value_jams(3)
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert (excinfo.value.line, excinfo.value.column) == (
        1, text.index("[]") + 1)


def _nested_annotator_jams(depth: int) -> str:
    """A JAMS whose one annotator map holds arrays nested ``depth`` deep."""
    return ('{"annotations":[{"namespace":"chord","data":[{"time":0.0,'
            '"duration":1.0,"value":"C"}],"annotation_metadata":{"annotator":'
            '{"name":"x","nest":' + "[" * depth + "]" * depth + '}}}],'
            '"file_metadata":{"title":"x","duration":10.0},"sandbox":{}}')


@pytest.mark.parametrize("depth", [990, 5000])
def test_deeply_nested_annotator_reports_malformed_at_the_deepest_bracket(depth):
    text = _nested_annotator_jams(depth)
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert str(excinfo.value) == ("arrays and objects nested too deeply "
                                  f"(line 1, column {text.index('[]') + 1})")


def test_annotator_overflowing_while_canonicalised_reports_malformed(
        monkeypatch):
    # Lowering canonicalises the annotator map to key the annotator, so
    # parsing must already have found that it can.
    canonical_json = ingest.canonical_json

    def overflow_on_annotator(value):
        if isinstance(value, dict) and "nest" in value:
            raise RecursionError
        return canonical_json(value)
    monkeypatch.setattr(ingest, "canonical_json", overflow_on_annotator)
    text = _nested_annotator_jams(3)
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert str(excinfo.value) == ("arrays and objects nested too deeply "
                                  f"(line 1, column {text.index('[]') + 1})")


@pytest.mark.parametrize("title", [r"\ud800", r"x\uDFFFy", r"\udfb5\ud83c",
                                   r"\\\ud83c", r"\ud83cA"])
def test_lone_surrogate_escape_reports_malformed_at_the_string(title):
    text = EMPTY_CORPUS.replace('"title":""', f'\n  "title":"{title}"')
    for data in (text, text.encode("utf-8")):
        with pytest.raises(MalformedJson) as excinfo:
            parse_jams(data)
        assert (excinfo.value.line, excinfo.value.column) == (2, 11)


def test_raw_lone_surrogate_in_str_reports_malformed():
    text = EMPTY_CORPUS.replace('"title":""', '"title":"a\ud800"')
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert (excinfo.value.line, excinfo.value.column) == \
        (1, text.index("\ud800") + 1)


def test_surrogate_pairs_and_escaped_backslashes_are_kept():
    text = EMPTY_CORPUS.replace('"title":""',
                                r'"title":"🎵 \\ud800"')
    assert parse_jams(text.encode()).file_metadata.title == \
        "\U0001f3b5 \\ud800"


_FIXTURE_BYTES = (FIXTURES / "bohemian_rhapsody.jams").read_bytes()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(
        ["annotations", "file_metadata", "sandbox", "namespace", "data",
         "time", "duration", "value", "confidence", "annotation_metadata",
         "curator", "annotator", "title"]), inner, max_size=4),
    max_leaves=12)


def _byte_edit(where: int, byte: int) -> bytes:
    where %= len(_FIXTURE_BYTES)
    return _FIXTURE_BYTES[:where] + bytes([byte]) + _FIXTURE_BYTES[where + 1:]


@given(st.one_of(
    st.binary(max_size=200),
    _json_values.map(lambda value: json.dumps(value).encode()),
    st.builds(_byte_edit, st.integers(min_value=0),
              st.integers(min_value=0, max_value=255))))
@settings(max_examples=200)
def test_parse_jams_raises_only_package_errors(data):
    try:
        parse_jams(data)
    except MuseAnnoError:
        pass


def test_time_type_mismatch_names_path():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":'
        '[{"time":"abc","duration":1.0,"value":"N"}]}]')
    with pytest.raises(TypeMismatch) as excinfo:
        parse_jams(text)
    assert excinfo.value.path == "annotations[0].data[0].time"


def test_negative_time_rejected():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":'
        '[{"time":-0.1,"duration":1.0,"value":"N"}]}]')
    with pytest.raises(TypeMismatch) as excinfo:
        parse_jams(text)
    assert excinfo.value.path == "annotations[0].data[0].time"


def test_missing_row_field_names_path():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":'
        '[{"duration":1.0,"value":"N"}]}]')
    with pytest.raises(MissingField) as excinfo:
        parse_jams(text)
    assert excinfo.value.path == "annotations[0].data[0].time"


def test_missing_top_level_sections():
    with pytest.raises(MissingField) as excinfo:
        parse_jams('{"annotations": []}')
    assert excinfo.value.path == "file_metadata"
    with pytest.raises(MissingField) as excinfo:
        parse_jams('{"file_metadata": {}}')
    assert excinfo.value.path == "annotations"


def test_empty_namespace_rejected():
    text = EMPTY_CORPUS.replace('"annotations":[]',
                                '"annotations":[{"namespace":"","data":[]}]')
    with pytest.raises(TypeMismatch):
        parse_jams(text)


def test_unknown_keys_preserved_in_extras():
    text = ('{"annotations":[],"file_metadata":{"title":"x","octave":7},'
            '"sandbox":{},"custom_top":[1,2]}')
    doc = parse_jams(text)
    assert doc.extras == {"custom_top": [1, 2]}
    assert doc.file_metadata.extras == {"octave": 7}


def test_sandbox_round_trips_byte_identically():
    sandbox = ('{"nested":{"z":1.50,"a":[true,null,"x"]},"b":2}')
    text = ('{"annotations":[],"file_metadata":{"title":""},'
            f'"sandbox":{sandbox}}}')
    doc = parse_jams(text)
    reference = json.loads(sandbox, parse_float=Decimal)
    assert canonical_json(doc.sandbox) == canonical_json(reference)
    assert '"z":1.50' in canonical_json(doc.sandbox)
    assert canonical_json(doc.to_json_data()["sandbox"]) == \
        canonical_json(reference)


def test_non_string_values_stored_canonically():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"pitch_contour","data":'
        '[{"time":0.0,"duration":1.0,"value":{"freq":440.0,"index":0}}]}]')
    doc = parse_jams(text)
    assert doc.annotations[0].data[0].value == '{"freq":440.0,"index":0}'


# --- modality hint -----------------------------------------------------------

def test_hint_audio_for_audio_fixture(bohemian_doc):
    assert detect_modality_hint(bohemian_doc) is ModalityHint.AUDIO


def test_hint_score_when_all_rows_metrical(mozart_doc):
    assert detect_modality_hint(mozart_doc) is ModalityHint.SCORE


def test_hint_unknown_for_mixed_rows():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":['
        '{"time":0.0,"duration":1.0,"value":"N",'
        '"sandbox":{"measure":1,"beat":1}},'
        '{"time":1.0,"duration":1.0,"value":"C"}]}]')
    doc = parse_jams(text)
    assert detect_modality_hint(doc) is ModalityHint.UNKNOWN


def test_hint_without_rows_follows_duration():
    assert detect_modality_hint(parse_jams(EMPTY_CORPUS)) is ModalityHint.AUDIO
    no_duration = ('{"annotations":[],"file_metadata":{"title":""},'
                   '"sandbox":{}}')
    assert detect_modality_hint(parse_jams(no_duration)) is ModalityHint.UNKNOWN


# --- lowering ----------------------------------------------------------------

def test_lower_audio_fixture(bohemian_model):
    model = bohemian_model
    assert model.subject.kind is ObjectKind.TRACK
    assert model.subject.title == "01 Bohemian Rhapsody"
    assert model.subject.artist == "Queen"
    assert len(model.annotations) == 1
    annotation = model.annotations[0]
    assert annotation.modality is Modality.AUDIO
    assert len(annotation.observations) == 3
    first = annotation.observations[0]
    assert first.value.label == "N"
    component = first.interval.index.components[0]
    assert (str(component.value), component.value_type) == \
        ("0.0", MusicTimeValueType.SECONDS)
    assert str(first.interval.duration.value) == "0.459"
    assert str(first.confidence) == "1.0"


def test_lower_resolves_curator_as_human_annotator(bohemian_model):
    annotator = bohemian_model.annotations[0].annotator
    assert annotator.name == "Matthias Mauch"
    assert annotator.annotator_type.name == "Human"
    assert annotator.id == "http://example.org/annotator/matthias-mauch"


def test_lower_synthesizes_annotation_interval(bohemian_model):
    interval = bohemian_model.annotations[0].interval
    assert str(interval.index.components[0].value) == "0.0"
    assert str(interval.duration.value) == "4.911"


def test_lower_empty_document():
    model = lower_to_model(parse_jams(EMPTY_CORPUS),
                           LoweringOptions(modality=Modality.AUDIO))
    assert model.annotations == ()
    assert model.subject.kind is ObjectKind.TRACK


def test_lower_machine_annotator_when_tools_present():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[],'
        '"annotation_metadata":{"annotation_tools":"autochord v2"}}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    assert model.annotations[0].annotator.annotator_type.name == "Machine"


def test_lower_unknown_annotator_fallback():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[]}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    annotator = model.annotations[0].annotator
    assert annotator.name is None
    assert annotator.id.endswith("/annotator/unknown-annotator")


def test_lower_namespace_registry(michelle_model):
    assert michelle_model.annotations[0].value_kind.token == "segment"


def test_lower_generic_namespace():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"beat_position","data":[]}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    kind = model.annotations[0].value_kind
    assert kind.token == "generic"
    assert kind.namespace == "beat_position"


def test_lower_strict_namespaces_rejects_generic():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"beat_position","data":[]}]')
    doc = parse_jams(text)
    opts = LoweringOptions(modality=Modality.AUDIO, strict_namespaces=True)
    with pytest.raises(UnsupportedNamespace):
        lower_to_model(doc, opts)


def test_lower_score_modality(mozart_score_model):
    model = mozart_score_model
    assert model.subject.kind is ObjectKind.SCORE
    obs = model.annotations[0].observations
    first_types = [c.value_type for c in obs[0].interval.index.components]
    assert first_types == [MusicTimeValueType.MEASURE, MusicTimeValueType.BEAT]
    assert str(obs[1].interval.index.components[1].value) == "3"
    assert obs[0].interval.duration.value_type is MusicTimeValueType.BEAT


def test_lower_score_needs_metrical_sandbox(bohemian_doc):
    with pytest.raises(ScoreLoweringMissingMetricalTime) as excinfo:
        lower_to_model(bohemian_doc, LoweringOptions(modality=Modality.SCORE))
    assert "measure" in str(excinfo.value)
    assert "annotations[0].data[0]" in excinfo.value.path


def test_lower_base_iri_option(bohemian_doc):
    opts = LoweringOptions(modality=Modality.AUDIO,
                           base_iri="https://data.example.net/anno/")
    model = lower_to_model(bohemian_doc, opts)
    assert model.subject.id.startswith("https://data.example.net/anno/track/")


def test_lower_distinct_values_with_colliding_slugs():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":['
        '{"time":0.0,"duration":1.0,"value":"C 7"},'
        '{"time":1.0,"duration":1.0,"value":"c:7"}]}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    first, second = model.annotations[0].observations
    assert first.value.id != second.value.id
    assert second.value.id.endswith("-2")


def test_lower_shares_value_iri_for_equal_labels():
    block = ('{"namespace":"chord","data":'
             '[{"time":0.0,"duration":1.0,"value":"C:7"}]}')
    text = EMPTY_CORPUS.replace('"annotations":[]',
                                f'"annotations":[{block},{block}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    assert model.annotations[0].observations[0].value.id == \
        model.annotations[1].observations[0].value.id


def test_lower_score_interval_synthesis_picks_earliest_position():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":['
        '{"time":0.0,"duration":0.0,"value":"A",'
        '"sandbox":{"measure":2,"beat":1,"duration_beats":1}},'
        '{"time":0.0,"duration":0.0,"value":"B",'
        '"sandbox":{"measure":1,"beat":3,"duration_beats":2}}]}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.SCORE))
    interval = model.annotations[0].interval
    assert [str(c.value) for c in interval.index.components] == ["1", "3"]
    # Beat-offset span: max(1+1, 3+2) minus the earliest row's beat.
    assert str(interval.duration.value) == "2"


def test_lower_same_name_curators_get_distinct_iris():
    block = ('{"namespace":"chord","data":[],"annotation_metadata":'
             '{"curator":{"name":"Jo Doe","email":"%s"}}}')
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[' + block % "a@x.org" + "," + block % "b@y.org" + "]")
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    first, second = model.annotations
    assert first.annotator.id != second.annotator.id


# --- lowering properties -------------------------------------------------------

_row_strategy = st.fixed_dictionaries(
    {"time": st.decimals(min_value=0, max_value=1000, places=3,
                         allow_nan=False, allow_infinity=False),
     "duration": st.decimals(min_value=0, max_value=1000, places=3,
                             allow_nan=False, allow_infinity=False),
     "value": st.text(max_size=12)},
    optional={"confidence": st.decimals(min_value=0, max_value=1, places=2,
                                        allow_nan=False, allow_infinity=False)},
)

_doc_strategy = st.fixed_dictionaries({
    "annotations": st.lists(
        st.fixed_dictionaries({
            "namespace": st.sampled_from(["chord", "segment", "beat"]),
            "data": st.lists(_row_strategy, max_size=8),
        }),
        max_size=4),
    "file_metadata": st.just({"title": "generated"}),
    "sandbox": st.just({}),
})


@given(_doc_strategy)
@settings(max_examples=60)
def test_audio_lowering_preserves_counts_and_confidence(raw):
    doc = parse_jams(canonical_json(raw))
    model = lower_to_model(doc, LoweringOptions(modality=Modality.AUDIO))
    assert len(model.annotations) == len(raw["annotations"])
    for block, annotation in zip(raw["annotations"], model.annotations):
        assert len(annotation.observations) == len(block["data"])
        for row, obs in zip(block["data"], annotation.observations):
            assert (obs.confidence is not None) == ("confidence" in row)
            components = obs.interval.index.components
            assert len(components) == 1
            assert components[0].value_type is MusicTimeValueType.SECONDS


# --- lowering against the row-level synthesizers -------------------------------

# The annotation interval synthesizers that ``ingest._span`` replaced, kept
# as oracles: they work from the rows, not from the observations built.
def _synth_audio_interval(rows):
    if not rows:
        return audio_interval(Decimal(0), Decimal(0))
    start = min(row.time for row in rows)
    end = max(row.time + row.duration for row in rows)
    return audio_interval(start, end - start)


def _synth_score_interval(rows):
    if not rows:
        return score_interval(1, Decimal(1), Decimal(0))
    first = min(rows, key=lambda r: (r[0], r[1]))
    span = max(beat + beats for _, beat, beats in rows) - first[1]
    return score_interval(first[0], first[1], span)


def _terms(interval) -> list[tuple[str, str, str]]:
    """What the graph says of an interval: each part's lexical form,
    datatype and value type."""
    return [vocab.time_value_terms(part)
            for part in (*interval.index.components, interval.duration)]


# Equal numbers in several spellings, zero durations, and score rows over
# four measures.
_spelled = st.sampled_from(["0", "0.0", "1", "1.0", "1.00", "2.5", "2.50", "7"])
_metrical_row = st.builds(
    lambda time, duration, label, measure, beat, beats: (
        f'{{"time":{time},"duration":{duration},"value":"{label}",'
        f'"sandbox":{{"measure":{measure},"beat":{beat},'
        f'"duration_beats":{beats}}}}}'),
    _spelled, _spelled, st.sampled_from(["A", "B", "C:7"]),
    st.integers(1, 4), st.sampled_from(["1", "1.0", "1.00", "2.5", "3", "4.0"]),
    _spelled)
_TITLES = ["Title", "tItle!", "T\u00eftle", "", "a/b", "a b", "0"]


@given(st.sampled_from(_TITLES),
       st.lists(st.lists(_metrical_row, max_size=6), max_size=4))
@settings(max_examples=150)
def test_lowering_spans_match_the_row_synthesizers(title, blocks):
    text = ('{"annotations":[' + ",".join(
        '{"namespace":"chord","data":[' + ",".join(rows) + "]}"
        for rows in blocks)
        + f'],"file_metadata":{{"title":"{title}"}},"sandbox":{{}}}}')
    doc = parse_jams(text)
    for modality in Modality:
        model = lower_to_model(doc, LoweringOptions(modality=modality))
        for i, (block, annotation) in enumerate(
                zip(doc.annotations, model.annotations)):
            if modality is Modality.AUDIO:
                oracle = _synth_audio_interval(block.data)
            else:
                oracle = _synth_score_interval([
                    ingest._metrical_fields(row, i, j)
                    for j, row in enumerate(block.data)])
            assert annotation.interval == oracle
            assert _terms(annotation.interval) == _terms(oracle)
            _assert_rows_share_values_and_number_under_the_block(
                model, i, doc.file_metadata.title)


def _assert_rows_share_values_and_number_under_the_block(model, i, title):
    by_label = {}
    for j, obs in enumerate(model.annotations[i].observations):
        assert obs.id == mint_iri(model.base_iri, "observation",
                                  [title or "untitled", str(i), str(j)])
        assert by_label.setdefault(obs.value.label, obs.value) is obs.value
    assert len({id(value) for value in by_label.values()}) == len(by_label)


@pytest.mark.parametrize("title", _TITLES + ["TITLE", "title"])
def test_rows_of_one_block_share_one_value_object(title):
    rows = ",".join(f'{{"time":{t},"duration":1,"value":"{label}"}}'
                    for t, label in enumerate(["C:7", "D", "C:7", "c 7"]))
    block = f'{{"namespace":"chord","data":[{rows}]}}'
    model = lower_to_model(parse_jams(
        f'{{"annotations":[{block},{block}],'
        f'"file_metadata":{{"title":"{title}"}},"sandbox":{{}}}}'),
        LoweringOptions(modality=Modality.AUDIO))
    for i, annotation in enumerate(model.annotations):
        _assert_rows_share_values_and_number_under_the_block(
            model, i, model.subject.title)
        first, _, third, fourth = annotation.observations
        assert first.value is third.value
        assert fourth.value is not first.value
        assert fourth.value.id != first.value.id


# Documents whose Turtle was recorded before lowering built annotation
# intervals from the observations: a score crossing measures, with a tie
# for the earliest position, and audio over three blocks, one empty, with
# a tie for the earliest start in different spellings.
_MULTI_MEASURE_SCORE = (
    '{"annotations":[{"namespace":"chord","data":['
    '{"time":0,"duration":0,"value":"C:maj","confidence":0.9,'
    '"sandbox":{"measure":1,"beat":1,"duration_beats":4}},'
    '{"time":0,"duration":0,"value":"G:7",'
    '"sandbox":{"measure":2,"beat":3.0,"duration_beats":2}},'
    '{"time":0,"duration":0,"value":"C:maj",'
    '"sandbox":{"measure":3,"beat":1.50,"duration_beats":0}},'
    '{"time":0,"duration":0,"value":"F:maj",'
    '"sandbox":{"measure":1,"beat":1.0,"duration_beats":1.5}}],'
    '"annotation_metadata":{"curator":{"name":"A Score Reader"}}},'
    '{"namespace":"segment_open","data":['
    '{"time":0,"duration":0,"value":"A",'
    '"sandbox":{"measure":2,"beat":1,"duration_beats":8}},'
    '{"time":0,"duration":0,"value":"B",'
    '"sandbox":{"measure":4,"beat":1.0,"duration_beats":8}}]}],'
    '"file_metadata":{"title":"Inline Score","duration":0},"sandbox":{}}')
_MULTI_BLOCK_AUDIO = (
    '{"annotations":[{"namespace":"chord","data":['
    '{"time":1.0,"duration":0.5,"value":"C:maj","confidence":0.8},'
    '{"time":1.00,"duration":0,"value":"G:7"},'
    '{"time":2.25,"duration":1.750,"value":"C:maj","confidence":1},'
    '{"time":1.5,"duration":0.50,"value":"G:7"}]},'
    '{"namespace":"segment","data":['
    '{"time":0,"duration":3.0,"value":"verse"},'
    '{"time":3.0,"duration":4,"value":"chorus"}]},'
    '{"namespace":"tag_open","data":[]}],'
    '"file_metadata":{"title":"Inline Audio","duration":10},"sandbox":{}}')


@pytest.mark.parametrize("text, modality, digest", [
    (_MULTI_MEASURE_SCORE, Modality.SCORE,
     "6a5af477db13822bd115cf52fee3cffccf2688cba5c6ccbbdcdbf6083b87c1f4"),
    (_MULTI_BLOCK_AUDIO, Modality.AUDIO,
     "8749244b8b4e44654ecffa5cc75cd5f43f18181664cd941814aa3361325f0524"),
], ids=["multi-measure score", "multi-block audio"])
def test_inline_documents_keep_their_turtle(text, modality, digest):
    model = lower_to_model(parse_jams(text), LoweringOptions(modality=modality))
    turtle = serialize_turtle(emit_graph(model))
    assert hashlib.sha256(turtle.encode("utf-8")).hexdigest() == digest
