"""JAMS parsing and lowering."""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muse_anno import (
    IriMinter,
    JamsObservationRow,
    LoweringOptions,
    Modality,
    MusicTimeInterval,
    MusicTimeValueType,
    ObjectKind,
    audio_interval,
    detect_modality_hint,
    emit_graph,
    lower_to_model,
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

import reference_rows
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
    assert md.extras == {}  # the curator has only a name and an email


def test_parse_round_trips_known_fields(bohemian_source, bohemian_doc):
    """Parsed values equal the source, numbers with their source spelling."""
    source = json.loads(bohemian_source, parse_float=Decimal)
    fm = bohemian_doc.file_metadata
    assert fm.title == source["file_metadata"]["title"]
    assert str(fm.duration) == str(source["file_metadata"]["duration"]) \
        == "358.293"
    [src_block] = source["annotations"]
    [block] = bohemian_doc.annotations
    assert len(block.data) == len(src_block["data"])
    for src, row in zip(src_block["data"], block.data):
        assert str(row.time) == str(src["time"])
        assert str(row.duration) == str(src["duration"])
        assert row.value == src["value"]
        assert str(row.confidence) == str(src["confidence"])
    assert block.annotation_metadata.version == \
        str(src_block["annotation_metadata"]["version"]) == "1.0"


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


def test_deep_nesting_then_an_overlong_integer_reports_the_integer():
    # A faulty token is reported before nesting too deep, wherever it is.
    text = "[" * 100_000 + "7" * 5000
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert str(excinfo.value) == \
        "integer literal too long (line 1, column 100001)"


@pytest.mark.parametrize("number", ["1e9999999999999999999",
                                    "1E-9999999999999999999"])
@pytest.mark.parametrize("where", ["row", "identifiers"])
def test_number_no_decimal_holds_reports_malformed_at_the_token(number,
                                                                 where):
    if where == "row":
        text = EMPTY_CORPUS.replace(
            '"annotations":[]', '"annotations":[{"namespace":"chord","data":'
            f'\n[{{"time":{number},"duration":1,"value":"N"}}]}}]')
    else:
        text = EMPTY_CORPUS.replace(
            '"title":""', f'\n"identifiers":{{"isrc":{number}}},"title":""')
    column = text.splitlines()[1].index(number) + 1
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    assert str(excinfo.value) == \
        f"number out of range (line 2, column {column})"


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
    def overflow(value, path):
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

    def overflow_on_annotator(value, path):
        if isinstance(value, dict) and "nest" in value:
            raise RecursionError
        return canonical_json(value, path)
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


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_nan_and_infinity_report_malformed_at_the_token(constant):
    # json.loads reads these as floats, but JSON has no such tokens; the
    # string spelling the same word is a plain label.
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":\n'
        f'[{{"time":0,"duration":1,"value":["{constant}", {constant}]}}]}}]')
    with pytest.raises(MalformedJson) as excinfo:
        parse_jams(text)
    column = text.splitlines()[1].index(f" {constant}") + 2
    assert str(excinfo.value) == \
        f"{constant} is not a JSON value (line 2, column {column})"


_FIXTURE_BYTES = (FIXTURES / "bohemian_rhapsody.jams").read_bytes()
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(),
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
@example(b'{"file_metadata":{"duration":1e9999999999999999999}}')
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


@pytest.mark.parametrize("block, error, path", [
    ('5', TypeMismatch, "annotations[0]"),
    ('{"namespace":"chord","data":[5]}', TypeMismatch,
     "annotations[0].data[0]"),
    ('{"data":[]}', MissingField, "annotations[0].namespace"),
    ('{"namespace":null,"data":[]}', MissingField, "annotations[0].namespace"),
    ('{"namespace":"chord","data":[],"annotation_metadata":{"version":[1]}}',
     TypeMismatch, "annotations[0].annotation_metadata.version"),
    ('{"namespace":"chord","data":[],"annotation_metadata":{"corpus":true}}',
     TypeMismatch, "annotations[0].annotation_metadata.corpus"),
])
def test_malformed_block_names_its_path(block, error, path):
    text = EMPTY_CORPUS.replace('"annotations":[]',
                                f'"annotations":[{block}]')
    with pytest.raises(error) as excinfo:
        parse_jams(text)
    assert excinfo.value.path == path


@pytest.mark.parametrize("duration, expected", [
    ("-1", "non-negative number"),
    ('"x"', "number"),
    ("true", "number"),
])
def test_bad_file_duration_names_its_path(duration, expected):
    with pytest.raises(TypeMismatch) as excinfo:
        parse_jams(EMPTY_CORPUS.replace('"duration":0',
                                        f'"duration":{duration}'))
    assert excinfo.value.path == "file_metadata.duration"
    assert excinfo.value.expected == expected


def test_null_optional_fields_read_as_absent():
    with_nulls = parse_jams(
        '{"annotations":[{"namespace":"chord","data":[],'
        '"annotation_metadata":null,"sandbox":null}],'
        '"file_metadata":{"title":null,"duration":null},"sandbox":null}')
    absent = parse_jams('{"annotations":[{"namespace":"chord","data":[]}],'
                        '"file_metadata":{}}')
    assert with_nulls == absent
    assert with_nulls.file_metadata.duration is None


def test_unknown_keys_preserved_in_extras():
    text = ('{"annotations":[],"file_metadata":{"title":"x","octave":7},'
            '"sandbox":{},"custom_top":[1,2]}')
    doc = parse_jams(text)
    assert doc.extras == {"custom_top": [1, 2]}
    assert doc.file_metadata.extras == {"octave": 7}


def test_curator_keys_not_read_are_kept_in_metadata_extras():
    block = ('{"namespace":"chord","data":[],"annotation_metadata":'
             '{"curator":{"name":"Ann","email":"a@x.org","affiliation":"QMUL",'
             '"orcid":null},"flavour":1}}')
    doc = parse_jams(EMPTY_CORPUS.replace('"annotations":[]',
                                          f'"annotations":[{block}]'))
    metadata = doc.annotations[0].annotation_metadata
    assert metadata.curator_name == "Ann"
    assert metadata.curator_email == "a@x.org"
    assert metadata.extras == {"flavour": 1, "curator": {"affiliation": "QMUL",
                                                         "orcid": None}}


def test_sandbox_round_trips_byte_identically():
    sandbox = ('{"nested":{"z":1.50,"a":[true,null,"x"]},"b":2}')
    text = ('{"annotations":[],"file_metadata":{"title":""},'
            f'"sandbox":{sandbox}}}')
    doc = parse_jams(text)
    reference = json.loads(sandbox, parse_float=Decimal)
    assert canonical_json(doc.sandbox) == canonical_json(reference)
    assert '"z":1.50' in canonical_json(doc.sandbox)


def test_non_string_values_stored_canonically():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"pitch_contour","data":'
        '[{"time":0.0,"duration":1.0,"value":{"freq":440.0,"index":0}}]}]')
    doc = parse_jams(text)
    assert doc.annotations[0].data[0].value == '{"freq":440.0,"index":0}'
    doc = parse_jams(text.replace('"index":0', '"index":0,"voiced":false'))
    assert doc.annotations[0].data[0].value == \
        '{"freq":440.0,"index":0,"voiced":false}'


# --- the row-error table -----------------------------------------------------

# The row under test is annotations[1].data[2], after valid rows, so each
# path it is reported at names both indices.
_TABLE_ROW = {"time": "1", "duration": "2", "value": '"C"', "confidence": "0.5"}
_TABLE_SANDBOX = {"measure": "1", "beat": "1", "duration_beats": "1"}


def _table_object(fields: dict) -> str:
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields.items()
                          if text is not None) + "}"


def _table_document(edits: dict) -> str:
    """The table's document with ``edits`` applied to the row under test:
    ``key: JSON text`` sets a row key, ``"sandbox.<key>"`` a key of the
    sandbox that score rows carry, a None text drops the key, and
    ``"row"`` replaces the whole row."""
    row = {key: text for key, text in edits.items() if "." not in key}
    sandbox = {key.removeprefix("sandbox."): text
               for key, text in edits.items() if key.startswith("sandbox.")}
    valid = dict(_TABLE_ROW)
    if sandbox:
        valid["sandbox"] = _table_object(_TABLE_SANDBOX)
        row.setdefault("sandbox", _table_object({**_TABLE_SANDBOX, **sandbox}))
    tested = row.pop("row", None) or _table_object({**valid, **row})
    valid = _table_object(valid)
    return ('{"annotations":[{"namespace":"chord","data":[' + valid + "]},"
            '{"namespace":"chord","data":[' + f"{valid},{valid},{tested}"
            + ']}],"file_metadata":{"title":"t"},"sandbox":{}}')


def _table_outcome(edits: dict) -> tuple[type, str]:
    """The class and ``str()`` of the error reading the row raises, or the
    row's class and fields (its score interval's class and values, when a
    sandbox key was edited).  A text past 200 characters is given by its
    digest."""
    try:
        doc = parse_jams(_table_document(edits))
        row = doc.annotations[1].data[2]
        result, parts = row, (row.time, row.duration, row.value,
                              row.confidence, row.sandbox, row.extras)
        if any(key.startswith("sandbox.") for key in edits):
            model = lower_to_model(doc, LoweringOptions(modality=Modality.SCORE))
            result = model.annotations[1].observations[2].interval
            parts = (*(c.value for c in result.index.components),
                     result.duration.value)
        text = repr(parts)
    except MuseAnnoError as exc:
        result, text = exc, str(exc)
    if len(text) > 200:
        text = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
    return type(result), text


# Recorded before the row reader stopped formatting paths it does not
# raise at: each missing key and which of several is reported, wrong
# types, out-of-range and huge numbers, non-string values and non-object
# sandboxes, for every row key and every score sandbox key.  One outcome
# changed since: a value of 1e1000000 is refused as too long to write.
_ROW_TABLE = [
    ({'time': None}, MissingField,
     'missing required field at annotations[1].data[2].time'),
    ({'time': '"1"'}, TypeMismatch,
     "expected number at annotations[1].data[2].time, got '1'"),
    ({'time': 'true'}, TypeMismatch,
     'expected number at annotations[1].data[2].time, got True'),
    ({'time': 'null'}, TypeMismatch,
     'expected number at annotations[1].data[2].time, got None'),
    ({'time': '[1]'}, TypeMismatch,
     'expected number at annotations[1].data[2].time, got [1]'),
    ({'time': '-1'}, TypeMismatch,
     'expected non-negative number at annotations[1].data[2].time, '
     'got -1'),
    ({'time': '-0.5'}, TypeMismatch,
     'expected non-negative number at annotations[1].data[2].time, '
     "got Decimal('-0.5')"),
    ({'time': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     "annotations[1].data[2].time, got Decimal('1E+1000000')"),
    ({'time': '{}'}, TypeMismatch,
     'expected number at annotations[1].data[2].time, got {}'),
    ({'duration': None}, MissingField,
     'missing required field at annotations[1].data[2].duration'),
    ({'duration': '"1"'}, TypeMismatch,
     "expected number at annotations[1].data[2].duration, got '1'"),
    ({'duration': 'true'}, TypeMismatch,
     'expected number at annotations[1].data[2].duration, got True'),
    ({'duration': 'null'}, TypeMismatch,
     'expected number at annotations[1].data[2].duration, got None'),
    ({'duration': '[1]'}, TypeMismatch,
     'expected number at annotations[1].data[2].duration, got [1]'),
    ({'duration': '-1'}, TypeMismatch,
     'expected non-negative number at '
     'annotations[1].data[2].duration, got -1'),
    ({'duration': '-0.5'}, TypeMismatch,
     'expected non-negative number at '
     "annotations[1].data[2].duration, got Decimal('-0.5')"),
    ({'duration': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     "annotations[1].data[2].duration, got Decimal('1E+1000000')"),
    ({'duration': '{}'}, TypeMismatch,
     'expected number at annotations[1].data[2].duration, got {}'),
    ({'value': None}, MissingField,
     'missing required field at annotations[1].data[2].value'),
    ({'value': '"1"'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '1', Decimal('0.5'), {}, {})"),
    ({'value': 'true'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'true', Decimal('0.5'), {}, {})"),
    ({'value': 'null'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'null', Decimal('0.5'), {}, {})"),
    ({'value': '[1]'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '[1]', Decimal('0.5'), {}, {})"),
    ({'value': '-1'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '-1', Decimal('0.5'), {}, {})"),
    ({'value': '-0.5'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '-0.5', Decimal('0.5'), {}, {})"),
    ({'value': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     "annotations[1].data[2].value, got Decimal('1E+1000000')"),
    ({'value': '{}'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '{}', Decimal('0.5'), {}, {})"),
    ({'confidence': None}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', None, {}, {})"),
    ({'confidence': '"1"'}, TypeMismatch,
     'expected number at annotations[1].data[2].confidence, got '
     "'1'"),
    ({'confidence': 'true'}, TypeMismatch,
     'expected number at annotations[1].data[2].confidence, got '
     'True'),
    ({'confidence': 'null'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', None, {}, {})"),
    ({'confidence': '[1]'}, TypeMismatch,
     'expected number at annotations[1].data[2].confidence, got '
     '[1]'),
    ({'confidence': '-1'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('-1'), {}, {})"),
    ({'confidence': '-0.5'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('-0.5'), {}, {})"),
    ({'confidence': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     "annotations[1].data[2].confidence, got Decimal('1E+1000000')"),
    ({'confidence': '{}'}, TypeMismatch,
     'expected number at annotations[1].data[2].confidence, got {}'),
    ({'sandbox': None}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), {}, {})"),
    ({'sandbox': '"1"'}, TypeMismatch,
     "expected dict at annotations[1].data[2].sandbox, got '1'"),
    ({'sandbox': 'true'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got True'),
    ({'sandbox': 'null'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), {}, {})"),
    ({'sandbox': '[1]'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got [1]'),
    ({'sandbox': '-1'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got -1'),
    ({'sandbox': '-0.5'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got '
     "Decimal('-0.5')"),
    ({'sandbox': '1e1000000'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got '
     "Decimal('1E+1000000')"),
    ({'sandbox': '{}'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), {}, {})"),
    ({'value': '{"b":1,"a":[1.50,null]}'}, JamsObservationRow,
     '(Decimal(\'1\'), Decimal(\'2\'), \'{"a":[1.50,null],"b":1}\', '
     "Decimal('0.5'), {}, {})"),
    ({'value': '[1,"x"]'}, JamsObservationRow,
     '(Decimal(\'1\'), Decimal(\'2\'), \'[1,"x"]\', Decimal(\'0.5\'), {}, '
     '{})'),
    ({'value': '2.50'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), '2.50', Decimal('0.5'), {}, {})"),
    ({'confidence': '1.5'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('1.5'), {}, {})"),
    ({'confidence': '0'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0'), {}, {})"),
    ({'time': '0.0', 'duration': '0E+2'}, JamsObservationRow,
     "(Decimal('0.0'), Decimal('0E+2'), 'C', Decimal('0.5'), {}, "
     '{})'),
    ({'time': '1.0E-2'}, JamsObservationRow,
     "(Decimal('0.010'), Decimal('2'), 'C', Decimal('0.5'), {}, "
     '{})'),
    ({'sandbox': '5'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got 5'),
    ({'sandbox': '"x"'}, TypeMismatch,
     "expected dict at annotations[1].data[2].sandbox, got 'x'"),
    ({'sandbox': '{}'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), {}, {})"),
    ({'sandbox': '{"measure":1}'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), "
     "{'measure': 1}, {})"),
    ({'extra': '[1]'}, JamsObservationRow,
     "(Decimal('1'), Decimal('2'), 'C', Decimal('0.5'), {}, "
     "{'extra': [1]})"),
    ({'time': '-0'}, JamsObservationRow,
     "(Decimal('0'), Decimal('2'), 'C', Decimal('0.5'), {}, {})"),
    ({'time': None, 'duration': None}, MissingField,
     'missing required field at annotations[1].data[2].time'),
    ({'duration': None, 'value': None}, MissingField,
     'missing required field at annotations[1].data[2].duration'),
    ({'time': None, 'value': None}, MissingField,
     'missing required field at annotations[1].data[2].time'),
    ({'time': None, 'duration': None, 'value': None}, MissingField,
     'missing required field at annotations[1].data[2].time'),
    ({'time': None, 'duration': '"x"'}, MissingField,
     'missing required field at annotations[1].data[2].time'),
    ({'duration': None, 'time': '"x"'}, MissingField,
     'missing required field at annotations[1].data[2].duration'),
    ({'value': None, 'time': '-1'}, MissingField,
     'missing required field at annotations[1].data[2].value'),
    ({'time': '"x"', 'duration': '-1'}, TypeMismatch,
     "expected number at annotations[1].data[2].time, got 'x'"),
    ({'duration': '-1', 'confidence': '[]'}, TypeMismatch,
     'expected non-negative number at '
     'annotations[1].data[2].duration, got -1'),
    ({'confidence': 'true', 'sandbox': '5'}, TypeMismatch,
     'expected number at annotations[1].data[2].confidence, got '
     'True'),
    ({'sandbox': '5', 'value': '[1]'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got 5'),
    ({'time': 'true', 'sandbox': '[]'}, TypeMismatch,
     'expected number at annotations[1].data[2].time, got True'),
    ({'row': '5'}, TypeMismatch,
     'expected object at annotations[1].data[2], got 5'),
    ({'row': '[1]'}, TypeMismatch,
     'expected object at annotations[1].data[2], got [1]'),
    ({'row': 'null'}, TypeMismatch,
     'expected object at annotations[1].data[2], got None'),
    ({'row': '"x"'}, TypeMismatch,
     "expected object at annotations[1].data[2], got 'x'"),
    ({'row': 'true'}, TypeMismatch,
     'expected object at annotations[1].data[2], got True'),
    ({'sandbox.measure': None}, ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.measure': '"1"'}, TypeMismatch,
     'expected positive integer at '
     "annotations[1].data[2].sandbox.measure, got '1'"),
    ({'sandbox.measure': 'true'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got True'),
    ({'sandbox.measure': 'null'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got None'),
    ({'sandbox.measure': '[1]'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got [1]'),
    ({'sandbox.measure': '-1'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got -1'),
    ({'sandbox.measure': '-0.5'}, TypeMismatch,
     'expected positive integer at '
     "annotations[1].data[2].sandbox.measure, got Decimal('-0.5')"),
    ({'sandbox.measure': '1e1000000'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got '
     "Decimal('1E+1000000')"),
    ({'sandbox.measure': '{}'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got {}'),
    ({'sandbox.measure': '0'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got 0'),
    ({'sandbox.measure': '1.5'}, TypeMismatch,
     'expected positive integer at '
     "annotations[1].data[2].sandbox.measure, got Decimal('1.5')"),
    ({'sandbox.measure': '0.5'}, TypeMismatch,
     'expected positive integer at '
     "annotations[1].data[2].sandbox.measure, got Decimal('0.5')"),
    ({'sandbox.measure': '2.0'}, MusicTimeInterval,
     "(Decimal('2.0'), Decimal('1'), Decimal('1'))"),
    ({'sandbox.measure': '1E+2'}, MusicTimeInterval,
     "(Decimal('1E+2'), Decimal('1'), Decimal('1'))"),
    ({'sandbox.beat': None}, ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'beat' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.beat': '"1"'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     "'1'"),
    ({'sandbox.beat': 'true'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     'True'),
    ({'sandbox.beat': 'null'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     'None'),
    ({'sandbox.beat': '[1]'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     '[1]'),
    ({'sandbox.beat': '-1'}, TypeMismatch,
     'expected number >= 1 at annotations[1].data[2].sandbox.beat, '
     'got -1'),
    ({'sandbox.beat': '-0.5'}, TypeMismatch,
     'expected number >= 1 at annotations[1].data[2].sandbox.beat, '
     "got Decimal('-0.5')"),
    ({'sandbox.beat': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     'annotations[1].data[2].sandbox.beat, got '
     "Decimal('1E+1000000')"),
    ({'sandbox.beat': '{}'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     '{}'),
    ({'sandbox.beat': '0'}, TypeMismatch,
     'expected number >= 1 at annotations[1].data[2].sandbox.beat, '
     'got 0'),
    ({'sandbox.beat': '1.5'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1.5'), Decimal('1'))"),
    ({'sandbox.beat': '0.5'}, TypeMismatch,
     'expected number >= 1 at annotations[1].data[2].sandbox.beat, '
     "got Decimal('0.5')"),
    ({'sandbox.beat': '2.0'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('2.0'), Decimal('1'))"),
    ({'sandbox.beat': '1E+2'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1E+2'), Decimal('1'))"),
    ({'sandbox.duration_beats': None}, ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'duration_beats' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.duration_beats': '"1"'}, TypeMismatch,
     'expected number at '
     "annotations[1].data[2].sandbox.duration_beats, got '1'"),
    ({'sandbox.duration_beats': 'true'}, TypeMismatch,
     'expected number at '
     'annotations[1].data[2].sandbox.duration_beats, got True'),
    ({'sandbox.duration_beats': 'null'}, TypeMismatch,
     'expected number at '
     'annotations[1].data[2].sandbox.duration_beats, got None'),
    ({'sandbox.duration_beats': '[1]'}, TypeMismatch,
     'expected number at '
     'annotations[1].data[2].sandbox.duration_beats, got [1]'),
    ({'sandbox.duration_beats': '-1'}, TypeMismatch,
     'expected non-negative number at '
     'annotations[1].data[2].sandbox.duration_beats, got -1'),
    ({'sandbox.duration_beats': '-0.5'}, TypeMismatch,
     'expected non-negative number at '
     'annotations[1].data[2].sandbox.duration_beats, got '
     "Decimal('-0.5')"),
    ({'sandbox.duration_beats': '1e1000000'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     'annotations[1].data[2].sandbox.duration_beats, got '
     "Decimal('1E+1000000')"),
    ({'sandbox.duration_beats': '{}'}, TypeMismatch,
     'expected number at '
     'annotations[1].data[2].sandbox.duration_beats, got {}'),
    ({'sandbox.duration_beats': '0'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1'), Decimal('0'))"),
    ({'sandbox.duration_beats': '1.5'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1'), Decimal('1.5'))"),
    ({'sandbox.duration_beats': '0.5'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1'), Decimal('0.5'))"),
    ({'sandbox.duration_beats': '2.0'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1'), Decimal('2.0'))"),
    ({'sandbox.duration_beats': '1E+2'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1'), Decimal('1E+2'))"),
    ({'sandbox.measure': '1e4299'}, MusicTimeInterval,
     "(Decimal('1E+4299'), Decimal('1'), Decimal('1'))"),
    ({'sandbox.measure': '1e999996'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got '
     "Decimal('1E+999996')"),
    ({'sandbox.beat': '1e999996'}, MusicTimeInterval,
     "(Decimal('1'), Decimal('1E+999996'), Decimal('1'))"),
    ({'sandbox.beat': '1e999997'}, TypeMismatch,
     'expected number of magnitude below 1E+999997 at '
     'annotations[1].data[2].sandbox.beat, got '
     "Decimal('1E+999997')"),
    ({'sandbox.measure': None, 'sandbox.beat': None},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.beat': None, 'sandbox.duration_beats': None},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'beat' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.measure': None, 'sandbox.duration_beats': None},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.measure': None, 'sandbox.beat': None,
      'sandbox.duration_beats': None},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.measure': '0', 'sandbox.beat': '0'}, TypeMismatch,
     'expected positive integer at '
     'annotations[1].data[2].sandbox.measure, got 0'),
    ({'sandbox.beat': '"1"', 'sandbox.duration_beats': '-1'}, TypeMismatch,
     'expected number at annotations[1].data[2].sandbox.beat, got '
     "'1'"),
    ({'sandbox.measure': None, 'sandbox.beat': 'true'},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox.duration_beats': None, 'sandbox.measure': '0'},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'duration_beats' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox': 'null', 'sandbox.measure': '1'},
     ScoreLoweringMissingMetricalTime,
     "score lowering needs sandbox key 'measure' at "
     'annotations[1].data[2].sandbox'),
    ({'sandbox': '[1]', 'sandbox.measure': '1'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got [1]'),
    ({'sandbox': '5', 'sandbox.measure': '1'}, TypeMismatch,
     'expected dict at annotations[1].data[2].sandbox, got 5'),
]


@pytest.mark.parametrize("edits, expected, text", _ROW_TABLE)
def test_row_reading_keeps_its_pinned_outcome(edits, expected, text):
    assert _table_outcome(edits) == (expected, text)


# --- the row reader against its reference ------------------------------------

# Any JSON value, as text: integers and decimals around the bounds, with
# exponents up to past the largest one allowed, and every other type.
_json_value = st.one_of(
    st.integers(-3, 5).map(str),
    st.builds(lambda digits, fraction, exponent: f"{digits}{fraction}e{exponent}",
              st.integers(-2, 99), st.sampled_from(["", ".0", ".5", ".25"]),
              st.integers(-12, 12) | st.sampled_from(
                  [-1000000, 4299, 4300, 999996, 999997, 1000000])),
    st.sampled_from(["true", "false", "null", '""', '"1"', '"C:maj"', "[]",
                     "[1, 2.50]", "{}", '{"b":1,"a":[null]}', "1.0", "-0",
                     "0.0", "1E+2", "-0.5"]))
_metrical_sandbox = st.dictionaries(
    st.sampled_from(["measure", "beat", "duration_beats", "key"]), _json_value)


def _json_object(fields: dict) -> str:
    return "{" + ",".join(f'"{key}":{text}' for key, text in fields.items()) + "}"


def _read(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except MuseAnnoError as exc:
        return type(exc), str(exc)


def _rows_document(*rows: str) -> str:
    return EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[' + ",".join(rows) + "]}]")


_VALID_ROW = ('{"time":0,"duration":0,"value":"C","sandbox":'
              '{"measure":1,"beat":1,"duration_beats":1}}')


@given(st.one_of(
    st.dictionaries(
        st.sampled_from(["time", "duration", "value", "confidence", "sandbox",
                         "key"]),
        st.one_of(_json_value, _metrical_sandbox.map(_json_object))
    ).map(_json_object),
    _json_value))
@settings(max_examples=600)
def test_row_reader_reads_rows_as_the_take_reference(row):
    expected = _read(lambda: reference_rows.parse_row(
        json.loads(row, parse_float=Decimal), "annotations[0].data[1]"))
    got = _read(lambda: parse_jams(
        _rows_document(_VALID_ROW, row)).annotations[0].data[1])
    assert got == expected
    assert repr(got) == repr(expected)  # spellings, extras and their order


@given(_metrical_sandbox)
@settings(max_examples=600)
def test_score_lowering_reads_sandboxes_as_the_reference(sandbox):
    doc = parse_jams(_rows_document(
        _VALID_ROW, '{"time":0,"duration":0,"value":"C","sandbox":'
        + _json_object(sandbox) + "}"))
    expected = _read(lambda: reference_rows.metrical_fields(
        doc.annotations[0].data[1], 0, 1))

    def lowered():
        model = lower_to_model(doc, LoweringOptions(modality=Modality.SCORE))
        interval = model.annotations[0].observations[1].interval
        return (*(c.value for c in interval.index.components),
                interval.duration.value)

    got = _read(lowered)
    assert got == expected
    assert repr(got) == repr(expected)


# --- modality hint -----------------------------------------------------------

def test_hint_audio_for_audio_fixture(bohemian_doc):
    assert detect_modality_hint(bohemian_doc) is Modality.AUDIO


def test_hint_score_when_all_rows_metrical(mozart_doc):
    assert detect_modality_hint(mozart_doc) is Modality.SCORE


def test_hint_unknown_for_mixed_rows():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":['
        '{"time":0.0,"duration":1.0,"value":"N",'
        '"sandbox":{"measure":1,"beat":1}},'
        '{"time":1.0,"duration":1.0,"value":"C"}]}]')
    doc = parse_jams(text)
    assert detect_modality_hint(doc) is None


def test_hint_without_rows_follows_duration():
    assert detect_modality_hint(parse_jams(EMPTY_CORPUS)) is Modality.AUDIO
    no_duration = ('{"annotations":[],"file_metadata":{"title":""},'
                   '"sandbox":{}}')
    assert detect_modality_hint(parse_jams(no_duration)) is None


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


def test_lower_unnamed_annotator_map_is_named_by_its_hash():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[],'
        '"annotation_metadata":{"annotator":{"id":7,"email":"a@b.c"}}}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    annotator = model.annotations[0].annotator
    digest = hashlib.sha1(b'{"email":"a@b.c","id":7}').hexdigest()[:8]
    assert annotator.name is None
    assert annotator.id == f"http://example.org/annotator/annotator-{digest}"


def test_lower_namespace_registry(michelle_model):
    obs = michelle_model.annotations[0].observations[0]
    assert obs.value.kind.token == "segment"


def test_lower_generic_namespace():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"beat_position","data":'
        '[{"time":0,"duration":1,"value":"1"}]}]')
    model = lower_to_model(parse_jams(text),
                           LoweringOptions(modality=Modality.AUDIO))
    kind = model.annotations[0].observations[0].value.kind
    assert kind.token == "generic"
    assert kind.namespace == "beat_position"


def test_lower_strict_namespaces_rejects_generic():
    text = EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[]},'
        '{"namespace":"beat_position","data":[]}]')
    opts = LoweringOptions(modality=Modality.AUDIO, strict_namespaces=True)
    with pytest.raises(UnsupportedNamespace) as excinfo:
        lower_to_model(parse_jams(text), opts)
    assert excinfo.value.path == "annotations[1].namespace"
    assert str(excinfo.value) == ("namespace 'beat_position' at annotations[1]."
                                  "namespace is not in the value-kind registry")


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


# Sandbox values as JSON spells them: integers around the bounds, decimals
# with exponents up to 10**4, and values of the wrong type.  None stands
# for a missing key.
_sandbox_value = st.one_of(
    st.integers(-3, 5).map(str),
    st.builds(lambda digits, fraction, exponent: f"{digits}{fraction}e{exponent}",
              st.integers(-2, 99), st.sampled_from(["", ".0", ".5", ".25"]),
              st.integers(-10**4, 10**4)),
    st.sampled_from(["true", "false", '"1"', "null", "[]", None]))


@given(st.lists(st.fixed_dictionaries({
    key: _sandbox_value for key in ("measure", "beat", "duration_beats")}),
    min_size=1, max_size=3))
@settings(max_examples=300)
def test_score_lowering_succeeds_or_raises_at_a_sandbox_path(rows):
    data = ",".join(
        '{"time":0,"duration":0,"value":"C","sandbox":{' + ",".join(
            f'"{key}":{value}' for key, value in row.items()
            if value is not None) + "}}"
        for row in rows)
    doc = parse_jams(EMPTY_CORPUS.replace(
        '"annotations":[]',
        '"annotations":[{"namespace":"chord","data":[' + data + "]}]"))
    try:
        model = lower_to_model(doc, LoweringOptions(modality=Modality.SCORE))
    except (MissingField, TypeMismatch,
            ScoreLoweringMissingMetricalTime) as exc:
        assert exc.path.startswith("annotations[0].data[")
        assert ".sandbox" in exc.path
    else:
        assert serialize_turtle(emit_graph(model))


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

# The annotation interval synthesizers that lowering once used, kept
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
                    reference_rows.metrical_fields(row, i, j)
                    for j, row in enumerate(block.data)])
            assert annotation.interval == oracle
            assert _terms(annotation.interval) == _terms(oracle)
            _assert_rows_share_values_and_number_under_the_block(
                model, i, doc.file_metadata.title)


def _assert_rows_share_values_and_number_under_the_block(model, i, title):
    by_label = {}
    for j, obs in enumerate(model.annotations[i].observations):
        assert obs.id == IriMinter(model.base_iri).mint(
            "observation", [title or "untitled", str(i), str(j)])
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
