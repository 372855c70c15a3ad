"""IRI minting, emission, deterministic serialization, subset parsing."""

from __future__ import annotations

import re
from dataclasses import replace
from io import StringIO
from itertools import groupby, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muse_anno import (
    CHORD_KIND,
    SEGMENT_KIND,
    AnnotationModel,
    IriMinter,
    Literal,
    Modality,
    MusicTimeValueType,
    ObservationValue,
    RdfGraph,
    Triple,
    audio_interval,
    emit_graph,
    parse_turtle,
    serialize_ntriples,
    serialize_turtle,
    validate_model,
)
from muse_anno import answer_cq, vocab
from muse_anno.errors import (
    InvalidBase,
    MuseAnnoError,
    TurtleSyntax,
    UnsupportedConstruct,
    UnvalidatedModel,
)
from muse_anno.iri import slug
from muse_anno.rdf import (_UNESCAPE_RE, _UNESCAPES, _UNSUPPORTED, _error,
                            _escape_string, nt_term)
from muse_anno.util import line_column

from conftest import GOLDEN
from injections import EX, BROKEN_MODELS, valid_model
from usage_examples import build_michelle_model, build_mozart_model
from strategies import any_models


# --- minting -------------------------------------------------------------------

def test_mint_iri_concatenation_rule():
    minted = IriMinter("http://example.org/").mint(
        "annotation", ["01-bohemian-rhapsody", "0"])
    # Independent recomputation of the stated rule.
    expected = ("http://example.org/" + "annotation" + "/" +
                "/".join(["01-bohemian-rhapsody", "0"]))
    assert minted == expected


def test_mint_iri_slugs_discriminators():
    minted = IriMinter("http://example.org/").mint(
        "Annotation", ["01 Bohemian Rhapsody", "Bb:maj6"])
    assert minted == "http://example.org/annotation/01-bohemian-rhapsody/bb-maj6"


def test_mint_iri_deterministic():
    base, args = "http://example.org/", ("value", ["chord", "C:7"])
    assert IriMinter(base).mint(*args) == IriMinter(base).mint(*args)


def test_mint_iri_invalid_base():
    with pytest.raises(InvalidBase):
        IriMinter("not a iri")


def test_minter_resolves_slug_collisions_with_ordinals():
    minter = IriMinter("http://example.org/")
    first = minter.mint("value", ["chord", "C 7"], key=1)
    second = minter.mint("value", ["chord", "c:7"], key=2)
    assert first == "http://example.org/value/chord/c-7"
    assert second == "http://example.org/value/chord/c-7-2"
    # Same key returns the cached IRI, no new ordinal.
    assert minter.mint("value", ["chord", "C 7"], key=1) == first


def test_slug_examples():
    assert slug("\u212a") == "k"  # Kelvin sign, whose NFKD form is "K"
    assert slug("") == "x"
    assert slug("-a") == "a"
    assert slug("a--b") == "a-b"
    assert slug("01 Bohemian Rhapsody") == "01-bohemian-rhapsody"


# --- emission ------------------------------------------------------------------

def test_empty_model_emits_prefixes_only():
    graph = emit_graph(AnnotationModel())
    assert len(graph) == 0
    text = serialize_turtle(graph)
    assert text.count("@prefix") == 5
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("@prefix")]
    assert lines == []


def test_emit_rejects_invalid_models():
    with pytest.raises(UnvalidatedModel) as excinfo:
        emit_graph(BROKEN_MODELS["V4"]())
    assert excinfo.value.codes == ["V4"]
    # Violations handed in by a caller that already validated.
    broken = BROKEN_MODELS["V4"]()
    with pytest.raises(UnvalidatedModel) as excinfo:
        emit_graph(broken, validate_model(broken))
    assert excinfo.value.codes == ["V4"]


def test_emit_materializes_property_chain(bohemian_graph, bohemian_model):
    annotation = bohemian_model.annotations[0]
    for obs in annotation.observations:
        assert Triple(obs.id, vocab.HAS_ANNOTATOR,
                      annotation.annotator.id) in bohemian_graph
    assert Triple(annotation.annotator.id, vocab.IS_ANNOTATOR_OF,
                  annotation.id) in bohemian_graph


# Every class the emitter can write: vocab's sets, derived from the
# choosers it emits with, plus the time structure and the annotator.
_KNOWN_CLASSES = (vocab.OBJECT_CLASSES | vocab.ANNOTATION_CLASSES
                  | vocab.OBSERVATION_CLASSES | vocab.VALUE_CLASSES
                  | {vocab.MUSIC_TIME_INTERVAL, vocab.MUSIC_TIME_INDEX,
                     vocab.MUSIC_TIME_INDEX_COMPONENT,
                     vocab.MUSIC_TIME_DURATION, vocab.ANNOTATOR})


def _assert_emitted_shape(graph: RdfGraph) -> None:
    """Each subject has one known class, each interval one index and one
    duration, and each component and duration one value and one type."""
    for subject in {t.subject for t in graph}:
        types = graph.types_of(subject)
        assert len(types) == 1
        assert types[0] in _KNOWN_CLASSES
    for interval in graph.subjects(vocab.RDF_TYPE, vocab.MUSIC_TIME_INTERVAL):
        assert len(graph.objects(interval, vocab.HAS_MUSIC_TIME_INDEX)) == 1
        assert len(graph.objects(interval, vocab.HAS_MUSIC_TIME_DURATION)) == 1
    components = graph.subjects(vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX_COMPONENT)
    durations = graph.subjects(vocab.RDF_TYPE, vocab.MUSIC_TIME_DURATION)
    for node in components + durations:
        assert len(graph.objects(node, vocab.HAS_TIME_VALUE)) == 1
        assert len(graph.objects(node, vocab.HAS_MUSIC_TIME_VALUE_TYPE)) == 1


@pytest.mark.parametrize("fixture", ["bohemian_model", "michelle_model",
                                     "mozart_score_model"])
def test_fixture_graphs_keep_typing_and_cardinality(request, fixture):
    _assert_emitted_shape(emit_graph(request.getfixturevalue(fixture)))


def test_emit_confidence_literals_preserve_lexical_form(bohemian_graph):
    confidences = {t.object.lexical for t in bohemian_graph
                   if t.predicate == vocab.HAS_CONFIDENCE}
    assert confidences == {"1.0"}


@given(any_models)
@settings(max_examples=40)
def test_generated_graphs_keep_typing_and_cardinality_invariants(model):
    _assert_emitted_shape(emit_graph(model))


# --- serialization ---------------------------------------------------------------

def test_serialization_is_byte_deterministic(bohemian_graph):
    assert serialize_turtle(bohemian_graph) == serialize_turtle(bohemian_graph)
    assert serialize_ntriples(bohemian_graph) == serialize_ntriples(bohemian_graph)


def test_ntriples_line_format():
    graph = RdfGraph()
    graph.add("http://example.org/a", "http://example.org/p", Literal("x"))
    text = serialize_ntriples(graph)
    assert text == '<http://example.org/a> <http://example.org/p> "x" .\n'


def _escape_by_loop(text: str) -> str:
    """The per-character escaper the translation table replaced."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
               "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    out = []
    for ch in text:
        code = ord(ch)
        if ch in escapes:
            out.append(escapes[ch])
        elif code < 0x20 or 0x7F <= code <= 0x9F or code in (0x2028, 0x2029):
            out.append(f"\\u{code:04X}")
        else:
            out.append(ch)
    return "".join(out)


_TRICKY = st.sampled_from(
    ['"', "\\", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", " ", "\x7f",
     "\x80", "\x9f", "\xa0", "\u2027", "\u2028", "\u2029", "\u202a", "é",
     "\U0001f3b5", "\U0010ffff"])


@given(st.text(st.one_of(_TRICKY, st.characters()), max_size=40))
@example("".join(map(chr, range(0x2100))))
@settings(max_examples=200)
def test_escape_table_matches_the_per_character_loop(text):
    assert _escape_string(text) == _escape_by_loop(text)


@pytest.mark.parametrize("prefixes, triples, body", [
    # Overlapping namespaces: the first prefix by name that leaves a valid
    # local name wins, not the longest namespace.
    ({"a": "http://x/", "b": "http://x/y#", "c": "http://x/y"},
     [("http://x/s", "http://x/y#p", "http://x/yz"),
      ("http://x/s", "http://x/y#p", "http://x/y#"),
      ("http://x/s", "http://x/y#p", Literal("1", "http://x/y#int"))],
     'a:s b:p "1"^^b:int, <http://x/y#>, a:yz .\n'),
    ({"b": "http://x/", "a": "http://x/y"},
     [("http://x/yz", "http://x/p", "http://x/yy")],
     "a:z b:p a:y .\n"),
])
def test_turtle_prefix_choice_round_trips(prefixes, triples, body):
    graph = RdfGraph(prefixes=prefixes)
    for triple in triples:
        graph.add(*triple)
    text = serialize_turtle(graph)
    declared = "".join(f"@prefix {name}: <{prefixes[name]}> .\n"
                       for name in sorted(prefixes))
    assert text == f"{declared}\n{body}"
    assert parse_turtle(text) == graph


def test_ntriples_sorted_by_term_codepoints(bohemian_graph):
    lines = serialize_ntriples(bohemian_graph).splitlines()
    assert len(lines) == len(bohemian_graph)
    keys = [(t.subject, t.predicate, nt_term(t.object))
            for t in bohemian_graph]
    assert keys == sorted(keys)
    # Both serializations present triples in the same order.
    first_subject = keys[0][0]
    assert lines[0].startswith(f"<{first_subject}>")


def test_ntriples_render_the_sorted_triples(bohemian_graph):
    for graph in (emit_graph(build_mozart_model()),
                  emit_graph(build_michelle_model()), bohemian_graph):
        expected = "".join(f"<{t.subject}> <{t.predicate}> {nt_term(t.object)} .\n"
                           for t in graph)
        assert serialize_ntriples(graph) == expected


def test_turtle_golden_mozart():
    emitted = serialize_turtle(emit_graph(build_mozart_model()))
    assert emitted == (GOLDEN / "mozart_chords.ttl").read_text(encoding="utf-8")


def test_turtle_golden_michelle():
    emitted = serialize_turtle(emit_graph(build_michelle_model()))
    assert emitted == (GOLDEN / "michelle_segments.ttl").read_text(
        encoding="utf-8")


def test_turtle_golden_bohemian(bohemian_graph):
    emitted = serialize_turtle(bohemian_graph)
    assert emitted == (GOLDEN / "bohemian_rhapsody.ttl").read_text(
        encoding="utf-8")


# --- lookups ---------------------------------------------------------------------

_NODES = [f"http://example.org/{name}" for name in ("a", "b", "c", "d")]
_PREDICATES = [vocab.RDF_TYPE, vocab.RDFS_LABEL, "http://example.org/p"]
# Lexical forms whose N-Triples order differs from their plain order, and
# one with the same text as an IRI.
_LITERALS = [Literal(lexical, datatype)
             for lexical in ("", "a", "a b", 'a"', "a\n", "\t", "B", _NODES[0])
             for datatype in (vocab.XSD_STRING, vocab.XSD_DECIMAL)]
_TERMS = _NODES + _LITERALS
_triples = st.builds(Triple, st.sampled_from(_NODES),
                     st.sampled_from(_PREDICATES), st.sampled_from(_TERMS))


def _nt(term) -> str:
    """N-Triples rendering of a term, worked out here, not by the graph."""
    if isinstance(term, str):
        return f"<{term}>"
    quoted = f'"{_escape_by_loop(term.lexical)}"'
    return quoted if term.datatype == vocab.XSD_STRING \
        else f"{quoted}^^<{term.datatype}>"


def _in_order(oracle: set[Triple]) -> list[Triple]:
    return sorted(oracle, key=lambda t: (t.subject, t.predicate, _nt(t.object)))


def _turtle(oracle: set[Triple]) -> str:
    """The Turtle of a graph without prefixes, rendered from the oracle."""
    blocks = []
    for subject, group in groupby(_in_order(oracle), lambda t: t.subject):
        pairs = [("a" if predicate == vocab.RDF_TYPE else f"<{predicate}>")
                 + " " + ", ".join(_nt(t.object) for t in triples)
                 for predicate, triples in groupby(group, lambda t: t.predicate)]
        blocks.append(f"\n<{subject}> " + " ;\n    ".join(pairs) + " .\n")
    return "".join(blocks)


def _assert_graph_matches(graph: RdfGraph, oracle: set[Triple]) -> None:
    """Storage, serializations and every lookup against a plain set of
    the triples added."""
    assert len(graph) == len(oracle)
    assert set(graph) == oracle
    for triple in map(Triple._make, product(_NODES, _PREDICATES, _TERMS)):
        assert (triple in graph) == (triple in oracle)
    ordered = _in_order(oracle)
    assert list(graph) == ordered
    assert serialize_ntriples(graph) == "".join(
        f"<{t.subject}> <{t.predicate}> {_nt(t.object)} .\n" for t in ordered)
    assert serialize_turtle(graph) == _turtle(oracle)

    def scan(s=None, p=None, o=None):
        return [t for t in ordered if s in (None, t.subject)
                and p in (None, t.predicate) and o in (None, t.object)]

    for s in [*_NODES, "http://example.org/absent"]:
        for p in _PREDICATES:
            objects = [t.object for t in scan(s, p)]
            assert graph.objects(s, p) == objects
            assert graph.value(s, p) == (objects[0] if objects else None)
        assert graph.types_of(s) == [
            t.object for t in scan(s, vocab.RDF_TYPE)
            if isinstance(t.object, str)]
    for p in _PREDICATES:
        for o in [None, *_TERMS]:
            subjects = list(dict.fromkeys(t.subject for t in scan(None, p, o)))
            found = graph.subjects(p, o)
            assert found == subjects
            found.clear()  # the caller's own list: the next answer is whole
            assert graph.subjects(p, o) == subjects


_A, _P = _NODES[0], "http://example.org/p"


@given(st.lists(_triples, max_size=40), _triples)
@example([Triple(_A, _P, _A), Triple(_A, _P, Literal(_A)), Triple(_A, _P, _A)],
         Triple(_A, _P, Literal(_A, vocab.XSD_DECIMAL)))
@settings(max_examples=60)
def test_lookups_match_a_scan_of_the_sorted_triples(triples, added):
    graph = RdfGraph()
    oracle: set[Triple] = set()
    for triple in triples + triples[:3]:  # the repeats add nothing
        graph.add(*triple)
        oracle.add(triple)
    _assert_graph_matches(graph, oracle)
    other = RdfGraph()  # the same triples added in another order
    for triple in reversed(triples):
        other.add(*triple)
    assert other == graph
    # An add after the lookups above reaches every later lookup.
    graph.add(*added)
    oracle.add(added)
    assert added.object in graph.objects(added.subject, added.predicate)
    _assert_graph_matches(graph, oracle)
    assert (other == graph) == (added in other)


# --- parsing -------------------------------------------------------------------

def test_parse_single_triple_document():
    graph = parse_turtle(
        "@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
    assert set(graph) == {Triple("http://example.org/a",
                                 "http://example.org/p",
                                 "http://example.org/b")}
    assert graph.prefixes == {"ex": "http://example.org/"}


def test_parse_round_trips_fixture_graphs(bohemian_graph, michelle_model,
                                         mozart_score_model):
    graphs = [emit_graph(build_mozart_model()),
              emit_graph(build_michelle_model()), bohemian_graph,
              emit_graph(michelle_model), emit_graph(mozart_score_model)]
    for graph in graphs:
        parsed = parse_turtle(serialize_turtle(graph))
        assert parsed == graph
        for cq_id in (1, 2, 4, 8, 10):
            assert answer_cq(cq_id, parsed) == answer_cq(cq_id, graph)
        assert list(parse_turtle(serialize_ntriples(graph))) == list(graph)


def test_parse_accepts_bare_numbers_and_a():
    graph = parse_turtle(
        "@prefix ex: <http://example.org/> .\n"
        "ex:x a ex:Thing ;\n  ex:n 42 ;\n  ex:d 0.50 .")
    objects = {t.predicate: t.object for t in graph}
    assert objects["http://example.org/n"] == Literal("42", vocab.XSD_INTEGER)
    assert objects["http://example.org/d"] == Literal("0.50", vocab.XSD_DECIMAL)
    assert objects[vocab.RDF_TYPE] == "http://example.org/Thing"


def test_parse_skips_comments():
    graph = parse_turtle("# leading comment\n"
                         "@prefix ex: <http://example.org/> .\n"
                         "ex:a ex:p ex:b . # trailing comment\n")
    assert len(graph) == 1


def test_parse_string_escapes_round_trip():
    nasty = 'tab\t backslash\\ quote" newline\n cr\r bell\x07 unicodeé'
    graph = RdfGraph(prefixes={"ex": "http://example.org/"})
    graph.add("http://example.org/a", "http://example.org/p", Literal(nasty))
    for text in (serialize_turtle(graph), ):
        parsed = parse_turtle(text)
        assert parsed == graph


def test_parse_rejects_blank_nodes():
    with pytest.raises(UnsupportedConstruct):
        parse_turtle("@prefix ex: <http://e/> . ex:a ex:p [] .")
    with pytest.raises(UnsupportedConstruct):
        parse_turtle("@prefix ex: <http://e/> . _:b ex:p ex:a .")


def test_parse_rejects_collections_and_long_strings():
    with pytest.raises(UnsupportedConstruct):
        parse_turtle('@prefix ex: <http://e/> . ex:a ex:p (1 2) .')
    with pytest.raises(UnsupportedConstruct):
        parse_turtle('@prefix ex: <http://e/> . ex:a ex:p """x""" .')
    with pytest.raises(UnsupportedConstruct):
        parse_turtle('@prefix ex: <http://e/> . ex:a ex:p "x"@en .')
    with pytest.raises(UnsupportedConstruct):
        parse_turtle('@base <http://e/> .')


def test_parse_syntax_errors_report_location():
    with pytest.raises(TurtleSyntax) as excinfo:
        parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p .")
    assert excinfo.value.line == 2
    with pytest.raises(TurtleSyntax) as excinfo:
        parse_turtle('@prefix ex: <http://e/> . ex:a ex:p "unterminated')
    assert excinfo.value.line == 1
    with pytest.raises(TurtleSyntax):
        parse_turtle("zz:a zz:p zz:b .")  # undeclared prefix


def test_parse_preserves_literal_lexical_forms():
    graph = parse_turtle(
        '@prefix ex: <http://example.org/> .\n'
        '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
        'ex:a ex:p "1.500"^^xsd:decimal .')
    triple = next(iter(graph))
    assert triple.object == Literal("1.500", vocab.XSD_DECIMAL)


P = "@prefix ex: <http://e/> .\n"
SYNTAX, UNSUPPORTED = TurtleSyntax, UnsupportedConstruct

# What the earlier character-at-a-time parser did with each input: the
# error class and line, or the number of triples parsed.  Three changes are
# deliberate: a datatype that is no IRI is a syntax error (``^^[`` was an
# unsupported blank node), and so is an escape that names no Unicode
# scalar value (see test_parse_rejects_escapes_that_are_not_scalar_values)
# and a number written with non-ASCII digits, which Turtle's [0-9] excludes.
PINNED = [
    (P + 'ex:a ex:p .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "unterminated', (SYNTAX, 2)),
    ('zz:a zz:p zz:b .', (SYNTAX, 1)),
    (P + 'ex:a ex:p ex:b ; .', 1),
    (P + 'ex:a ex:p ex:b ;\n  ex:q ex:c ; .', 2),
    (P + 'ex:a ex:p [] .', (UNSUPPORTED, 2)),
    (P + '_:b ex:p ex:a .', (UNSUPPORTED, 2)),
    (P + 'ex:a ex:p (1 2) .', (UNSUPPORTED, 2)),
    (P + 'ex:a ex:p """x""" .', (UNSUPPORTED, 2)),
    (P + 'ex:a ex:p "x"@en .', (UNSUPPORTED, 2)),
    (P + 'ex:a ex:p "1"@prefix .', (UNSUPPORTED, 2)),
    ('@base <http://e/> .', (UNSUPPORTED, 1)),
    (P + "ex:a ex:p 'x' .", (UNSUPPORTED, 2)),
    ('@prefix ex <http://e/> .', (SYNTAX, 1)),
    ('@prefix ex:a <http://e/> .', (SYNTAX, 1)),
    ('@prefix ex: <http://e/>', (SYNTAX, 1)),
    ('@prefix ex: <http://e/', (SYNTAX, 1)),
    ('@prefix ex: http://e/ .', (SYNTAX, 1)),
    ('@foo <http://e/> .', (SYNTAX, 1)),
    (P + '<http://e/a b> ex:p ex:b .', (SYNTAX, 2)),
    (P + '<http://e/a\nb> ex:p ex:b .', (SYNTAX, 2)),
    (P + '<http://e/a<b> ex:p ex:b .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b ex:c .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x\\q" .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x\\u12" .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x\\', (SYNTAX, 2)),
    (P + 'ex:a ex:p "a\nb" .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "a\rb" .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x"^^[ .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x" ^^ex:d .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x"^^zz:d .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x"^^<http://e/ d> .', (SYNTAX, 2)),
    (P + 'ex:a ex:p + .', (SYNTAX, 2)),
    (P + 'ex:a ab ex:b .', (SYNTAX, 2)),
    (P + 'ex:a a# comment\n ex:b .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b ,, .', (SYNTAX, 2)),
    (P + 'ex:a ; .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b ; ; .', (SYNTAX, 2)),
    (':a :p :b .', (SYNTAX, 1)),
    (P + 'ex:a ex:-p ex:b .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b.c .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x""y" .', (SYNTAX, 2)),
    (P + 'ex:a ex:p "x"^^ex:d@en .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b [ .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b\n\n  (', (SYNTAX, 4)),
    (P + 'a ex:p ex:b .', (SYNTAX, 2)),
    (P + 'ex:a ex:p a .', (SYNTAX, 2)),
    (P + '1 ex:p ex:b .', (SYNTAX, 2)),
    (P + 'ex:a "p" ex:b .', (SYNTAX, 2)),
    (P + '"x" ex:p ex:b .', (SYNTAX, 2)),
    (P + '"""x""" ex:p ex:b .', (SYNTAX, 2)),
    (P + 'ex:a ex:p ex:b .5 .', (SYNTAX, 2)),
    (P + 'ex:a ex:p \u0663\u0664 .', (SYNTAX, 2)),
    (P + 'ex:a ex:p 1\u0663 .', (SYNTAX, 2)),
    (P + 'ex:a ex:p @base .', (SYNTAX, 2)),
    (P + 'ex:a [ ex:b .', (UNSUPPORTED, 2)),
    (P + "'x' ex:p ex:b .", (SYNTAX, 2)),
    (P + 'ex:a ex:p @prefix .', (SYNTAX, 2)),
    ('@prefix [ .', (SYNTAX, 1)),
    ('@prefix ex: [ .', (SYNTAX, 1)),
    ('@prefix ex: <http://e/> [', (SYNTAX, 1)),
    (P + '# only a comment\n\nex:a\n  ex:p\n  ex:b\n  ex:c .', (SYNTAX, 7)),
    (P + 'ex:a ex:p ex:b ;\n ex:q """long""" .', (UNSUPPORTED, 3)),
    (P + 'ex:a ex:p ex:b . ]', (SYNTAX, 2)),
    (P + 'ex:a ex:p\n  <http://e/b', (SYNTAX, 3)),
    (P + 'ex:a ex:p ex:b ;\n', (SYNTAX, 3)),
    (P + 'ex:a ex:p ex:b ,', (SYNTAX, 2)),
    (P + 'ex:a ex:p 1e5, .5, -2, +3.0 .', 4),
    (P + 'ex:a a<http://e/B> .', 1),
    ('', 0),
    ('   \n# nothing\n', 0),
    (P + '@prefix ex: <http://f/> .\nex:a ex:p ex:b .', 1),
]


@pytest.mark.parametrize("text, expected", PINNED)
def test_parse_keeps_each_error_class_and_line(text, expected):
    if isinstance(expected, int):
        assert len(parse_turtle(text)) == expected
        return
    error, line = expected
    with pytest.raises(MuseAnnoError) as excinfo:
        parse_turtle(text)
    assert type(excinfo.value) is error
    assert excinfo.value.line == line


@pytest.mark.parametrize("escape", ["\\UFFFFFFFF", "\\U00110000", "\\uD800",
                                    "\\udfff", "\\U0000DC00"])
def test_parse_rejects_escapes_that_are_not_scalar_values(escape):
    with pytest.raises(TurtleSyntax) as excinfo:
        parse_turtle(P + f'ex:a ex:p "ok" ;\n  ex:q "x{escape}" .')
    assert (excinfo.value.line, excinfo.value.column) == (3, 10)


def test_parse_decodes_escapes_up_to_the_last_scalar_value():
    graph = parse_turtle(
        P + 'ex:a ex:p "\\uD7FF\\uE000\\U0010FFFF\\U0001f3b5 \\t\\\\u0041" .')
    assert next(iter(graph)).object == Literal(
        "\ud7ff\ue000\U0010ffff\U0001f3b5 \t\\u0041")


def _parses_or_refuses(text: str) -> None:
    try:
        parse_turtle(text)
    except (TurtleSyntax, UnsupportedConstruct):
        pass


_TURTLE_BITS = st.sampled_from(
    ["<", ">", '"', "'", "\\", ":", ";", ",", ".", "@", "#", "^", "[", "(",
     "_", "a", "e", "x", "1", "+", "u", "U", "D", " ", "\n", "\r"])
_EMITTED_TURTLE = [serialize_turtle(emit_graph(build_mozart_model())),
                   serialize_turtle(emit_graph(build_michelle_model()))]


@given(st.sampled_from(["", P]),
       st.lists(st.one_of(_TURTLE_BITS, st.sampled_from(
           ["ex:a ", "<http://e/x>", '"""', "\\u", "\\U", "@prefix",
            "@base", "_:", "^^"]), st.characters()), max_size=30))
@settings(max_examples=200)
def test_parse_any_text_returns_a_graph_or_refuses_it(head, pieces):
    _parses_or_refuses(head + "".join(pieces))


@given(st.sampled_from(_EMITTED_TURTLE), st.integers(min_value=0),
       st.sampled_from(["delete", "insert", "replace"]),
       st.one_of(_TURTLE_BITS, st.characters()))
@settings(max_examples=200)
def test_parse_one_character_edits_of_emitted_turtle(text, where, edit, char):
    where %= len(text)
    if edit == "delete":
        text = text[:where] + text[where + 1:]
    elif edit == "insert":
        text = text[:where] + char + text[where:]
    else:
        text = text[:where] + char + text[where + 1:]
    _parses_or_refuses(text)


# The token reader that the split-and-resolve parser replaced, kept as the
# oracle: one match per token, dispatched on ``lastgroup``, each token
# resolved where it stands.  It shares the error classifier ``_error``.
_PN_LOCAL = r"[A-Za-z0-9_][A-Za-z0-9_\-]*"
_IRI = (r'<[^<>"{}|^`\x20\n\r\t]*>'
        rf"|(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:{_PN_LOCAL})?")
_ECHAR = (r"""\\(?:[tbnrf"'\\]|u(?![dD][89a-fA-F])[0-9A-Fa-f]{4}"""
          r"|U(?:0000(?![dD][89a-fA-F])|000[1-9A-Fa-f]|0010)[0-9A-Fa-f]{4})")
_STRING_BODY = rf'[^"\\\n\r]*(?:{_ECHAR}[^"\\\n\r]*)*'
_ORACLE_TOKEN_RE = re.compile(rf"""
    (?:[\ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<iri>{_IRI})
      | (?P<string>"(?!"")(?P<lexical>{_STRING_BODY})"
                   (?:\^\^(?P<datatype>{_IRI}))?)
      | (?P<number>[+-]?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)
                  (?P<exponent>[eE][+-]?[0-9]+)?)
      | (?P<a>a)(?![^\ \t\r\n<])
      | (?P<dot>\.) | (?P<semicolon>;) | (?P<comma>,)
      | (?P<directive>@prefix)
      | (?P<end>\Z)
      | (?P<error>)
    )""", re.VERBOSE)


def _parse_by_token_loop(text: str) -> RdfGraph:
    graph = RdfGraph()
    prefixes = graph.prefixes
    # One str per distinct IRI: a graph repeats each IRI in many triples.
    iris: dict[str, str] = {}
    tokens = _ORACLE_TOKEN_RE.finditer(text)

    def iri(name: str, at: int) -> str:
        if name[0] == "<":
            name = name[1:-1]
        else:
            prefix, _, local = name.partition(":")
            if prefix not in prefixes:
                raise TurtleSyntax(f"undeclared prefix {prefix!r}",
                                   *line_column(text, at))
            name = prefixes[prefix] + local
        return iris.setdefault(name, name)

    def term(m: re.Match, role: str):
        kind = m.lastgroup
        if kind == "iri":
            return iri(m["iri"], m.start(kind))
        if kind == "a" and role == "predicate":
            return vocab.RDF_TYPE
        if kind == "string" and role == "object":
            lexical = m["lexical"]
            if "\\" in lexical:
                lexical = _UNESCAPE_RE.sub(
                    lambda e: _UNESCAPES.get(e[1]) or chr(int(e[1][1:], 16)),
                    lexical)
            datatype = m["datatype"]
            if datatype is None:
                return Literal(lexical)
            return Literal(lexical, iri(datatype, m.start("datatype")))
        if kind == "number" and role == "object":
            lexical = m["number"]
            if m["exponent"]:
                return Literal(lexical, vocab.XSD + "double")
            return Literal(lexical, vocab.XSD_DECIMAL if "." in lexical
                           else vocab.XSD_INTEGER)
        raise _error(text, m, f"an IRI or prefixed name as {role}",
                     _UNSUPPORTED[role])

    for m in tokens:
        if m.lastgroup == "end":
            break
        if m.lastgroup == "directive":
            name = next(tokens)
            if name.lastgroup != "iri" or not name["iri"].endswith(":"):
                raise _error(text, name, "a prefix name ending in ':'")
            namespace = next(tokens)
            if namespace.lastgroup != "iri" or namespace["iri"][0] != "<":
                raise _error(text, namespace, "an IRI")
            m = next(tokens)
            if m.lastgroup != "dot":
                raise _error(text, m, "'.'")
            prefixes[name["iri"][:-1]] = namespace["iri"][1:-1]
            continue
        subject = term(m, "subject")
        m = next(tokens)
        while True:
            predicate = term(m, "predicate")
            while True:
                graph.add(subject, predicate, term(next(tokens), "object"))
                m = next(tokens)
                if m.lastgroup != "comma":
                    break
            if m.lastgroup == "semicolon":
                m = next(tokens)
                if m.lastgroup != "dot":  # else the tolerated "; ." tail
                    continue
            elif m.lastgroup != "dot":
                raise _error(text, m, "'.'")
            break
    return graph


def _outcome(parse, text: str):
    """The graph and prefixes a parser returns, or the error it raises."""
    try:
        graph = parse(text)
    except MuseAnnoError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return set(graph), graph.prefixes


def _assert_parses_as_the_token_loop(text: str) -> None:
    assert _outcome(parse_turtle, text) == _outcome(_parse_by_token_loop, text)


_ODD_CASES = [
    P + "ex:a ex:p ex:b . # comment at the end, no newline",
    P + "ex:a ex:p # ex:b .",
    P + "ex:a ex:p ex:b . # a\n!",
    P + "ex:a ex:p # c ex:b\n!",  # no token is found inside a comment
    P + "ex:a ex:p ex:b . #",
    P + "ex:a ex:p .5 .",
    P + "ex:a ex:p 1. .",
    P + "ex:a ex:p 1.",
    P + "ex:a ex:p 1e5, 2E-3, 1.5e+2 .",
    P + "ex:a ex:p 1e5,",
    P + "ex:a a# comment\n ex:b .",
    P + "ex:a a#\nex:b .",
    P + "ex:s ex:p ex:o.",
    P + "ex:s ex:p ex:o.ex:t ex:p ex:o.",
    "<> <> <> .",
    P + "<> a <>, ex:o ; ex:p <> .",
    P + 'ex:a ex:p "1"^^ex:d .\n@prefix ex: <http://f/> .\n'
        'ex:a ex:p "1"^^ex:d, ex:b .',
    P + "ex:a ex:p ex:b .\n@prefix ex: <http://f/> .\nex:a ex:p ex:b .",
    P + "ex:a ex:p ex:b .\n@prefix zz: <http://f/> .\nzz:a ex:p yy:b .",
    P + 'ex:a ex:p "x"^^yy:d .',
    P + 'ex:a ex:p "a:b", "c"^^ex: .',
    '@prefix "x"^^ex: <http://e/> .',
]


@pytest.mark.parametrize("text", _ODD_CASES + [text for text, _ in PINNED])
def test_parse_matches_the_token_loop_on_odd_and_pinned_inputs(text):
    _assert_parses_as_the_token_loop(text)


@given(st.sampled_from(["", P]),
       st.lists(st.one_of(_TURTLE_BITS, st.sampled_from(
           ["ex:a ", "ex:p ", "<http://e/x>", '"x"', '"""', "^^ex:d", "1.",
            ".5", "1e5", "\\u", "\\U", "@prefix ex: <http://f/> .",
            "@base", "_:", "#", "# c\n", " a "]), st.characters()),
                max_size=30))
@settings(max_examples=200)
def test_parse_matches_the_token_loop_on_token_soup(head, pieces):
    _assert_parses_as_the_token_loop(head + "".join(pieces))


@given(st.sampled_from(_EMITTED_TURTLE),
       st.lists(st.tuples(st.integers(min_value=0),
                          st.sampled_from(["delete", "insert", "replace"]),
                          st.one_of(_TURTLE_BITS, st.characters())),
                min_size=1, max_size=3))
@settings(max_examples=200)
def test_parse_matches_the_token_loop_on_edits_of_emitted_turtle(text, edits):
    for where, edit, char in edits:
        where %= len(text)
        if edit == "delete":
            text = text[:where] + text[where + 1:]
        elif edit == "insert":
            text = text[:where] + char + text[where:]
        else:
            text = text[:where] + char + text[where + 1:]
    _assert_parses_as_the_token_loop(text)


# --- the write path against the triple-at-a-time one ------------------------------

# The emitter and Turtle writer that ``RdfGraph.describe`` and the one-pass
# subject blocks replaced, kept as oracles: one ``add`` per triple, the time
# terms worked out per part, and a prefix loop per IRI.
_TIME_TYPE_IRIS = {
    MusicTimeValueType.SECONDS: vocab.MAP + "Seconds",
    MusicTimeValueType.MILLISECONDS: vocab.MAP + "Milliseconds",
    MusicTimeValueType.MINUTES: vocab.MAP + "Minutes",
    MusicTimeValueType.MEASURE: vocab.MAP + "Measure",
    MusicTimeValueType.BEAT: vocab.MAP + "Beat",
}


def _emit_by_triples(model: AnnotationModel) -> RdfGraph:
    graph = RdfGraph(prefixes={**vocab.DEFAULT_PREFIXES, "ex": model.base_iri})
    subject = model.subject
    if subject is not None:
        graph.add(subject.id, vocab.RDF_TYPE, vocab.object_class(subject.kind))
        if subject.title:
            graph.add(subject.id, vocab.RDFS_LABEL, Literal(subject.title))
    values_seen = set()
    for annotation in model.annotations:
        if subject is not None:
            graph.add(subject.id, vocab.HAS_MUSIC_ANNOTATION, annotation.id)
        _emit_annotation_by_triples(graph, annotation, model.base_iri,
                                    values_seen)
    return graph


def _emit_annotation_by_triples(graph, annotation, base_iri, values_seen):
    graph.add(annotation.id, vocab.RDF_TYPE,
              vocab.annotation_class(annotation.modality))
    annotator = annotation.annotator
    graph.add(annotation.id, vocab.HAS_ANNOTATOR, annotator.id)
    graph.add(annotator.id, vocab.IS_ANNOTATOR_OF, annotation.id)
    graph.add(annotator.id, vocab.RDF_TYPE, vocab.ANNOTATOR)
    if annotator.name:
        graph.add(annotator.id, vocab.RDFS_LABEL, Literal(annotator.name))
    graph.add(annotator.id, vocab.HAS_ANNOTATOR_TYPE,
              vocab.annotator_type_iri(annotator.annotator_type, base_iri))
    _emit_interval_by_triples(graph, annotation.id, annotation.interval)
    for obs in annotation.observations:
        graph.add(annotation.id, vocab.INCLUDES_MUSIC_OBSERVATION, obs.id)
        graph.add(obs.id, vocab.RDF_TYPE, vocab.observation_class(obs.modality))
        graph.add(obs.id, vocab.HAS_ANNOTATOR, annotator.id)
        _emit_interval_by_triples(graph, obs.id, obs.interval)
        value = obs.value
        graph.add(obs.id, vocab.HAS_MUSIC_OBSERVATION_VALUE, value.id)
        if value not in values_seen:
            values_seen.add(value)
            graph.add(value.id, vocab.RDF_TYPE, vocab.value_class_iri(value.kind))
            graph.add(value.id, vocab.RDFS_LABEL, Literal(value.label))
        if obs.confidence is not None:
            graph.add(obs.id, vocab.HAS_CONFIDENCE,
                      Literal(format(obs.confidence, "f"), vocab.XSD_DECIMAL))


def _emit_interval_by_triples(graph, owner_iri, interval):
    iv, ix = owner_iri + "/interval", owner_iri + "/interval/index"
    du = owner_iri + "/interval/duration"
    graph.add(owner_iri, vocab.HAS_MUSIC_TIME_INTERVAL, iv)
    graph.add(iv, vocab.RDF_TYPE, vocab.MUSIC_TIME_INTERVAL)
    graph.add(iv, vocab.HAS_MUSIC_TIME_INDEX, ix)
    graph.add(iv, vocab.HAS_MUSIC_TIME_DURATION, du)
    graph.add(ix, vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX)
    for position, component in enumerate(interval.index.components):
        comp = f"{owner_iri}/interval/index/{position}"
        graph.add(ix, vocab.HAS_MUSIC_TIME_INDEX_COMPONENT, comp)
        graph.add(comp, vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX_COMPONENT)
        graph.add(comp, vocab.HAS_TIME_VALUE, _time_literal(component))
        graph.add(comp, vocab.HAS_MUSIC_TIME_VALUE_TYPE,
                  _TIME_TYPE_IRIS[component.value_type])
    duration = interval.duration
    graph.add(du, vocab.RDF_TYPE, vocab.MUSIC_TIME_DURATION)
    graph.add(du, vocab.HAS_TIME_VALUE, _time_literal(duration))
    graph.add(du, vocab.HAS_MUSIC_TIME_VALUE_TYPE,
              _TIME_TYPE_IRIS[duration.value_type])


def _time_literal(part) -> Literal:
    if part.value_type is MusicTimeValueType.MEASURE:
        return Literal(str(int(part.value)), vocab.XSD_INTEGER)
    return Literal(format(part.value, "f"), vocab.XSD_DECIMAL)


def _turtle_by_prefix_loop(graph: RdfGraph) -> str:
    prefixes = sorted(graph.prefixes.items())
    rendered = {}

    def render(term):
        if isinstance(term, str):
            text = f"<{term}>"
            for prefix, namespace in prefixes:
                if namespace and term.startswith(namespace):
                    local = term[len(namespace):]
                    if re.fullmatch(r"[A-Za-z0-9_][A-Za-z0-9_\-]*", local):
                        text = f"{prefix}:{local}"
                        break
        else:
            text = f'"{_escape_by_loop(term.lexical)}"'
            if term.datatype != vocab.XSD_STRING:
                text += "^^" + (rendered.get(term.datatype)
                                or render(term.datatype))
        rendered[term] = text
        return text

    out = [f"@prefix {prefix}: <{namespace}> .\n"
           for prefix, namespace in prefixes]
    for subject, triples in groupby(_in_order(set(graph)),
                                    lambda t: t.subject):
        out.append("\n" + render(subject))
        separator = " "
        for predicate, group in groupby(triples, lambda t: t.predicate):
            out.append(separator)
            out.append("a " if predicate == vocab.RDF_TYPE
                       else render(predicate) + " ")
            out.append(", ".join(render(t.object) for t in group))
            separator = " ;\n    "
        out.append(" .\n")
    return "".join(out)


def _ntriples_of_sorted_triples(graph: RdfGraph) -> str:
    return "".join(f"<{t.subject}> <{t.predicate}> {_nt(t.object)} .\n"
                   for t in _in_order(set(graph)))


def _assert_writes_as_the_triple_path(model: AnnotationModel) -> None:
    graph = emit_graph(model, [])
    oracle = _emit_by_triples(model)
    assert graph == oracle
    assert len(graph) == len(oracle) == len(set(oracle))
    assert list(graph) == _in_order(set(oracle))
    assert serialize_turtle(graph) == _turtle_by_prefix_loop(oracle)
    assert serialize_ntriples(graph) == _ntriples_of_sorted_triples(oracle)


@given(any_models)
@settings(max_examples=60)
def test_generated_models_write_as_the_triple_path(model):
    _assert_writes_as_the_triple_path(model)


def _shared_ids() -> AnnotationModel:
    """Two observations with one id, but their own values and intervals."""
    model = valid_model()
    obs = model.annotations[0].observations[0]
    twin = replace(obs, interval=audio_interval("4.5", "0.25"),
                   value=ObservationValue(EX + "value/chord/d", CHORD_KIND, "D"),
                   confidence=None)
    return _with_observations(model, (obs, twin))


def _observation_on_an_interval(node: str, first: bool) -> AnnotationModel:
    """An observation whose id is a node that another entity's interval
    derives, emitted before or after that node."""
    model = valid_model(Modality.SCORE)
    obs = model.annotations[0].observations[0]
    clash = replace(obs, id=obs.id + node,
                    value=ObservationValue(EX + "value/segment/x",
                                           SEGMENT_KIND, "x"))
    return _with_observations(model, (clash, obs) if first else (obs, clash))


def _values_sharing_an_id() -> AnnotationModel:
    """Three observations whose values share one id: the first and the
    last equal but distinct objects, the middle one a different value."""
    model = valid_model()
    obs = model.annotations[0].observations[0]
    values = (obs.value, replace(obs.value, label="D"), replace(obs.value))
    return _with_observations(model, tuple(
        replace(obs, id=f"{obs.id}-{k}", value=value)
        for k, value in enumerate(values)))


def _with_observations(model, observations) -> AnnotationModel:
    annotation = replace(model.annotations[0], observations=observations)
    return replace(model, annotations=(annotation,))


_EDGE_MODELS = {
    "shared observation id": _shared_ids,
    "values sharing an id": _values_sharing_an_id,
    **{f"observation id is {node}, {order}":
       lambda node=node, first=first: _observation_on_an_interval(node, first)
       for node in ("/interval", "/interval/index", "/interval/index/1",
                    "/interval/duration")
       for order, first in (("first", True), ("last", False))},
    "observation id is the annotation's interval": lambda: _with_observations(
        valid_model(), (replace(valid_model().annotations[0].observations[0],
                                id=EX + "annotation/t/0/interval"),)),
    "two-component score indices": lambda: valid_model(Modality.SCORE),
    "no subject": lambda: replace(valid_model(), subject=None),
    "no annotations": AnnotationModel,
}


@pytest.mark.parametrize("name", sorted(_EDGE_MODELS))
def test_edge_models_write_as_the_triple_path(name):
    _assert_writes_as_the_triple_path(_EDGE_MODELS[name]())


def test_describe_meets_an_existing_subject():
    graph = RdfGraph()
    graph.add(_A, _P, Literal("x"))
    graph._describe(_A, {_P: Literal("x"), vocab.RDF_TYPE: _NODES[1]})
    graph._describe(_NODES[2], {_P: _A})
    assert len(graph) == 3
    assert set(graph) == {Triple(_A, _P, Literal("x")),
                          Triple(_A, vocab.RDF_TYPE, _NODES[1]),
                          Triple(_NODES[2], _P, _A)}
    assert graph.subjects(_P, _A) == [_NODES[2]]
    graph._describe(_NODES[2], {_P: _NODES[3]})  # a second object for a pair
    assert graph.objects(_NODES[2], _P) == [_A, _NODES[3]]
    assert len(graph) == 4


def test_describe_with_no_pairs_adds_nothing():
    graph, bare = RdfGraph(), RdfGraph()
    for g in (graph, bare):
        g.add(_A, _P, Literal("x"))
    graph._describe(_NODES[1], {})
    graph._describe(_A, {})
    assert graph == bare
    assert len(graph) == 1
    assert serialize_turtle(graph) == serialize_turtle(bare)
    assert parse_turtle(serialize_turtle(graph)) == bare


def test_the_dict_a_graph_keeps_is_not_shared():
    # _describe keeps a new subject's dict: only the emitter calls it, and
    # it builds a fresh dict for every node.
    assert not hasattr(RdfGraph, "describe")
    graph = emit_graph(build_mozart_model())
    maps = list(graph._spo.values())
    assert len({id(pairs) for pairs in maps}) == len(maps)
    assert len(graph) == len(list(graph))


_NAMESPACES = ["", "http://x/", "http://x/y", "http://x/y#", "http://x/y#z",
               "http://e/", "urn:"]
_WRITE_IRIS = ["http://x/a", "http://x/y", "http://x/yz", "http://x/y#",
               "http://x/y#p", "http://x/y#z-1", "http://x/y#zz", "http://x/a.b",
               "http://x/-a", "http://x/_", "http://e/a/b", "urn:x", "http://z/"]
_write_terms = st.one_of(
    st.sampled_from(_WRITE_IRIS),
    st.builds(Literal, st.sampled_from(["", "1", 'a"b', "a\nb", " "]),
              st.sampled_from([vocab.XSD_STRING, *_WRITE_IRIS])))


@given(st.dictionaries(st.sampled_from(["a", "b", "c", "ex", "z", "rdf"]),
                       st.sampled_from(_NAMESPACES), max_size=5),
       st.lists(st.tuples(st.sampled_from(_WRITE_IRIS),
                          st.sampled_from([vocab.RDF_TYPE, *_WRITE_IRIS]),
                          _write_terms), max_size=30))
@example({"a": "http://x/", "b": "http://x/y#", "c": "http://x/y"},
         [("http://x/y#p", vocab.RDF_TYPE, "http://x/y#"),
          ("http://x/a.b", "http://x/y#p", vocab.RDF_TYPE),
          ("http://x/y#p", "http://x/y#p", "http://x/yz")])
@settings(max_examples=150)
def test_turtle_and_ntriples_write_as_the_triple_path(prefixes, triples):
    graph = RdfGraph(prefixes=prefixes)
    for triple in triples:
        graph.add(*triple)
    assert serialize_turtle(graph) == _turtle_by_prefix_loop(graph)
    assert serialize_ntriples(graph) == _ntriples_of_sorted_triples(graph)


# Turtle forgets a subject's rendering once its block is written; each case
# meets such a term again in a later block.
_X = {name: f"http://x/{name}" for name in ("0", "a", "b", "c", "p")}
_MET_AGAIN = {
    "object": [(_X["a"], _X["p"], _X["c"]), (_X["b"], _X["p"], _X["a"])],
    "object before and after": [(_X["0"], _X["p"], _X["a"]),
                                (_X["a"], _X["p"], _X["c"]),
                                (_X["b"], _X["p"], _X["a"])],
    "own object": [(_X["a"], _X["p"], _X["a"]), (_X["b"], _X["p"], _X["a"])],
    "one of a set": [(_X["a"], _X["p"], _X["c"]), (_X["b"], _X["p"], _X["a"]),
                     (_X["b"], _X["p"], _X["c"])],
    "datatype": [(_X["a"], _X["p"], _X["c"]),
                 (_X["b"], _X["p"], Literal("1", _X["a"]))],
    "predicate": [(_X["a"], _X["p"], _X["c"]), (_X["b"], _X["a"], _X["c"])],
    "verb, then object": [(_X["a"], _X["p"], _X["c"]),
                          (_X["p"], _X["p"], _X["a"]),
                          (_X["b"], _X["p"], _X["p"])],
    "unprefixed": [("http://o/a", _X["p"], _X["c"]),
                   (_X["b"], _X["p"], "http://o/a")],
}


@pytest.mark.parametrize("case", sorted(_MET_AGAIN))
@pytest.mark.parametrize("fmt", ["nt", "ttl"])
def test_a_term_met_after_its_subject_block_writes_as_the_triple_path(
        case, fmt):
    graph = RdfGraph(prefixes={"ex": "http://x/"})
    for triple in _MET_AGAIN[case]:
        graph.add(*triple)
    serialize, oracle = {
        "nt": (serialize_ntriples, _ntriples_of_sorted_triples),
        "ttl": (serialize_turtle, _turtle_by_prefix_loop)}[fmt]
    text = serialize(graph)
    assert text == oracle(graph)
    out = StringIO()
    assert serialize(graph, out) is None
    assert out.getvalue() == text
    assert list(parse_turtle(text)) == list(graph)


# --- Literal as a tuple -------------------------------------------------------------

def test_literal_keeps_its_fields_default_and_repr():
    assert Literal("1", vocab.XSD_INTEGER) != Literal("1")
    assert Literal("1") == Literal("1", vocab.XSD_STRING)
    assert Literal("x").datatype == vocab.XSD_STRING
    assert repr(Literal("x")) == (
        "Literal(lexical='x', datatype='http://www.w3.org/2001/XMLSchema#string')")
    assert repr(Literal("1", vocab.XSD_INTEGER)) == (
        "Literal(lexical='1', "
        "datatype='http://www.w3.org/2001/XMLSchema#integer')")
    for text in (_A, "x", vocab.XSD_STRING):
        assert Literal(text) != text and text != Literal(text)
        assert Literal(text, _A) != text and Literal(text, _A) != _A


def test_a_literal_object_is_never_unpacked():
    graph = RdfGraph()
    literal = Literal("x", _NODES[1])
    graph.add(_A, _P, literal)
    for stray in ("x", _NODES[1], Literal("x")):
        assert Triple(_A, _P, stray) not in graph
        assert graph.subjects(_P, stray) == []
    assert Triple(_A, _P, literal) in graph
    assert len(graph) == 1
    assert graph.objects(_A, _P) == [literal]
    assert graph.value(_A, _P) == literal
    assert list(graph) == [Triple(_A, _P, literal)]
    assert graph.subjects(_P, literal) == [_A]
    assert graph.types_of(_A) == []
    graph.add(_A, _P, literal)  # a repeat adds nothing
    graph.add(_A, _P, "x")  # an IRI with the literal's text is another object
    assert len(graph) == 2
    assert graph.objects(_A, _P) == [literal, "x"]  # in N-Triples order
