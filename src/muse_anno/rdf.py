"""RDF materialization: graph type, emitter, serializers, Turtle parser.

The graph is a plain set of triples with a prefix map.  Lookups by
subject or predicate go through a hash index that the first lookup builds
and ``add`` drops, so building a graph pays nothing for it and a query
never scans it.
Everything here is deterministic by construction: entity IRIs come from
the minting scheme, prefixes are sorted by name, and literals keep their
source lexical forms.  Triples are put in (subject, predicate, object)
codepoint order only at serialization time: N-Triples sorts the whole
graph, Turtle groups the triples by subject and sorts the subjects and
then each subject's few triples.  Serializing the same graph twice yields
identical bytes on any platform.

``parse_turtle`` understands exactly the subset ``serialize_turtle``
emits (prefix declarations, IRIs, prefixed names, ``a``, typed and plain
literals, bare numbers, ``;``/``,`` abbreviation) and refuses everything
else, so round-trips are testable without dragging in an RDF stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from . import vocab
from .errors import TurtleSyntax, UnsupportedConstruct, UnvalidatedModel
from .iri import component_iri, duration_iri, index_iri, interval_iri
from .model import AnnotationModel, MusicAnnotation, MusicTimeInterval
from .util import decimal_lexical
from .validate import Severity, Violation, validate_model


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed RDF literal; plain strings carry xsd:string."""

    lexical: str
    datatype: str = vocab.XSD_STRING


Term = str | Literal  # IRIs travel as bare strings
# subject -> predicate -> objects, and predicate -> object -> subjects.
_Index = tuple[dict[str, dict[str, list[Term]]],
               dict[str, dict[Term, list[str]]]]


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: Term


@dataclass(eq=False)
class RdfGraph:
    """Set of triples plus a prefix map; equality is plain set equality.

    ``triples`` is the only storage.  The first lookup builds an index in
    one pass over it: subject -> predicate -> objects (ordered by their
    N-Triples form) and predicate -> object -> subjects (in codepoint
    order), so lookups return what a scan of the sorted triples would, in
    the same order.  ``add`` drops the index; only the serializers put
    the whole graph in order.
    """

    triples: set[Triple] = field(default_factory=set)
    prefixes: dict[str, str] = field(default_factory=dict)
    _index: _Index | None = field(default=None, repr=False)

    def add(self, subject: str, predicate: str, obj: Term) -> None:
        self.triples.add(Triple(subject, predicate, obj))
        self._index = None

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdfGraph):
            return NotImplemented
        return self.triples == other.triples and self.prefixes == other.prefixes

    def sorted_triples(self) -> list[Triple]:
        return sorted(self.triples, key=_triple_key)

    def _lookup(self) -> _Index:
        if self._index is None:
            by_subject: dict[str, dict[str, list[Term]]] = {}
            by_predicate: dict[str, dict[Term, list[str]]] = {}
            for s, p, o in self.triples:
                by_subject.setdefault(s, {}).setdefault(p, []).append(o)
                by_predicate.setdefault(p, {}).setdefault(o, []).append(s)
            for predicates in by_subject.values():
                for objects in predicates.values():
                    if len(objects) > 1:
                        objects.sort(key=nt_term)
            for objects_map in by_predicate.values():
                for subjects in objects_map.values():
                    if len(subjects) > 1:
                        subjects.sort()
            self._index = by_subject, by_predicate
        return self._index

    def matching(self, subject: str | None = None, predicate: str | None = None,
                 obj: Term | None = None) -> Iterator[Triple]:
        """Triples matching the given terms, in sorted triple order."""
        if subject is not None:
            predicates = self._lookup()[0].get(subject, {})
            for p in sorted(predicates) if predicate is None else [predicate]:
                for o in predicates.get(p, ()):
                    if obj is None or o == obj:
                        yield Triple(subject, p, o)
        elif predicate is not None:
            objects = self._lookup()[1].get(predicate, {})
            if obj is not None:
                for s in objects.get(obj, ()):
                    yield Triple(s, predicate, obj)
            else:
                yield from sorted((Triple(s, predicate, o)
                                   for o, subjects in objects.items()
                                   for s in subjects), key=_triple_key)
        else:
            yield from sorted((t for t in self.triples
                               if obj is None or t.object == obj),
                              key=_triple_key)

    def objects(self, subject: str, predicate: str) -> list[Term]:
        return list(self._lookup()[0].get(subject, {}).get(predicate, ()))

    def value(self, subject: str, predicate: str) -> Term | None:
        found = self._lookup()[0].get(subject, {}).get(predicate)
        return found[0] if found else None

    def subjects(self, predicate: str | None = None,
                 obj: Term | None = None) -> list[str]:
        if predicate is None:
            return sorted({t.subject for t in self.triples
                           if obj is None or t.object == obj})
        objects = self._lookup()[1].get(predicate, {})
        if obj is not None:
            return list(objects.get(obj, ()))
        return sorted({s for subjects in objects.values() for s in subjects})

    def types_of(self, subject: str) -> list[str]:
        return [o for o in self.objects(subject, vocab.RDF_TYPE)
                if isinstance(o, str)]


def _triple_key(triple: Triple) -> tuple[str, str, str]:
    return triple.subject, triple.predicate, nt_term(triple.object)


# --- emission ----------------------------------------------------------------

def emit_graph(model: AnnotationModel,
               violations: list[Violation] | None = None) -> RdfGraph:
    """Materialize a model as RDF using the pattern vocabulary.

    The model must validate without Errors (warnings are fine); otherwise
    UnvalidatedModel is raised.  A caller that has just run
    ``validate_model(model)`` passes its result as ``violations``, so the
    model is not validated twice; without it, emit_graph validates.  The
    annotator property chain is materialized: every observation gets an
    explicit hasAnnotator triple pointing at its annotation's annotator,
    and isAnnotatorOf is emitted as the inverse on the annotator itself.
    """
    if violations is None:
        violations = validate_model(model)
    errors = [v for v in violations if v.severity is Severity.ERROR]
    if errors:
        codes: list[str] = []
        for violation in errors:
            if violation.code not in codes:
                codes.append(violation.code)
        raise UnvalidatedModel(codes)

    graph = RdfGraph(prefixes={**vocab.DEFAULT_PREFIXES, "ex": model.base_iri})
    subject = model.subject
    if subject is not None:
        graph.add(subject.id, vocab.RDF_TYPE, vocab.object_class(subject.kind))
        if subject.title:
            graph.add(subject.id, vocab.RDFS_LABEL, Literal(subject.title))

    for annotation in model.annotations:
        _emit_annotation(graph, annotation, model.base_iri)
    return graph


def _emit_annotation(graph: RdfGraph, annotation: MusicAnnotation,
                     base_iri: str) -> None:
    graph.add(annotation.subject, vocab.HAS_MUSIC_ANNOTATION, annotation.id)
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

    _emit_interval(graph, annotation.id, annotation.interval)

    for obs in annotation.observations:
        graph.add(annotation.id, vocab.INCLUDES_MUSIC_OBSERVATION, obs.id)
        graph.add(obs.id, vocab.RDF_TYPE, vocab.observation_class(obs.modality))
        # Materialized property chain: isAnnotatorOf o includesMusicObservation.
        graph.add(obs.id, vocab.HAS_ANNOTATOR, annotator.id)
        _emit_interval(graph, obs.id, obs.interval)
        graph.add(obs.id, vocab.HAS_MUSIC_OBSERVATION_VALUE, obs.value.id)
        graph.add(obs.value.id, vocab.RDF_TYPE, vocab.value_class_iri(obs.value.kind))
        graph.add(obs.value.id, vocab.RDFS_LABEL, Literal(obs.value.label))
        if obs.confidence is not None:
            graph.add(obs.id, vocab.HAS_CONFIDENCE,
                      Literal(decimal_lexical(obs.confidence), vocab.XSD_DECIMAL))


def _emit_interval(graph: RdfGraph, owner_iri: str,
                   interval: MusicTimeInterval) -> None:
    iv = interval_iri(owner_iri)
    ix = index_iri(owner_iri)
    du = duration_iri(owner_iri)
    graph.add(owner_iri, vocab.HAS_MUSIC_TIME_INTERVAL, iv)
    graph.add(iv, vocab.RDF_TYPE, vocab.MUSIC_TIME_INTERVAL)
    graph.add(iv, vocab.HAS_MUSIC_TIME_INDEX, ix)
    graph.add(iv, vocab.HAS_MUSIC_TIME_DURATION, du)
    graph.add(ix, vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX)
    for position, component in enumerate(interval.index.components):
        comp = component_iri(owner_iri, position)
        graph.add(ix, vocab.HAS_MUSIC_TIME_INDEX_COMPONENT, comp)
        graph.add(comp, vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX_COMPONENT)
        graph.add(comp, vocab.HAS_TIME_VALUE, _time_literal(component))
        graph.add(comp, vocab.HAS_MUSIC_TIME_VALUE_TYPE,
                  vocab.time_type_iri(component.value_type))
    duration = interval.duration
    graph.add(du, vocab.RDF_TYPE, vocab.MUSIC_TIME_DURATION)
    graph.add(du, vocab.HAS_TIME_VALUE, _time_literal(duration))
    graph.add(du, vocab.HAS_MUSIC_TIME_VALUE_TYPE,
              vocab.time_type_iri(duration.value_type))


def _time_literal(part) -> Literal:
    return Literal(vocab.time_value_lexical(part.value, part.value_type),
                   vocab.time_value_datatype(part.value_type))


# --- serialization -----------------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
            "\t": "\\t", "\b": "\\b", "\f": "\\f"}
# C0/C1 controls and the Unicode line separators are all legal raw in the
# grammar, but they wreck line-oriented consumers, so they get numeric
# escapes; the short escapes above take precedence over those.
_ESCAPE_TABLE = {code: f"\\u{code:04X}"
                 for code in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}
_ESCAPE_TABLE.update({ord(ch): escaped for ch, escaped in _ESCAPES.items()})


def _escape_string(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def nt_term(term: Term) -> str:
    """N-Triples rendering; doubles as the canonical sort key for objects."""
    if isinstance(term, str):
        return f"<{term}>"
    quoted = f'"{_escape_string(term.lexical)}"'
    if term.datatype == vocab.XSD_STRING:
        return quoted
    return f"{quoted}^^<{term.datatype}>"


def serialize_ntriples(graph: RdfGraph) -> str:
    lines = []
    for triple in graph.sorted_triples():
        lines.append(f"<{triple.subject}> <{triple.predicate}> "
                     f"{nt_term(triple.object)} .\n")
    return "".join(lines)


_PN_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_\-]*$")


def serialize_turtle(graph: RdfGraph) -> str:
    """Deterministic Turtle: sorted prefixes, then subject blocks in
    (subject, predicate, object) codepoint order, one blank line apart.

    An IRI is written as a prefixed name under the first prefix, in name
    order, whose namespace it extends by a valid local name, else as
    ``<IRI>``.  Each distinct term is rendered once per call.
    """
    prefixes = sorted(graph.prefixes.items())
    rendered: dict[Term, str] = {}

    def render(term: Term) -> str:
        if isinstance(term, str):
            text = f"<{term}>"
            for prefix, namespace in prefixes:
                if namespace and term.startswith(namespace):
                    local = term[len(namespace):]
                    if _PN_LOCAL_RE.match(local):
                        text = f"{prefix}:{local}"
                        break
        else:
            text = f'"{_escape_string(term.lexical)}"'
            if term.datatype != vocab.XSD_STRING:
                datatype = term.datatype
                text += "^^" + (rendered.get(datatype) or render(datatype))
        rendered[term] = text
        return text

    by_subject: dict[str, list[Triple]] = {}
    for triple in graph.triples:
        group = by_subject.get(triple.subject)
        if group is None:
            by_subject[triple.subject] = [triple]
        else:
            group.append(triple)

    out = [f"@prefix {prefix}: <{namespace}> .\n"
           for prefix, namespace in prefixes]
    for subject in sorted(by_subject):
        group = by_subject[subject]
        if len(group) > 1:
            group.sort(key=_triple_key)
        out.append("\n")
        out.append(rendered.get(subject) or render(subject))
        last = None
        for _, predicate, obj in group:
            if predicate == last:
                out.append(", ")
            else:
                out.append(" ;\n    " if last is not None else " ")
                out.append("a" if predicate == vocab.RDF_TYPE
                           else rendered.get(predicate) or render(predicate))
                out.append(" ")
                last = predicate
            out.append(rendered.get(obj) or render(obj))
        out.append(" .\n")
    return "".join(out)


# --- parsing (emitted subset only) -------------------------------------------

_WS = " \t\r\n"
_NUMBER_RE = re.compile(r"[+-]?(\d+\.\d+|\.\d+|\d+)([eE][+-]?\d+)?")
_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_\-]*)?:([A-Za-z0-9_][A-Za-z0-9_\-]*)?")


class _TurtleReader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # One str per distinct IRI: a graph repeats each IRI in many triples.
        self.iris: dict[str, str] = {}

    def location(self) -> tuple[int, int]:
        consumed = self.text[:self.pos]
        line = consumed.count("\n") + 1
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def fail(self, message: str) -> None:
        line, column = self.location()
        raise TurtleSyntax(message, line, column)

    def unsupported(self, construct: str) -> None:
        line, column = self.location()
        raise UnsupportedConstruct(construct, line, column)

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _WS:
                self.pos += 1
            elif ch == "#":
                newline = self.text.find("\n", self.pos)
                self.pos = len(self.text) if newline < 0 else newline + 1
            else:
                return

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        if not self.text.startswith(expected, self.pos):
            self.fail(f"expected {expected!r}")
        self.pos += len(expected)

    def try_take(self, expected: str) -> bool:
        if self.text.startswith(expected, self.pos):
            self.pos += len(expected)
            return True
        return False


def parse_turtle(text: str) -> RdfGraph:
    """Parse the Turtle subset this package emits.

    Raises TurtleSyntax with a location for malformed input and
    UnsupportedConstruct for valid Turtle outside the subset (blank
    nodes, collections, long strings, language tags, @base).
    """
    reader = _TurtleReader(text)
    graph = RdfGraph()
    while True:
        reader.skip_ws()
        if reader.at_end():
            return graph
        if reader.peek() == "@":
            _parse_directive(reader, graph)
            continue
        _parse_subject_block(reader, graph)


def _parse_directive(reader: _TurtleReader, graph: RdfGraph) -> None:
    if reader.try_take("@prefix"):
        reader.skip_ws()
        match = _PNAME_RE.match(reader.text, reader.pos)
        if not match or match.group(2):
            reader.fail("expected a prefix name ending in ':'")
        prefix = match.group(1) or ""
        reader.pos = match.end()
        reader.skip_ws()
        namespace = _parse_iriref(reader)
        reader.skip_ws()
        reader.take(".")
        graph.prefixes[prefix] = namespace
    elif reader.text.startswith("@base", reader.pos):
        reader.unsupported("@base directive")
    else:
        reader.fail("unknown directive")


def _parse_subject_block(reader: _TurtleReader, graph: RdfGraph) -> None:
    subject = _parse_resource(reader, graph, role="subject")
    while True:
        reader.skip_ws()
        predicate = _parse_predicate(reader, graph)
        while True:
            reader.skip_ws()
            obj = _parse_object(reader, graph)
            graph.add(subject, predicate, obj)
            reader.skip_ws()
            if not reader.try_take(","):
                break
        if reader.try_take(";"):
            reader.skip_ws()
            if reader.try_take("."):  # tolerate "; ." tail
                return
            continue
        reader.take(".")
        return


def _parse_predicate(reader: _TurtleReader, graph: RdfGraph) -> str:
    if reader.peek() == "a":
        after = reader.text[reader.pos + 1:reader.pos + 2]
        if after == "" or after in _WS or after in "<":
            reader.pos += 1
            return vocab.RDF_TYPE
    return _parse_resource(reader, graph, role="predicate")


def _parse_resource(reader: _TurtleReader, graph: RdfGraph, role: str) -> str:
    ch = reader.peek()
    if ch == "<":
        return _parse_iriref(reader)
    if ch == "[":
        reader.unsupported("blank node")
    if ch == "(":
        reader.unsupported("collection")
    if reader.text.startswith("_:", reader.pos):
        reader.unsupported("blank node label")
    match = _PNAME_RE.match(reader.text, reader.pos)
    if match:
        prefix = match.group(1) or ""
        local = match.group(2) or ""
        if prefix not in graph.prefixes:
            reader.fail(f"undeclared prefix {prefix!r}")
        reader.pos = match.end()
        iri = graph.prefixes[prefix] + local
        return reader.iris.setdefault(iri, iri)
    reader.fail(f"expected an IRI or prefixed name as {role}")
    raise AssertionError("unreachable")


def _parse_iriref(reader: _TurtleReader) -> str:
    reader.take("<")
    end = reader.text.find(">", reader.pos)
    if end < 0:
        reader.fail("unterminated IRI")
    iri = reader.text[reader.pos:end]
    shared = reader.iris.get(iri)
    if shared is None:
        # Every IRI already shared is legal, so each is checked once.
        if any(c in iri for c in ' "{}|^`\n\r\t') or "<" in iri:
            reader.fail("illegal character in IRI")
        shared = reader.iris[iri] = iri
    reader.pos = end + 1
    return shared


def _parse_object(reader: _TurtleReader, graph: RdfGraph) -> Term:
    ch = reader.peek()
    if ch == '"':
        return _parse_literal(reader, graph)
    if ch == "'":
        reader.unsupported("single-quoted string")
    if ch.isdigit() or (ch in "+-." and _NUMBER_RE.match(reader.text, reader.pos)):
        return _parse_number(reader)
    return _parse_resource(reader, graph, role="object")


def _parse_number(reader: _TurtleReader) -> Literal:
    match = _NUMBER_RE.match(reader.text, reader.pos)
    if not match:
        reader.fail("malformed number")
    lexical = match.group(0)
    reader.pos = match.end()
    if match.group(2):
        datatype = vocab.XSD + "double"
    elif "." in lexical:
        datatype = vocab.XSD_DECIMAL
    else:
        datatype = vocab.XSD_INTEGER
    return Literal(lexical, datatype)


def _parse_literal(reader: _TurtleReader, graph: RdfGraph) -> Literal:
    if reader.text.startswith('"""', reader.pos):
        reader.unsupported("long string literal")
    reader.take('"')
    out: list[str] = []
    while True:
        if reader.at_end():
            reader.fail("unterminated string literal")
        ch = reader.text[reader.pos]
        if ch == '"':
            reader.pos += 1
            break
        if ch in "\n\r":
            reader.fail("newline inside string literal")
        if ch == "\\":
            out.append(_parse_escape(reader))
            continue
        out.append(ch)
        reader.pos += 1
    lexical = "".join(out)
    if reader.try_take("^^"):
        datatype = _parse_resource(reader, graph, role="datatype")
        return Literal(lexical, datatype)
    if reader.peek() == "@":
        reader.unsupported("language tag")
    return Literal(lexical)


_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
              '"': '"', "'": "'", "\\": "\\"}


def _parse_escape(reader: _TurtleReader) -> str:
    reader.pos += 1  # consume backslash
    if reader.at_end():
        reader.fail("dangling escape")
    ch = reader.text[reader.pos]
    reader.pos += 1
    simple = _UNESCAPES.get(ch)
    if simple is not None:
        return simple
    if ch in "uU":
        width = 4 if ch == "u" else 8
        digits = reader.text[reader.pos:reader.pos + width]
        if len(digits) != width or any(d not in "0123456789abcdefABCDEF"
                                       for d in digits):
            reader.fail(f"malformed \\{ch} escape")
        reader.pos += width
        return chr(int(digits, 16))
    reader.fail(f"unknown escape \\{ch}")
    raise AssertionError("unreachable")
