"""RDF materialization: graph type, emitter, serializers, Turtle parser.

The graph stores its triples subject -> predicate -> objects, with a
prefix map and a hash index by predicate and object that the first
lookup needing it builds and ``add`` drops, so building a graph pays
nothing for the index and a query never scans.  ``add`` takes one
triple; the emitter writes each node it mints with ``_describe``, whose
dict of single-valued pairs the graph keeps.  A graph is read through
``objects``, ``value``, ``subjects`` and ``types_of``, or enumerated
with ``for s, p, o in graph``.  A ``Literal`` is a named tuple, so
building, hashing and comparing literals runs in C.

Everything here is deterministic by construction: entity IRIs come from
the minting scheme, prefixes are sorted by name, literals keep their
source lexical forms, and both serializers write in one order
(``_in_order``: subjects, then each subject's predicates, sorted), which
is also the order a graph yields its triples in, so one graph always
gives the same bytes on any platform.  Each serializer makes one string
per subject block.  It returns the whole text, or, given an open text
file, writes there one block at a time, so the whole text never exists
at once.  Turtle keeps a term's rendering only until that term's own
subject block is written, so written subjects do not pile up.

``parse_turtle`` understands the subset ``serialize_turtle`` emits
(prefix declarations, IRIs, prefixed names, ``a``, typed and plain
literals, ``;``/``,`` abbreviation), so N-Triples too, plus comments and
bare numbers, which neither serializer writes.  It refuses everything
else, so round-trips are testable without dragging in an RDF stack.  One
regex split cuts the text into tokens, whose patterns also enforce the
lexical rules (legal IRI characters, string escapes that name Unicode
scalar values); the grammar then walks the token list and resolves each
distinct token text once.  Only when raising is the refused token found
again, by a regex with a named group per kind, to locate and classify it.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import length_hint
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import vocab
from .errors import (MuseAnnoError, TurtleSyntax, UnsupportedConstruct,
                     UnvalidatedModel)
from .iri import component_iri, duration_iri, index_iri, interval_iri
from .model import (AnnotationModel, MusicAnnotation, MusicTimeInterval,
                    ObservationValue)
from .util import decimal_lexical, line_column
from .validate import Severity, Violation, validate_model


class Literal(NamedTuple):
    """A typed RDF literal; plain strings carry xsd:string.

    A tuple, so that building, hashing and comparing one runs in C; it
    never equals an IRI, which travels as a bare ``str``.
    """

    lexical: str
    datatype: str = vocab.XSD_STRING


Term = str | Literal  # IRIs travel as bare strings


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: Term


def _each(objects: Term | set[Term]) -> set[Term] | tuple[Term]:
    return objects if isinstance(objects, set) else (objects,)


# The fallback of a lookup whose key is missing, shared so that a lookup
# builds no dict; nothing writes into it.
_EMPTY: dict = {}


class RdfGraph:
    """Triples stored subject -> predicate -> objects, plus a prefix map;
    equality is equality of the triple sets and the prefix maps.

    A (subject, predicate) pair holds the bare term while it has one
    object, as nearly every pair does, and a set from the second on, so
    ``add`` builds no triple and the serializers walk the sorted map.  The
    first lookup that needs them builds predicate -> object -> sorted
    subjects and the multi-valued pairs' objects in N-Triples order, which
    ``add`` drops; lookups answer as a scan of the sorted triples would.
    """

    def __init__(self, prefixes: dict[str, str] | None = None):
        self.prefixes = {} if prefixes is None else prefixes
        self._spo: dict[str, dict[str, Term | set[Term]]] = {}
        self._count = 0
        self._index = None

    def add(self, subject: str, predicate: str, obj: Term) -> None:
        predicates = self._spo.get(subject)
        if predicates is None:
            self._spo[subject] = {predicate: obj}
        elif (objects := predicates.get(predicate)) is None:
            predicates[predicate] = obj
        elif obj in _each(objects):
            return
        elif isinstance(objects, set):
            objects.add(obj)
        else:
            predicates[predicate] = {objects, obj}
        self._count += 1
        self._index = None

    def _describe(self, subject: str, pairs: dict[str, Term]) -> None:
        """Add one object per predicate of ``pairs`` to ``subject``, as
        ``add`` would each; a new subject keeps the dict itself (so the
        caller never touches it again), and an empty one adds nothing."""
        if subject in self._spo:
            for predicate, obj in pairs.items():
                self.add(subject, predicate, obj)
        elif pairs:
            self._spo[subject] = pairs
            self._count += len(pairs)
            self._index = None

    def __iter__(self) -> Iterator[Triple]:
        """Every triple, in the order both serializers write them."""
        for subject, pairs in _in_order(self):
            for predicate, objects in pairs:
                if isinstance(objects, set):
                    for obj in _sorted_objects(objects):
                        yield Triple(subject, predicate, obj)
                else:
                    yield Triple(subject, predicate, objects)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, triple: Triple) -> bool:
        objects = self._spo.get(triple[0], _EMPTY).get(triple[1])
        return objects is not None and triple[2] in _each(objects)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdfGraph):
            return NotImplemented
        return self._spo == other._spo and self.prefixes == other.prefixes

    def _lookup(self) -> tuple[dict[str, dict[Term, list[str]]],
                               dict[tuple[str, str], list[Term]]]:
        if self._index is None:
            by_predicate, ordered = {}, {}
            # Subjects in order, so that every subject list comes sorted.
            for s in sorted(self._spo):
                for p, objects in self._spo[s].items():
                    if isinstance(objects, set):
                        objects = ordered[s, p] = _sorted_objects(objects)
                    by_object = by_predicate.setdefault(p, {})
                    for o in objects if isinstance(objects, list) else (objects,):
                        by_object.setdefault(o, []).append(s)
            self._index = by_predicate, ordered
        return self._index

    def objects(self, subject: str, predicate: str) -> list[Term]:
        objects = self._spo.get(subject, _EMPTY).get(predicate)
        if isinstance(objects, set):
            return list(self._lookup()[1][subject, predicate])
        return [] if objects is None else [objects]

    def value(self, subject: str, predicate: str) -> Term | None:
        objects = self._spo.get(subject, _EMPTY).get(predicate)
        if isinstance(objects, set):
            return self._lookup()[1][subject, predicate][0]
        return objects

    def subjects(self, predicate: str, obj: Term | None = None) -> list[str]:
        objects = self._lookup()[0].get(predicate, _EMPTY)
        if obj is not None:
            return list(objects.get(obj, ()))
        # Each object's list is sorted, so the sort merges runs; a subject
        # with several objects is met once per object.
        return list(dict.fromkeys(sorted(chain.from_iterable(objects.values()))))

    def types_of(self, subject: str) -> list[str]:
        return [o for o in self.objects(subject, vocab.RDF_TYPE)
                if isinstance(o, str)]


# --- emission ----------------------------------------------------------------

def emit_graph(model: AnnotationModel,
               violations: list[Violation] | None = None) -> RdfGraph:
    """Materialize a model as RDF using the pattern vocabulary.

    UnvalidatedModel is raised when ``violations`` holds an Error
    (warnings are fine).  Without it, emit_graph runs ``validate_model``
    itself; a caller that has just run it passes its result, so the model
    is not validated twice.  Any list passed is trusted: given ``[]``, a
    model with Errors is emitted unchecked.  The
    annotator property chain is materialized: every observation gets an
    explicit hasAnnotator triple pointing at its annotation's annotator,
    and isAnnotatorOf is emitted as the inverse on the annotator itself.
    """
    if violations is None:
        violations = validate_model(model)
    errors = [v for v in violations if v.severity is Severity.ERROR]
    if errors:
        raise UnvalidatedModel(list(dict.fromkeys(v.code for v in errors)))

    graph = RdfGraph(prefixes={**vocab.DEFAULT_PREFIXES, "ex": model.base_iri})
    subject = model.subject
    if subject is not None:
        graph.add(subject.id, vocab.RDF_TYPE, vocab.object_class(subject.kind))
        if subject.title:
            graph.add(subject.id, vocab.RDFS_LABEL, Literal(subject.title))

    values_seen: dict[str, ObservationValue] = {}
    for annotation in model.annotations:
        if subject is not None:
            graph.add(subject.id, vocab.HAS_MUSIC_ANNOTATION, annotation.id)
        _emit_annotation(graph, annotation, model.base_iri, values_seen)
    return graph


def _emit_annotation(graph: RdfGraph, annotation: MusicAnnotation,
                     base_iri: str,
                     values_seen: dict[str, ObservationValue]) -> None:
    add, describe = graph.add, graph._describe
    annotator = annotation.annotator
    interval = _emit_interval(graph, annotation.id, annotation.interval)
    describe(annotation.id, {
        vocab.RDF_TYPE: vocab.annotation_class(annotation.modality),
        vocab.HAS_ANNOTATOR: annotator.id,
        vocab.HAS_MUSIC_TIME_INTERVAL: interval})
    add(annotator.id, vocab.IS_ANNOTATOR_OF, annotation.id)
    add(annotator.id, vocab.RDF_TYPE, vocab.ANNOTATOR)
    if annotator.name:
        add(annotator.id, vocab.RDFS_LABEL, Literal(annotator.name))
    add(annotator.id, vocab.HAS_ANNOTATOR_TYPE,
        vocab.annotator_type_iri(annotator.annotator_type, base_iri))

    # V4 keeps every observation to its annotation's modality.
    obs_class = vocab.observation_class(annotation.modality)
    for obs in annotation.observations:
        add(annotation.id, vocab.INCLUDES_MUSIC_OBSERVATION, obs.id)
        value = obs.value
        interval = _emit_interval(graph, obs.id, obs.interval)
        # Materialized property chain: isAnnotatorOf o includesMusicObservation.
        pairs = {vocab.RDF_TYPE: obs_class,
                 vocab.HAS_ANNOTATOR: annotator.id,
                 vocab.HAS_MUSIC_TIME_INTERVAL: interval,
                 vocab.HAS_MUSIC_OBSERVATION_VALUE: value.id}
        if obs.confidence is not None:
            pairs[vocab.HAS_CONFIDENCE] = Literal(
                decimal_lexical(obs.confidence), vocab.XSD_DECIMAL)
        describe(obs.id, pairs)
        # Describe each value object once: another object with its id is
        # still described, and a repeat adds nothing.
        if values_seen.get(value.id) is not value:
            values_seen[value.id] = value
            describe(value.id, {vocab.RDF_TYPE: vocab.value_class_iri(value.kind),
                                vocab.RDFS_LABEL: Literal(value.label)})


def _emit_interval(graph: RdfGraph, owner_iri: str,
                   interval: MusicTimeInterval) -> str:
    """The interval, index, components and duration hanging off an entity;
    returns the interval's IRI for the entity's own hasMusicTimeInterval,
    so that the graph keeps one string of it."""
    iv = interval_iri(owner_iri)
    ix = index_iri(owner_iri)
    du = duration_iri(owner_iri)
    describe = graph._describe
    describe(iv, {vocab.RDF_TYPE: vocab.MUSIC_TIME_INTERVAL,
                  vocab.HAS_MUSIC_TIME_INDEX: ix,
                  vocab.HAS_MUSIC_TIME_DURATION: du})
    graph.add(ix, vocab.RDF_TYPE, vocab.MUSIC_TIME_INDEX)
    for position, component in enumerate(interval.index.components):
        comp = component_iri(owner_iri, position)
        graph.add(ix, vocab.HAS_MUSIC_TIME_INDEX_COMPONENT, comp)
        describe(comp, _time_pairs(vocab.MUSIC_TIME_INDEX_COMPONENT, component))
    describe(du, _time_pairs(vocab.MUSIC_TIME_DURATION, interval.duration))
    return iv


def _time_pairs(node_class: str, part) -> dict[str, Term]:
    lexical, datatype, type_iri = vocab.time_value_terms(part)
    return {vocab.RDF_TYPE: node_class,
            vocab.HAS_TIME_VALUE: Literal(lexical, datatype),
            vocab.HAS_MUSIC_TIME_VALUE_TYPE: type_iri}


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


def _in_order(graph: RdfGraph) -> Iterator[tuple[str, Iterable[
        tuple[str, Term | set[Term]]]]]:
    """Each subject with its (predicate, objects) pairs, in the order both
    serializers write: subjects, then a subject's predicates, in codepoint
    order; a multi-valued pair's objects (a set) go in ``_sorted_objects``
    order."""
    spo = graph._spo
    for subject in sorted(spo):
        yield subject, sorted(spo[subject].items())


def _sorted_objects(objects: set[Term]) -> list[Term]:
    """A multi-valued pair's objects in N-Triples order."""
    return sorted(objects, key=nt_term)


def _join_or_write(blocks: Iterator[str], out: TextIO | None) -> str | None:
    """The blocks' text; or, given ``out``, None, having written the text
    there block by block (a text file buffers the writes)."""
    if out is None:
        return "".join(blocks)
    for block in blocks:
        out.write(block)
    return None


def serialize_ntriples(graph: RdfGraph,
                       out: TextIO | None = None) -> str | None:
    """One line per triple, in ``_in_order``.  Returns the text, or with
    ``out`` writes it there block by block and returns None."""
    return _join_or_write(_ntriples_blocks(graph), out)


def _ntriples_blocks(graph: RdfGraph) -> Iterator[str]:
    for subject, pairs in _in_order(graph):
        head = f"<{subject}> <"
        lines = []
        for predicate, objects in pairs:
            if isinstance(objects, set):
                lines += [f"{head}{predicate}> {nt_term(obj)} .\n"
                          for obj in _sorted_objects(objects)]
            else:
                lines.append(f"{head}{predicate}> {nt_term(objects)} .\n")
        yield "".join(lines)


_PN_LOCAL = r"[A-Za-z0-9_][A-Za-z0-9_\-]*"


def serialize_turtle(graph: RdfGraph,
                     out: TextIO | None = None) -> str | None:
    """Deterministic Turtle: sorted prefixes, then subject blocks in
    ``_in_order``, one blank line apart.  Returns the text, or with
    ``out`` writes it there block by block and returns None.

    An IRI is written as a prefixed name under the first prefix, in name
    order, whose namespace it extends by a valid local name, else as
    ``<IRI>``.  Each predicate as a verb is rendered once per call, and
    any other term once until its own subject block is written.
    """
    return _join_or_write(_turtle_blocks(graph), out)


def _turtle_blocks(graph: RdfGraph) -> Iterator[str]:
    prefixes = sorted(graph.prefixes.items())
    named = [(prefix, namespace) for prefix, namespace in prefixes if namespace]
    # One alternative per namespace in prefix name order; when a namespace
    # matches but leaves no valid local name, fullmatch backtracks into the
    # next alternative, so group k matches only if no earlier prefix fits.
    prefixed = re.compile("|".join(
        f"{re.escape(namespace)}({_PN_LOCAL})" for _, namespace in named)
        or "(?!)").fullmatch
    heads = [""] + [prefix + ":" for prefix, _ in named]
    rendered: dict[Term, str] = {}
    verbs = {vocab.RDF_TYPE: "a "}

    def render(term: Term) -> str:
        if isinstance(term, str):
            m = prefixed(term)
            text = heads[m.lastindex] + m[m.lastindex] if m else f"<{term}>"
        else:
            text = f'"{_escape_string(term.lexical)}"'
            if term.datatype != vocab.XSD_STRING:
                datatype = term.datatype
                text += "^^" + (rendered.get(datatype) or render(datatype))
        rendered[term] = text
        return text

    def verb(predicate: str) -> str:
        text = verbs[predicate] = (rendered.get(predicate)
                                   or render(predicate)) + " "
        return text

    def many(objects: set[Term]) -> str:
        return ", ".join([rendered.get(obj) or render(obj)
                          for obj in _sorted_objects(objects)])

    yield "".join([f"@prefix {prefix}: <{namespace}> .\n"
                   for prefix, namespace in prefixes])
    for subject, pairs in _in_order(graph):
        body = " ;\n    ".join([
            (verbs.get(predicate) or verb(predicate))
            + (many(objects) if isinstance(objects, set)
               else rendered.get(objects) or render(objects))
            for predicate, objects in pairs])
        yield f"\n{rendered.get(subject) or render(subject)} {body} .\n"
        del rendered[subject]  # objects seldom name it after its own block


# --- parsing (emitted subset only) -------------------------------------------

# An IRI is written <...> or as a prefixed name; <...> excludes the
# characters IRIREF forbids.
_IRI = (r'<[^<>"{}|^`\x20\n\r\t]*>'
        rf"|(?:[A-Za-z][A-Za-z0-9_\-]*)?:(?:{_PN_LOCAL})?")
# Escapes decode to Unicode scalar values only: no surrogate, nothing
# past U+10FFFF.
_ECHAR = (r"""\\(?:[tbnrf"'\\]|u(?![dD][89a-fA-F])[0-9A-Fa-f]{4}"""
          r"|U(?:0000(?![dD][89a-fA-F])|000[1-9A-Fa-f]|0010)[0-9A-Fa-f]{4})")
_STRING_BODY = rf'[^"\\\n\r]*(?:{_ECHAR}[^"\\\n\r]*)*'

# Whitespace and whole comments: a comment always runs to its line's end,
# so a search never finds a token inside one.
_SPACE = r"[\ \t\r\n]*(?:\#[^\n]*(?![^\n])[\ \t\r\n]*)*"
# The tokens in match order.  A token's text alone tells its kind: an
# <IRI> starts with '<', a string with '"', a prefixed name holds ':' and
# a number ends in a digit.
_TOKENS = {
    "iri": _IRI,
    "string": rf'"(?!""){_STRING_BODY}"(?:\^\^(?:{_IRI}))?',
    "number": r"[+-]?(?:[0-9]+\.[0-9]+|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?",
    "a": r"a(?![^\ \t\r\n<])",
    "dot": r"\.", "semicolon": ";", "comma": ",",
    "directive": "@prefix",
    "end": r"\Z",
}
# Splitting a text on this one group gives the token texts at odd
# positions and, at even ones, the text between two tokens, which is empty
# unless no token starts there.  The last token is the empty ``end``.
_SPLIT_RE = re.compile(f"{_SPACE}({'|'.join(_TOKENS.values())})")
# The same tokens as named groups, and an always-matching ``error`` where
# no token starts: run only to locate the token an error is about.
_TOKEN_RE = re.compile(f"{_SPACE}(?:" + "".join(
    f"(?P<{kind}>{pattern})|" for kind, pattern in _TOKENS.items())
    + "(?P<error>))")
# Replaces the token after the first text that no token matched; no
# token's text equals it, so every rule refuses it.
_NO_TOKEN = " "
_STRING_HEAD_RE = re.compile(f'"{_STRING_BODY}')
_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_UNESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
              '"': '"', "'": "'", "\\": "\\"}

# Turtle outside the subset that may start where the parser wants a term.
_BLANK_NODES = {"[": "blank node", "(": "collection",
                "_:": "blank node label"}
_UNSUPPORTED = {
    "subject": {"@base": "@base directive", **_BLANK_NODES},
    "predicate": _BLANK_NODES,
    "object": {**_BLANK_NODES, "'": "single-quoted string",
               '"""': "long string literal"},
}


def parse_turtle(text: str) -> RdfGraph:
    """Parse the Turtle subset this package emits, N-Triples included,
    with comments and bare numbers besides.

    Raises TurtleSyntax with a location for malformed input and
    UnsupportedConstruct for valid Turtle outside the subset (blank
    nodes, collections, long strings, language tags, @base).
    """
    graph = RdfGraph()
    add, prefixes = graph.add, graph.prefixes
    parts = _SPLIT_RE.split(text)
    tokens = parts[1::2]
    gaps = parts[::2]
    if any(gaps):
        tokens[next(k for k, gap in enumerate(gaps) if gap)] = _NO_TOKEN
    # Each distinct token text is resolved once per prefix map: an IRI
    # text into both maps, whatever role it is met in first.
    names: dict[str, str] = {}  # as subject or predicate
    terms: dict[str, Term] = {}  # as object
    taken = iter(tokens)

    def last() -> re.Match:
        """The token just taken, found again with its position."""
        k = len(tokens) - length_hint(taken) - 1
        return next(islice(_TOKEN_RE.finditer(text), k, None))

    def iri(token: str, offset: int = 0) -> str:
        found = names.get(token)
        if found is None:
            if token[0] == "<":
                found = token[1:-1]
            else:
                prefix, _, local = token.partition(":")
                if prefix not in prefixes:
                    m = last()
                    at = m.start(m.lastgroup) + offset
                    raise TurtleSyntax(f"undeclared prefix {prefix!r}",
                                       *line_column(text, at))
                found = prefixes[prefix] + local
            names[token] = terms[token] = found
        return found

    def name(token: str, role: str) -> str:
        if token == "a" and role == "predicate":
            return vocab.RDF_TYPE
        if token[:1] == "<" or ":" in token and token[0] != '"':
            return iri(token)
        raise _error(text, last(), f"an IRI or prefixed name as {role}",
                     _UNSUPPORTED[role])

    def term(token: str) -> Term:
        if token[:1] == '"':
            close = token.rindex('"')
            lexical = token[1:close]
            if "\\" in lexical:
                lexical = _UNESCAPE_RE.sub(
                    lambda e: _UNESCAPES.get(e[1]) or chr(int(e[1][1:], 16)),
                    lexical)
            datatype = token[close + 3:]
            obj = Literal(lexical, iri(datatype, close + 3)) if datatype \
                else Literal(lexical)
        elif token[:1] == "<" or ":" in token:
            return iri(token)
        elif token[-1:].isdigit():
            kind = "double" if "e" in token or "E" in token \
                else "decimal" if "." in token else "integer"
            obj = Literal(token, vocab.XSD + kind)
        else:
            raise _error(text, last(), "an IRI or prefixed name as object",
                         _UNSUPPORTED["object"])
        terms[token] = obj
        return obj

    for token in taken:
        if not token:  # the end
            break
        if token == "@prefix":
            prefix = next(taken)
            if not prefix.endswith(":") or prefix[0] == '"':
                raise _error(text, last(), "a prefix name ending in ':'")
            namespace = next(taken)
            if not namespace.startswith("<"):
                raise _error(text, last(), "an IRI")
            if next(taken) != ".":
                raise _error(text, last(), "'.'")
            prefixes[prefix[:-1]] = namespace[1:-1]
            names.clear()
            terms.clear()
            continue
        subject = names.get(token) or name(token, "subject")
        token = next(taken)
        while True:
            predicate = names.get(token) or name(token, "predicate")
            while True:
                token = next(taken)
                add(subject, predicate, terms.get(token) or term(token))
                token = next(taken)
                if token != ",":
                    break
            if token == ";":
                token = next(taken)
                if token != ".":  # else the tolerated "; ." tail
                    continue
            elif token != ".":
                raise _error(text, last(), "'.'")
            break
    return graph


def _error(text: str, m: re.Match, expected: str,
           constructs: dict[str, str] | None = None) -> MuseAnnoError:
    """The error for token ``m`` where the parser wants ``expected``.

    A language tag, or where no token starts a construct in
    ``constructs``, is unsupported.  A broken string or IRI is reported
    where it breaks, and anything else is a syntax error.
    """
    at = m.start(m.lastgroup)
    if at and text.startswith('"@', at - 1):
        return UnsupportedConstruct("language tag", *line_column(text, at))
    message = f"expected {expected}"
    if m.lastgroup != "error":
        return TurtleSyntax(message, *line_column(text, at))
    for opener, construct in (constructs or {}).items():
        if text.startswith(opener, at):
            return UnsupportedConstruct(construct, *line_column(text, at))
    if text.startswith('"', at):
        end = _STRING_HEAD_RE.match(text, at).end()
        stop = text[end:end + 1]
        if stop != '"':
            at = end
            message = ("unterminated string literal" if not stop
                       else "newline inside string literal" if stop in "\r\n"
                       else "invalid escape (not a Turtle string escape or "
                            "Unicode scalar value)")
    elif text.startswith("<", at):
        message = ("unterminated IRI" if text.find(">", at) < 0
                   else "illegal character in IRI")
        at += 1
    return TurtleSyntax(message, *line_column(text, at))
