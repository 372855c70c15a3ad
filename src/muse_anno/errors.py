"""Exception hierarchy shared across the package.

Every error raised by the public API derives from :class:`MuseAnnoError`,
so callers can catch one base class at pipeline boundaries (the CLI does
exactly that).  Parse-time errors carry enough location information to be
actionable: JSON errors report line/column, structural errors report the
JSON path of the offending field.
"""

from __future__ import annotations


class MuseAnnoError(Exception):
    """Base class for all errors raised by muse_anno."""


class _Located(MuseAnnoError):
    """An error at a 1-based line and column of the input text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# --- JAMS ingestion -------------------------------------------------------

class MalformedJson(_Located):
    """The input is not valid JSON."""


class MissingField(MuseAnnoError):
    """A required JAMS field is absent."""

    def __init__(self, path: str):
        super().__init__(f"missing required field at {path}")
        self.path = path


class TypeMismatch(MuseAnnoError):
    """A JAMS field holds a value of the wrong type or range."""

    def __init__(self, path: str, expected: str, got: object):
        super().__init__(f"expected {expected} at {path}, got {got!r}")
        self.path = path
        self.expected = expected


class UnsupportedNamespace(MuseAnnoError):
    """Strict lowering rejected a namespace outside the registry."""

    def __init__(self, namespace: str, path: str):
        super().__init__(f"namespace {namespace!r} at {path} is not in the "
                         "value-kind registry")
        self.namespace = namespace
        self.path = path


class ScoreLoweringMissingMetricalTime(MuseAnnoError):
    """Score lowering found a row without the metrical sandbox keys."""

    def __init__(self, path: str, key: str):
        super().__init__(f"score lowering needs sandbox key {key!r} at {path}")
        self.path = path
        self.key = key


# --- model construction ---------------------------------------------------

class IncommensurableUnits(MuseAnnoError):
    """The interval's duration unit matches none of its index components."""

    def __init__(self, index_types: list[str], duration_type: str):
        super().__init__(
            f"duration unit {duration_type} matches no index component "
            f"(index units: {', '.join(index_types) or 'none'})"
        )


# --- validation -----------------------------------------------------------

class UnknownCode(MuseAnnoError):
    """The violation code is not in the published registry."""

    def __init__(self, code: str):
        super().__init__(f"unknown violation code {code!r}")
        self.code = code


# --- RDF ------------------------------------------------------------------

class InvalidBase(MuseAnnoError):
    """The base IRI is not a syntactically valid absolute IRI."""

    def __init__(self, base: str):
        super().__init__(f"not a valid absolute IRI: {base!r}")
        self.base = base


class UnvalidatedModel(MuseAnnoError):
    """emit_graph was handed a model that fails validation with Errors."""

    def __init__(self, codes: list[str]):
        super().__init__(f"model fails validation with errors: {', '.join(codes)}")
        self.codes = codes


class TurtleSyntax(_Located):
    """The Turtle text could not be parsed."""


class UnsupportedConstruct(_Located):
    """The Turtle text uses a construct outside the emitted subset."""

    def __init__(self, construct: str, line: int, column: int):
        super().__init__(f"unsupported Turtle construct {construct}",
                         line, column)
        self.construct = construct


# --- competency questions -------------------------------------------------

class UnknownCq(MuseAnnoError):
    """Competency question ids run from 1 to 10."""

    def __init__(self, cq_id: object):
        super().__init__(f"unknown competency question id {cq_id!r} (valid: 1..10)")
        self.cq_id = cq_id


class SubjectRequired(MuseAnnoError):
    """This competency question needs a subject IRI."""

    def __init__(self, cq_id: int):
        super().__init__(f"CQ{cq_id} requires a subject IRI")
        self.cq_id = cq_id


class SubjectNotFound(MuseAnnoError):
    """The subject IRI does not name a suitable entity."""

    def __init__(self, subject: str, expected: str):
        article = "an" if expected[0] in "aeiou" else "a"
        super().__init__(
            f"subject {subject} does not name {article} {expected}")
        self.subject = subject
        self.expected = expected
