"""Spans around the package's public stage functions, from outside it.

``Tracer.install`` replaces each stage function with a timing wrapper in
the module namespace its caller looks it up in (``muse_anno.cli`` for the
CLI, the package itself for library use, ``muse_anno.rdf`` for the
validation ``emit_graph`` repeats), and ``uninstall`` puts the originals
back.  The program's own code is unchanged; untraced runs never see a
wrapper.  Spans stay in memory and are folded into per-stage totals when
a pass ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter


def _nothing(args, result):
    return None


def _rows(args, result):
    return sum(len(block.data) for block in args[0].annotations)


def _request(args, result):
    subject = args[2] if len(args) > 2 else None
    return args[0], subject, len(result.rows)


# Module attribute path, stage name (<layer>.<function>, the layers being
# the package modules) and what to record about the work each call did.
# What is recorded holds no reference to the program's object graphs,
# which would make the garbage collector slower in traced runs.
STAGES = (
    ("cli.main", "cli.main", _nothing),
    ("cli.parse_jams", "ingest.parse_jams", lambda a, r: len(a[0])),
    ("cli.detect_modality_hint", "ingest.detect_modality_hint", _nothing),
    ("cli.lower_to_model", "ingest.lower_to_model", _rows),
    ("cli.validate_model", "validate.validate_model",
     lambda a, r: [v.code for v in r]),
    ("rdf.validate_model", "validate.validate_model",
     lambda a, r: [v.code for v in r]),
    ("cli.emit_graph", "rdf.emit_graph", lambda a, r: len(r)),
    ("cli.serialize_turtle", "rdf.serialize_turtle", lambda a, r: r),
    ("cli.answer_cq", "cq.answer_cq", _request),
    ("parse_turtle", "rdf.parse_turtle", lambda a, r: len(r)),
    ("answer_cq", "cq.answer_cq", _request),
)


@dataclass
class Span:
    name: str
    work: object = None          # what the stage's measure recorded
    duration: float = 0.0
    child: float = 0.0           # time covered by direct child spans
    parent: "Span | None" = None

    @property
    def self_time(self) -> float:
        return self.duration - self.child


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self, package) -> None:
        for path, name, measure in STAGES:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(package, owner_name) if owner_name else package
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, measure, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded since the last call, oldest first."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, measure, original):
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else None)
            stack.append(span)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.duration = perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
                self.spans.append(span)
            span.work = measure(args, result)
            return result

        traced.__wrapped__ = original
        return traced
