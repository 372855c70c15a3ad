"""Batch command line: convert, validate, query, stats.

Every command reads, parses, lowers and validates each file on one path
(``stats`` stops after parsing, so it ignores --modality, --strict and
--base-iri), then does its own work on the result.
Exit codes follow one contract everywhere: 0 success, 1 any parse or
validation Error, 2 usage error.  A file that cannot be read, parsed or
lowered gives one JSON diagnostic on stderr and the batch goes on; a usage
error stops it.  Data output (triple counts, violation reports, TSV
bindings, stats) goes to stdout only.  Directory inputs are expanded to
their ``*.jams`` files in sorted order, which keeps multi-file output
deterministic; an entry that is not a regular file is reported like a
named input that is not.  Output files are written atomically (temp, then
rename), streamed one subject block at a time, with the umask's mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

from .cq import _question, answer_cq
from .errors import MuseAnnoError, SubjectRequired
from .ingest import (
    JamsDocument,
    LoweringOptions,
    annotator_type,
    detect_modality_hint,
    lower_to_model,
    parse_jams,
)
from .iri import DEFAULT_BASE_IRI
from .model import Modality
from .rdf import emit_graph, serialize_ntriples, serialize_turtle
from .util import decimal_lexical
from .validate import Severity, validate_model

BASE_IRI_ENV = "MUSE_ANNO_BASE_IRI"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muse-anno",
        description="Convert JAMS files to music-annotation-pattern RDF, "
                    "validate them, and query the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--modality",
                        choices=[m.value for m in Modality] + ["auto"],
                        default="auto",
                        help="annotation modality; auto uses the metrical "
                             "sandbox heuristic and refuses ambiguous files")
    common.add_argument("--base-iri", default=None,
                        help=f"base IRI for minted entities (default: "
                             f"${BASE_IRI_ENV} or {DEFAULT_BASE_IRI})")
    common.add_argument("--strict", action="store_true",
                        help="reject namespaces outside the value-kind registry")
    common.add_argument("--pretty", action="store_true",
                        help="human-readable diagnostics instead of JSON lines")

    convert = sub.add_parser("convert", parents=[common],
                             help="convert JAMS files to Turtle or N-Triples")
    convert.add_argument("inputs", nargs="+", type=Path)
    convert.add_argument("--format", choices=("ttl", "nt"), default="ttl")
    convert.add_argument("-o", "--output", type=Path, default=Path("."),
                         help="output directory (default: current directory)")

    validate = sub.add_parser("validate", parents=[common],
                              help="report pattern violations as JSON lines")
    validate.add_argument("inputs", nargs="+", type=Path)

    query = sub.add_parser("query", parents=[common],
                           help="answer a competency question, print TSV")
    query.add_argument("input", type=Path)
    query.add_argument("--cq", type=int, required=True, choices=range(1, 11),
                       metavar="1..10")
    query.add_argument("--subject", default=None, help="subject IRI")

    stats = sub.add_parser("stats", parents=[common],
                           help="summarize a JAMS corpus")
    stats.add_argument("inputs", nargs="+", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        # A "+" positional ends at the first option, so inputs after one
        # come back unparsed; parse_intermixed_args refuses subparsers.
        args, rest = parser.parse_known_args(argv)
        if rest:
            if ("inputs" not in vars(args)
                    or any(arg.startswith("-") for arg in rest)):
                parser.error(f"unrecognized arguments: {' '.join(rest)}")
            args.inputs += map(Path, rest)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"convert": cmd_convert, "validate": cmd_validate,
                "query": cmd_query, "stats": cmd_stats}
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        path, message = exc.args
        _diag(args, path, "usage", message)
        return 2


def entrypoint() -> None:
    sys.exit(main())


# --- shared plumbing ----------------------------------------------------------

class _UsageError(Exception):
    """``(path, message)`` of a usage failure: ``main`` reports it and
    exits 2, so a batch stops at the file where it happens."""


def _base_iri(args) -> str:
    """The --base-iri given, even an empty one, which lowering refuses;
    else a non-empty $MUSE_ANNO_BASE_IRI, else the default."""
    if args.base_iri is not None:
        return args.base_iri
    return os.environ.get(BASE_IRI_ENV) or DEFAULT_BASE_IRI


def _line(args, path: Path | None, fields: dict, text: str) -> str:
    """One diagnostic or violation line: ``fields`` as a JSON object with
    the path added, or with --pretty ``text`` after the path."""
    if args.pretty:
        return f"{path}: {text}" if path else text
    if path is not None:
        fields["path"] = str(path)
    return json.dumps(fields, ensure_ascii=False)


def _diag(args, path: Path | None, kind: str, message: str) -> None:
    print(_line(args, path, {"error": kind, "message": message},
                f"{kind}: {message}"), file=sys.stderr)


def _report(args, path: Path | None, violations, file) -> int:
    """Print one line per violation to ``file``; 1 if any is an Error."""
    for v in violations:
        print(_line(args, path, v.to_json_data(),
                    f"{v.code} {v.severity.value} {v.subject}: {v.message}"),
              file=file)
    return int(any(v.severity is Severity.ERROR for v in violations))


def _unreadable(args, path: Path) -> int:
    """Report an input that is missing or not a regular file (reading a
    FIFO would block); status 1."""
    _diag(args, path, "io", "not a regular file" if path.exists()
          else "no such file or directory")
    return 1


def _input_files(args) -> tuple[list[Path], int]:
    """The input files in sorted order, directories expanded to their
    *.jams files, and the exit status so far: 1 after reporting a path
    that is neither.  Nothing to read at all is a usage error."""
    files: list[Path] = []
    status = 0
    for path in args.inputs:
        for entry in sorted(path.glob("*.jams")) if path.is_dir() else [path]:
            if entry.is_file():
                files.append(entry)
            else:
                status = _unreadable(args, entry)
    if not files and not status:
        raise _UsageError(None, "no input files found")
    return sorted(files), status


def _file_error(args, path: Path, exc: Exception) -> int:
    """Report a file that could not be read, parsed or written; status 1."""
    kind = "io" if isinstance(exc, OSError) else type(exc).__name__
    _diag(args, path, kind, str(exc))
    return 1


def _each_file(args, files: list[Path], status: int, tail) -> int:
    """Read and parse each file and run ``tail(path, doc)`` on it, which
    returns the file's status.  The one place a file's failure is reported;
    the batch then goes on with the next file."""
    for path in files:
        try:
            status = max(status, tail(path, parse_jams(path.read_bytes())))
        except (MuseAnnoError, OSError) as exc:
            status = _file_error(args, path, exc)
    return status


def _lower(args, path: Path, doc: JamsDocument):
    """Lower and validate a parsed file: ``(model, violations)``."""
    modality = (detect_modality_hint(doc) if args.modality == "auto"
                else Modality(args.modality))
    if modality is None:
        raise _UsageError(path, "cannot infer modality; pass --modality "
                                "audio or --modality score")
    opts = LoweringOptions(modality=modality,
                           base_iri=_base_iri(args),
                           strict_namespaces=args.strict)
    model = lower_to_model(doc, opts)
    return model, validate_model(model)


def _atomic_write(path: Path, write) -> None:
    """Make ``path`` the text ``write(file)`` writes to an open UTF-8 text
    file: a new temporary file beside it, created with the mode a plain
    ``open`` would give, then renamed over it.  On any failure the
    temporary file goes and ``path`` is left as it was."""
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    handle = open(temp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            write(handle)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


# --- commands ------------------------------------------------------------------

def cmd_convert(args) -> int:
    files, status = _input_files(args)
    sources: dict[Path, Path] = {}
    for path in files:
        target = args.output / f"{path.stem}.{args.format}"
        if target in sources:
            raise _UsageError(path, f"output {target} would also be written "
                                    f"from {sources[target]}")
        sources[target] = path
    targets = {path: target for target, path in sources.items()}
    try:
        args.output.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _file_error(args, args.output, exc)

    def tail(path: Path, doc: JamsDocument) -> int:
        model, violations = _lower(args, path, doc)
        del doc  # nothing reads the parsed file after lowering
        if _report(args, path, violations, sys.stderr):
            return 1
        graph = emit_graph(model, violations)
        del model, violations  # nor the model after emitting
        serialize = serialize_turtle if args.format == "ttl" else serialize_ntriples
        _atomic_write(targets[path], lambda file: serialize(graph, file))
        print(f"{targets[path]}\t{len(graph)}")
        return 0

    return _each_file(args, files, status, tail)


def cmd_validate(args) -> int:
    files, status = _input_files(args)
    return _each_file(args, files, status, lambda path, doc: _report(
        args, path, _lower(args, path, doc)[1], sys.stdout))


def cmd_query(args) -> int:
    try:
        _question(args.cq, args.subject)
    except SubjectRequired as exc:
        raise _UsageError(None, str(exc)) from None
    if not args.input.is_file():
        return _unreadable(args, args.input)

    def tail(path: Path, doc: JamsDocument) -> int:
        model, violations = _lower(args, path, doc)
        if _report(args, path, violations, sys.stderr):
            return 1
        result = answer_cq(args.cq, emit_graph(model, violations), args.subject)
        sys.stdout.write(result.to_tsv())
        return 0

    return _each_file(args, [args.input], 0, tail)


def cmd_stats(args) -> int:
    files, status = _input_files(args)
    namespaces: Counter[str] = Counter()
    annotator_types: Counter[str] = Counter()
    summarized = observations = 0
    min_time: Decimal | None = None
    max_time: Decimal | None = None

    def tail(path: Path, doc: JamsDocument) -> int:
        nonlocal summarized, observations, min_time, max_time
        summarized += 1
        for block in doc.annotations:
            namespaces[block.namespace] += 1
            annotator_types[annotator_type(block.annotation_metadata).name] += 1
            for row in block.data:
                observations += 1
                end = row.time + row.duration
                min_time = row.time if min_time is None else min(min_time, row.time)
                max_time = end if max_time is None else max(max_time, end)
        return 0

    status = _each_file(args, files, status, tail)
    summary = {
        "files": summarized,
        "annotations_by_namespace": namespaces,
        "observations": observations,
        "annotator_types": annotator_types,
        "min_time": decimal_lexical(min_time) if min_time is not None else None,
        "max_time": decimal_lexical(max_time) if max_time is not None else None,
    }
    indent = 2 if args.pretty else None
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=indent))
    return status
