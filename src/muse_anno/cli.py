"""Batch command line: convert, validate, query, stats.

Exit codes follow one contract everywhere: 0 success, 1 any parse or
validation Error (diagnostics go to stderr as JSON lines), 2 usage error.
Data output (triple counts, violation reports, TSV bindings, stats) goes
to stdout only, so pipelines can split the streams cleanly.  Directory
inputs are expanded to their ``*.jams`` files and processed in sorted
order, which keeps multi-file output deterministic.  Output files are
written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

from .cq import answer_cq
from .errors import MuseAnnoError
from .ingest import (
    JamsDocument,
    LoweringOptions,
    ModalityHint,
    detect_modality_hint,
    lower_to_model,
    parse_jams,
    resolve_annotator,
)
from .iri import IriMinter
from .model import Modality
from .rdf import emit_graph, serialize_ntriples, serialize_turtle
from .util import decimal_lexical
from .validate import Severity, validate_model

DEFAULT_BASE_IRI = "http://example.org/"
BASE_IRI_ENV = "MUSE_ANNO_BASE_IRI"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muse-anno",
        description="Convert JAMS files to music-annotation-pattern RDF, "
                    "validate them, and query the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--modality", choices=("audio", "score", "auto"),
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"convert": cmd_convert, "validate": cmd_validate,
                "query": cmd_query, "stats": cmd_stats}
    return handlers[args.command](args)


def entrypoint() -> None:
    sys.exit(main())


# --- shared plumbing ----------------------------------------------------------

def _base_iri(args) -> str:
    return args.base_iri or os.environ.get(BASE_IRI_ENV) or DEFAULT_BASE_IRI


def _diag(args, path: Path | None, kind: str, message: str) -> None:
    if args.pretty:
        location = f"{path}: " if path else ""
        print(f"{location}{kind}: {message}", file=sys.stderr)
    else:
        payload = {"error": kind, "message": message}
        if path is not None:
            payload["path"] = str(path)
        print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)


def _input_files(args) -> tuple[list[Path], int]:
    """The input files in sorted order, directories expanded to their
    *.jams files, and the exit status so far: 1 after reporting a missing
    path, 2 after reporting that there is nothing to read at all."""
    files: list[Path] = []
    status = 0
    for path in args.inputs:
        if path.is_dir():
            files.extend(path.glob("*.jams"))
        elif path.is_file():
            files.append(path)
        else:
            _diag(args, path, "io", "no such file or directory")
            status = 1
    if not files and not status:
        _diag(args, None, "usage", "no input files found")
        status = 2
    return sorted(files), status


def _file_error(args, path: Path, exc: Exception) -> int:
    """Report a file that could not be read, parsed or written; status 1."""
    kind = "io" if isinstance(exc, OSError) else type(exc).__name__
    _diag(args, path, kind, str(exc))
    return 1


def _pick_modality(args, doc: JamsDocument, path: Path) -> Modality | None:
    """Resolve the modality flag; None means abort with a usage error."""
    if args.modality == "audio":
        return Modality.AUDIO
    if args.modality == "score":
        return Modality.SCORE
    hint = detect_modality_hint(doc)
    if hint is ModalityHint.AUDIO:
        return Modality.AUDIO
    if hint is ModalityHint.SCORE:
        return Modality.SCORE
    _diag(args, path, "usage",
          "cannot infer modality; pass --modality audio or --modality score")
    return None


def _load_model(args, path: Path):
    doc = parse_jams(path.read_bytes())
    modality = _pick_modality(args, doc, path)
    if modality is None:
        return None, 2
    opts = LoweringOptions(modality=modality, base_iri=_base_iri(args),
                           strict_namespaces=args.strict)
    return lower_to_model(doc, opts), 0


def _atomic_write(path: Path, text: str) -> None:
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="", dir=path.parent,
        prefix=f".{path.name}.", delete=False)
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


# --- commands ------------------------------------------------------------------

def cmd_convert(args) -> int:
    files, status = _input_files(args)
    if status == 2:
        return status

    targets: dict[Path, Path] = {}
    for path in files:
        target = args.output / f"{path.stem}.{args.format}"
        if target in targets:
            _diag(args, path, "usage",
                  f"output {target} would also be written from {targets[target]}")
            return 2
        targets[target] = path
    try:
        args.output.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _file_error(args, args.output, exc)

    for target, path in targets.items():
        try:
            model, code = _load_model(args, path)
            if model is None:
                return code
            violations = validate_model(model)
            errors = [v for v in violations if v.severity is Severity.ERROR]
            for violation in violations:
                _report_violation(args, path, violation)
            if errors:
                status = 1
                continue
            graph = emit_graph(model, violations)
            if args.format == "ttl":
                text = serialize_turtle(graph)
            else:
                text = serialize_ntriples(graph)
            _atomic_write(target, text)
            print(f"{target}\t{len(graph)}")
        except (MuseAnnoError, OSError) as exc:
            status = _file_error(args, path, exc)
    return status


def _report_violation(args, path: Path, violation) -> None:
    if args.pretty:
        print(f"{path}: {violation.code} {violation.severity.value} "
              f"{violation.subject}: {violation.message}", file=sys.stderr)
    else:
        payload = json.loads(violation.to_json_line())
        payload["path"] = str(path)
        print(json.dumps(payload, ensure_ascii=False), file=sys.stderr)


def cmd_validate(args) -> int:
    files, status = _input_files(args)
    if status == 2:
        return status

    for path in files:
        try:
            model, code = _load_model(args, path)
            if model is None:
                return code
            for violation in validate_model(model):
                if args.pretty:
                    print(f"{violation.code} {violation.severity.value} "
                          f"{violation.subject}: {violation.message}")
                else:
                    print(violation.to_json_line())
                if violation.severity is Severity.ERROR:
                    status = 1
        except (MuseAnnoError, OSError) as exc:
            status = _file_error(args, path, exc)
    return status


def cmd_query(args) -> int:
    path = args.input
    if not path.is_file():
        _diag(args, path, "io", "no such file or directory")
        return 1
    try:
        model, code = _load_model(args, path)
        if model is None:
            return code
        graph = emit_graph(model)
        result = answer_cq(args.cq, graph, args.subject)
    except (MuseAnnoError, OSError) as exc:
        return _file_error(args, path, exc)
    sys.stdout.write(result.to_tsv())
    return 0


def cmd_stats(args) -> int:
    files, status = _input_files(args)
    if status == 2:
        return status

    namespaces: dict[str, int] = {}
    annotator_types: dict[str, int] = {}
    observations = 0
    min_time: Decimal | None = None
    max_time: Decimal | None = None
    parsed = 0
    for path in files:
        try:
            doc = parse_jams(path.read_bytes())
        except (MuseAnnoError, OSError) as exc:
            status = _file_error(args, path, exc)
            continue
        parsed += 1
        minter = IriMinter(_base_iri(args))
        for block in doc.annotations:
            namespaces[block.namespace] = namespaces.get(block.namespace, 0) + 1
            annotator = resolve_annotator(block.annotation_metadata, minter)
            type_name = annotator.annotator_type.name
            annotator_types[type_name] = annotator_types.get(type_name, 0) + 1
            for row in block.data:
                observations += 1
                end = row.time + row.duration
                min_time = row.time if min_time is None else min(min_time, row.time)
                max_time = end if max_time is None else max(max_time, end)

    summary = {
        "files": parsed,
        "annotations_by_namespace": dict(sorted(namespaces.items())),
        "observations": observations,
        "annotator_types": dict(sorted(annotator_types.items())),
        "min_time": decimal_lexical(min_time) if min_time is not None else None,
        "max_time": decimal_lexical(max_time) if max_time is not None else None,
    }
    indent = 2 if args.pretty else None
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=indent))
    return status
