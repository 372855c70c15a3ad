"""muse-anno benchmark: the convert, validate and query workloads.

Run from the repository root:

    python3 bench/run.py --workload convert --seed 1 --seconds 30 --trace 0

The benchmark generates its inputs from ``--seed`` (see corpus.py), runs
one closed-loop client against the package in ``src/`` for ``--seconds``
seconds, checks every output against the answer the generator worked out,
prints one line per metric and, as its last line, a JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace
1``) that BENCHMARK.json names.  README.md in this directory says what
each metric means on each workload and why the workloads are what they
are.  Scratch files and per-seed records go to ``.bench_work/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import corpus
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORTS_PER_PASS = 2    # convert, validate: fresh imports timed per pass


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a wrong answer)."""


# --- helpers ------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_package():
    """Import muse_anno (and its CLI module) from ``src/``."""
    if not (SRC / "muse_anno" / "__init__.py").is_file():
        raise BenchError(f"no muse_anno package under {SRC}")
    sys.path.insert(0, str(SRC))
    importlib.import_module("muse_anno.cli")
    package = sys.modules["muse_anno"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"muse_anno imported from {package.__file__}")
    return package


def fresh_import_seconds() -> float:
    """Time one import of ``muse_anno.cli`` and the package from scratch.

    The imported modules replace the package in ``sys.modules`` only;
    the workload keeps calling the modules ``load_package`` returned.
    Set-up samples are taken between passes or cycles all through a run,
    so that they see the same spread of machine load as the rest.  The
    modules the previous sample imported are collected straight away, so
    that they never add to the peak RSS.
    """
    for name in [n for n in sys.modules
                 if n == "muse_anno" or n.startswith("muse_anno.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("muse_anno.cli")
    took = perf_counter() - start
    gc.collect()
    return took


def code_digest() -> str:
    """Hash of the program and of the benchmark's own code."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "muse_anno").glob("*.py"),
                        *Path(__file__).parent.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Outcome:
    """What a workload run measured and whether its outputs were right."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    record: dict[str, object] = field(default_factory=dict)


def check_record(workload: str, seed: int, outcome: Outcome) -> None:
    """Digests and counts must repeat exactly across runs of one seed.

    The record is kept per workload, seed and code, so a change to the
    program or the benchmark starts a new record instead of failing.
    """
    path = WORK / f"record-{workload}-{seed}-{code_digest()}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in outcome.record.items():
        if key in stored and stored[key] != value:
            outcome.problems.append(
                f"{key} differs from an earlier run of this seed: "
                f"{value!r} != {stored[key]!r}")
    WORK.mkdir(exist_ok=True)
    path.write_text(json.dumps({**outcome.record, **stored}, sort_keys=True))


# --- span folding -------------------------------------------------------------

def fold(spans) -> dict[str, float]:
    """Per-stage totals for one pass, cycle or load of traced work."""
    out: Counter = Counter()
    for span in spans:
        out[span.name + ".self_s"] += span.self_time
        out[span.name + ".calls"] += 1
        work = span.work
        if work is None:               # raised, or nothing to count
            continue
        if span.name == "ingest.parse_jams":
            out["bytes_in"] += work
        elif span.name == "ingest.lower_to_model":
            out["rows_lowered"] += work
            out["models"] += 1
        elif span.name == "validate.validate_model":
            # emit_graph validates again; count each violation once
            if span.parent is None or span.parent.name != "rdf.emit_graph":
                for code in work:
                    out["violations." + code] += 1
        elif span.name == "rdf.emit_graph":
            out["triples_emitted"] += work
        elif span.name == "rdf.serialize_turtle":
            out["ttl_bytes"] += len(work.encode("utf-8"))
        elif span.name == "rdf.parse_turtle":
            out["triples_parsed"] += work
        elif span.name == "cq.answer_cq":
            out["rows_returned"] += work[2]
    out["stage_self_s"] = sum(span.self_time for span in spans
                              if span.name != "cli.main")
    return out


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(units: list[dict], unit_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics: the median over traced units of each total."""
    def med(key: str) -> float:
        return statistics.median(unit.get(key, 0.0) for unit in units)

    stage = {key: med(key) for key in
             ("ingest.parse_jams.self_s", "ingest.lower_to_model.self_s",
              "ingest.detect_modality_hint.self_s",
              "validate.validate_model.self_s", "rdf.emit_graph.self_s",
              "rdf.serialize_turtle.self_s", "rdf.parse_turtle.self_s",
              "cli.main.self_s")}
    models = med("models")
    return {
        **stage,
        "ingest.parse_jams.mb_per_s": rate(
            med("bytes_in") / 1e6, stage["ingest.parse_jams.self_s"]),
        "ingest.lower_to_model.rows_per_s": rate(
            med("rows_lowered"), stage["ingest.lower_to_model.self_s"]),
        "validate.validate_model.calls_per_file": rate(
            med("validate.validate_model.calls"), models),
        "rdf.emit_graph.triples_per_s": rate(
            med("triples_emitted"), stage["rdf.emit_graph.self_s"]),
        "rdf.serialize_turtle.mb_per_s": rate(
            med("ttl_bytes") / 1e6, stage["rdf.serialize_turtle.self_s"]),
        "rdf.parse_turtle.triples_per_s": rate(
            med("triples_parsed"), stage["rdf.parse_turtle.self_s"]),
        "rdf.triples": med("triples_emitted") + med("triples_parsed"),
        "validate.violations.V10": med("violations.V10"),
        "validate.violations.W1": med("violations.W1"),
        "validate.violations.W2": med("violations.W2"),
        "cq.rows_returned": med("rows_returned"),
        "trace.overhead_s": (statistics.median(unit_walls)
                             - statistics.median(untraced_walls)),
        "trace.coverage": rate(sum(u["stage_self_s"] for u in units),
                               sum(unit_walls)),
    }


COUNT_KEYS = ("validate.validate_model.calls_per_file", "rdf.triples",
              "validate.violations.V10", "validate.violations.W1",
              "validate.violations.W2", "cq.rows_returned")


def repeated_counts(units: list[dict], outcome: Outcome) -> None:
    """Counts must be identical in every traced unit of the run."""
    for key in ("validate.validate_model.calls", "models", "triples_emitted",
                "triples_parsed", "rows_returned", "violations.V10",
                "violations.W1", "violations.W2"):
        values = {unit.get(key, 0) for unit in units}
        if len(values) > 1:
            outcome.problems.append(f"count {key} varies within the run: "
                                    f"{sorted(values)}")


# --- convert and validate: the batch CLI --------------------------------------

class OpenLog:
    """When the CLI opens each input file, from the interpreter's "open"
    audit events; consecutive opens delimit each file's processing."""

    def __init__(self):
        self.times: list[float] | None = None

    def __call__(self, event: str, args: tuple) -> None:
        if event == "open" and self.times is not None \
                and str(args[0]).endswith(".jams"):
            self.times.append(perf_counter())


@dataclass
class BatchPass:
    wall: float
    status: int
    stdout: str
    stderr: str
    per_file: list[float]
    outputs: dict[str, str] = field(default_factory=dict)  # name -> sha256


def batch_pass(package, argv: list[str], opens: OpenLog) -> BatchPass:
    stdout, stderr = io.StringIO(), io.StringIO()
    opens.times = []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        status = package.cli.main(argv)
        end = perf_counter()
    times, opens.times = opens.times, None
    per_file = [b - a for a, b in zip(times, times[1:] + [end])]
    return BatchPass(end - start, status, stdout.getvalue(), stderr.getvalue(),
                     per_file)


def check_convert(done: BatchPass, files: list[corpus.JamsFile]) -> int:
    """Failures among len(files) + 1 checks: each file's printed triple
    count and output file, then the exit status and silent stderr."""
    printed: dict[str, str] = {}
    for line in done.stdout.splitlines():
        target, _, count = line.partition("\t")
        printed[Path(target).stem] = count
    failed = sum(printed.get(f.name) != str(f.triples)
                 or f"{f.name}.ttl" not in done.outputs for f in files)
    clean_exit = done.status == 0 and not done.stderr \
        and len(printed) == len(files)
    return failed + (not clean_exit)


def check_validate(done: BatchPass, files: list[corpus.JamsFile]) -> int:
    """Failures among len(files) + 1 checks: each file's (code, subject)
    lines and error diagnostic, then the exit status."""
    reported: dict[str, list] = {}
    diagnosed: dict[str, str] = {}
    stray = 0
    for line in done.stdout.splitlines():
        try:
            item = json.loads(line)
            # <base><role>/<file name>/...: the file the subject belongs to
            name = item["subject"].removeprefix(corpus.BASE_IRI).split("/")[1]
            reported.setdefault(name, []).append((item["code"],
                                                  item["subject"]))
        except (ValueError, KeyError, IndexError):
            stray += 1
    for line in done.stderr.splitlines():
        try:
            item = json.loads(line)
            diagnosed[Path(item["path"]).stem] = item["error"]
        except (ValueError, KeyError):
            stray += 1
    names = {f.name for f in files}
    stray += len(set(reported) - names) + len(set(diagnosed) - names)
    failed = sum(sorted(reported.get(f.name, [])) != sorted(f.violations)
                 or diagnosed.get(f.name) != f.malformed for f in files)
    errors = any(f.malformed or any(code.startswith("V")
                                    for code, _ in f.violations)
                 for f in files)
    return failed + (done.status != int(errors) or stray > 0)


def ntriples_seconds(package, files: list[corpus.JamsFile],
                     corpus_dir: Path) -> float:
    """serialize_ntriples over the graph of every file, off the convert
    path: the reference ROADMAP compares Turtle with.  Each graph is
    fresh, so N-Triples pays the first sort of its triples exactly as
    serialize_turtle does in the CLI."""
    total = 0.0
    for jams in files:
        doc = package.parse_jams((corpus_dir / f"{jams.name}.jams").read_bytes())
        graph = package.emit_graph(
            package.lower_to_model(doc, lowering_options(package, jams)))
        begin = perf_counter()
        package.serialize_ntriples(graph)
        total += perf_counter() - begin
    return total


def output_digests(out_dir: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def run_batch(command: str, package, seed: int, seconds: float,
              trace: bool) -> Outcome:
    base = WORK / f"{command}-{seed}"
    shutil.rmtree(base, ignore_errors=True)
    corpus_dir, out_dir = base / "corpus", base / "out"
    corpus_dir.mkdir(parents=True)
    files = []
    for jams in (corpus.convert_corpus if command == "convert"
                 else corpus.validate_corpus)(seed):
        (corpus_dir / f"{jams.name}.jams").write_text(jams.text, "utf-8")
        jams.text = ""
        files.append(jams)
    rows = sum(f.rows for f in files)
    argv = [command, str(corpus_dir)]
    if command == "convert":
        argv += ["-o", str(out_dir)]

    opens = OpenLog()
    sys.addaudithook(opens)
    tracer = Tracer()
    passes: list[BatchPass] = []
    traced: list[BatchPass] = []
    units: list[dict] = []
    imports: list[float] = []
    rss_before = peak_rss_mb()
    start = perf_counter()
    while perf_counter() - start < seconds or not passes \
            or (trace and not traced):
        shutil.rmtree(out_dir, ignore_errors=True)
        traced_pass = trace and len(traced) < len(passes)
        if traced_pass:
            tracer.install(package)
        try:
            done = batch_pass(package, argv, opens)
        finally:
            tracer.uninstall()
        if traced_pass:
            units.append(fold(tracer.take()))
        if command == "convert":
            done.outputs = output_digests(out_dir)
        (traced if traced_pass else passes).append(done)
        imports.extend(fresh_import_seconds() for _ in range(IMPORTS_PER_PASS))
    rss = peak_rss_mb()

    outcome = Outcome({}, 0, 0)
    for done in passes + traced:
        outcome.attempted += len(files) + 1
        outcome.failed += check_convert(done, files) if command == "convert" \
            else check_validate(done, files)
    if command == "convert":
        digests = {hashlib.sha256(json.dumps(done.outputs).encode()).hexdigest()
                   for done in passes + traced}
        if len(digests) != 1:
            outcome.problems.append("convert outputs differ between passes")
        outcome.record["output_sha256"] = outcome.notes["output_sha256"] = \
            min(digests)

    walls = [p.wall for p in passes]
    if trace:
        metrics = layer_metrics(units, [p.wall for p in traced], walls)
        metrics["rdf.serialize_ntriples.self_s"] = \
            ntriples_seconds(package, files, corpus_dir) \
            if command == "convert" else 0.0
        metrics.update(cq_metrics([]))
        repeated_counts(units, outcome)
        outcome.record["counts"] = {k: metrics[k] for k in COUNT_KEYS}
    else:
        per_file = [t for p in passes for t in p.per_file]
        metrics = {
            "rows_per_s": rows * len(passes) / sum(walls),
            "setup_s": statistics.median(imports),
            "point_p50_ms": percentile(per_file, 50) * 1e3,
            "point_p99_ms": percentile(per_file, 99) * 1e3,
            "scan_p50_ms": percentile(walls, 50) * 1e3,
            "scan_p90_ms": percentile(walls, 90) * 1e3,
            "peak_rss_mb": rss,
        }
        outcome.notes.update(point_samples=len(per_file),
                             scan_samples=len(walls), rows_per_pass=rows,
                             pass_walls=[round(w, 3) for w in walls])
    outcome.metrics = metrics
    outcome.notes["peak_rss_mb_before_timing"] = round(rss_before, 1)
    shutil.rmtree(base, ignore_errors=True)
    return outcome


# --- query: library use -------------------------------------------------------

def lowering_options(package, jams: corpus.JamsFile):
    modality = package.Modality.AUDIO if jams.modality == "audio" \
        else package.Modality.SCORE
    return package.LoweringOptions(modality=modality,
                                   base_iri=corpus.BASE_IRI)


def model_of(package, jams: corpus.JamsFile):
    return package.lower_to_model(package.parse_jams(jams.text),
                                  lowering_options(package, jams))


def turtle_of(package, jams: corpus.JamsFile, outcome: Outcome) -> str:
    """The Turtle document made from one generated JAMS file."""
    graph = package.emit_graph(model_of(package, jams))
    if len(graph) != jams.triples:
        outcome.problems.append(
            f"{jams.name}: {len(graph)} triples, expected {jams.triples}")
    return package.serialize_turtle(graph)


def load_graphs(package, texts: list[str], warmups: list) -> list:
    """Parse every document, then ask each graph one cheap question so
    that lazy set-up the first query triggers is paid here."""
    graphs = [package.parse_turtle(text) for text in texts]
    for graph, subject in zip(graphs, warmups):
        package.answer_cq(10, graph, subject)
    return graphs


def cq_metrics(spans) -> dict[str, float]:
    """Median latency per CQ and request kind from answer_cq spans."""
    samples: dict[str, list[float]] = {}
    for span in spans:
        if span.name != "cq.answer_cq" or span.work is None:
            continue
        cq_id, subject, _rows = span.work
        kind = "scan" if subject is None or cq_id == 1 else "point"
        samples.setdefault(f"cq.cq{cq_id}.{kind}_p50_ms", []).append(
            span.duration)
    out = {f"cq.cq{n}.point_p50_ms": 0.0 for n in corpus.POINT_CQS}
    out.update({f"cq.cq{n}.scan_p50_ms": 0.0 for n in corpus.SCAN_CQS})
    for key, values in samples.items():
        if key in out:
            out[key] = statistics.median(values) * 1e3
    return out


def run_query(package, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome({}, 0, 0)
    docs = list(corpus.query_documents(seed))
    texts = [turtle_of(package, jams, outcome) for jams in docs]
    requests = corpus.query_requests(seed, docs)
    warmups = [doc.annotation_iri(0) for doc in docs]
    error = package.MuseAnnoError

    tracer = Tracer()
    load_units: list[dict] = []
    cycle_units: list[dict] = []
    traced_spans: list = []
    walls: dict[str, list[float]] = {"load": [], "cycle": [],
                                     "traced load": [], "traced cycle": []}
    setups: list[float] = []
    first: list = [None] * len(requests)
    latencies: dict[str, list[float]] = {"point": [], "scan": []}
    rows = busy = 0.0
    cycles = 0
    rss_before = peak_rss_mb()
    start = perf_counter()
    # Each round loads the documents afresh (a set-up sample), then sends
    # one request cycle.  In a traced run every other round is traced.
    while perf_counter() - start < seconds or cycles == 0 \
            or (trace and cycles < 2):
        traced = "traced " if trace and cycles % 2 == 1 else ""
        graphs = None
        import_s = fresh_import_seconds()
        if traced:
            tracer.install(package)
        try:
            begin = perf_counter()
            graphs = load_graphs(package, texts, warmups)
            walls[traced + "load"].append(perf_counter() - begin)
            load_spans = tracer.take()
            begin = perf_counter()
            for k, request in enumerate(requests):
                outcome.attempted += 1
                sent = perf_counter()
                try:
                    result = package.answer_cq(request.cq, graphs[request.doc],
                                               request.subject)
                except error as exc:
                    outcome.failed += 1
                    outcome.problems.append(f"{request}: {exc}")
                    continue
                took = perf_counter() - sent
                latencies[request.kind].append(took)
                busy += took
                rows += len(result.rows)
                if cycles == 0:
                    first[k] = result
                elif result != first[k]:
                    outcome.failed += 1
            walls[traced + "cycle"].append(perf_counter() - begin)
        finally:
            tracer.uninstall()
        if traced:
            load_units.append(fold(load_spans))
            spans = tracer.take()
            cycle_units.append(fold(spans))
            traced_spans.extend(spans)
        else:
            setups.append(import_s + walls["load"][-1])
        cycles += 1
    triples = sum(len(g) for g in graphs)
    rss = peak_rss_mb()
    del graphs

    # Every answer of the first cycle against the model-side oracle; later
    # cycles were already held equal to the first.
    for d, jams in enumerate(docs):
        model = model_of(package, jams)
        for k, request in enumerate(requests):
            if request.doc == d and first[k] is not None and first[k] != \
                    package.oracle_cq(request.cq, model, request.subject):
                outcome.failed += cycles
    answers = hashlib.sha256("\n".join(
        r.to_json() for r in first if r is not None).encode()).hexdigest()
    outcome.record["answers_sha256"] = answers
    outcome.notes.update(answers_sha256=answers, cycles=cycles,
                         requests_per_cycle=len(requests), triples=triples,
                         peak_rss_mb_before_timing=round(rss_before, 1))

    if trace:
        # Per request cycle, except that parsing is per load of all the
        # documents; coverage and overhead take loads and cycles together.
        metrics = layer_metrics(cycle_units, walls["traced cycle"],
                                walls["cycle"])
        load = layer_metrics(load_units, walls["traced load"], walls["load"])
        for key in ("rdf.parse_turtle.self_s", "rdf.parse_turtle.triples_per_s",
                    "rdf.triples"):
            metrics[key] = load[key]
        metrics["trace.overhead_s"] += load["trace.overhead_s"]
        metrics["trace.coverage"] = rate(
            sum(u["stage_self_s"] for u in load_units + cycle_units),
            sum(walls["traced load"] + walls["traced cycle"]))
        metrics["rdf.serialize_ntriples.self_s"] = 0.0
        metrics.update(cq_metrics(traced_spans))
        repeated_counts(load_units, outcome)
        repeated_counts(cycle_units, outcome)
        outcome.record["counts"] = {k: metrics[k] for k in COUNT_KEYS}
    else:
        metrics = {
            "rows_per_s": rate(rows, busy),
            "setup_s": statistics.median(setups),
            "point_p50_ms": percentile(latencies["point"], 50) * 1e3,
            "point_p99_ms": percentile(latencies["point"], 99) * 1e3,
            "scan_p50_ms": percentile(latencies["scan"], 50) * 1e3,
            "scan_p90_ms": percentile(latencies["scan"], 90) * 1e3,
            "peak_rss_mb": rss,
        }
        outcome.notes.update(point_samples=len(latencies["point"]),
                             scan_samples=len(latencies["scan"]))
    outcome.metrics = metrics
    return outcome


# --- entry point --------------------------------------------------------------

WORKLOADS = ("convert", "validate", "query")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        package = load_package()
    except (OSError, ValueError, BenchError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload == "query":
        outcome = run_query(package, args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_batch(args.workload, package, args.seed, args.seconds,
                            bool(args.trace))
    check_record(args.workload, args.seed, outcome)
    if set(outcome.metrics) != set(units):
        print(f"bench: metrics {sorted(set(outcome.metrics) ^ set(units))} "
              f"do not match BENCHMARK.json", file=sys.stderr)
        return 2

    for name, value in sorted(outcome.notes.items()):
        print(f"# {name} {value}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    print(f"failed_ratio {outcome.failed / max(outcome.attempted, 1)} ratio")
    for name in units:
        print(f"{name} {outcome.metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
