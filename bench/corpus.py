"""Seeded synthetic JAMS inputs and the answers they must produce.

Every input the benchmark gives the program comes from here.  The same
seed gives byte-identical files; the seed changes the content (times,
labels, annotators, which files carry injected faults) but not the shape
the timings depend on: each workload has a fixed list of file sizes that
the seed only shuffles, so figures from different seeds are comparable.

Alongside each file the generator works out by hand what the program has
to say about it: the triple count ``convert`` prints, the (code, subject)
pairs ``validate`` reports, and the IRIs that CQ requests can name.  It
does so from what it generated, never by calling the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator

BASE_IRI = "http://example.org/"

CHORDS = ("N", "C:maj", "C:min", "D:min", "E:min", "F:maj", "G:maj", "G:7",
          "A:min", "A:min7", "Bb:maj", "B:dim", "D:7", "E:maj", "F#:min")
SEGMENTS = ("intro", "verse", "pre-chorus", "chorus", "bridge", "solo",
            "break", "outro")
TAGS = ("calm", "energetic", "dark", "bright", "tense", "warm", "sparse")
NAMESPACES = {"chord": CHORDS, "segment_open": SEGMENTS, "tag_open": TAGS}
ANNOTATORS = ("alice", "bob", "carol", "dan", "erin", "frank")
TOOLS = ("chordino", "msaf", "essentia")

# Triples one interval contributes: owner link, interval type, index and
# duration links, index type, 4 per index component, 3 for the duration.
AUDIO_INTERVAL_TRIPLES = 5 + 4 * 1 + 3
SCORE_INTERVAL_TRIPLES = 5 + 4 * 2 + 3


@dataclass
class JamsFile:
    """One generated JAMS file and what the program must make of it."""

    name: str
    modality: str                 # "audio" or "score"
    text: str
    rows: int                     # observation rows the program processes
    triples: int                  # triples emit_graph must produce
    blocks: list[int] = field(default_factory=list)   # rows per block
    violations: list[tuple[str, str]] = field(default_factory=list)
    malformed: str | None = None  # error kind the CLI must report

    @property
    def object_iri(self) -> str:
        kind = "track" if self.modality == "audio" else "score"
        return f"{BASE_IRI}{kind}/{self.name}"

    def annotation_iri(self, block: int) -> str:
        return f"{BASE_IRI}annotation/{self.name}/{block}"

    def observation_iri(self, block: int, row: int) -> str:
        return f"{BASE_IRI}observation/{self.name}/{block}/{row}"


def _split(total: int, parts: int) -> list[int]:
    """Split ``total`` rows into ``parts`` blocks as evenly as possible.

    The split is part of the shape, so it does not follow the seed: with
    the current RdfGraph, how a graph's rows fall into blocks moves the
    cost of an unfiltered CQ2 on it by up to 2x.
    """
    return [total // parts + (i < total % parts) for i in range(parts)]


def make_file(rng: random.Random, name: str, rows: int, modality: str,
              block_count: int, *, w1: int = 0, v10: int = 0,
              empty_block: bool = False) -> JamsFile:
    """Generate one JAMS file of ``rows`` rows in ``block_count`` blocks.

    ``w1`` rows end past the file duration, ``v10`` rows carry a
    confidence above 1 and ``empty_block`` appends a block with no rows;
    each is recorded as the (code, subject) the validator must report.
    """
    audio = modality == "audio"
    sizes = _split(rows, block_count)
    if empty_block:
        sizes.append(0)

    interval = AUDIO_INTERVAL_TRIPLES if audio else SCORE_INTERVAL_TRIPLES
    doc_file = JamsFile(name=name, modality=modality, text="", rows=rows,
                        triples=0, blocks=sizes)
    annotators: set[tuple[str, bool]] = set()
    values: set[tuple[str, str]] = set()
    triples = 2  # object type and label
    annotations = []
    latest_end = 0.0
    for i, size in enumerate(sizes):
        namespace = rng.choice(tuple(NAMESPACES))
        labels = NAMESPACES[namespace]
        person = rng.choice(ANNOTATORS)
        tool = rng.choice(TOOLS) if rng.random() < 0.4 else ""
        annotators.add((person, bool(tool)))
        triples += 4 + interval
        data = []
        clock = 0.0
        for j in range(size):
            label = rng.choice(labels)
            values.add((namespace, label))
            row: dict = {"value": label}
            if audio:
                length = round(rng.uniform(0.2, 3.0), 3)
                row["time"] = round(clock, 3)
                row["duration"] = length
                clock += length
                latest_end = max(latest_end, row["time"] + length)
            else:
                row["time"] = 0.0
                row["duration"] = 0.0
                row["sandbox"] = {"measure": 1 + j // 4, "beat": 1 + j % 4,
                                  "duration_beats": rng.choice((1, 2))}
            if rng.random() < 0.85:
                row["confidence"] = round(rng.random(), 2)
                triples += 1
            triples += 4 + interval
            data.append(row)
        annotations.append({
            "namespace": namespace,
            "data": data,
            "annotation_metadata": {
                "annotator": {"name": person},
                "annotation_tools": tool,
                "curator": {"name": "bench", "email": ""},
                "corpus": "synthetic",
                "version": "1.0",
            },
            "sandbox": {},
        })
        if size == 0:
            doc_file.violations.append(("W2", doc_file.annotation_iri(i)))
    triples += 3 * len(annotators) + 2 * len(values)

    observed = [(i, j) for i, size in enumerate(sizes) for j in range(size)]
    chosen = rng.sample(observed, w1 + v10)
    file_metadata: dict = {"jams_version": "0.3.4", "title": name,
                           "artist": "synthetic", "release": "",
                           "identifiers": {}}
    if audio:
        duration = round(latest_end + 1.0, 3)
        file_metadata["duration"] = duration
    for i, j in chosen[:w1]:
        row = annotations[i]["data"][j]
        row["duration"] = round(duration - row["time"] + 5.0, 3)
        doc_file.violations.append(("W1", doc_file.observation_iri(i, j)))
    for i, j in chosen[w1:]:
        row = annotations[i]["data"][j]
        if "confidence" not in row:
            triples += 1
        row["confidence"] = 1.5
        doc_file.violations.append(("V10", doc_file.observation_iri(i, j)))

    doc_file.triples = triples
    doc_file.text = json.dumps(
        {"file_metadata": file_metadata, "annotations": annotations,
         "sandbox": {}}, indent=1)
    return doc_file


def _sized(seed: int, tag: str, sizes: list[int]) -> tuple[random.Random, list]:
    """(rows, modality, blocks) per file, in seeded order.

    About three quarters of the files are audio and one quarter score,
    with 1 to 4 blocks; which size gets which is fixed, not seeded.
    """
    rng = random.Random(f"{tag}:{seed}")
    plan = [(rows, "score" if k % 4 == 3 else "audio", 1 + k // 2 % 4)
            for k, rows in enumerate(sizes)]
    rng.shuffle(plan)
    return rng, plan


# File sizes are fixed per workload; only their order and content follow
# the seed.  convert: a few hundred to about 2k rows per file.
CONVERT_SIZES = [300 + 110 * k for k in range(16)]
# validate: twice as many files, as it does far less per row.
VALIDATE_SIZES = [300 + 55 * k for k in range(32)]
# query: graphs of 100 to 380 rows.  The graph-wide CQs 1 and 8 scale
# quadratically with graph size in the current RdfGraph, and these sizes
# still fit well over 100 scan requests in one run.
QUERY_SIZES = [100 + 40 * k for k in range(8)]


# The corpus builders yield one file at a time, so that a caller which
# writes each file out and drops its text never holds the whole corpus:
# the generator must not set the peak memory the benchmark reports.

def convert_corpus(seed: int) -> Iterator[JamsFile]:
    """Clean files: every one converts, none reports a violation."""
    rng, plan = _sized(seed, "convert", CONVERT_SIZES)
    for k, shape in enumerate(plan):
        yield make_file(rng, f"conv-{k:02d}", *shape)


def validate_corpus(seed: int) -> Iterator[JamsFile]:
    """A known minority of files carry V10, W1 or W2; two are malformed.

    There are no ambiguous-modality files: ``--modality auto`` would abort
    the whole batch with exit status 2 on one.
    """
    rng, plan = _sized(seed, "validate", VALIDATE_SIZES)
    for k, (rows, modality, blocks) in enumerate(plan):
        fault = k % 8
        yield make_file(
            rng, f"val-{k:02d}", rows, modality, blocks,
            v10=rng.randint(1, 3) if fault == 1 else 0,
            w1=rng.randint(1, 3) if fault == 2 and modality == "audio" else 0,
            empty_block=fault == 5)
    yield _malformed_json(rng)
    yield _negative_time(rng)


def _malformed_json(rng: random.Random) -> JamsFile:
    doc_file = make_file(rng, "val-bad-json", 40, "audio", 1)
    doc_file.text = doc_file.text[: len(doc_file.text) // 2]
    doc_file.rows = doc_file.triples = 0
    doc_file.malformed = "MalformedJson"
    return doc_file


def _negative_time(rng: random.Random) -> JamsFile:
    doc_file = make_file(rng, "val-negative-time", 40, "audio", 1)
    raw = json.loads(doc_file.text)
    raw["annotations"][0]["data"][-1]["time"] = -1.0
    doc_file.text = json.dumps(raw, indent=1)
    doc_file.rows = doc_file.triples = 0
    doc_file.malformed = "TypeMismatch"
    return doc_file


def query_documents(seed: int) -> Iterator[JamsFile]:
    """The JAMS files the query workload's Turtle documents come from."""
    rng, plan = _sized(seed, "query", QUERY_SIZES)
    for k, shape in enumerate(plan):
        yield make_file(rng, f"doc-{k:02d}", *shape)


POINT_CQS = (2, 3, 4, 5, 6, 7, 8, 9, 10)
ANNOTATION_CQS = frozenset({2, 3, 4, 10})
SCAN_CQS = (1, 2, 4, 8, 10)
POINTS_PER_GRAPH = 3          # per point CQ and graph in one cycle


@dataclass(frozen=True)
class Request:
    kind: str        # "point" or "scan"
    cq: int
    doc: int         # index into the loaded graphs
    subject: str | None


def query_requests(seed: int, docs: list[JamsFile]) -> list[Request]:
    """One cycle of the closed-loop request stream, in send order.

    Each cycle asks every graph-wide CQ once per graph (CQ1 by object,
    the others unfiltered) and every subject-given CQ ``POINTS_PER_GRAPH``
    times per graph, on random annotations and observations.  The seed
    picks the subjects and the order, not the mix.
    """
    rng = random.Random(f"requests:{seed}")
    requests = []
    for d, doc in enumerate(docs):
        for cq in SCAN_CQS:
            subject = doc.object_iri if cq == 1 else None
            requests.append(Request("scan", cq, d, subject))
        for cq in POINT_CQS:
            for k in range(POINTS_PER_GRAPH):
                block = rng.randrange(len(doc.blocks))
                if cq in ANNOTATION_CQS or (cq == 8 and k % 2):
                    subject = doc.annotation_iri(block)
                else:
                    subject = doc.observation_iri(
                        block, rng.randrange(doc.blocks[block]))
                requests.append(Request("point", cq, d, subject))
    rng.shuffle(requests)
    return requests
