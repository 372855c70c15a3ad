"""Streamed serialization: written one subject block at a time, the text
is byte for byte the one the serializers return, a failed write leaves
its target as it was, and the write holds a small part of the text."""

from __future__ import annotations

import errno
import json
import tracemalloc
from itertools import groupby

import pytest

from muse_anno import (LoweringOptions, Modality, cli, emit_graph,
                       lower_to_model, parse_jams, parse_turtle,
                       serialize_ntriples, serialize_turtle)
from muse_anno.cli import main

from conftest import FIXTURES

SERIALIZERS = {"ttl": serialize_turtle, "nt": serialize_ntriples}


def _jams_text(rows: int, blocks: int = 3) -> str:
    """A JAMS file of ``rows`` chord rows in ``blocks`` blocks, each by an
    annotator of its own, so the graph has several subject blocks a row."""
    per_block = rows // blocks
    data = [{"time": i / 4, "duration": 0.25,
             "value": f"{'CDEFGAB'[i % 7]}:{('maj', 'min', '7')[i % 3]}",
             "confidence": i * 37 % 100 / 100} for i in range(per_block)]
    return json.dumps({
        "annotations": [{"namespace": "chord", "data": data, "sandbox": {},
                         "annotation_metadata": {
                             "annotator": {"name": f"Annotator {b}"}}}
                        for b in range(blocks)],
        "file_metadata": {"title": "Streamed", "duration": per_block / 4},
        "sandbox": {}})


GENERATED_ROWS = 3000
# Each source with the modality that converts it.
SOURCES = {"generated": ("audio", None),
           "bohemian_rhapsody": ("audio", FIXTURES / "bohemian_rhapsody.jams"),
           "michelle": ("audio", FIXTURES / "michelle.jams"),
           "mozart_sonata_score": ("score",
                                   FIXTURES / "mozart_sonata_score.jams")}


def _source_bytes(name: str) -> bytes:
    path = SOURCES[name][1]
    return _jams_text(GENERATED_ROWS).encode() if path is None \
        else path.read_bytes()


def _graph_of(name: str):
    modality = Modality(SOURCES[name][0])
    return emit_graph(lower_to_model(parse_jams(_source_bytes(name)),
                                     LoweringOptions(modality=modality)))


@pytest.fixture(scope="module")
def graphs():
    return {name: _graph_of(name) for name in SOURCES}


def test_the_generated_graph_spans_many_blocks(graphs):
    subjects = {s for s, _, _ in graphs["generated"]}
    assert len(subjects) > 3 * GENERATED_ROWS


class _Writes:
    def __init__(self):
        self.texts = []

    def write(self, text: str) -> int:
        self.texts.append(text)
        return len(text)


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("fmt", sorted(SERIALIZERS))
def test_writing_to_a_file_gives_the_returned_text(graphs, name, fmt):
    graph, serialize = graphs[name], SERIALIZERS[fmt]
    out = _Writes()
    assert serialize(graph, out) is None
    assert "".join(out.texts) == serialize(graph)
    # One write per subject block.  Turtle writes its prefixes first, and
    # each block reads under them.
    prefixes = out.texts.pop(0) if fmt == "ttl" else ""
    blocks = [list(triples) for _, triples in
              groupby(graph, key=lambda triple: triple.subject)]
    assert len(out.texts) == len(blocks)
    for text, triples in zip(out.texts, blocks):
        assert list(parse_turtle(prefixes + text)) == triples


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("fmt", sorted(SERIALIZERS))
def test_convert_writes_the_returned_text(tmp_path, capsys, graphs, name,
                                          fmt):
    source = tmp_path / f"{name}.jams"
    source.write_bytes(_source_bytes(name))
    assert main(["convert", str(source), "--modality", SOURCES[name][0],
                 "--format", fmt, "-o", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    written = (tmp_path / "out" / f"{name}.{fmt}").read_bytes()
    assert written == SERIALIZERS[fmt](graphs[name]).encode("utf-8")


class _FailsAfterFirstBlock:
    def __init__(self, out):
        self.out = out
        self.blocks = 0

    def write(self, text: str) -> int:
        self.blocks += 1
        if self.blocks > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.out.write(text)


def test_a_write_failing_midway_leaves_the_target_and_goes_on(
        tmp_path, capsys, monkeypatch):
    calls = []

    def fails_first(graph, out):
        calls.append(graph)
        return serialize_turtle(graph, _FailsAfterFirstBlock(out)
                                if len(calls) == 1 else out)

    monkeypatch.setattr(cli, "serialize_turtle", fails_first)
    first = tmp_path / "a_generated.jams"
    first.write_text(_jams_text(30))
    second = tmp_path / "b_michelle.jams"
    second.write_bytes((FIXTURES / "michelle.jams").read_bytes())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "a_generated.ttl").write_bytes(b"old bytes")

    code = main(["convert", str(first), str(second), "--modality", "audio",
                 "-o", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    [diagnostic] = [json.loads(line) for line in err.splitlines()]
    assert diagnostic == {"error": "io", "path": str(first),
                          "message": "[Errno 28] No space left on device"}
    assert (out_dir / "a_generated.ttl").read_bytes() == b"old bytes"
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["a_generated.ttl", "b_michelle.ttl"]
    assert out.startswith(str(out_dir / "b_michelle.ttl") + "\t")
    assert (out_dir / "b_michelle.ttl").read_text(encoding="utf-8") == \
        serialize_turtle(calls[1])


def _write_peak(path, graph, serialize) -> int:
    """The most memory writing the graph's text to a file held at once."""
    with open(path, "w", encoding="utf-8", newline="") as out:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            serialize(graph, out)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


def test_writing_turtle_holds_less_than_the_text(tmp_path, graphs):
    # Turtle keeps the renderings of objects whose subject blocks are
    # still to come.
    graph = graphs["generated"]
    length = len(serialize_turtle(graph))
    assert _write_peak(tmp_path / "out.ttl", graph, serialize_turtle) \
        < length / 3


def test_writing_ntriples_holds_less_than_the_text(tmp_path, graphs):
    graph = graphs["generated"]
    length = len(serialize_ntriples(graph))
    assert _write_peak(tmp_path / "out.nt", graph, serialize_ntriples) \
        < length / 10
