"""CLI behaviour: exit codes, stream separation, deterministic output."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from muse_anno import cli, parse_jams, rdf, validate_model
from muse_anno.cli import main

from conftest import FIXTURES, GOLDEN

BOHEMIAN = FIXTURES / "bohemian_rhapsody.jams"
MICHELLE = FIXTURES / "michelle.jams"
MOZART = FIXTURES / "mozart_sonata_score.jams"


@pytest.fixture()
def capsys_run(capsys):
    def run(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


def test_convert_writes_golden_turtle(tmp_path, capsys_run):
    code, out, err = capsys_run(
        "convert", str(BOHEMIAN), "--modality", "audio", "--format", "ttl",
        "-o", str(tmp_path))
    assert code == 0
    target = tmp_path / "bohemian_rhapsody.ttl"
    assert target.exists()
    assert target.read_text(encoding="utf-8") == \
        (GOLDEN / "bohemian_rhapsody.ttl").read_text(encoding="utf-8")
    path_text, count = out.strip().split("\t")
    assert path_text.endswith("bohemian_rhapsody.ttl")
    assert int(count) == 78
    assert err == ""


def test_convert_ntriples_format(tmp_path, capsys_run):
    code, out, _ = capsys_run(
        "convert", str(BOHEMIAN), "--modality", "audio", "--format", "nt",
        "-o", str(tmp_path))
    assert code == 0
    text = (tmp_path / "bohemian_rhapsody.nt").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    assert len(lines) == 78
    assert all(line.endswith(" .") for line in lines)


def test_convert_directory_sorted(tmp_path, capsys_run):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for source in (MICHELLE, BOHEMIAN):
        (corpus / source.name).write_bytes(source.read_bytes())
    out_dir = tmp_path / "out"
    code, out, err = capsys_run(
        "convert", str(corpus), "--modality", "audio", "-o", str(out_dir))
    assert code == 0
    names = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert [n.rsplit("/", 1)[-1] for n in names] == \
        ["bohemian_rhapsody.ttl", "michelle.ttl"]


def test_convert_validates_each_file_once(tmp_path, capsys_run, monkeypatch):
    validated = []

    def counting(model):
        validated.append(model)
        return validate_model(model)

    monkeypatch.setattr(cli, "validate_model", counting)
    monkeypatch.setattr(rdf, "validate_model", counting)
    code, out, _ = capsys_run(
        "convert", str(BOHEMIAN), str(MICHELLE), "--modality", "audio",
        "-o", str(tmp_path))
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    assert len(validated) == 2


def test_convert_missing_file_names_path(capsys_run):
    code, out, err = capsys_run("convert", "missing.jams")
    assert code == 1
    assert out == ""
    diagnostic = json.loads(err.strip())
    assert diagnostic["path"] == "missing.jams"


def test_query_on_a_directory_is_not_a_regular_file(tmp_path, capsys_run):
    code, out, err = capsys_run("query", str(tmp_path), "--cq", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "io", "message": "not a regular file",
                               "path": str(tmp_path)}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_validate_reports_a_fifo_without_reading_it(tmp_path, capsys_run):
    fifo = tmp_path / "pipe.jams"
    os.mkfifo(fifo)
    code, out, err = capsys_run("validate", str(fifo), str(BOHEMIAN),
                                "--modality", "audio")
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "io", "message": "not a regular file",
                               "path": str(fifo)}


def test_a_missing_input_is_no_such_file(tmp_path, capsys_run):
    missing = tmp_path / "missing.jams"
    for command in (["query", str(missing), "--cq", "1"],
                    ["validate", str(missing), str(BOHEMIAN)]):
        code, out, err = capsys_run(*command)
        assert code == 1
        assert json.loads(err)["message"] == "no such file or directory"


def test_convert_usage_error_on_bad_format(capsys):
    # main() folds argparse's usage SystemExit into an exit code.
    assert main(["convert", "f.jams", "--format", "pdf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_convert_auto_modality_uses_hint(tmp_path, capsys_run):
    code, out, _ = capsys_run("convert", str(MOZART), "-o", str(tmp_path))
    assert code == 0
    text = (tmp_path / "mozart_sonata_score.ttl").read_text(encoding="utf-8")
    assert "ScoreMusicAnnotation" in text
    assert "map:Measure" in text


def test_convert_auto_modality_aborts_on_ambiguity(tmp_path, capsys_run):
    ambiguous = tmp_path / "ambiguous.jams"
    ambiguous.write_text(
        '{"annotations":[{"namespace":"chord","data":['
        '{"time":0.0,"duration":1.0,"value":"C",'
        '"sandbox":{"measure":1,"beat":1,"duration_beats":1}},'
        '{"time":1.0,"duration":1.0,"value":"D"}]}],'
        '"file_metadata":{"title":"x"},"sandbox":{}}')
    code, out, err = capsys_run("convert", str(ambiguous), "-o", str(tmp_path))
    assert code == 2
    assert "modality" in err


def test_validate_clean_fixture_silent(capsys_run):
    code, out, err = capsys_run("validate", str(BOHEMIAN),
                                "--modality", "audio")
    assert code == 0
    assert out == ""


def test_validate_reports_warnings_but_exits_zero(tmp_path, capsys_run):
    empty_annotation = tmp_path / "empty_annotation.jams"
    empty_annotation.write_text(
        '{"annotations":[{"namespace":"chord","data":[]}],'
        '"file_metadata":{"title":"x","duration":1.0},"sandbox":{}}')
    code, out, err = capsys_run("validate", str(empty_annotation),
                                "--modality", "audio")
    assert code == 0
    report = json.loads(out.strip())
    assert report["code"] == "W2"
    assert report["severity"] == "Warning"


def test_validate_errors_exit_one(tmp_path, capsys_run):
    bad_confidence = tmp_path / "bad_confidence.jams"
    bad_confidence.write_text(
        '{"annotations":[{"namespace":"chord","data":'
        '[{"time":0.0,"duration":1.0,"value":"C","confidence":1.5}]}],'
        '"file_metadata":{"title":"x","duration":10.0},"sandbox":{}}')
    code, out, err = capsys_run("validate", str(bad_confidence),
                                "--modality", "audio")
    assert code == 1
    codes = [json.loads(line)["code"] for line in out.strip().splitlines()]
    assert codes == ["V10"]


@pytest.mark.parametrize("payload", [b"[" * 100_000,
                                     b'{"n": ' + b"9" * 5000 + b"}"],
                         ids=["deep_nesting", "long_integer"])
def test_validate_reports_unparseable_json_and_goes_on(tmp_path, capsys_run,
                                                      payload):
    bad = tmp_path / "a_bad.jams"
    bad.write_bytes(payload)
    warned = tmp_path / "b_warned.jams"
    warned.write_text(
        '{"annotations":[{"namespace":"chord","data":[]}],'
        '"file_metadata":{"title":"x","duration":1.0},"sandbox":{}}')
    code, out, err = capsys_run("validate", str(bad), str(warned),
                                "--modality", "audio")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "MalformedJson"
    assert diagnostic["path"] == str(bad)
    assert json.loads(out)["code"] == "W2"


def test_convert_reports_a_lone_surrogate_and_goes_on(tmp_path, capsys_run):
    bad = tmp_path / "a_surrogate.jams"
    bad.write_bytes(BOHEMIAN.read_bytes().replace(b'"N"', b'"\\ud800"'))
    good = tmp_path / "b_michelle.jams"
    good.write_bytes(MICHELLE.read_bytes())
    out_dir = tmp_path / "out"
    code, out, err = capsys_run("convert", str(bad), str(good),
                                "--modality", "audio", "-o", str(out_dir))
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "MalformedJson"
    assert diagnostic["path"] == str(bad)
    assert [path.name for path in out_dir.iterdir()] == ["b_michelle.ttl"]
    assert out.startswith(str(out_dir / "b_michelle.ttl"))


def test_validate_reports_a_directory_named_like_an_input_and_goes_on(
        tmp_path, capsys_run):
    (tmp_path / "a_dir.jams").mkdir()
    (tmp_path / "b_warned.jams").write_text(
        '{"annotations":[{"namespace":"chord","data":[]}],'
        '"file_metadata":{"title":"x","duration":1.0},"sandbox":{}}')
    code, out, err = capsys_run("validate", str(tmp_path),
                                "--modality", "audio")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "io"
    assert diagnostic["path"] == str(tmp_path / "a_dir.jams")
    assert "a_dir.jams" in diagnostic["message"]
    assert json.loads(out)["code"] == "W2"


@pytest.mark.parametrize("output", ["taken", "taken/sub"])
def test_convert_refuses_an_output_path_that_is_a_file_up_front(
        tmp_path, capsys_run, monkeypatch, output):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    read: list[str] = []
    monkeypatch.setattr(cli, "parse_jams",
                        lambda data: read.append(data) or parse_jams(data))
    code, out, err = capsys_run("convert", str(BOHEMIAN), str(MICHELLE),
                                "--modality", "audio",
                                "-o", str(tmp_path / output))
    assert code == 1
    assert out == ""
    [diagnostic] = [json.loads(line) for line in err.splitlines()]
    assert diagnostic["error"] == "io"
    assert diagnostic["path"] == str(tmp_path / output)
    assert str(taken) in diagnostic["message"]
    assert read == []
    assert taken.read_text() == "not a directory"
    assert sorted(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("depth", [990, 5000])
def test_validate_reports_a_deeply_nested_value(tmp_path, capsys_run, depth):
    bad = tmp_path / "deep.jams"
    bad.write_text('{"annotations":[{"namespace":"chord","data":[{"time":0.0,'
                   '"duration":1.0,"value":' + "[" * depth + "]" * depth
                   + '}]}],"file_metadata":{"title":"x","duration":10.0},'
                   '"sandbox":{}}')
    code, out, err = capsys_run("validate", str(bad), "--modality", "audio")
    assert code == 1
    assert out == ""
    [diagnostic] = [json.loads(line) for line in err.splitlines()]
    assert diagnostic["error"] == "MalformedJson"
    assert diagnostic["path"] == str(bad)
    assert "nested too deeply" in diagnostic["message"]


@pytest.mark.parametrize("command", ["validate", "stats"])
@pytest.mark.parametrize("depth", [990, 5000])
def test_a_deeply_nested_annotator_is_one_diagnostic(tmp_path, capsys_run,
                                                     command, depth):
    bad = tmp_path / "deep.jams"
    bad.write_text('{"annotations":[{"namespace":"chord","data":[{"time":0.0,'
                   '"duration":1.0,"value":"C"}],"annotation_metadata":'
                   '{"annotator":{"nest":' + "[" * depth + "]" * depth
                   + '}}}],"file_metadata":{"title":"x","duration":10.0},'
                   '"sandbox":{}}')
    code, out, err = capsys_run(command, str(bad), "--modality", "audio")
    assert code == 1
    [diagnostic] = [json.loads(line) for line in err.splitlines()]
    assert diagnostic["error"] == "MalformedJson"
    assert diagnostic["path"] == str(bad)
    assert "nested too deeply" in diagnostic["message"]
    if command == "validate":
        assert out == ""
    else:
        assert json.loads(out)["files"] == 0


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_a_bad_base_iri_is_one_diagnostic_per_file(capsys_run, command):
    code, out, err = capsys_run(command, str(FIXTURES), "--base-iri",
                                "not an iri")
    assert code == 1
    diagnostics = [json.loads(line) for line in err.splitlines()]
    assert [d["error"] for d in diagnostics] == ["InvalidBase"] * 3
    assert [d["path"] for d in diagnostics] == [
        str(BOHEMIAN), str(MICHELLE), str(MOZART)]
    if command == "validate":
        assert out == ""
    else:
        assert json.loads(out) == {
            "files": 0, "annotations_by_namespace": {}, "observations": 0,
            "annotator_types": {}, "min_time": None, "max_time": None}


def test_convert_refuses_inputs_sharing_an_output_name(tmp_path, capsys_run):
    first, second = tmp_path / "a" / "x.jams", tmp_path / "b" / "x.jams"
    for path in (first, second):
        path.parent.mkdir()
        path.write_bytes(BOHEMIAN.read_bytes())
    out_dir = tmp_path / "out"
    code, out, err = capsys_run("convert", str(first), str(second),
                                "--modality", "audio", "-o", str(out_dir))
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == "usage"
    assert str(first) in line and str(second) in line
    assert not out_dir.exists()


def test_query_cq7_returns_value_row(capsys_run):
    subject = "http://example.org/observation/01-bohemian-rhapsody/0/0"
    code, out, err = capsys_run(
        "query", str(BOHEMIAN), "--modality", "audio",
        "--cq", "7", "--subject", subject)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "observation\tvalue\tvalue_kind\tlabel"
    assert lines[1].split("\t")[3] == "N"
    assert err == ""


def test_query_subject_not_found_exits_one(capsys_run):
    code, out, err = capsys_run(
        "query", str(BOHEMIAN), "--modality", "audio",
        "--cq", "7", "--subject", "http://example.org/observation/ghost")
    assert code == 1
    assert out == ""
    assert "SubjectNotFound" in err


def test_query_rejects_out_of_range_cq(capsys):
    assert main(["query", str(BOHEMIAN), "--cq", "11"]) == 2
    assert "--cq" in capsys.readouterr().err


def test_stats_on_two_fixture_corpus(tmp_path, capsys_run):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for source in (BOHEMIAN, MICHELLE):
        (corpus / source.name).write_bytes(source.read_bytes())
    code, out, err = capsys_run("stats", str(corpus))
    assert code == 0
    summary = json.loads(out)
    assert summary["files"] == 2
    assert summary["annotations_by_namespace"] == {"chord": 1, "segment": 1}
    assert summary["observations"] == 5
    assert summary["annotator_types"] == {"Human": 2}
    assert summary["min_time"] == "0.0"
    assert summary["max_time"] == "18.400"


def test_stats_deterministic(capsys_run):
    code1, out1, _ = capsys_run("stats", str(FIXTURES))
    code2, out2, _ = capsys_run("stats", str(FIXTURES))
    assert code1 == code2 == 0
    assert out1 == out2


def test_base_iri_env_default(tmp_path, capsys_run, monkeypatch):
    monkeypatch.setenv("MUSE_ANNO_BASE_IRI", "https://corpus.example.net/")
    code, out, _ = capsys_run("convert", str(BOHEMIAN), "--modality", "audio",
                              "-o", str(tmp_path))
    assert code == 0
    text = (tmp_path / "bohemian_rhapsody.ttl").read_text(encoding="utf-8")
    assert "https://corpus.example.net/track/01-bohemian-rhapsody" in text


def test_base_iri_flag_overrides_env(tmp_path, capsys_run, monkeypatch):
    monkeypatch.setenv("MUSE_ANNO_BASE_IRI", "https://corpus.example.net/")
    code, _, _ = capsys_run("convert", str(BOHEMIAN), "--modality", "audio",
                            "--base-iri", "https://flag.example.net/",
                            "-o", str(tmp_path))
    assert code == 0
    text = (tmp_path / "bohemian_rhapsody.ttl").read_text(encoding="utf-8")
    assert "https://flag.example.net/" in text
    assert "corpus.example.net" not in text


def test_module_entrypoint_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "muse_anno", "convert", str(BOHEMIAN),
         "--modality", "audio", "-o", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "bohemian_rhapsody.ttl\t78" in result.stdout
    assert result.stderr == ""

    result = subprocess.run(
        [sys.executable, "-m", "muse_anno", "convert", "missing.jams"],
        capture_output=True, text=True)
    assert result.returncode == 1
    assert "missing.jams" in result.stderr


def test_package_imports_only_the_standard_library():
    probe = ("import sys; before = set(sys.modules); import muse_anno.cli; "
             "print(*sorted(set(sys.modules) - before))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, check=True)
    loaded = {name.partition(".")[0] for name in result.stdout.split()}
    assert "muse_anno" in loaded
    assert loaded - {"muse_anno"} <= sys.stdlib_module_names
