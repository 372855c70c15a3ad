"""The CLI contract under generated argv, input trees and JAMS bytes.

Whatever it is given, ``main()`` returns 0, 1 or 2 without raising, and
once argparse has accepted the argv every stderr line without --pretty
is one JSON object.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from muse_anno.cli import build_parser, main

from conftest import FIXTURES

FIXTURE_BYTES = [path.read_bytes() for path in sorted(FIXTURES.glob("*.jams"))]
OBSERVATION = "http://example.org/observation/01-bohemian-rhapsody/0/0"


def _edit(data: bytes, edits: list[tuple[int, int, bytes]]) -> bytes:
    """Apply byte edits: at each position, cut ``cut`` bytes, put ``new``."""
    for position, cut, new in edits:
        at = position % (len(data) + 1)
        data = data[:at] + new + data[at + cut:]
    return data


jams_bytes = st.builds(
    _edit, st.sampled_from(FIXTURE_BYTES),
    st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 3),
                       st.binary(max_size=3)), max_size=3))

# An input: a file, a directory of files (optionally holding a directory
# named like an input), a directory named x.jams, or a missing path.
inputs = st.one_of(
    st.tuples(st.just("file"), jams_bytes),
    st.tuples(st.just("dir"), st.lists(jams_bytes, max_size=3), st.booleans()),
    st.just(("jams_dir",)),
    st.just(("missing",)),
)

options = st.fixed_dictionaries({
    "pretty": st.booleans(),
    "strict": st.booleans(),
    "modality": st.sampled_from([None, "audio", "score", "auto", "bogus"]),
    "base_iri": st.sampled_from([None, "http://example.org/", "not an iri"]),
    "format": st.sampled_from([None, "ttl", "nt"]),
    "output_is_file": st.booleans(),
    "cq": st.sampled_from(["1", "7", "8", "11"]),
    "subject": st.sampled_from([None, OBSERVATION, "ghost"]),
})


def _build(root: Path, specs: list) -> list[str]:
    """Make each input under ``root``; return the paths to pass."""
    paths = []
    for i, spec in enumerate(specs):
        path = root / f"in{i}"
        if spec[0] == "file":
            path = path.with_suffix(".jams")
            path.write_bytes(spec[1])
        elif spec[0] == "dir":
            path.mkdir()
            for j, data in enumerate(spec[1]):
                (path / f"f{j}.jams").write_bytes(data)
            if spec[2]:
                (path / "x.jams").mkdir()
        elif spec[0] == "jams_dir":
            path = path.with_suffix(".jams")
            path.mkdir()
        paths.append(str(path))
    return paths


def _argv(command: str, paths: list[str], opts: dict, root: Path) -> list[str]:
    argv = [command] + (paths[:1] if command == "query" else paths)
    for flag in ("pretty", "strict"):
        if opts[flag]:
            argv.append(f"--{flag}")
    for flag in ("modality", "base_iri"):
        if opts[flag] is not None:
            argv += [f"--{flag.replace('_', '-')}", opts[flag]]
    if command == "convert":
        output = root / "out"
        if opts["output_is_file"]:
            output.write_text("taken")
        argv += ["-o", str(output)]
        if opts["format"] is not None:
            argv += ["--format", opts["format"]]
    if command == "query":
        argv += ["--cq", opts["cq"]]
        if opts["subject"] is not None:
            argv += ["--subject", opts["subject"]]
    return argv


def _accepted(argv: list[str]) -> bool:
    try:
        with redirect_stderr(io.StringIO()):
            build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


@settings(max_examples=150)
@given(command=st.sampled_from(["convert", "validate", "query", "stats"]),
       specs=st.lists(inputs, min_size=1, max_size=3),
       opts=options)
@example(command="stats",
         specs=[("dir", FIXTURE_BYTES, False)],
         opts={"pretty": False, "strict": False, "modality": None,
               "base_iri": "not an iri", "format": None,
               "output_is_file": False, "cq": "7", "subject": None})
@example(command="validate",
         specs=[("file", b'{"annotations":[{"namespace":"chord","data":'
                 b'[{"time":1e9999999999999999999,"duration":0,"value":"C"}]'
                 b'}],"file_metadata":{"title":"x"},"sandbox":{}}')],
         opts={"pretty": False, "strict": False, "modality": "audio",
               "base_iri": None, "format": None,
               "output_is_file": False, "cq": "1", "subject": None})
def test_main_keeps_its_contract(command, specs, opts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = _argv(command, _build(root, specs), opts, root)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if opts["pretty"] or not _accepted(argv):
        return
    for line in err.getvalue().splitlines():
        assert isinstance(json.loads(line), dict), (argv, line)
