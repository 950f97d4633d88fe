"""The one reader, the one line splitter and the one writer of data files."""

import ast
from pathlib import Path

import pytest

from satdkit.errors import read_lines, write_output

SRC = Path(__file__).resolve().parent.parent / "src" / "satdkit"

# calls that open a file, or read or write one whole; a logging.FileHandler
# opens its file too
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes", "FileHandler"}


def test_only_the_errors_module_opens_files():
    # every input goes through read_input and every output through
    # write_output, so a new output file lands whole like the others
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    assert calls == []


def test_only_the_errors_module_splits_lines():
    # str.splitlines also ends a line at \x0c, \x1c-\x1e, \x85, \u2028 and
    # \u2029, and StringIO(newline=None) is a second splitter; every
    # line-oriented input goes through read_lines instead
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "attr", None) == "splitlines":
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}: splitlines")
            if [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "newline"] == ["None"]:
                calls.append(f"{path.relative_to(SRC)}:{node.lineno}: newline=None")
    assert calls == []


@pytest.mark.parametrize("text, lines", [
    ("", []),
    ("a", ["a"]),
    ("a\n", ["a"]),
    ("a\n\n", ["a", ""]),
    ("a\r\nb\rc\nd", ["a", "b", "c", "d"]),
    ("a\r\r\nb\r", ["a", "", "b"]),
    ("\n".join(["x\x0by\x0cz", "\x1c\x1d\x1e", "\x85\u2028\u2029"]) + "\n",
     ["x\x0by\x0cz", "\x1c\x1d\x1e", "\x85\u2028\u2029"]),
])
def test_read_lines_ends_lines_at_lf_crlf_and_cr_only(tmp_path, text, lines):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    assert read_lines(path, "input") == lines


def test_write_output_keeps_line_ends(tmp_path):
    path = tmp_path / "out.txt"
    assert write_output(path, ["a\r\n", "b\n"]) == 2
    assert path.read_bytes() == b"a\r\nb\n"


def test_write_output_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")

    def parts():
        yield "new\n"
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_output(path, parts())
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.glob("*.tmp")) == []
