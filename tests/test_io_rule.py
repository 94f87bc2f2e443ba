"""The package's I/O rule, read from its source.

Only binio.py touches the file system: no other module opens a path, makes
a directory, reads or writes a file's contents, or deletes or renames a
file.  So every read goes through one loader that names the failing file,
every output through one writer that formats in memory first, makes the
target's directory and replaces the target whole, and no path or content
depends on the locale.  Inside binio.py every open is binary.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "emoverify"

# method calls that read, write, delete or rename a file's contents
_FILE_METHODS = ("read_text", "read_bytes", "write_text", "write_bytes", "unlink", "rename")


def _mode(node: ast.Call, func) -> ast.expr:
    """The mode argument of open(path, mode), wave.open(path, mode) or Path.open(mode)."""
    args = node.args if isinstance(func, ast.Name) or len(node.args) > 1 else [None] + node.args
    modes = [k.value for k in node.keywords if k.arg == "mode"] + args[1:2]
    return modes[0] if modes else ast.Constant("r")


def violations(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        where = f"{filename}:{node.lineno}"
        if filename == "binio.py":
            if name == "open":
                mode = _mode(node, func)
                if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
                    found.append(f"{where}: open is not binary")
            continue
        # os.remove(p), os.replace(p, q) and Path(p).unlink(), not dataclasses.replace(obj);
        # Path(p).write_text(...), not binio's write_text(p, text)
        method = isinstance(func, ast.Attribute)
        on_os = method and getattr(func.value, "id", None) == "os"
        if (name in ("open", "mkdir", "makedirs") or (method and name in _FILE_METHODS)
                or (on_os and name in ("remove", "replace"))):
            found.append(f"{where}: {name} outside binio.py")
    return found


def test_only_binio_touches_the_file_system():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(path.read_text(encoding="utf-8"), path.name)
    assert found == []


@pytest.mark.parametrize("source", [
    'open(p, "w", encoding="utf-8")',
    'Path(p).open("a", encoding="utf-8")',
    'open(p, mode="wb")',
    'open(p, "r")',
    'open(p)',
    'open(p, "r", encoding="latin-1")',
    'open(p, mode)',
    'Path(p).write_text("x", encoding="utf-8")',
    'os.remove(p)',
    'os.unlink(p)',
    'os.rename(p, q)',
    'os.replace(p, q)',
    'Path(p).unlink()',
    'Path(p).rename(q)',
    'open(p, "rb")',
    'open(p, "r", encoding="utf-8")',
    'Path(p).open("rb")',
    'wave.open(str(p), "rb")',
    'io.open(p, "rb")',
    'Path(p).mkdir(parents=True, exist_ok=True)',
    'os.makedirs(p, exist_ok=True)',
    'os.mkdir(p)',
    'Path(p).read_text(encoding="utf-8")',
    'Path(p).read_bytes()',
])
def test_rule_flags(source):
    assert violations(source, "module.py")


@pytest.mark.parametrize("source", [
    'open(p, "r", encoding="utf-8")',
    'open(p)',
    'open(p, mode)',
    'Path(p).open("w", encoding="utf-8")',
])
def test_rule_flags_a_text_open_in_binio(source):
    assert violations(source, "binio.py")


@pytest.mark.parametrize("source", [
    'open(p, "rb")',
    'read_file(p, parse)',
    'wave.open(str(p), "rb")',
    'wave.Wave_read(fp)',
    'open(p, "wb")',
    'replace(model, alpha=0.0)',
    'dataclasses.replace(model, alpha=0.0)',
    'text.replace("a", "b")',
    'os.replace(p, q)',
    'os.makedirs(d, exist_ok=True)',
    'write_text(p, text)',
    'open(p, mode="rb")',
])
def test_rule_allows(source):
    in_binio = "open(" in source or source.startswith("os.")
    assert violations(source, "binio.py" if in_binio else "module.py") == []
