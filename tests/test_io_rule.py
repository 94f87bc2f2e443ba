"""The package's I/O rule, read from its source.

Only binio.py opens a file for writing, deletes or renames one, so every
output goes through one writer that formats in memory first and replaces
its target whole, and every text-mode open names encoding="utf-8", so no
output or read depends on the locale.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "emoverify"


def violations(source: str, filename: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        where = f"{filename}:{node.lineno}"
        if isinstance(func, ast.Attribute) and name in ("write_text", "write_bytes"):
            if filename != "binio.py":
                found.append(f"{where}: writes a file outside binio.py")
            continue
        # os.remove(p), os.replace(p, q) and Path(p).unlink(), not dataclasses.replace(obj)
        on_os = getattr(getattr(func, "value", None), "id", None) == "os"
        if (isinstance(func, ast.Attribute) and name in ("unlink", "rename")) or (
            on_os and name in ("remove", "replace")
        ):
            if filename != "binio.py":
                found.append(f"{where}: deletes or renames a file outside binio.py")
            continue
        if name != "open":
            continue
        # open(path, mode) and wave.open(path, mode), or Path.open(mode)
        args = node.args if isinstance(func, ast.Name) or len(node.args) > 1 else [None] + node.args
        modes = [k.value for k in node.keywords if k.arg == "mode"] + args[1:2]
        mode = modes[0] if modes else ast.Constant("r")
        if not isinstance(mode, ast.Constant):
            found.append(f"{where}: open mode is not a literal")
            continue
        if set(mode.value) & set("wax+") and filename != "binio.py":
            found.append(f"{where}: opens a file for writing outside binio.py")
        encoding = [k.value for k in node.keywords if k.arg == "encoding"]
        if "b" not in mode.value and not (
            encoding and isinstance(encoding[0], ast.Constant) and encoding[0].value == "utf-8"
        ):
            found.append(f"{where}: text-mode open without encoding=\"utf-8\"")
    return found


def test_only_binio_writes_and_text_is_utf8():
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
])
def test_rule_flags(source):
    assert violations(source, "module.py")


@pytest.mark.parametrize("source", [
    'open(p, "rb")',
    'open(p, "r", encoding="utf-8")',
    'wave.open(str(p), "rb")',
    'open(p, "wb")',
    'replace(model, alpha=0.0)',
    'dataclasses.replace(model, alpha=0.0)',
    'text.replace("a", "b")',
    'os.replace(p, q)',
])
def test_rule_allows(source):
    in_binio = "w" in source or source.startswith("os.")
    assert violations(source, "binio.py" if in_binio else "module.py") == []
