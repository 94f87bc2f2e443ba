"""The package's model rule, read from its source.

A model is held, stored, trained and scored as its four arrays
(hmm.HmmModel's transitions, weights, means and variances).  Per-state
GmmEmission objects are only a compatibility surface: hmm.py's HmmModel
constructor takes them and its ``emissions`` view builds them.  No other
code in the package reads ``.emissions`` or names GmmEmission, so no load,
training run or scoring pass builds per-state objects again.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "emoverify"

# (module, class, method) where per-state objects may appear
_ALLOWED = {("hmm.py", "HmmModel", "__init__"), ("hmm.py", "HmmModel", "emissions")}


def _allowed_nodes(tree: ast.Module, filename: str) -> set[int]:
    inside = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and (filename, cls.name, fn.name) in _ALLOWED:
                inside.update(id(node) for node in ast.walk(fn))
    return inside


def violations(source: str, filename: str) -> list[str]:
    tree = ast.parse(source)
    allowed = _allowed_nodes(tree, filename)
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr == "emissions":
            found.append(f"{where}: reads .emissions")
        elif (isinstance(node, ast.Name) and node.id == "GmmEmission") or (
                isinstance(node, ast.Attribute) and node.attr == "GmmEmission"):
            found.append(f"{where}: uses GmmEmission")
    return found


def test_only_the_compatibility_surface_builds_per_state_objects():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += violations(path.read_text(encoding="utf-8"), path.name)
    assert found == []


@pytest.mark.parametrize("source", [
    "em = model.emissions[s]",
    "for em in model.emissions: pass",
    "GmmEmission(w, mu, var)",
    "hmm.GmmEmission(w, mu, var)",
    "tuple(map(GmmEmission, w, mu, var))",
    "n = len(self.emissions)",
])
def test_rule_flags(source):
    assert violations(source, "module.py")


def test_rule_flags_hmm_outside_the_compatibility_surface():
    source = (
        "class HmmModel:\n"
        "    def dim(self):\n"
        "        return self.emissions[0].dim\n"
        "def sample_sequence(model):\n"
        "    return GmmEmission(model.weights[0], model.means[0], model.variances[0])\n"
    )
    assert len(violations(source, "hmm.py")) == 2


@pytest.mark.parametrize("source", [
    "model.weights[s]",
    "model.means[s, m]",
    "emissions = []",
    "HmmModel.from_arrays(a, w, mu, var)",
    "from .hmm import GmmEmission",
])
def test_rule_allows(source):
    assert violations(source, "module.py") == []


def test_rule_allows_the_constructor_and_view_in_hmm():
    source = (
        "class HmmModel:\n"
        "    def __init__(self, transitions, emissions):\n"
        "        self.m = emissions[0].n_components\n"
        "    def emissions(self) -> tuple[GmmEmission, ...]:\n"
        "        return tuple(map(GmmEmission, self.weights, self.means, self.variances))\n"
    )
    assert violations(source, "hmm.py") == []
    assert len(violations(source, "sphmm.py")) == 2
