"""The package namespace: what ``catfed`` exports, and who relies on it.

The README's library quick start, the demos, the acceptance gate and the
benchmark import from ``catfed`` directly.  Every name they import must be
exported, so trimming ``__all__`` cannot break them silently.
"""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import catfed

ROOT = Path(__file__).resolve().parents[1]


def _readme_quick_start() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _sources() -> dict[str, str]:
    files = [
        *sorted((ROOT / "demos").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "perfbench" / "bench.py",
    ]
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    sources["README.md quick start"] = _readme_quick_start()
    return sources


def _imported_from_catfed(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "catfed" and node.level == 0
        for alias in node.names
    }


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"catfed.{name}") is not None


@pytest.mark.parametrize("where", sorted(_sources()))
def test_every_name_imported_from_the_package_is_exported(where):
    names = _imported_from_catfed(_sources()[where])
    assert names, f"{where} imports nothing from catfed"
    missing = sorted(n for n in names if n not in catfed.__all__ and not _is_submodule(n))
    assert missing == [], f"{where} imports names catfed does not export: {missing}"


def test_callers_use_every_exported_name():
    used = set().union(*map(_imported_from_catfed, _sources().values()))
    errors = {n for n in catfed.__all__ if n.endswith("Error")}
    assert sorted(set(catfed.__all__) - errors - used) == []


def test_all_resolves_and_is_the_whole_namespace():
    assert len(catfed.__all__) == len(set(catfed.__all__)) == 26
    for name in catfed.__all__:
        assert getattr(catfed, name) is not None, name
    public = {
        name for name, value in vars(catfed).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(catfed.__all__)


def test_every_package_definition_has_a_caller_outside_the_tests():
    """A top-level def or class in the package that only tests name is
    test-only code: it belongs in the tests, or nowhere."""
    package = sorted((ROOT / "src" / "catfed").glob("*.py"))
    callers = [
        *package,
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    named = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{path.name}: {node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert unused == []
