"""The package namespace: what ``catfed`` exports, and who relies on it.

The README's library quick start, the demos, the acceptance gate and the
benchmark import from ``catfed`` directly.  Every name they import must be
exported, so trimming ``__all__`` cannot break them silently.
"""

import ast
import importlib
import importlib.util
import inspect
import math
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


PACKAGE = sorted((ROOT / "src" / "catfed").glob("*.py"))
# Everything that uses the package and is not a unit test.
CALLERS = [
    *PACKAGE,
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_package_definition_has_a_caller_outside_the_tests():
    """A top-level def or class in the package that only tests name is
    test-only code: it belongs in the tests, or nowhere."""
    named = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unused = [
        f"{path.name}: {node.name}"
        for path in PACKAGE
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A parameter with a default that no caller outside the tests passes,
    by keyword or by position, only serves the tests: every real run takes
    the default."""
    keywords, positional = set(), {}
    for path in CALLERS:
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords.update((name, kw.arg) for kw in call.keywords)  # arg None: **kwargs
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            count = math.inf if starred else len(call.args)
            positional[name] = max(positional.get(name, 0), count)
    unpassed = []
    for path in PACKAGE:
        for node in _parse(path).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            first = len(ordered) - len(args.defaults)
            defaulted = [(a.arg, i) for i, a in enumerate(ordered) if i >= first]
            defaulted += [
                (a.arg, math.inf)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            unpassed += [
                f"{path.name}: {node.name}({arg}=...)"
                for arg, index in defaulted
                if not {(node.name, arg), (node.name, None)} & keywords
                and positional.get(node.name, 0) <= index
            ]
    assert unpassed == []


def test_benchmark_finds_every_name_it_takes_from_a_catfed_module():
    """perfbench/bench.py imports names from catfed's modules and reads
    module attributes such as ``federation.run_round`` before its loop; a
    refactor that drops one would crash every benchmark run.  (The trace
    targets are left out: the tracer skips a name that is missing.)"""
    tree = _parse(ROOT / "perfbench" / "bench.py")
    modules, needed = {}, []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0 and node.module):
            continue
        if node.module.startswith("catfed."):
            needed += [(node.module, alias.name) for alias in node.names]
        elif node.module == "catfed":
            modules.update(
                (alias.asname or alias.name, f"catfed.{alias.name}")
                for alias in node.names if _is_submodule(alias.name)
            )
    needed += [
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    ]
    assert ("catfed.federation", "run_round") in needed
    missing = sorted(
        f"{module}.{name}" for module, name in set(needed)
        if not hasattr(importlib.import_module(module), name)
    )
    assert missing == []
