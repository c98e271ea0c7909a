"""Source-level guarantees: no state that outlives one analysis, and no
invariant check that `python -O` can strip."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equitor"
FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


def _modules():
    return [(p.name, ast.parse(p.read_text(), filename=str(p))) for p in sorted(SRC.glob("*.py"))]


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_memoizing_decorators():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert found == []


def test_no_module_level_dicts():
    def is_dict(value):
        return isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "defaultdict")
        )

    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and is_dict(node.value)
    ]
    assert found == []


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_optimized_mode_prints_the_same_bytes(fixture):
    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "equitor", "analyze", str(fixture)],
            capture_output=True,
            cwd=ROOT,
        )

    plain, optimized = run(), run("-O")
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout
