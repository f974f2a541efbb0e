"""The test extra of pyproject.toml declares every package the test suites import."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SUITES = [ROOT / "tests", ROOT / "perfbench"]


def _top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _requirement_name(spec):
    return re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_requirement_name(spec) for spec in
                project["dependencies"] + project["optional-dependencies"]["test"]}
    files = [path for suite in SUITES for path in sorted(suite.rglob("*.py"))]
    local = {"vvmf"} | {path.stem for path in files}
    imported = {name for path in files for name in _top_level_imports(path)}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert sorted(third_party - declared) == []
