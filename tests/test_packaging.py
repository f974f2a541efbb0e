"""The test extra of pyproject.toml declares every package the test suites import,
the package exports exactly the public names listed here, and it checks
nothing with a bare assert."""

import ast
import importlib
import re
import sys
from pathlib import Path
from types import ModuleType

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


# Every public name of the package; adding or removing one is a deliberate
# change of this list.
PUBLIC_NAMES = [
    "Analysis", "CatalogError", "DEFAULT_SETTINGS", "DimResult", "DualityReport",
    "GeneratorProfile", "ModularRepresentation", "ParityDecomposition", "ParseError",
    "PartInvariants", "ProjectorDefect", "RelationViolation", "Settings", "Signature",
    "SnapFailure", "TOrderNotFound", "ValidationReport", "Weight1Indeterminate",
    "build_kappa_power", "build_p1_permutation", "build_rho0", "catalog_names",
    "certify_irreducible", "commutant_dimension", "contragredient", "dim_cusp",
    "dim_holomorphic", "dim_table", "direct_sum", "duality_report", "generator_profile",
    "is_identity", "nullspace", "parity_split", "parse_rep", "part_invariants",
    "resolve", "snap_integer", "t_eigenphases", "tensor_kappa", "validate",
]


def test_public_names_are_pinned():
    import vvmf

    init = ROOT / "src" / "vvmf" / "__init__.py"
    exported = {alias.asname or alias.name: node.module
                for node in ast.parse(init.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exported) == PUBLIC_NAMES
    public = sorted(name for name, value in vars(vvmf).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert public == PUBLIC_NAMES
    for name, module in exported.items():
        assert getattr(vvmf, name) is getattr(importlib.import_module(f"vvmf.{module}"), name)


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so every check raises a named error.
    modules = sorted((ROOT / "src" / "vvmf").glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
