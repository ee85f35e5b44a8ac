"""In-tree code keeps to the supported API and never imports test fixtures.

Two per-file AST scans:

* ``repro.api.partition`` was removed in v1.15 (use
  :class:`repro.api.Solver`).  No file under ``src/``, ``examples/``,
  ``benchmarks/`` or ``tools/`` may import it or touch an
  ``api.partition`` / ``repro.api.partition`` attribute again.
* The reference oracles in ``tests/oracles/`` are test fixtures, not
  library code.  No file under ``src/``, ``examples/`` or ``tools/`` may
  import the ``tests`` package.  Benchmarks may: their speed gates time
  the production code against those oracles.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SCANNED_DIRS = ("src", "examples", "benchmarks", "tools")

#: Directories whose code ships or runs without the test suite.
LIBRARY_DIRS = ("src", "examples", "tools")


def _python_files(dirs=SCANNED_DIRS) -> list[Path]:
    files: list[Path] = []
    for name in dirs:
        root = REPO / name
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
    return files


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _attr_chain(node: ast.Attribute) -> str:
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


def _shim_uses(path: Path) -> list[str]:
    uses: list[str] = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.api" and any(
                alias.name == "partition" for alias in node.names
            ):
                uses.append(
                    f"{path}:{node.lineno}: from repro.api import partition"
                )
        elif isinstance(node, ast.Attribute) and node.attr == "partition":
            chain = _attr_chain(node)
            if chain.endswith("api.partition"):
                uses.append(f"{path}:{node.lineno}: {chain}")
    return uses


def _is_tests(module: str | None) -> bool:
    return module is not None and (
        module == "tests" or module.startswith("tests.")
    )


def _test_imports(path: Path) -> list[str]:
    uses: list[str] = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        uses.extend(
            f"{path}:{node.lineno}: imports {name}"
            for name in names
            if _is_tests(name)
        )
    return uses


def test_scan_covers_the_package():
    files = _python_files()
    assert any(f.name == "solver.py" for f in files)
    assert any(f.parent.name == "tools" for f in files)
    library = _python_files(LIBRARY_DIRS)
    assert not any(f.parent.name == "benchmarks" for f in library)


def test_the_import_scan_sees_tests_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import tests.oracles\n"
        "from tests.oracles.partition import partition_fpm_scalar\n"
        "from . import tests\n"
        "import testsuite\n"
    )
    assert [use.split(": ")[1] for use in _test_imports(sample)] == [
        "imports tests.oracles",
        "imports tests.oracles.partition",
    ]


@pytest.mark.parametrize(
    "path", _python_files(), ids=lambda p: str(p.relative_to(REPO))
)
def test_no_in_tree_use_of_api_partition_shim(path):
    uses = _shim_uses(path)
    assert not uses, (
        "repro.api.partition was removed; call "
        "repro.api.Solver().solve(...) instead:\n" + "\n".join(uses)
    )


@pytest.mark.parametrize(
    "path", _python_files(LIBRARY_DIRS), ids=lambda p: str(p.relative_to(REPO))
)
def test_library_code_does_not_import_tests(path):
    uses = _test_imports(path)
    assert not uses, (
        "the tests package (and its oracles) is a fixture, not library "
        "code:\n" + "\n".join(uses)
    )
