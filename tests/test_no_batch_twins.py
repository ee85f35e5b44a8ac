"""Each cost and model has one form: no public ``X_batch`` beside an ``X``.

The simulated platform, the kernels, the unit converters, the simulated
communicator and the partitioning core price their quantities with array
forms under the plain name.  A scalar ``X`` written beside an array ``X_batch`` is a
second copy of the same formula that nothing checks against the first,
so this AST scan fails when one appears in those modules.

One shape of pair is not a twin: a batch-of-one wrapper, where ``X``
calls ``X_batch`` (``Kernel.run_time``, ``NoiseModel.perturb``,
``FaultPlan.kernel_outcome``).  It holds no formula of its own.  Protocol
classes only declare the two signatures and are skipped too.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The modules whose costs and models must keep one form each.
SCANNED = (
    *sorted((SRC / "core").glob("*.py")),
    *sorted((SRC / "platform").glob("*.py")),
    *sorted((SRC / "kernels").glob("*.py")),
    SRC / "util" / "units.py",
    SRC / "runtime" / "mpi_sim.py",
)


def _calls(func: ast.AST, name: str) -> bool:
    """True when ``func`` refers to ``name`` (as ``name`` or ``obj.name``)."""
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(func)
    )


def _is_protocol(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in cls.bases
    )


def _scope_twins(body: list[ast.stmt], where: str) -> list[str]:
    funcs = {
        node.name: node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    twins = []
    for name in sorted(funcs):
        base = name.removesuffix("_batch")
        if name.startswith("_") or base == name or base not in funcs:
            continue
        if not _calls(funcs[base], name):
            twins.append(f"{where}{base} / {name}")
    return twins


def twins(source: str, module: str = "<source>") -> list[str]:
    """Every ``X`` / ``X_batch`` pair in ``source`` where ``X`` does not
    delegate to ``X_batch``."""
    tree = ast.parse(source)
    found = _scope_twins(tree.body, f"{module}:")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and not _is_protocol(node):
            found += _scope_twins(node.body, f"{module}:{node.name}.")
    return found


def test_scanned_modules_exist():
    assert all(path.is_file() for path in SCANNED)
    assert len(SCANNED) > 10


def test_no_scalar_batch_twins():
    found = []
    for path in SCANNED:
        found += twins(path.read_text(encoding="utf-8"), path.stem)
    assert found == []


def test_the_scan_finds_a_twin_and_spares_a_wrapper():
    source = '''
def cost(x):
    return x * 2.0

def cost_batch(xs):
    return xs * 2.0

class Link:
    def time(self, n):
        return n / 3.0

    def time_batch(self, ns):
        return ns / 3.0

    def run(self, n):
        return float(self.run_batch([n])[0])

    def run_batch(self, ns):
        return ns
'''
    assert twins(source) == ["<source>:cost / cost_batch", "<source>:Link.time / time_batch"]
