"""The benchmark scripts import only what the package provides.

``bench/`` is not importable from the test suite (its tests skip when the
package is not on the path), so a renamed or deleted package name would
first show as a failed benchmark run.  The scripts are read with ``ast``
instead: each ``becmirror`` module and name they import must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_imports() -> list[tuple[str, str, str | None]]:
    """(script, module, name) of every ``becmirror`` import in ``bench/*.py``;
    ``name`` is None for a plain ``import``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "becmirror":
                    found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "becmirror"]
    return found


BENCH_IMPORTS = _bench_imports()


def test_bench_imports_from_the_package():
    assert {module for _, module, _ in BENCH_IMPORTS} >= {"becmirror.cli", "becmirror.params"}


@pytest.mark.parametrize(
    "script, module, name", BENCH_IMPORTS,
    ids=[f"{script}:{module}:{name}" for script, module, name in BENCH_IMPORTS],
)
def test_bench_import_resolves(script, module, name):
    imported = importlib.import_module(module)
    if name is not None and not hasattr(imported, name):
        # ``from package import submodule`` binds a module the package may
        # not have imported yet.
        importlib.import_module(f"{module}.{name}")
