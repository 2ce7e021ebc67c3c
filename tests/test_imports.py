"""Every module of the package and of the tests uses each name that it
imports at its top level. A package's ``__init__`` re-exports what it
imports, so it is exempt. The sources are read with ``ast`` alone. And the
package runs on numpy alone: scipy is a test dependency."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "encloop", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for each top-level imported name that the module
    never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    assert len(MODULES) > 20
    assert [entry for path in MODULES for entry in unused_imports(path)] == []


# imports every encloop module with scipy blocked, then runs ``encloop --help``
SCIPY_BLOCKED = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any "import scipy" now raises ImportError
import encloop
for mod in pkgutil.iter_modules(encloop.__path__):
    importlib.import_module(f"encloop.{mod.name}")
from encloop.cli import main
main(["--help"])
"""


def test_runtime_needs_only_numpy():
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: encloop" in proc.stdout
