"""Every name a module of the package imports is used in that module.

A deletion that leaves its import behind passes every other test, so this
guard reads each module's source with ``ast`` and fails on an imported name
the module never reads.  ``__init__.py`` files are skipped: their imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xfersel"

# (module, name) -> why the import stays although the module never reads it
KEPT = {
    ("cli", "hscore_segmentation"):
        "bench/layers.py wraps xfersel.cli.hscore_segmentation by name",
}


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(
    p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.stem)
def test_no_unused_import(path):
    unused = {name for name in _unused_imports(path.read_text())
              if (path.stem, name) not in KEPT}
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_guard_sees_a_leftover_import():
    assert _unused_imports("import os\nfrom a import b, c\nc()\n") == \
        {"os", "b"}
