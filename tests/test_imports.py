"""Every name a module of the package imports is used in that module, every
private name the package defines is read somewhere in it, and so is every
public function of the modules that hold the package's glue.

A deletion that leaves its import or its private helper behind passes every
other test, so these guards read the package's source with ``ast``.  They
fail on an imported name the module never reads (``__init__.py`` files are
skipped: their imports are the package's re-exports), and on a module-level
private ``def``, ``class`` or assignment, or a private method, whose name no
module under ``src/xfersel/`` reads.  Private means a leading ``_`` and not
a dunder.  ``pipeline`` and ``cli`` hold the package's glue, which the
package itself calls, so a public module-level function of theirs that no
module reads is a helper a merge left behind.  Which label value is a
task's RoI is decided once, by ``LabelMaskSet.foreground``, so no module
but ``bundle`` reads a ``.positive_class`` attribute.  Every field of
``SelectionConfig``, ``Manifest`` and ``ManifestFiles`` is read as an
attribute somewhere outside the class's own body: a knob that only the
config echo reads steers nothing, and a manifest key that only the writer
writes is never loaded.
Every frozen dataclass with a ``__post_init__`` begins it with
``check_fields(self)``, so one rule checks each field against its
annotation, unless ``UNCHECKED`` names the class and why.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xfersel"

# modules whose public module-level functions the package itself must read
GLUE = ("pipeline", "cli")

# the one module that may read a label set's positive class
FOREGROUND_RULE = "bundle"

# the classes each of whose fields some module must read
CONFIGS = ("SelectionConfig", "Manifest", "ManifestFiles")

# frozen dataclass -> why its __post_init__ does not begin with check_fields
UNCHECKED = {
    "LabelMaskSet": "its masks are any array-like, which _real_array checks",
    "TaskBundle": "a bundle without labels must still reach the RoI "
                  "filter's MissingLabels",
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
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_guard_sees_a_leftover_import():
    assert _unused_imports("import os\nfrom a import b, c\nc()\n") == \
        {"os", "b"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private module-level names and private method names of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            names |= {f.name for f in cls.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    return {n for n in names if _is_private(n)}


def _reads(tree: ast.Module) -> set[str]:
    """Names and attribute names that ``tree`` reads (not only assigns)."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))
            and not isinstance(n.ctx, ast.Store)}


def _unread_private_names(sources: dict[str, str]) -> set[str]:
    """``module.name`` of every private definition no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return {f"{module}.{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) - read}


def test_no_unread_private_name():
    unread = _unread_private_names(
        {str(p.relative_to(PACKAGE).with_suffix("")): p.read_text()
         for p in sorted(PACKAGE.rglob("*.py"))})
    assert not unread, f"defined but never read: {sorted(unread)}"


def test_guard_sees_an_unread_private_name():
    source = ("_USED = 1\n_UNUSED = 2\n__dunder__ = 3\n"
              "def _helper(): return _USED\n"
              "class _Kept:\n"
              "    def _method(self): return self._other()\n"
              "    def _other(self): return 0\n"
              "    def __init__(self): self._stored = 1\n")
    assert _unread_private_names({"m": source, "n": "_Kept()\n"}) == \
        {"m._UNUSED", "m._helper", "m._method"}


def _unread_public_functions(sources: dict[str, str],
                             modules: tuple[str, ...]) -> set[str]:
    """``module.name`` of every public module-level function of ``modules``
    that no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return {f"{module}.{node.name}" for module in modules
            for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read}


def test_no_unread_glue_function():
    unread = _unread_public_functions(
        {str(p.relative_to(PACKAGE).with_suffix("")): p.read_text()
         for p in sorted(PACKAGE.rglob("*.py"))}, GLUE)
    assert not unread, f"public but never read: {sorted(unread)}"


def test_guard_sees_an_unread_glue_function():
    glue = ("def run(): return helper()\n"
            "def helper(): return 1\n"
            "def leftover(): return 2\n"
            "def _private(): return 3\n"
            "class Kept:\n"
            "    def method(self): return 4\n")
    other = "def lib(): return 5\n"
    assert _unread_public_functions({"m": glue, "n": "m.run()\n",
                                     "lib": other}, ("m",)) == {"m.leftover"}


def _positive_class_reads(sources: dict[str, str]) -> set[str]:
    """``module:line`` of every read of a ``.positive_class`` attribute
    outside ``FOREGROUND_RULE``; a constructor keyword is no read."""
    return {f"{module}:{node.lineno}" for module, text in sources.items()
            if module != FOREGROUND_RULE
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and node.attr == "positive_class"
            and not isinstance(node.ctx, ast.Store)}


def test_only_bundle_reads_positive_class():
    reads = _positive_class_reads(
        {str(p.relative_to(PACKAGE).with_suffix("")): p.read_text()
         for p in sorted(PACKAGE.rglob("*.py"))})
    assert not reads, f"read .positive_class, not .foreground: {sorted(reads)}"


def test_guard_sees_a_positive_class_read():
    stage = ("labels = LabelMaskSet('t', masks, positive_class=1)\n"
             "flags = labels.masks == labels.positive_class\n")
    rule = "def foreground(self): return self.masks == self.positive_class\n"
    assert _positive_class_reads({"m": stage, FOREGROUND_RULE: rule}) == \
        {"m:2"}


def _unread_config_fields(sources: dict[str, str], config: str) -> set[str]:
    """Fields of the class ``config`` that no source reads as an attribute
    outside the class's own body; a constructor keyword is no read."""
    fields, read = set(), set()
    for text in sources.values():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == config:
                fields |= {f.target.id for f in node.body
                           if isinstance(f, ast.AnnAssign)}
        read |= {n.attr for node in tree.body
                 if not (isinstance(node, ast.ClassDef)
                         and node.name == config)
                 for n in ast.walk(node)
                 if isinstance(n, ast.Attribute)
                 and not isinstance(n.ctx, ast.Store)}
    return fields - read


def test_every_config_field_is_read():
    sources = {str(p.relative_to(PACKAGE).with_suffix("")): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py"))}
    unread = {f"{config}.{name}" for config in CONFIGS
              for name in _unread_config_fields(sources, config)}
    assert not unread, f"fields nothing reads: {sorted(unread)}"


def test_guard_sees_an_unread_config_field():
    config = ("class Config:\n"
              "    used: int = 1\n"
              "    echoed: int = 2\n"
              "    passed: int = 3\n"
              "    def to_dict(self): return self.echoed\n")
    caller = ("cfg = Config(passed=4)\n"
              "passed = cfg.used\n")
    assert _unread_config_fields({"m": config, "n": caller}, "Config") == \
        {"echoed", "passed"}


def _unchecked_dataclasses(sources: dict[str, str]) -> set[str]:
    """Names of the ``@dataclass(frozen=True, ...)`` classes whose
    ``__post_init__`` does not begin with ``check_fields(self)``."""
    return {node.name for text in sources.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(d).startswith("dataclass(frozen=True")
                    for d in node.decorator_list)
            for post in node.body
            if isinstance(post, ast.FunctionDef)
            and post.name == "__post_init__"
            and ast.unparse(post.body[0]) != "check_fields(self)"}


def test_every_frozen_dataclass_checks_its_fields():
    unchecked = _unchecked_dataclasses(
        {str(p.relative_to(PACKAGE).with_suffix("")): p.read_text()
         for p in sorted(PACKAGE.rglob("*.py"))})
    assert unchecked == set(UNCHECKED), \
        f"check_fields(self) does not begin __post_init__ of: " \
        f"{sorted(unchecked - set(UNCHECKED))}; no longer unchecked: " \
        f"{sorted(set(UNCHECKED) - unchecked)}"


def test_guard_sees_an_unchecked_dataclass():
    source = ("@dataclass(frozen=True)\n"
              "class Checked:\n"
              "    def __post_init__(self):\n"
              "        check_fields(self)\n"
              "        validate(self)\n"
              "@dataclass(frozen=True)\n"
              "class Late:\n"
              "    def __post_init__(self):\n"
              "        validate(self)\n"
              "        check_fields(self)\n"
              "@dataclass(frozen=True)\n"
              "class Unchecked:\n"
              "    def __post_init__(self):\n"
              "        validate(self)\n"
              "@dataclass(frozen=True, kw_only=True)\n"
              "class KeywordOnly:\n"
              "    def __post_init__(self):\n"
              "        validate(self)\n"
              "@dataclass(frozen=True)\n"
              "class Plain:\n"
              "    x: int = 1\n"
              "@dataclass\n"
              "class Mutable:\n"
              "    def __post_init__(self):\n"
              "        validate(self)\n")
    assert _unchecked_dataclasses({"m": source}) == \
        {"Late", "Unchecked", "KeywordOnly"}
