"""Name hygiene of the package, checked with the standard library alone."""

import ast
from pathlib import Path

import cavitylink

PACKAGE = Path(cavitylink.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in cavitylink.__all__ if not hasattr(cavitylink, name)]
    assert missing == []


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it imports through __all__
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            unused[path.name] = found
    assert unused == {}


def test_unused_import_check_sees_plain_and_from_imports():
    tree = ast.parse("import os.path\nimport numpy as np\n"
                     "from math import pi, tau\nfrom x import y as z\n"
                     "__all__ = ['z']\nprint(np.zeros(1), pi)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "tau")]
