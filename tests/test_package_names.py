"""Hygiene of the package's names and parameter records, checked with the
standard library alone."""

import ast
import dataclasses
import math
import typing
from pathlib import Path

import pytest

import cavitylink
from cavitylink.gates import ThreeLevelParams
from cavitylink.jcmodel import JCParams
from cavitylink.perturb import SOURCE_POINT_CYCLIC
from cavitylink.pulses import Drive, PulseSpec
from cavitylink.qstate import QStateError

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


def _eager_scipy_submodules(tree: ast.Module) -> list:
    """(line, module) of each scipy submodule imported outside a function
    body, so loaded with the module; a bare `import scipy` loads a
    submodule only when code first reads it as an attribute."""
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"scipy.{a.name}" if node.module == "scipy"
                       else node.module) for a in node.names]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return sorted((line, name) for line, name in found if name.startswith("scipy."))


def test_no_module_loads_a_scipy_submodule_at_import():
    eager = {}
    for path in sorted(PACKAGE.glob("*.py")):
        found = _eager_scipy_submodules(ast.parse(path.read_text(encoding="utf-8")))
        if found:
            eager[path.name] = found
    assert eager == {}


def test_scipy_submodule_check_flags_module_level_imports_only():
    tree = ast.parse("import scipy\nimport scipy.linalg\n"
                     "from scipy.integrate import DOP853\nfrom scipy import special\n"
                     "try:\n    import scipy.sparse as sp\nexcept ImportError:\n    pass\n"
                     "def f():\n    import scipy.optimize\n    return scipy.fft\n")
    assert _eager_scipy_submodules(tree) == [
        (2, "scipy.linalg"), (3, "scipy.integrate"), (4, "scipy.special"),
        (6, "scipy.sparse")]


def _unreferenced_helpers(modules: dict) -> list:
    """(module, name) of each module-level _-prefixed function that no code
    in modules (name -> parsed tree) names outside its own def, as a plain
    name or an attribute; names match across modules."""
    defs = [(mod, node) for mod, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]
    unreferenced = []
    for mod, fn in defs:
        own = {id(node) for node in ast.walk(fn)}
        if not any(id(node) not in own
                   and fn.name in (getattr(node, "id", None), getattr(node, "attr", None))
                   for tree in modules.values() for node in ast.walk(tree)):
            unreferenced.append((mod, fn.name))
    return sorted(unreferenced)


def test_every_private_helper_has_a_caller():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_helpers(modules) == []


def test_helper_check_flags_an_unreferenced_helper():
    modules = {
        "a.py": ast.parse("def _used():\n    return 1\n\n"
                          "def _orphan():\n    return _orphan()\n\n"
                          "def _by_attribute():\n    return 2\n\n"
                          "def public():\n    return _used()\n"),
        "b.py": ast.parse("import a\nvalue = a._by_attribute()\n"),
    }
    assert _unreferenced_helpers(modules) == [("a.py", "_orphan")]


# one valid instance of each parameter record
PARAMETER_RECORDS = (JCParams(omega0=1.1, omega=1.0, rabi_coupling=0.01),
                     PulseSpec(omega_drive=1.0, amplitude=1.0, width=1.0),
                     Drive(PulseSpec(omega_drive=1.0, amplitude=1.0, width=1.0), 0.4, 0.5),
                     SOURCE_POINT_CYCLIC,
                     ThreeLevelParams(rabi_coupling=1.0))


def _float_fields(record) -> list:
    """The fields of a dataclass record annotated float or Optional[float]."""
    hints = typing.get_type_hints(type(record))
    return [f.name for f in dataclasses.fields(record)
            if hints[f.name] is float or float in typing.get_args(hints[f.name])]


def test_float_field_check_sees_plain_and_optional_floats():
    assert _float_fields(ThreeLevelParams(rabi_coupling=1.0)) == ["rabi_coupling",
                                                                   "delta_ge"]
    assert _float_fields(cavitylink.ProtocolConfig()) == ["tol"]


@pytest.mark.parametrize("record", PARAMETER_RECORDS, ids=lambda r: type(r).__name__)
def test_every_float_parameter_refuses_a_non_finite_value(record):
    for name in _float_fields(record):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(QStateError, match=f"{name} must be finite"):
                dataclasses.replace(record, **{name: bad})


def _shared_decision_copies(modules: dict) -> list:
    """(module, line, what) of each copy of a decision that qstate owns: a
    __post_init__ that calls math.isfinite itself (qstate.check_finite and
    check_tol hold that check), or a 1e-30 literal outside qstate.py (the
    measurement drop threshold, qstate.BRANCH_FLOOR)."""
    found = []
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                found += [(mod, call.lineno, "math.isfinite in __post_init__")
                          for call in ast.walk(node) if isinstance(call, ast.Call)
                          and ast.unparse(call.func) == "math.isfinite"]
            elif (isinstance(node, ast.Constant) and node.value == 1e-30
                  and type(node.value) is float and mod != "qstate.py"):
                found.append((mod, node.lineno, "1e-30"))
    return sorted(found)


def test_each_shared_check_has_one_home():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _shared_decision_copies(modules) == []


def test_shared_check_scan_flags_inline_copies():
    modules = {
        "qstate.py": ast.parse("FLOOR = 1e-30\n"),
        "a.py": ast.parse("import math\n\nclass P:\n    def __post_init__(self):\n"
                          "        if not math.isfinite(self.x):\n            raise ValueError\n"
                          "    def other(self):\n        return math.isfinite(self.x)\n\n"
                          "def keep(p):\n    return p < 1e-30 or p < 1e-10\n"),
    }
    assert _shared_decision_copies(modules) == [
        ("a.py", 5, "math.isfinite in __post_init__"), ("a.py", 11, "1e-30")]
