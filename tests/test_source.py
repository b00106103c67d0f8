"""Static checks on the package source, with the standard library only."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "quiverkoszul"
# __init__.py imports names to re-export them, not to use them
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in TESTS.glob("*.py")})


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import -> its line, without
    ``from __future__`` imports."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    """Every name read in the module, also inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_module_level_import(module):
    tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports (name: line) {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json\nfrom .quiver import Path, Quiver\n"
                     "def f(p: 'Path') -> int:\n    return json.dumps(p)\n")
    used = _used_names(tree)
    assert [n for n in _imported_names(tree) if n not in used] == ["Quiver"]


# -- every exported name has a user ---------------------------------------------

REPO = TESTS.parent
# exported names only tests call, each kept as an oracle for its reason
TEST_ORACLES = {
    "double_dual_check": "the double dual restores the relation spans; the"
                         " dual-of-a-covering comparison (ROADMAP item 5) reuses it",
    "quadratic_check": "picks the corpus instances that have a quadratic dual",
    "trivial_action": "the skew group algebra of the trivial group is the base",
}


def _names_read(paths) -> set:
    """Every name read or imported by the modules at ``paths``."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def _attributes_read(paths) -> set:
    """Every attribute name read in the modules at ``paths``, whatever
    object it is read from."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _public_members(cls) -> list:
    """The public methods and properties defined in the body of ``cls``."""
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (property, staticmethod, classmethod)))]


def _unused(names, used: set, texts) -> list:
    """The names neither in ``used`` nor a whole word of one of ``texts``."""
    return [name for name in names
            if name not in used
            and not any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts)]


def test_every_exported_name_has_a_user():
    # a src/ module other than __init__.py, README.md or bench/*.py uses it
    import quiverkoszul

    used = _names_read(p for name, p in MODULES.items() if not name.startswith("tests/"))
    texts = [(REPO / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8") for p in (REPO / "bench").glob("*.py")]
    unused = _unused(quiverkoszul.__all__, used, texts)
    assert sorted(unused) == sorted(TEST_ORACLES), (
        "exported names with no user outside the tests (allowlisted: "
        f"{sorted(TEST_ORACLES)}): {unused}")


# public methods and properties of exported classes only tests call; the
# tests read such views through their own helpers (tests/oracles.py)
TEST_ORACLE_MEMBERS = {}


def test_every_public_member_of_an_exported_class_has_a_user():
    """A src/ module other than __init__.py reads each member as an
    attribute, or README.md or bench/*.py names it.  The rule matches by
    name alone, so a member that shares its name with a used one is
    invisible to it: a ``StructureConstantAlgebra.product`` would pass on
    the reads of ``AlgebraModel.product``."""
    import quiverkoszul

    src = [p for name, p in MODULES.items() if not name.startswith("tests/")]
    used = _attributes_read(src)
    texts = [(REPO / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8") for p in (REPO / "bench").glob("*.py")]
    unused = []
    for name in quiverkoszul.__all__:
        cls = getattr(quiverkoszul, name)
        if inspect.isclass(cls):
            unused += [f"{name}.{member}"
                       for member in _unused(_public_members(cls), used, texts)]
    assert sorted(unused) == sorted(TEST_ORACLE_MEMBERS), (
        "public members of exported classes with no user outside the tests"
        f" (allowlisted: {sorted(TEST_ORACLE_MEMBERS)}): {unused}")


def test_the_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .quiver import Path\ndef f():\n    raise Oops(Path)\n")
    used = _names_read([module])
    assert used == {"Path", "Oops"}
    names = ["Path", "Oops", "compose", "composed", "f"]
    assert _unused(names, used, ["see `compose`"]) == ["composed", "f"]
    module.write_text("def g(m):\n    return m.product(1, 2), m.dim\n")

    class Model:
        dim = property(lambda self: 0)

        def product(self, x, y):
            return {}

        def multiply(self, x, y):
            return {}

        def _walk(self, arrows, vec):
            return vec

    members = _public_members(Model)
    assert members == ["dim", "product", "multiply"]
    assert _unused(members, _attributes_read([module]), []) == ["multiply"]
