"""Import hygiene of the package: every imported name is used, the
serving path does not depend on the trainer, every public function,
class, method or property is named by the program (the references that
only tests call live in `tests/oracles.py`), every attribute the package
stores on `self` is read, every parameter of a private function is read,
and no check is an `assert`, which `python -O` strips."""

import ast
from pathlib import Path

import pytest

import tworank

PACKAGE = Path(tworank.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every module-level import binding."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = [n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)]
    for node in exported:
        used |= {c.value for c in ast.walk(node) if isinstance(c, ast.Constant)}
    return used


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public module-level functions and classes, and the public methods and
    properties of module-level classes. Names are matched, not bindings, so
    a method that shares its name with any variable or attribute (say
    `positives`, `item` or `group`) counts as used: such names need a
    reader's eye."""
    top = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    methods = [m for c in top if isinstance(c, ast.ClassDef)
               for m in c.body if isinstance(m, ast.FunctionDef)]
    return {n.name for n in top + methods if not n.name.startswith("_")}


def _named(tree: ast.Module) -> set[str]:
    """Every name `tree` loads, reads as an attribute or imports."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _imported_modules(tree: ast.Module) -> set[str]:
    """Package modules that `tree` imports, by their short name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                out |= {module} if module else {a.name for a in node.names}
            elif module.startswith("tworank"):
                rest = module.partition(".")[2]
                out |= {rest} if rest else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] for a in node.names
                    if a.name.startswith("tworank.")}
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _bound_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_serving_does_not_import_the_trainer():
    tree = ast.parse((PACKAGE / "serving.py").read_text(encoding="utf-8"))
    assert "train" not in _imported_modules(tree)


def test_scanner_catches_an_unused_import_and_a_trainer_import():
    tree = ast.parse("from .train import TitleEmbedder\nimport os\n")
    assert set(_bound_names(tree)) - _used_names(tree) == {"TitleEmbedder", "os"}
    assert _imported_modules(tree) == {"train"}
    assert _imported_modules(ast.parse("from . import train")) == {"train"}
    assert _imported_modules(ast.parse("from tworank.train import x")) == {"train"}


def test_every_public_name_is_used():
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES + sorted(PERFBENCH.glob("*.py"))]
    defined = set().union(*(_public_definitions(t) for t in trees[:len(MODULES)]))
    named = set().union(*(_named(t) for t in trees))
    unused = sorted(defined - named)
    assert not unused, f"public names that nothing runs: {unused}"


def _stored_self_attributes(tree: ast.Module) -> dict[str, int]:
    """Name -> line of every `self.<name>` that `tree` assigns."""
    return {n.attr: n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"}


def _read_attributes(tree: ast.Module) -> set[str]:
    """Every attribute name that `tree` reads, off any object."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store)}


def test_every_stored_attribute_is_read():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES + sorted(PERFBENCH.glob("*.py"))}
    read = set().union(*map(_read_attributes, trees.values()))
    unread = sorted(f"{p.name}:{line} self.{name}" for p in MODULES
                    for name, line in _stored_self_attributes(trees[p]).items()
                    if name not in read)
    assert not unread, f"attributes that nothing reads: {unread}"


def test_scanner_catches_an_attribute_nothing_reads():
    tree = ast.parse("class Box:\n    def __init__(self):\n        self.kept = 1\n"
                     "        self.lost = 2\n        self.count = 0\n"
                     "        self.count += self.kept\n")
    assert set(_stored_self_attributes(tree)) == {"kept", "lost", "count"}
    assert set(_stored_self_attributes(tree)) - _read_attributes(tree) == {"lost", "count"}


def test_scanner_catches_a_public_name_nothing_runs():
    tree = ast.parse("def used(): pass\ndef unused(): pass\nclass _Private: pass\n"
                     "x = used()\nfrom m import Imported\ny = obj.attr\n")
    assert _public_definitions(tree) == {"used", "unused"}
    assert _public_definitions(tree) - _named(tree) == {"unused"}
    assert {"Imported", "attr"} <= _named(tree)


def test_scanner_catches_a_method_nothing_runs():
    tree = ast.parse("class Box:\n    def called(self): pass\n    def idle(self): pass\n"
                     "    @property\n    def size(self): return 0\n"
                     "    def __len__(self): return 0\n    def _helper(self): pass\n"
                     "Box().called()\n")
    assert _public_definitions(tree) == {"Box", "called", "idle", "size"}
    assert _public_definitions(tree) - _named(tree) == {"idle", "size"}


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`function(parameter)` for each parameter that the body of an
    undecorated, module-level, `_`-named function never reads. Decorated
    functions (the autodiff kernels) take a fixed signature."""
    out = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                and not fn.decorator_list):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{fn.name}({p.arg})" for p in params if p.arg not in read]
    return out


def test_every_parameter_of_a_private_function_is_read():
    unread = [f"{p.name}: {entry}" for p in MODULES
              for entry in _unread_parameters(ast.parse(p.read_text(encoding="utf-8")))]
    assert not unread, f"parameters that nothing reads: {unread}"


def test_scanner_catches_a_parameter_nothing_reads():
    tree = ast.parse("def _f(a, b, *rest, c, **kw):\n    return a + c\n"
                     "def _g(x, y):\n    def inner():\n        return y\n    x = 1\n"
                     "@deco\ndef _h(unread): pass\ndef public(unread): pass\n"
                     "class Box:\n    def _m(self, unread): pass\n")
    assert _unread_parameters(tree) == ["_f(b)", "_f(rest)", "_f(kw)", "_g(x)"]


def _assert_lines(tree: ast.Module) -> list[int]:
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def test_no_assert_statement():
    found = [f"{p.name}:{line}" for p in MODULES
             for line in _assert_lines(ast.parse(p.read_text(encoding="utf-8")))]
    assert not found, f"assert statements, which python -O strips: {found}"


def test_scanner_catches_an_assert():
    assert _assert_lines(ast.parse("def f(x):\n    if x:\n        assert x > 0\n")) == [3]
