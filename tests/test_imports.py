"""Import hygiene of the package: every imported name is used, and the
serving path does not depend on the trainer."""

import ast
from pathlib import Path

import pytest

import tworank

PACKAGE = Path(tworank.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
