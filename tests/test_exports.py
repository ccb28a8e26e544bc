"""The package namespace: every public name resolves, and only those; every
other module-level name is used somewhere in the package."""

import ast
from pathlib import Path

import dirac1d

SRC = Path(dirac1d.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in dirac1d.__all__ if not hasattr(dirac1d, name)]
    assert missing == []
    assert len(set(dirac1d.__all__)) == len(dirac1d.__all__)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from dirac1d import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dirac1d.__all__)


def module_level_names(tree: ast.Module):
    """Names a module binds at its top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_module_level_name_is_public_or_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}.{name}" for module, tree in trees.items()
            for name in module_level_names(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in dirac1d.__all__ and name not in used]
    assert dead == []
