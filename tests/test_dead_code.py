"""Dead-code check over ``src/dietchain``, with the standard library's ``ast``.

Fails on an import that its module never uses (``__all__`` counts as a
use), on a private (single leading underscore) module-level function
or class, or a private method, that no module of the package references
by name or attribute, and on a private attribute that the package sets
but never reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dietchain"


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _annotation_strings(tree: ast.Module):
    """Quoted annotations, parsed: names used only there are still used."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield ast.parse(part.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    """Names read, attributes read and names exported by ``__all__``."""
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{module}: {name}")
    assert unused == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    referenced = set().union(*(_used_names(tree) for tree in modules.values()))
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = []
    for module, tree in modules.items():
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [item for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for item in defs:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and _is_private(item.name) and item.name not in referenced):
                    unreferenced.append(f"{module}: {item.name}")
    assert unreferenced == []


def test_every_private_attribute_is_read():
    """A private attribute set through an attribute (``x._name = ...``) or
    declared as a class field, and read nowhere in the package, is state
    nothing uses. An augmented assignment reads its target."""
    assigned: dict[str, str] = {}
    read = set()
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif _is_private(node.attr):
                    assigned.setdefault(node.attr, module)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                            and _is_private(item.target.id)):
                        assigned.setdefault(item.target.id, module)
    assert sorted(f"{module}: {name}" for name, module in assigned.items()
                  if name not in read) == []
