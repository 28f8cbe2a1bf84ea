"""Dead-code check over ``src/dietchain``, with the standard library's ``ast``.

Fails on an import that its module never uses (``__all__`` counts as a
use), on a private (single leading underscore) module-level function
or class, or a private method, that no module of the package references
by name or attribute, on a public one, or a public module-level
constant, that only tests use, and on a private attribute that the
package sets but never reads.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import dietchain

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dietchain"

# public name -> why it stays although only tests use it
ONLY_FOR_TESTS = {
    "leading_zero_bits": "the oracle that test_pow_ok_counts_leading_zero_bits "
                         "compares chain.pow_ok against",
}


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
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def _package_reads(modules: dict[str, ast.Module]) -> set[str]:
    """Every name some module of the package uses or imports."""
    reads = set().union(*(_used_names(tree) for tree in modules.values()))
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
    return reads


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _constants(tree: ast.Module):
    """Names bound by module-level assignments."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (t.id for t in targets if isinstance(t, ast.Name))


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
    referenced = _package_reads(modules)
    assert [f"{module}: {name}" for module, tree in modules.items()
            for name in _definitions(tree)
            if _is_private(name) and name not in referenced] == []


def test_no_public_definition_serves_only_the_tests():
    """A public function, class, method or module-level constant that no
    module of the package reads, no file under ``bench/`` names and
    ``dietchain.__all__`` does not export is API only tests call: the
    tests should take the path the program takes. ``ONLY_FOR_TESTS``
    names the exemptions, each with its reason."""
    modules = _modules()
    reads = _package_reads(modules) | set(dietchain.__all__)
    for path in (ROOT / "bench").rglob("*"):
        if path.is_file():
            reads.update(re.findall(r"\w+", path.read_text(errors="replace")))
    assert [f"{module}: {name}" for module, tree in modules.items()
            for name in [*_definitions(tree), *_constants(tree)]
            if not name.startswith("_") and name not in reads
            and name not in ONLY_FOR_TESTS] == []


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
