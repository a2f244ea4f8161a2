"""Every public top-level function and class of the package is reached from
the package itself: exported, named by another module, or used in its own;
and every public method or property of a package class is read by name
somewhere in the package.  A name that only tests call belongs in
``tests/``."""

import ast
from pathlib import Path

import ncnperms

SRC = Path(__file__).resolve().parents[1] / "src" / "ncnperms"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: each bare name, and ``module.name`` for each
    name it imports from a package module (``from .formats import to_bfile``)
    or reads as an attribute of one (``formats.to_bfile``).  Other attribute
    reads (``table.items``) name no top-level definition and are skipped."""
    modules = {}  # local name -> package module, from "from . import x [as y]"
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
            else:
                found.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.add(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_public_name_is_reached_only_from_tests():
    reads = {stem: read_names(tree) for stem, tree in TREES.items()}
    unreached = [
        f"{stem}.{node.name}"
        for stem, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in ncnperms.__all__
        and node.name not in reads[stem]
        and not any(
            f"{stem}.{node.name}" in reads[other] for other in reads if other not in (stem, "__init__")
        )
    ]
    assert unreached == []


def test_no_public_method_is_reached_only_from_tests():
    # a method is read as an attribute (``approx.value``) or, passed along
    # unbound, as a bare name; which object it is read from is not tracked
    read = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    unreached = [
        f"{stem}.{cls.name}.{node.name}"
        for stem, tree in TREES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]
    assert unreached == []
