"""Every public top-level name of the package is exported or used.

A public name that `circparikh.__all__` does not list and no package code
reads is kept only for its tests, which the package may not carry.
"""

import ast
from pathlib import Path

import circparikh

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "circparikh"


def defined(statement) -> set:
    """The names a top-level statement binds, imports aside."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def used(statement) -> set:
    """The names a statement reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_public_names(package: Path, exported) -> list:
    """`module.name` for each public top-level name under `package` that
    `exported` does not hold and no statement but its own definition reads."""
    public, reads = [], set()
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = defined(statement)
            public += [(path.stem, name) for name in sorted(names) if not name.startswith("_")]
            reads |= used(statement) - names
    return [f"{module}.{name}" for module, name in public if name not in exported and name not in reads]


def test_every_public_name_is_exported_or_used():
    assert unused_public_names(PACKAGE, set(circparikh.__all__)) == []


def test_a_name_read_only_by_its_own_definition_is_unused(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import helper\n"
        "LIMIT = 3\n"
        "def exported():\n    return helper(LIMIT)\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "def _private():\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import os\n"
        "def helper(n):\n    return n\n"
        "def orphan():\n    return os.sep\n",
        encoding="utf-8",
    )
    assert unused_public_names(tmp_path, {"exported"}) == ["a.recursive", "b.orphan"]
