"""The mutant table of `mutants.py` stays in step with the code: each old
text occurs exactly once in its file, and each killer names a test that
exists.  Running the mutants is not part of this file."""

import ast
from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_each_mutant_has_killers_or_a_reason():
    for mutant in MUTANTS:
        assert bool(mutant.killed_by) != bool(mutant.equivalent), mutant.name


def defined_tests(path):
    """The names "test", "Class::test" of the test functions in a file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return names


def test_each_killer_names_an_existing_test():
    for mutant in MUTANTS:
        for killer in mutant.killed_by:
            file, name = killer.split("::", 1)
            assert name.split("[")[0] in defined_tests(ROOT / file), killer
