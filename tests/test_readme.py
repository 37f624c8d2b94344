"""The README's library quick tour runs as printed and each commented value
is the one it shows."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_values():
    """(comment, value) for each statement of the quick tour that carries a
    trailing comment, in order; the value of an assignment is the one bound."""
    block = README.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    commented = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment:
            commented.append((comment, value))
    return commented


def test_quick_tour_values():
    values = tour_values()
    assert [comment for comment, _ in values] == [
        "5",
        "(1, 1, 1, 1)",
        "[abacbc], class size 6",
        "4",
        "Fraction(4, 3)",
        "'2,2,4/3,2,2,2'",
        "True, yet no rule applies",
        "True",
    ]
    count, top_row, cw, direct, average, key, equivalent, passed = (v for _, v in values)
    assert count == 5
    assert top_row == (1, 1, 1, 1)
    assert (str(cw), cw.class_size) == ("[abacbc]", 6)
    assert direct == 4
    assert average == Fraction(4, 3)
    assert key == "2,2,4/3,2,2,2"
    assert equivalent is True
    assert passed is True
