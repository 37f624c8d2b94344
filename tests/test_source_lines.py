"""`source_lines.py` counts raw lines and code lines as its docstring says."""

import source_lines

MODULE = '''"""A module docstring
on two lines."""

# A comment line.
import math  # a trailing comment


def area(r):
    """A function docstring."""
    return (
        math.pi
        * r ** 2
    )


class Shape:
    """A class docstring."""

    NAME = """not a docstring,
    on two lines"""
'''


def test_counts_pin_a_small_module():
    # Code lines: import, def, the four lines of the return expression,
    # class, and the two lines of the string that is not a docstring.
    assert source_lines.counts(MODULE) == (20, 9)


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert source_lines.main(["source_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      1 a.py",
        "    20      9 b.py",
        "    22     10 total",
    ]


def test_against_prints_both_trees_and_the_delta(tmp_path, capsys):
    base, tree = tmp_path / "base", tmp_path / "tree"
    base.mkdir()
    tree.mkdir()
    (base / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (base / "b.py").write_text(MODULE, encoding="utf-8")
    (tree / "b.py").write_text(MODULE + "y = 2\n", encoding="utf-8")
    (tree / "c.py").write_text("# A comment.\nz = 3\n", encoding="utf-8")
    assert source_lines.main(["source_lines.py", str(tree), "--against", str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "  base   base   tree   tree  delta  delta",
        "   raw   code    raw   code    raw   code name",
        "     2      1      0      0     -2     -1 a.py",
        "    20      9     21     10     +1     +1 b.py",
        "     0      0      2      1     +2     +1 c.py",
        "    22     10     23     11     +1     +1 total",
    ]
