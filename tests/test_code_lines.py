"""tools/code_lines.py counts the lines that hold code: blank, comment and
docstring lines are left out, and a string that is no docstring counts."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string
        that is no docstring"""
        return (x,
                text)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of the string, the two of return
    assert code_lines.code_lines(SOURCE) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in
              capsys.readouterr().out.splitlines()]
    assert counts == ["7", "1", "8"]
