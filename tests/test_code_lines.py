"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = textwrap.dedent(
    '''\
    """A module docstring
    over two lines."""

    import os  # a trailing comment keeps its line


    # a comment line
    class Box:
        """A class docstring."""

        def size(self):
            """A function docstring
            over three lines.
            """
            return max(
                len(os.sep),
                2,
            )

    TEXT = """a string that is no docstring
    spans two lines"""
    '''
)


def test_docstrings_comments_and_blank_lines_are_left_out():
    # import, class, def, the three-line call's four lines and both lines
    # of the assigned string
    assert code_lines.code_lines(SOURCE) == 1 + 1 + 1 + 4 + 2


def test_docstring_lines_are_the_module_class_and_function_docstrings():
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 12, 13, 14}


def test_the_report_gives_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "a.py")],
        ["9", str(tmp_path / "b.py")],
        ["10", "total"],
    ]
