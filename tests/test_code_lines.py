import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# every line that counts holds the marker "# code" once: module, class,
# function and async function docstrings, comment-only and blank lines
# do not count; a multi-line expression, a string statement that is not
# a docstring and each line of a multi-line string value do
SAMPLE = '''\
"""Module docstring,
over two lines."""

import os  # code

# a comment-only line


class Record:  # code
    """Class docstring."""

    size = (  # code
        1,  # code
        2,  # code
    )  # code

    def method(self):  # code
        """Function docstring,
        over two lines."""
        "a string statement after the docstring"  # code
        text = """a string value  # code
        over two lines"""  # code
        return os.sep + text  # code


async def wait():  # code
    """Async function docstring."""
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = load_code_lines()
    (tmp_path / "sample.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n# and a comment\n', encoding="utf-8")
    # inside the two-line string value the marker is part of the string,
    # on a line that the string makes a code line
    want = SAMPLE.count("# code")
    assert want == 12
    assert code_lines.code_lines(tmp_path / "sample.py") == want
    assert code_lines.code_lines(tmp_path / "empty.py") == 0
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py",
        f"{want:6d}  sample.py",
        f"{want:6d}  total",
    ]
