"""The README's Python examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def commented_outputs(code):
    """The output each print line promises: its own trailing comment, or
    else the comment line right after it."""
    lines = code.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("#")
        if not hash_:
            comment = lines[i + 1].removeprefix("#")
        expected.append(comment.strip())
    return expected


def test_readme_examples_print_their_commented_outputs():
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # In order and in one namespace: the second block uses the first's rep.
        for code in blocks:
            exec(compile(code, str(README), "exec"), namespace)
    expected = [line for code in blocks for line in commented_outputs(code)]
    assert expected == ["[0, 0, 1, 0, 1, 0, 2, 0, 2]", "{2: 1, 4: 1, 6: 1}", "True"]
    assert out.getvalue().splitlines() == expected
    assert len(namespace["rows"]) == 13
