"""The documented examples run as written."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def python_blocks(name):
    with open(os.path.join(ROOT, name)) as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_library_tour_runs(name, capsys):
    blocks = python_blocks(name)
    assert blocks
    for code in blocks:
        exec(compile(code, name, "exec"), {"__name__": "__doc_example__"})
    status = capsys.readouterr().out.split()[0]
    assert status in ("tol", "max_iters")
