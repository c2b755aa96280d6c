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


# flags the docs name that are not greedycd options, and why
NOT_CLI_FLAGS = {
    "--no-build-isolation",  # pip, in the install lines
    "--trace",               # perfbench/run.py, quoted with a measurement
}
# README says that flag does not exist
NO_SUCH_FLAG = "there is no `--workers` flag"


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_documented_flags_are_cli_options(name):
    from greedycd import cli
    actions = cli._build_parser()._option_string_actions
    with open(os.path.join(ROOT, name)) as fh:
        text = fh.read().replace(NO_SUCH_FLAG, "")
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
    assert flags - NOT_CLI_FLAGS <= set(actions), \
        sorted(flags - NOT_CLI_FLAGS - set(actions))
    for flag, values in re.findall(
            r"(--[a-z][a-z0-9-]*) ([a-z0-9-]+(?:\|[a-z0-9-]+)+)", text):
        choices = actions[flag].choices
        assert choices and set(values.split("|")) <= set(choices), \
            (flag, values, choices)
