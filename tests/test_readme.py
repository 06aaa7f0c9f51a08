"""The README's Python examples and CLI lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from spheredim import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
CLI_LINES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
    for line in block.splitlines()
    if line.startswith("spheredim ")
]


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    """Each ``spheredim`` line runs through ``cli.main`` in one directory, in
    order, so a line may read the files that an earlier line writes."""
    assert len(CLI_LINES) == 10
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        code = cli.main(shlex.split(line, comments=True)[1:])
        assert code == 0, (line, capsys.readouterr().err)
