"""The README quick start prints what its comments say, and its CLI
commands run."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import reject_constant

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_its_comments():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _cli_block():
    text = README.read_text()
    section = text[text.index("## Command-line interface"):]
    code = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line.split("#", 1)[0]) for line in code.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", _cli_block(), ids=lambda argv: argv[1])
def test_cli_block_runs(argv, tmp_path, monkeypatch, capsys):
    """Each command of the README's CLI block exits 0 with nothing on
    stderr, and prints strict JSON (the scene list excepted)."""
    from darboux.cli import run_command

    monkeypatch.chdir(tmp_path)  # envelope --out writes here
    assert argv[0] == "darboux"
    assert run_command(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if argv[1:] != ["examples", "--list"]:
        json.loads(out, parse_constant=reject_constant)
