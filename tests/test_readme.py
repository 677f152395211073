"""The README's examples run as written and print what their comments say."""

from __future__ import annotations

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from plesken_lab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_library_example_prints_its_comments():
    (block,) = code_blocks("python")
    comments = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    with redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert comments and len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)


def test_cli_examples_exit_0_with_a_json_report(capsys):
    commands = [
        shlex.split(line, comments=True)
        for block in code_blocks("sh")
        for line in block.splitlines()
        if line.startswith("plesken-lab ")
    ]
    assert commands
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == 0 and "payload" in report, argv
