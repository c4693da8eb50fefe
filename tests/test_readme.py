"""The README's library example must keep running against the package, and
its command lines must keep parsing."""

import pathlib
import re
import shlex

from mssim import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "the README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    lines = [line for code in blocks for line in code.splitlines() if line.startswith("mssim ")]
    assert lines, "the README has no mssim command"
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])  # a usage error exits
