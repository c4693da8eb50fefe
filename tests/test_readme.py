"""The README's library example must keep running against the package."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks, "the README has no python example"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out
