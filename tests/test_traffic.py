"""Every function in ``src/mssim`` is entered by the pinned traffic.

The traffic is the golden command lines of ``test_golden`` and a small quick
verify, run in process under ``sys.setprofile``.  A function or lambda that
none of them enters serves only tests, or no one, and should go; the
allowlist names the exceptions, each with its reason.
"""

import contextlib
import inspect
import io
import pathlib
import sys

import mssim
from mssim import cli
from test_golden import CASES

TRAFFIC = (*CASES.values(), ("verify", "--quick", "--scale", "0.05", "--seed", "42"))

# (file name, function name) -> why the traffic need not enter it
ALLOWLIST = {}


def _defined_functions():
    """(file name, function name, first line) of every function and lambda
    in the package source; comprehensions and class bodies are no functions."""
    found = set()

    def walk(code, fname):
        for const in code.co_consts:
            if inspect.iscode(const):
                name = const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS and (
                        name == "<lambda>" or not name.startswith("<")):
                    found.add((fname, name, const.co_firstlineno))
                walk(const, fname)

    for path in sorted(pathlib.Path(mssim.__file__).parent.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.name)
    return found


def test_the_traffic_enters_every_function(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the paths case writes its trajectory files here
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(list(argv)) for argv in TRAFFIC]
    finally:
        sys.setprofile(outer)
    assert all(code in (0, 1) for code in codes), codes
    package = pathlib.Path(mssim.__file__).parent
    seen = {(pathlib.Path(c.co_filename).name, c.co_name, c.co_firstlineno)
            for c in entered if pathlib.Path(c.co_filename).parent == package}
    missed = {(fname, name) for fname, name, line in _defined_functions() - seen}
    assert missed - set(ALLOWLIST) == set(), sorted(missed - set(ALLOWLIST))
    # an entry the traffic does enter has no reason left to stay listed
    assert set(ALLOWLIST) <= missed, sorted(set(ALLOWLIST) - missed)
