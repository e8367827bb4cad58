"""The README's library example runs, and each `# value` comment on a
print line is what that line prints; a comment ending in "..." is a
prefix of it. Each command line under "Command line" runs, and the
minpoly line prints the polynomial its `# -> ` comment names."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sicfield
from sicfield.cli import main

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(sicfield.__file__).resolve().parents[1]))


def library_example() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_prints_what_its_comments_say():
    code = library_example()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(prints)
    checked = 0
    for statement, printed in zip(prints, lines):
        comment = re.search(r"\)\s+# (.*)$", statement)
        if comment is None:
            continue
        expected = comment.group(1)
        if expected.endswith("..."):
            assert printed.startswith(expected[:-3]), (statement, printed)
        else:
            assert printed == expected, (statement, printed)
        checked += 1
    assert checked == 4


def command_lines() -> list[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    return [line for line in blocks[0].splitlines() if line.startswith("sicfield ")]


@pytest.mark.parametrize("line", command_lines(),
                         ids=lambda line: line.split("#")[0].strip())
def test_command_line_runs(capsys, line):
    argv = shlex.split(line, comments=True)[1:]
    # the corrupted phase is a negative control, so its checks fail
    assert main(argv) == (1 if "--corrupt" in argv else 0)
    if argv[0] == "minpoly":
        assert capsys.readouterr().out == line.split("# -> ")[1] + "\n"

