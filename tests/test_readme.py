"""The README's library example runs, and each `# value` comment on a
print line is what that line prints; a comment ending in "..." is a
prefix of it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import sicfield

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
