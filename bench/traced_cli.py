"""Run one sicfield command with the tracer installed.

    python3 bench/traced_cli.py OUT_PREFIX COMMAND [ARGS...]

A fresh interpreter imports the package, installs the wrappers and calls
`sicfield.cli.main(argv)`. Standard output and the exit code are the
command's own, so they are checked against the same golden files; the
trace summary goes to OUT_PREFIX.json and the raw spans to OUT_PREFIX.tsv.
"""

from __future__ import annotations

import json
import sys

import sicfield.cli
from tracer import Tracer


def main(prefix: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = sicfield.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(prefix + ".json", "w") as out:
        json.dump(tracer.summary(), out)
    tracer.save(prefix + ".tsv")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
