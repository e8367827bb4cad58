"""The exact-audit commands print exactly the recorded golden bytes.

bench/golden/ holds the --json standard output of verify-d4, of every
verify-d4 --corrupt I,J pair, of galois and of units, with their exit
codes, recorded before the exact layer was rewritten as integer linear
algebra. tests/golden/ holds the --json reports of galois and units at
--precision extended, whose values are printed from 50 digits, not from
doubles; both exit 0. These tests read those files and never write them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sicfield.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())

CORRUPT_PAIRS = [(i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)]

COMMANDS = {
    "verify-d4": ["verify-d4", "--json"],
    "galois": ["galois", "--json"],
    "units": ["units", "--json"],
    **{
        f"verify-d4_corrupt_{i}-{j}": ["verify-d4", "--corrupt", f"{i},{j}", "--json"]
        for i, j in CORRUPT_PAIRS
    },
}


def test_every_golden_file_is_covered():
    assert set(COMMANDS) == set(EXIT_CODES)
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(COMMANDS) | {"exit_codes"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_bytes(name, capsysbinary):
    code = main(COMMANDS[name])
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_bytes()
    assert code == EXIT_CODES[name]


# the commands the way the benchmark runs them: a fresh `python -m` from
# the checkout, no bytecode written, warnings as errors. Calling main in
# process, as the test above does, cannot see a runpy warning or an
# import-order fault.
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fresh_interpreter_matches_golden_bytes(name):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sicfield.cli", *COMMANDS[name]],
                          cwd=ROOT, env=env, capture_output=True, check=False)
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes(), proc.stderr.decode()
    assert proc.returncode == EXIT_CODES[name], proc.stderr.decode()


EXTENDED = ROOT / "tests" / "golden"
EXTENDED_COMMANDS = {
    "galois_extended": ["galois", "--precision", "extended", "--json"],
    "units_extended": ["units", "--precision", "extended", "--json"],
}


@pytest.mark.parametrize("name", sorted(EXTENDED_COMMANDS))
def test_extended_precision_matches_pinned_bytes(name):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "sicfield.cli",
                           *EXTENDED_COMMANDS[name]],
                          cwd=ROOT, env=env, capture_output=True, check=False)
    assert proc.stdout == (EXTENDED / f"{name}.json").read_bytes(), proc.stderr.decode()
    assert proc.returncode == 0, proc.stderr.decode()


def test_exact_audit_runs_no_elimination_inverse(monkeypatch, capsysbinary):
    # 1/u and 1/r come from their closed forms, never from FieldElement.inverse
    from sicfield import sic4, tower

    def no_inverse(self):
        raise AssertionError("FieldElement.inverse called")

    monkeypatch.setattr(tower.FieldElement, "inverse", no_inverse)
    for cached in (tower._constants, tower._norm_step, tower._norm_steps,
                   sic4._tau_powers, sic4.fiducial_projector):
        cached.cache_clear()
    for name in ("galois", "verify-d4", "units"):
        code = main(COMMANDS[name])
        out = capsysbinary.readouterr().out
        assert out == (GOLDEN / f"{name}.json").read_bytes()
        assert code == EXIT_CODES[name]
