"""Every command line check, each run the way the benchmark runs it.

RUNS is one table of command lines. Each row gives an argv, its exit
code, and what its output must be: the bytes of a golden file, or a
test of its standard output and error. One runner executes each row as
`python -W error -m sicfield.cli` in a fresh interpreter from the
checkout, with no bytecode written, within the row's timeout.

bench/golden/ holds the --json standard output of verify-d4, of every
verify-d4 --corrupt I,J pair, of galois and of units, with their exit
codes, recorded before the exact layer was rewritten as integer linear
algebra. tests/golden/ holds the --json reports of galois and units at
--precision extended, whose values are printed from 50 digits, not from
doubles; both exit 0. These tests read those files and never write them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from sicfield.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden"
PINNED = ROOT / "tests" / "golden"
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
EXTENDED = ["galois_extended", "units_extended"]
#: seconds a row may take, interpreter start included, unless it says less
TIMEOUT = 60


class Run(NamedTuple):
    argv: list[str]
    code: int
    #: the file whose bytes stdout must be, a test of stdout and stderr, or
    #: None for the exit code alone
    expect: Path | Callable[[str, str], bool] | None
    timeout: float = TIMEOUT
    #: the text of a config file, passed last as --config FILE
    config: str | None = None


def prints(text: str) -> Callable[[str, str], bool]:
    return lambda out, err: text in out


def refused_by_search(out: str, err: str) -> bool:
    return "usage: sicfield search" in err


def fresh(argv: list[str], timeout: float = TIMEOUT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", "-m", "sicfield.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=timeout, check=False)


SEARCH_FLAGS = ["--dim", "3", "--restarts", "1", "--seed", "2", "--json"]
# a generic degree-16 element with 40-bit numerators: its minimal
# polynomial comes from traces by Newton's identities in well under a second
GENERIC_40_BIT = (
    "1033281031563/799000 - 705428149737/872707*u - 966918996724/706944*u^2"
    " + 961556201541/755374*u^3 - 1041647664832/910498*u^4 - 902197862103/630185*u^5"
    " + 1081687078901/552167*u^6 - 883871792767/688501*u^7 - 1079112519080/694711*r"
    " - 832284416114/881216*u*r - 1032541862135/550020*u^2*r + 965212042023/700413*u^3*r"
    " - 634528461583/686925*u^4*r - 719494582397/888925*u^5*r + 981236050079/1042829*u^6*r"
    " - 875717384329/634630*u^7*r"
)

RUNS = {
    **{name: Run(argv, EXIT_CODES[name], GOLDEN / f"{name}.json")
       for name, argv in COMMANDS.items()},
    "galois_extended": Run(["galois", "--precision", "extended", "--json"], 0,
                           PINNED / "galois_extended.json"),
    "units_extended": Run(["units", "--precision", "extended", "--json"], 0,
                          PINNED / "units_extended.json"),
    # the numeric path converges; d = 24 is a dimension where a search
    # over all of C^d stalls
    "search_dim-6": Run(["search", "--dim", "6", "--json"], 0, prints('"converged": true')),
    "search_dim-24": Run(["search", "--dim", "24", "--json"], 0, prints('"converged": true')),
    # at d = 40, seed 0, only restart 93 of the first 94 hits, and at
    # d = 48 restart 10; a _zauner_basis that searches the smallest
    # eigenspace of the Zauner unitary, not the largest, fails all 400 at both
    "search_dim-40_restarts-400": Run(
        ["search", "--dim", "40", "--restarts", "400", "--seed", "0", "--json"], 0,
        prints('"converged": true')),
    "search_dim-48_restarts-400": Run(
        ["search", "--dim", "48", "--restarts", "400", "--seed", "0", "--json"], 0,
        prints('"converged": true')),
    "minpoly_generic_40-bit": Run(["minpoly", GENERIC_40_BIT, "--json"], 0,
                                  prints('"degree": 16'), timeout=30),
    # no report prints an infinity or a 0 for a nonzero value: u1^1000 is
    # above the double range and (sqrt5-2)^3000 below it, so their values
    # are printed from the 50-digit evaluation; and an integer prints alike
    # at both precisions
    "minpoly_above_double_range": Run(["minpoly", "u1^1000", "--json"], 0,
                                      lambda out, err: "Infinity" not in out),
    "minpoly_below_double_range": Run(["minpoly", "(sqrt5-2)^3000", "--json"], 0,
                                      prints('"re": "1.29192633227E-1881"')),
    "minpoly_integer_extended": Run(["minpoly", "3", "--precision", "extended", "--json"], 0,
                                    prints('"re": "3"')),
    # a power is judged by its value, not its exponent: 3^5000 needs 7925
    # bits and evaluates, 2^8192 needs 8193 and is refused, and tau, a root
    # of unity, takes the longest exponent the parser reads
    "minpoly_3-5000": Run(["minpoly", "3^5000", "--json"], 0, prints('"degree": 1')),
    "minpoly_2-8192": Run(["minpoly", "2^8192"], 2, None),
    "minpoly_tau_2466-digit_exponent": Run(["minpoly", "tau^" + "9" * 2466], 0, None,
                                           timeout=10),
    # --precision is offered only where it changes a report: search
    # refuses it, with its own usage line
    "search_precision_refused": Run(["search", "--dim", "3", "--precision", "extended"], 2,
                                    refused_by_search),
    # a config file is the flags it names, and a bad value is refused by
    # the subcommand's own parser, with its usage line
    "search_config_is_its_flags": Run(
        ["search"], 0, lambda out, err: out == fresh(["search", *SEARCH_FLAGS]).stdout.decode(),
        config='{"dim": 3, "restarts": 1, "seed": 2, "json": true}'),
    "search_config_bad_value": Run(["search", "--dim", "3"], 2, refused_by_search,
                                   config='{"restarts": 2.5}'),
    # integrality with a denominator above 1: the golden ratio is an
    # algebraic integer and a unit, sqrt5/2 is not an algebraic integer
    "minpoly_golden_ratio": Run(
        ["minpoly", "(1 + sqrt5)/2", "--json"], 0,
        lambda out, err: '"algebraic_integer": true' in out and '"unit": true' in out),
    "minpoly_sqrt5_half": Run(["minpoly", "sqrt5/2", "--json"], 0,
                              prints('"algebraic_integer": false')),
}


def check_run(name: str, tmp_path: Path) -> None:
    row = RUNS[name]
    argv = row.argv
    if row.config is not None:
        config = tmp_path / "config.json"
        config.write_text(row.config)
        argv = [*argv, "--config", str(config)]
    proc = fresh(argv, row.timeout)
    err = proc.stderr.decode()
    if isinstance(row.expect, Path):
        assert proc.stdout == row.expect.read_bytes(), err
    elif row.expect is not None:
        assert row.expect(proc.stdout.decode(), err), (proc.stdout.decode()[-2000:], err)
    assert proc.returncode == row.code, err


def test_every_golden_file_is_covered():
    assert set(COMMANDS) == set(EXIT_CODES)
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(COMMANDS) | {"exit_codes"}
    assert {p.stem for p in PINNED.glob("*.json")} == set(EXTENDED)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden_bytes(name, capsysbinary):
    code = main(COMMANDS[name])
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_bytes()
    assert code == EXIT_CODES[name]


# every row of RUNS, under three names by what it is held to: the golden
# bytes, the pinned extended-precision bytes, or a test of its output.
# Calling main in process, as the test above does, cannot see a runpy
# warning or an import-order fault.
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_fresh_interpreter_matches_golden_bytes(name, tmp_path):
    check_run(name, tmp_path)


@pytest.mark.parametrize("name", EXTENDED)
def test_extended_precision_matches_pinned_bytes(name, tmp_path):
    check_run(name, tmp_path)


@pytest.mark.parametrize("name", sorted(RUNS.keys() - COMMANDS.keys() - set(EXTENDED)))
def test_fresh_interpreter_run(name, tmp_path):
    check_run(name, tmp_path)


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
