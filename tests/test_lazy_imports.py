"""numpy, mpmath and the package's own modules load on first use, and
the package surface stays put.

The exact commands run in fresh interpreters here, because only a fresh
interpreter shows what importing and running them loads: the test
process itself has imported numpy long before.
"""

import copy
import importlib
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import sicfield
from sicfield._lazy import lazy_import
from sicfield.cli import main, render_number
from sicfield.sic4 import CheckResult, PhaseAudit

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(Path(sicfield.__file__).resolve().parents[1]))

# runs the CLI, then reports on stderr which numpy and mpmath
# submodules the run left in sys.modules, which sicfield modules ran (a
# registered module that has not run is still a LazyLoader module), and
# whether dataclasses was imported
CLI_RUN = """
import json, sys, types
from sicfield.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
modules = dict(sys.modules)
sys.stderr.write(json.dumps({
    "loaded": sorted(m for m in modules if m.startswith(("numpy.", "mpmath."))),
    "ran": sorted(name.removeprefix("sicfield.") for name, m in modules.items()
                  if name.startswith("sicfield.") and type(m) is types.ModuleType),
    "dataclasses": "dataclasses" in modules,
}))
sys.exit(code)
"""

EXACT_COMMANDS = {
    "verify-d4": ["verify-d4", "--json"],
    "verify-d4_corrupt_1-2": ["verify-d4", "--corrupt", "1,2", "--json"],
    "galois": ["galois", "--json"],
    "units": ["units", "--json"],
    "minpoly": ["minpoly", "u+r", "--json"],
    # a value the double bound does not certify (test_tower's
    # test_fallback_elements), computed by the exact integer sum
    "minpoly-fallback": ["minpoly", "sqrt5 - 2", "--json"],
    "discriminant": ["discriminant", "--dim", "7", "--json"],
}


def run_fresh(argv):
    """Exit code, stdout bytes and CLI_RUN's report of one run."""
    proc = subprocess.run([sys.executable, "-c", CLI_RUN, *argv], env=ENV,
                          capture_output=True, check=False, timeout=120)
    return proc.returncode, proc.stdout, json.loads(proc.stderr)


def run_in_process(argv, capsysbinary):
    code = main(list(argv))
    return code, capsysbinary.readouterr().out


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_exact_command_loads_neither_library(name, capsysbinary):
    code, out, report = run_fresh(EXACT_COMMANDS[name])
    assert report["loaded"] == []
    golden = GOLDEN / f"{name}.json"
    if golden.exists():
        assert (code, out) == (EXIT_CODES[name], golden.read_bytes())
    else:
        assert (code, out) == run_in_process(EXACT_COMMANDS[name], capsysbinary)


@pytest.mark.parametrize("argv, library", [
    (["search", "--dim", "3", "--json"], "numpy."),
    (["minpoly", "1/(u-1)", "--precision", "extended", "--json"], "mpmath."),
])
def test_numeric_command_loads_on_first_use(argv, library, capsysbinary):
    code, out, report = run_fresh(argv)
    assert any(m.startswith(library) for m in report["loaded"])
    assert (code, out) == run_in_process(argv, capsysbinary)


def test_zero_prints_zero_without_mpmath():
    # zero is below the normal double range too, but its double is exact
    code, out, report = run_fresh(["minpoly", "0", "--json"])
    assert (code, report["loaded"]) == (0, [])
    assert json.loads(out)[0]["details"]["element"]["approx"] == {"re": "0", "im": "0"}


# the modules each exact audit command must not run; none of them
# imports dataclasses either. Of the package, verify-d4 runs sic4 and
# tower, with or without --corrupt; galois runs galois and tower; units
# runs sic4, minpoly, tower and polynomials, which minpoly reads for RatPoly
NOT_RUN = {
    "verify-d4": {"minpoly", "polynomials", "weyl", "matrices", "search",
                  "expressions", "galois"},
    "verify-d4_corrupt_1-2": {"minpoly", "polynomials", "weyl", "matrices", "search",
                              "expressions", "galois"},
    "galois": {"sic4", "polynomials", "weyl", "matrices", "search", "expressions"},
    "units": {"weyl", "matrices", "search", "expressions", "galois"},
}


@pytest.mark.parametrize("name", sorted(NOT_RUN))
def test_exact_command_runs_only_its_layers(name):
    _, _, report = run_fresh(EXACT_COMMANDS[name])
    assert "tower" in report["ran"]
    assert not NOT_RUN[name] & set(report["ran"])
    assert not report["dataclasses"]


def test_discriminant_runs_no_field_module():
    # the discriminant is integer arithmetic: sic4 holds its neighbours as
    # modules and reads none of them on this path
    _, _, report = run_fresh(EXACT_COMMANDS["discriminant"])
    assert report["ran"] == ["_lazy", "cli", "sic4"]
    assert not report["dataclasses"]


def test_search_runs_no_exact_module(capsysbinary):
    # the search reads its own module alone: tau_phase lives there
    argv = ["search", "--dim", "3", "--json"]
    code, out, report = run_fresh(argv)
    assert report["ran"] == ["_lazy", "cli", "search"]
    assert any(m.startswith("numpy.") for m in report["loaded"])
    assert (code, out) == run_in_process(argv, capsysbinary)


def test_field_arithmetic_runs_no_polynomials():
    # tower holds its own integer helpers and builds its minimal
    # polynomials on first read, and conjugation builds g1 alone of the
    # four norm steps
    script = """
import sys, types
from sicfield import tower
u, r = tower.constant("u"), tower.constant("r")
z = (u + r) * u - r / 3
error = abs(tower.embed(z.conjugate()) - complex(z).conjugate())
print(tower._norm_step.cache_info().currsize, error < 1e-12)
print(*sorted(name for name, m in sys.modules.items()
              if name.startswith("sicfield.") and type(m) is types.ModuleType))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)
    steps, ran = proc.stdout.splitlines()
    assert steps == "1 True"
    assert ran.split() == ["sicfield._lazy", "sicfield.tower"]


def test_bare_import_runs_no_submodule():
    script = """
import sys, types
import sicfield
print(*sorted(name for name, m in sys.modules.items()
              if name.startswith("sicfield.") and type(m) is types.ModuleType))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=ENV,
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.split() == ["sicfield._lazy"]


def test_worker_import_keeps_search_bound_to_the_function():
    # bench/worker.py imports the submodule by name and then calls
    # sicfield.search(config); an import that rebinds the package's
    # `search` to the submodule would fail every search operation. The
    # same holds for an import statement, and for a read of the name
    # before any import.
    for first in ('importlib.import_module("sicfield.search")',
                  "import sicfield.search",
                  "assert inspect.isfunction(sicfield.search)"):
        script = f"""
import importlib, inspect
import sicfield
{first}
assert inspect.isfunction(sicfield.search), sicfield.search
config = sicfield.SearchConfig(dimension=3, rng_seed=1, restarts=1)
print(sicfield.search(config).converged)
"""
        proc = subprocess.run([sys.executable, "-c", script], env=ENV, capture_output=True,
                              text=True, check=False, timeout=120)
        assert proc.returncode == 0, (first, proc.stderr)
        assert proc.stdout.strip() == "True"


@pytest.mark.parametrize("name", sorted(set(sicfield.__all__) - {"__version__"}))
def test_public_name_is_its_home_modules(name):
    home = importlib.import_module(f"sicfield.{sicfield._HOME[name]}")
    assert getattr(sicfield, name) is getattr(home, name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from sicfield import *", namespace)
    assert set(sicfield.__all__) <= set(namespace)
    assert set(sicfield.__all__) <= set(dir(sicfield))
    assert {"tower", "search"} <= set(dir(sicfield))
    assert sicfield.tower is sys.modules["sicfield.tower"]


# the five records of the exact path are tuples: each compares equal to
# the plain tuple of its fields, and pickles and copies as itself
RECORDS = [
    CheckResult("trace_one", True, "exact"),
    PhaseAudit((1, 2), True, True, 4),
    sicfield.discriminant(7),
    sicfield.minimal_polynomial(sicfield.constant("u")),
    sicfield.certify_structure(
        sicfield.generate_group(list(sicfield.standard_generators().values()))),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_exact_records_are_tuples_that_round_trip(record):
    assert record == tuple(getattr(record, field) for field in record._fields)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record


def test_missing_module_fails_at_import_time():
    name = "sicfield_no_such_module"
    with pytest.raises(ModuleNotFoundError) as info:
        lazy_import(name)
    assert info.value.name == name
    assert name in str(info.value)
    assert name not in sys.modules


def test_loaded_module_is_returned_as_is():
    assert lazy_import("json") is json


# every kind of value render_number takes, each rounded once from its exact
# value; an mpf that is a whole number prints as the int it equals
RENDERED = [
    (0, "0"),
    (-7, "-7"),
    (10**15 + 1, "1.00000000000E+15"),
    (123456789012345678901234567890, "1.23456789012E+29"),
    (True, "1"),
    (False, "0"),
    (Fraction(1, 3), "0.333333333333"),
    (Fraction(-22, 7), "-3.14285714286"),
    (Fraction(123456789012_5, 10**4), "123456789.012"),
    (Fraction(10**20, 3), "3.33333333333E+19"),
    (0.0, "0"),
    (-0.0, "0"),
    (0.25, "0.25"),
    (1 / 3, "0.333333333333"),
    (-2.5e-7, "-2.50000000000E-7"),
    (1e300, "1.00000000000E+300"),
    (123456789012.5, "123456789012"),
    (np.float64(0.4370160244488211), "0.437016024449"),
    (np.float64(-1e-5), "-0.0000100000000000"),
    (np.float64(2.5), "2.5"),
    (np.int64(2**60 + 1), "1.15292150461E+18"),
    (mpmath.mpf(1) / 3, "0.333333333333"),
    (mpmath.mpf("-2.5e-7"), "-2.50000000000E-7"),
    (mpmath.mpf(123456789012.5), "123456789012"),
    (mpmath.mpf(0), "0"),
    (mpmath.mpf(3), "3"),
    (-mpmath.mpf(3), "-3"),
    (mpmath.mpf("1e-30"), "1.00000000000E-30"),
]


@pytest.mark.parametrize("value, text", RENDERED, ids=repr)
def test_render_number_table(value, text):
    assert render_number(value) == text


# no report may hold a NaN or an infinity, so none has digits to print
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, mpmath.inf, mpmath.nan],
                         ids=repr)
def test_render_number_refuses_non_finite_values(value):
    with pytest.raises((OverflowError, ValueError)):
        render_number(value)
