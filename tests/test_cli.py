"""Command line behaviour: exit codes, report shape, option plumbing."""

import importlib
import json
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import render_number as reference_render_number

from sicfield.cli import EXIT_BROKEN_PIPE, build_parser, main, render_number, serialize_element
from sicfield.expressions import (
    ExpressionError,
    Literal,
    Name,
    Pow,
    evaluate_expression,
    parse_expression,
)
from sicfield.search import SearchConfig
from sicfield.tower import CONSTANT_NAMES, FieldElement

DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


class TestRenderNumber:
    def test_twelve_significant_digits(self):
        assert render_number(0.4370160244488211) == "0.437016024449"

    def test_ties_go_to_even(self):
        from fractions import Fraction

        # both ties resolve to the even digit 2, from above and below
        assert render_number(Fraction(123456789012_5, 10**4)) == "123456789.012"
        assert render_number(Fraction(123456789011_5, 10**4)) == "123456789.012"

    def test_short_values_stay_short(self):
        assert render_number(0.25) == "0.25"
        assert render_number(5) == "5"

    # the earlier type-by-type conversion is the oracle wherever it
    # rounded once: doubles (subnormals included), ints, Fractions, and
    # numpy float64 and int64; above 2^53 it rounded an int64 through a
    # double first, so there the exact int is the oracle
    @given(DOUBLES)
    def test_doubles_match_the_reference(self, x):
        assert render_number(x) == reference_render_number(x)
        assert render_number(np.float64(x)) == reference_render_number(np.float64(x))

    @given(st.booleans() | st.integers() | st.integers(min_value=2**64))
    def test_ints_match_the_reference(self, n):
        assert render_number(n) == reference_render_number(n)

    @given(st.fractions())
    def test_fractions_match_the_reference(self, q):
        assert render_number(q) == reference_render_number(q)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int64_matches_the_reference(self, n):
        oracle = n if abs(n) > 2**53 else np.int64(n)
        assert render_number(np.int64(n)) == reference_render_number(oracle)

    @given(DOUBLES)
    def test_mpf_renders_as_its_double(self, x):
        assert render_number(mpmath.mpf(x)) == render_number(x)


class TestVerifyD4:
    def test_clean_run_passes(self, capsys):
        code, reports = run_json(capsys, "verify-d4")
        assert code == 0
        assert len(reports) == 20
        assert all(r["status"] == "pass" for r in reports)

    def test_reports_carry_the_four_fields(self, capsys):
        _, reports = run_json(capsys, "verify-d4")
        for report in reports:
            assert sorted(report) == ["category", "check", "details", "status"]
            assert report["category"] == "verify-d4"

    def test_corrupted_phase_fails_named_checks(self, capsys):
        code, reports = run_json(capsys, "verify-d4", "--corrupt", "1,2")
        assert code == 1
        failed = {r["check"] for r in reports if r["status"] == "fail"}
        assert "idempotent" in failed
        assert any(check.startswith("overlap_") for check in failed)

    def test_corrupt_wants_a_pair(self, capsys):
        code, _, err = run_cli(capsys, "verify-d4", "--corrupt", "banana")
        assert code == 2
        assert "expected a pair" in err

    def test_text_mode_prints_a_line_per_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify-d4")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 20
        assert all(line.startswith("[PASS]") for line in lines)


class TestMinpoly:
    def test_prints_the_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "minpoly", "u + 1/u")
        assert code == 0
        assert out.strip() == "t^4 - 6t^2 + 4"

    def test_leading_minus_sign_after_a_double_dash(self, capsys):
        # -u is a conjugate of u, so it has u's octic
        code, out, _ = run_cli(capsys, "minpoly", "--", "-u")
        assert code == 0
        assert out.strip() == "t^8 - 2t^6 - 2t^4 - 2t^2 + 1"

    def test_leading_minus_sign_alone_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "minpoly", "-u")
        assert code == 2
        assert err.splitlines()[-1].startswith("sicfield minpoly: error:")

    def test_help_says_how_to_write_a_leading_minus_sign(self, capsys):
        code, out, _ = run_cli(capsys, "minpoly", "--help")
        assert code == 0
        assert "sicfield minpoly -- -u" in " ".join(out.split())

    def test_json_report_shape(self, capsys):
        code, reports = run_json(capsys, "minpoly", "u + 1/u")
        assert code == 0
        (report,) = reports
        details = report["details"]
        assert details["minimal_polynomial"] == "t^4 - 6t^2 + 4"
        assert details["degree"] == 4
        assert details["algebraic_integer"] is True
        assert details["unit"] is False

    def test_element_serialization(self, capsys):
        _, reports = run_json(capsys, "minpoly", "u/2 + 1")
        element = reports[0]["details"]["element"]
        assert len(element["coords"]) == 16
        assert element["coords"][0] == "1"
        assert element["coords"][1] == "1/2"
        assert set(element["approx"]) == {"re", "im"}

    def test_unit_flagged_as_unit(self, capsys):
        _, reports = run_json(capsys, "minpoly", "u1")
        assert reports[0]["details"]["unit"] is True
        assert reports[0]["details"]["minimal_polynomial"] == "t^2 - 2t - 1"

    def test_syntax_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "minpoly", "u ^")
        assert code == 2
        assert "offset 3" in err

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "minpoly", "bogus + 1")
        assert code == 2
        assert "unknown name" in err

    def test_zero_division_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "minpoly", "1/(u - u)")
        assert code == 2
        assert "error" in err

    def test_deep_nesting_exits_2_with_the_offset(self, capsys):
        code, out, err = run_cli(capsys, "minpoly", "(" * 3000 + "u" + ")" * 3000)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "nested" in err and "offset 100" in err

    def test_long_flat_chain_evaluates(self, capsys):
        code, out, _ = run_cli(capsys, "minpoly", "+".join(["u"] * 3000))
        assert code == 0
        assert out.startswith("t^8 - 18000000t^6")

    def test_huge_exponent_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "minpoly", "u^99999999999")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "8192-bit bound" in err

    def test_refusal_does_not_echo_an_unbounded_estimate(self, capsys):
        # the parser refuses the 130000-digit exponent by its digit count,
        # and the message does not echo the exponent
        code, out, err = run_cli(capsys, "minpoly", "u^" + "9" * 130000)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "8192-bit bound" in err
        assert len(err.encode()) < 200

    # main lifts Python's limit on int() of a long digit string and the
    # library does not, so the parser's own bound must give both one outcome
    @pytest.mark.parametrize("text, ast, short", [
        ("0" * 5000 + "1", Literal(Fraction(1)), "1"),
        ("1/" + "0" * 5000 + "3", Literal(Fraction(1, 3)), "1/3"),
        ("u^" + "0" * 5000 + "2", Pow(Name("u"), 2), "u^2"),
    ], ids=["numerator", "denominator", "exponent"])
    def test_leading_zeros_parse_alike_in_the_library_and_the_cli(
            self, capsys, default_digit_limit, text, ast, short):
        assert parse_expression(text) == ast
        assert run_cli(capsys, "minpoly", text) == run_cli(capsys, "minpoly", short)

    def test_long_literal_is_refused_alike_in_the_library_and_the_cli(
            self, capsys, default_digit_limit):
        with pytest.raises(ExpressionError, match="8192-bit bound at offset 0"):
            evaluate_expression("1" * 5000)
        code, out, err = run_cli(capsys, "minpoly", "1" * 5000)
        assert (code, out) == (2, "")
        assert "8192-bit bound at offset 0" in err

    def test_integers_past_the_string_digit_limit_print(self, capsys):
        # the minimal polynomial has coefficients of more than 4300 digits
        code, reports = run_json(capsys, "minpoly", "(u+r/3)^1500")
        assert code == 0
        elem = evaluate_expression("(u+r/3)^1500")
        coords = reports[0]["details"]["element"]["coords"]
        assert coords == [str(c) for c in elem.coords]

    def test_extended_precision_agrees_with_double(self, capsys):
        _, fast = run_json(capsys, "minpoly", "tau * u2")
        _, slow = run_json(capsys, "minpoly", "tau * u2", "--precision", "extended")
        a = fast[0]["details"]["element"]["approx"]
        b = slow[0]["details"]["element"]["approx"]
        assert float(a["re"]) == pytest.approx(float(b["re"]), abs=1e-11)
        assert float(a["im"]) == pytest.approx(float(b["im"]), abs=1e-11)

    def test_integers_print_alike_at_both_precisions(self, capsys):
        for precision in ("double", "extended"):
            _, reports = run_json(capsys, "minpoly", "3", "--precision", precision)
            assert reports[0]["details"]["element"]["approx"] == {"re": "3", "im": "0"}

    def test_a_rational_at_a_decimal_tie_prints_alike_at_both_precisions(self, capsys):
        # 1.000000000035 is halfway between two 12-digit values; its double
        # lies just above the tie and its 50-digit binary value just below,
        # and only the exact value rounds to even at both precisions
        for precision in ("double", "extended"):
            _, reports = run_json(capsys, "minpoly", "1000000000035/1000000000000",
                                  "--precision", precision)
            assert reports[0]["details"]["element"]["approx"] == {
                "re": "1.00000000004", "im": "0"}

    @given(st.integers(min_value=10**11, max_value=10**12 - 1), st.sampled_from((1, -1)),
           st.integers(min_value=-400, max_value=400), st.sampled_from(("double", "extended")))
    @settings(max_examples=60, deadline=None)
    def test_rationals_at_decimal_ties_print_their_exact_rounding(
            self, digits, sign, exponent, precision):
        # 13 significant digits ending in 5, at any scale, even beyond the
        # double range
        value = sign * Fraction(10 * digits + 5) * Fraction(10) ** exponent
        approx = serialize_element(FieldElement.from_rational(value), precision)["approx"]
        assert approx == {"re": reference_render_number(value), "im": "0"}

    def test_value_beyond_the_double_range_prints_its_digits(self, capsys):
        # u1^1000 is about 6e382; its double is an infinity, so the
        # report carries the 50-digit value instead
        _, reports = run_json(capsys, "minpoly", "u1^1000")
        assert reports[0]["details"]["element"]["approx"] == {
            "re": "5.96602869489E+382", "im": "0"}

    # below the normal double range the double is 0 or a subnormal with
    # few correct digits, so the report carries the 50-digit value too
    @pytest.mark.parametrize("expression, re", [
        ("(sqrt5-2)^3000", "1.29192633227E-1881"),  # about 1.3e-1881: the double is 0
        ("(sqrt5-2)^500", "3.30019517521E-314"),  # a subnormal, 2e-11 off
    ])
    def test_value_below_the_normal_range_prints_its_digits(self, capsys, expression, re):
        approx = [run_json(capsys, "minpoly", expression, "--precision", precision)[1][0]
                  ["details"]["element"]["approx"] for precision in ("double", "extended")]
        assert approx[0]["re"] == re
        assert approx[0] == approx[1]


class TestGalois:
    def test_all_checks_pass(self, capsys):
        code, reports = run_json(capsys, "galois")
        assert code == 0
        assert all(r["status"] == "pass" for r in reports)

    def test_census_and_certificate(self, capsys):
        _, reports = run_json(capsys, "galois")
        by_check = {r["check"]: r for r in reports}
        assert by_check["order_census"]["details"]["census"] == {
            "1": 1, "2": 11, "4": 4,
        }
        cert = by_check["structure_certificate"]["details"]
        assert cert["isomorphism_type"] == "Z2 x D8"

    def test_action_table_lists_the_generators(self, capsys):
        _, reports = run_json(capsys, "galois")
        actions = next(r for r in reports if r["check"] == "generator_actions")
        table = actions["details"]["actions"]
        assert sorted(table) == ["g1", "g2", "g3", "g4"]
        assert sorted(table["g1"]) == [
            "i", "isqrt_sqrt5p1", "sqrt2", "sqrt5", "tau",
        ]
        # complex conjugation fixes the real constants
        sqrt2 = table["g1"]["sqrt2"]["approx"]
        assert float(sqrt2["re"]) == pytest.approx(2 ** 0.5)
        assert abs(float(sqrt2["im"])) < 1e-12


class TestUnits:
    def test_fifteen_phases_and_five_units(self, capsys):
        code, reports = run_json(capsys, "units")
        assert code == 0
        phases = [r for r in reports if r["check"].startswith("phase_")]
        units = [r for r in reports if r["check"].startswith("unit_")]
        assert len(phases) == 15
        assert len(units) == 5
        assert all(r["status"] == "pass" for r in reports)

    def test_phase_details(self, capsys):
        # the phases live in the degree-8 inner field, so their degrees
        # divide 8; the entry at (0, 2) is -1 with degree 1
        _, reports = run_json(capsys, "units")
        by_check = {r["check"]: r for r in reports}
        assert by_check["phase_01"]["details"]["minpoly_degree"] == 8
        assert by_check["phase_02"]["details"]["minpoly_degree"] == 1

    def test_unit_degrees(self, capsys):
        _, reports = run_json(capsys, "units")
        by_check = {r["check"]: r for r in reports}
        degrees = [by_check[f"unit_u{k}"]["details"]["degree"] for k in range(1, 6)]
        assert degrees == [2, 4, 8, 8, 8]


class TestSearch:
    def test_small_dimension_converges(self, capsys):
        code, reports = run_json(capsys, "search", "--dim", "3")
        assert code == 0
        (report,) = reports
        assert report["details"]["converged"] is True
        assert float(report["details"]["residual"]) < 1e-10
        assert float(report["details"]["sic_defect"]) < 1e-4
        assert report["details"]["stop_reason"] == "converged"

    def test_fourth_moment_reported(self, capsys):
        _, reports = run_json(capsys, "search", "--dim", "2")
        details = reports[0]["details"]
        assert float(details["fourth_moment"]) == pytest.approx(4 / 3, abs=1e-8)
        assert float(details["fourth_moment_target"]) == pytest.approx(4 / 3)
        assert len(details["fiducial"]) == 2

    def test_dim_is_required(self, capsys):
        code, _, _ = run_cli(capsys, "search")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--dim", "7", "--tolerance", "inf"),
        ("--dim", "7", "--tolerance", "nan"),
        ("--dim", "7", "--tolerance", "0"),
        ("--dim", "7", "--tolerance=-1e-10"),
        ("--dim", "3", "--max-iterations", "-1"),
    ])
    def test_values_that_would_make_it_lie_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "search", *argv, "--restarts", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1

    def test_negative_seed_exits_2_naming_the_seed(self, capsys):
        code, out, err = run_cli(capsys, "search", "--dim", "3", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "seed" in err

    @pytest.mark.parametrize("dim", ("100000", str(10**30)))
    def test_dimension_too_large_exits_2_naming_it(self, capsys, dim):
        # both are rejected before any table is allocated
        code, out, err = run_cli(capsys, "search", "--dim", dim, "--restarts", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert dim in err

    def test_huge_seed_is_accepted(self, capsys):
        code, reports = run_json(capsys, "search", "--dim", "3",
                                 "--seed", "99999999999999999999999999")
        assert code == 0
        assert reports[0]["details"]["converged"] is True

    def test_hopeless_budget_exits_1(self, capsys):
        code, reports = run_json(
            capsys, "search", "--dim", "5",
            "--restarts", "1", "--max-iterations", "3",
        )
        assert code == 1
        assert reports[0]["status"] == "fail"
        assert reports[0]["details"]["stop_reason"] == "budget"


class TestDiscriminant:
    @pytest.mark.parametrize("dim, value, squarefree", [
        (4, 5, 5),
        (5, 12, 3),
        (7, 32, 2),
    ])
    def test_known_values(self, capsys, dim, value, squarefree):
        code, reports = run_json(capsys, "discriminant", "--dim", str(dim))
        assert code == 0
        details = reports[0]["details"]
        assert details["value"] == value
        assert details["squarefree_part"] == squarefree

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "discriminant", "--dim", "4")
        assert code == 0
        assert "5" in out and "squarefree" in out

    def test_small_dimension_rejected(self, capsys):
        code, _, err = run_cli(capsys, "discriminant", "--dim", "3")
        assert code == 2
        assert "error" in err

    def test_thirteen_digit_dimension_is_quick(self, capsys):
        start = time.perf_counter()
        code, reports = run_json(capsys, "discriminant", "--dim", "1000000000038")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert reports[0]["details"]["value"] == 1000000000035 * 1000000000039

    def test_dimension_above_the_bound_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "discriminant", "--dim", str(10**18 + 1))
        assert code == 2
        assert "error" in err


# the cheap runs of four subcommands, the option keys each takes in a
# config file, and a valid value for each option to give after it
CHEAP_RUNS = {
    "discriminant": ["--dim", "5"],
    "search": ["--dim", "2", "--restarts", "1", "--max-iterations", "3"],
    "verify-d4": [],
    "minpoly": ["u"],
}
CONFIG_KEYS = {
    "discriminant": ["json", "dim"],
    "search": ["json", "dim", "restarts", "seed", "tolerance", "max_iterations"],
    "verify-d4": ["json", "corrupt"],
    "minpoly": ["json", "precision"],
}
EXPLICIT_FLAGS = {
    "json": "--json", "dim": "--dim=6", "restarts": "--restarts=2",
    "seed": "--seed=7", "tolerance": "--tolerance=1e-06",
    "max_iterations": "--max-iterations=2", "corrupt": "--corrupt=0,1",
    "precision": "--precision=double",
}
JSON_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False) | st.just(1e300),
    st.sampled_from(["7", "1e-8", "extended", "1,2", "0,0", "-1", ""]) | st.text(max_size=5),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"json": True, "dim": 4}))
        code, out, _ = run_cli(capsys, "discriminant", "--config", str(config))
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["details"]["value"] == 5

    def test_command_line_beats_config(self, capsys, tmp_path):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"dim": 4}))
        code, reports = run_json(
            capsys, "discriminant", "--dim", "5", "--config", str(config),
        )
        assert code == 0
        assert reports[0]["details"]["value"] == 12

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{", b""])
    def test_unreadable_config_exits_2(self, capsys, tmp_path, content):
        # \xff\xfe is not UTF-8, and its decoding error is a ValueError
        # like JSONDecodeError
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        code, out, err = run_cli(capsys, "discriminant", "--dim", "4",
                                 "--config", str(config))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"sicfield: error: cannot read config {config}: ")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "discriminant", "--dim", "4",
                               "--config", str(config))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("argv, key", [
        (["discriminant", "--dim", "4"], "help"),
        (["discriminant", "--dim", "4"], "config"),
        (["minpoly", "u"], "expression"),
    ])
    def test_key_that_cannot_take_effect_rejected(self, capsys, tmp_path, argv, key):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({key: "x"}))
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == ""
        assert [line for line in err.splitlines() if "unknown config keys:" in line] == [
            f"sicfield: error: unknown config keys: {key}"]

    def test_expression_needs_the_command_line(self, capsys, tmp_path):
        # the positional is required before the config is read
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"expression": "u"}))
        code, out, err = run_cli(capsys, "minpoly", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "the following arguments are required" in err

    # a switch takes only true or false, and any other value is refused
    # by the subcommand's parser as the flag of the same name would be
    @pytest.mark.parametrize("key, value", [
        ("json", "no"),
        ("json", 1),
        ("restarts", 2.5),
        ("restarts", True),
        ("tolerance", "fast"),
        ("tolerance", False),
        ("precision", "quad"),
    ])
    def test_badly_typed_value_exits_2(self, capsys, tmp_path, key, value):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({key: value}))
        # search takes no --precision
        argv = (["units"] if key == "precision"
                else ["search", "--dim", "2", "--restarts", "1"])
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        named = f"config key {key!r}" if key == "json" else f"argument --{key}"
        assert named in errors[0]

    def test_values_read_as_on_the_command_line(self, capsys, tmp_path):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"dim": "5"}))
        code, reports = run_json(capsys, "discriminant", "--config", str(config))
        assert code == 0
        assert reports[0]["details"]["value"] == 12
        config.write_text(json.dumps({"precision": "extended"}))
        assert run_json(capsys, "units", "--config", str(config)) == run_json(
            capsys, "units", "--precision", "extended")

    def test_negative_seed_in_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"seed": -1}))
        code, out, err = run_cli(capsys, "search", "--dim", "3",
                                 "--config", str(config))
        assert code == 2
        assert err.count("\n") == 1
        assert "seed" in err

    def test_integer_too_large_for_a_float_exits_2(self, capsys, tmp_path):
        # read as the flag --tolerance 1000...0 is: a float, here inf
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"tolerance": 10**400}))
        code, out, err = run_cli(capsys, "search", "--dim", "3",
                                 "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "tolerance" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "discriminant", "--dim", "4",
                               "--config", str(tmp_path / "absent.json"))
        assert code == 2

    # capsys and tmp_path are shared by the examples: each reads its own
    # output and rewrites the config
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(CHEAP_RUNS)).flatmap(
        lambda command: st.tuples(st.just(command), st.sampled_from(CONFIG_KEYS[command]))),
        JSON_VALUES)
    def test_config_is_the_flags_it_names(self, capsys, tmp_path, command_key, value):
        command, key = command_key

        def run(*argv):
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 1, 2) and "Traceback" not in err
            return code, out, err

        config = tmp_path / "options.json"
        config.write_text(json.dumps({key: value}))
        configured = run(command, *CHEAP_RUNS[command], "--config", str(config))
        if key == "json" and not isinstance(value, bool):
            # a switch takes only true or false
            assert configured[:2] == (2, "")
        else:
            flag = "--" + key.replace("_", "-")
            if key == "json":
                flags = [flag] if value else []
            else:
                flags = [f"{flag}={value if isinstance(value, str) else json.dumps(value)}"]
            # the config's flags come before the explicit ones
            assert run(command, *flags, *CHEAP_RUNS[command])[:2] == configured[:2]
        explicit = [*CHEAP_RUNS[command], EXPLICIT_FLAGS[key]]
        overridden = run(command, "--config", str(config), *explicit)
        if "usage:" in configured[2]:
            # refused while parsing, before the explicit flag is read
            assert overridden[:2] == (2, "")
        else:
            assert overridden[:2] == run(command, *explicit)[:2]


class TestOptionSurface:
    # --precision only where a report carries a field element's
    # approximate value
    @pytest.mark.parametrize("argv, code", [
        (["minpoly", "u"], 0),
        (["galois"], 0),
        (["units"], 0),
        (["verify-d4"], 2),
        (["search", "--dim", "3"], 2),
        (["discriminant", "--dim", "5"], 2),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_precision_only_where_it_changes_the_report(self, capsys, tmp_path,
                                                        argv, code, via):
        if via == "flag":
            option = ["--precision", "extended"]
            # refused by the subcommand's own parser
            refusal = f"sicfield {argv[0]}: error: unrecognized arguments: --precision extended"
        else:
            config = tmp_path / "options.json"
            config.write_text(json.dumps({"precision": "extended"}))
            option = ["--config", str(config)]
            refusal = "sicfield: error: unknown config keys: precision"
        status, out, err = run_cli(capsys, *argv, *option, "--json")
        assert status == code
        if code == 2:
            assert out == ""
            assert [line for line in err.splitlines() if "error:" in line] == [refusal]
            if via == "flag":
                assert err.startswith(f"usage: sicfield {argv[0]} [-h]")

    def test_search_defaults_are_the_config_defaults(self, capsys, tmp_path):
        # an option left out takes SearchConfig's default, so giving every
        # default as a flag prints the same bytes
        defaults = {f.name: f.default for f in fields(SearchConfig)}
        explicit = []
        for flag, name in (("--restarts", "restarts"), ("--seed", "rng_seed"),
                           ("--tolerance", "tolerance"),
                           ("--max-iterations", "max_iterations")):
            explicit += [flag, str(defaults[name])]
        bare = run_cli(capsys, "search", "--dim", "3", "--json")
        assert bare[0] == 0
        assert run_cli(capsys, "search", "--dim", "3", *explicit, "--json") == bare
        # a config value changes the run, and loses to an explicit flag
        config = tmp_path / "options.json"
        config.write_text(json.dumps({"seed": 5, "restarts": 2}))
        configured = run_cli(capsys, "search", "--dim", "3", "--config", str(config),
                             "--json")
        assert configured[0] == 0 and configured[1] != bare[1]
        assert run_cli(capsys, "search", "--dim", "3", "--config", str(config),
                       *explicit, "--json") == bare


class TestParsing:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    # an option the subcommand does not take is reported with the
    # subcommand's usage, which lists the options it does take
    def test_unknown_option_shows_the_subcommand_usage(self, capsys):
        code, out, err = run_cli(capsys, "verify-d4", "--bogus")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "usage: sicfield verify-d4 [-h] [--json] [--config FILE] [--corrupt I,J]",
            "sicfield verify-d4: error: unrecognized arguments: --bogus",
        ]

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "verify-d4" in out

    def test_console_script_entry_point(self):
        # the script pyproject.toml maps (read as text: Python 3.10 has no
        # tomllib), run the way the installed script runs it
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        line = pyproject.split("\n[project.scripts]\n", 1)[1].splitlines()[0]
        assert line == 'sicfield = "sicfield.cli:main"'
        module, name = line.split('"')[1].split(":")
        assert getattr(importlib.import_module(module), name) is main
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; from {module} import {name}; sys.exit({name}())",
             "minpoly", "u + 1/u"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "t^4 - 6t^2 + 4"

    def test_reader_closing_early_leaves_stderr_empty(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sicfield.cli", "minpoly", "u", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # before the interpreter has finished importing
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == EXIT_BROKEN_PIPE


# argv for every subcommand, built from its own option strings, so an
# option added later is drawn as well (OPTION_TEXT must name it). A value
# is argv text: a bounded valid value or, one time in four, a text that
# most options refuse. search always gets --dim and its two budgets,
# at most 2 restarts of at most 20 iterations, so each run is quick;
# --help is left to test_help_exits_0.
_, SUBPARSERS = build_parser()
ALWAYS = {"search": ("dim", "restarts", "max_iterations")}
CONFIG_PATH = "@config"


def _int_text(low, high):
    return st.integers(low, high).map(str)


OPTION_TEXT = {
    "dim": _int_text(2, 6),
    "restarts": _int_text(1, 2),
    "max_iterations": _int_text(0, 20),
    "seed": _int_text(0, 9),
    "tolerance": st.sampled_from(["1e-3", "1e-6", "1e-10"]),
    "corrupt": st.tuples(_int_text(0, 3), _int_text(0, 3)).map(",".join),
    "precision": st.sampled_from(["double", "extended"]),
}
BAD_TEXT = st.sampled_from(["", "x", "-", "-1", "0", "1.5", "1e400", "inf", "nan", "9,9"])

# short field expressions: a power of an atom or of a parenthesized pair,
# with exponents of at most 99 in size, joined by up to two operators; or
# one that minpoly refuses, by its syntax or by a division by zero
ATOMS = st.sampled_from([*CONSTANT_NAMES, "0", "1", "2", "7"])
OPERATORS = st.sampled_from("+-*/")
TERMS = ATOMS | st.builds("({}{}{})".format, ATOMS, OPERATORS, ATOMS)
POWERS = TERMS | st.builds("{}^{}".format, TERMS, st.integers(-99, 99))
EXPRESSIONS = st.builds(
    lambda first, rest: first + "".join(op + p for op, p in rest),
    POWERS, st.lists(st.tuples(OPERATORS, POWERS), max_size=2),
) | st.sampled_from(["", "u+", "(u", "u^^2", "q", "-u", "1/0", "0^-1", "u/(r-r)"])


@st.composite
def generated_runs(draw):
    """A subcommand's argv, with CONFIG_PATH standing for its config
    file, and the JSON object that file holds: both draw from the options
    the subcommand's own parser takes."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    groups, config = [], {}
    for action in SUBPARSERS[command]._actions:
        if not action.option_strings:  # the expression
            groups.append([draw(EXPRESSIONS)])
            continue
        if action.dest in ("help", "config"):
            continue
        switch = action.nargs == 0
        value = (st.booleans() if switch
                 else BAD_TEXT if draw(st.integers(0, 3)) == 3 else OPTION_TEXT[action.dest])
        if draw(st.booleans()):
            config[action.dest] = draw(value)
        if action.dest in ALWAYS.get(command, ()) or draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            if switch:
                groups.append([flag])
            else:
                text = draw(value)
                groups.append(draw(st.sampled_from([[flag, text], [f"{flag}={text}"]])))
    if draw(st.booleans()):
        groups.append(["--config", CONFIG_PATH])
    argv = [command, *(token for group in draw(st.permutations(groups)) for token in group)]
    return argv, config


class TestGeneratedArgv:
    # capsys and tmp_path are shared by the examples: each reads its own
    # output and rewrites the config
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(generated_runs())
    def test_every_run_exits_cleanly(self, capsys, tmp_path, run):
        argv, config = run
        path = tmp_path / "options.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, *(str(path) if t == CONFIG_PATH else t for t in argv))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert "error:" in err.splitlines()[-1]
