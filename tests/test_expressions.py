import string
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from reference import parenthesized

from sicfield.expressions import (
    MAX_NESTING,
    MAX_VALUE_BITS,
    BinOp,
    ExpressionError,
    Literal,
    Name,
    Pow,
    Unary,
    evaluate_expression,
    parse_expression,
)
from sicfield.minpoly import minimal_polynomial
from sicfield.polynomials import RatPoly
from sicfield.tower import CONSTANT_NAMES, FieldElement, constant


class TestParsing:
    def test_literals(self):
        assert parse_expression("3") == Literal(Fraction(3))
        assert parse_expression("1/2") == Literal(Fraction(1, 2))
        assert parse_expression(" 1  / 2 ") == Literal(Fraction(1, 2))
        # the literal takes the slash before the power applies
        assert parse_expression("2/3^2") == Pow(Literal(Fraction(2, 3)), 2)
        assert parse_expression("2 / (3^2)") == BinOp(
            "/", Literal(Fraction(2)), Pow(Literal(Fraction(3)), 2),
        )

    def test_fraction_literal_needs_integer_denominator(self):
        # 1/u is a division, not a literal
        assert parse_expression("1/u") == BinOp("/", Literal(Fraction(1)), Name("u"))

    def test_names(self):
        assert parse_expression("tau") == Name("tau")
        assert parse_expression("isqrt_sqrt5p1") == Name("isqrt_sqrt5p1")

    def test_precedence(self):
        assert parse_expression("1 + 2 * u") == BinOp(
            "+", Literal(Fraction(1)), BinOp("*", Literal(Fraction(2)), Name("u")),
        )
        assert parse_expression("u ^ 2 * r") == BinOp(
            "*", Pow(Name("u"), 2), Name("r"),
        )

    def test_parens(self):
        assert parse_expression("(1 + u) * r") == BinOp(
            "*", BinOp("+", Literal(Fraction(1)), Name("u")), Name("r"),
        )

    def test_unary_minus_binds_inside_the_power(self):
        # the atom rule owns the minus sign, so -u^2 squares -u
        assert parse_expression("-u^2") == Pow(Unary(Name("u")), 2)
        assert parse_expression("-(u^2)") == Unary(Pow(Name("u"), 2))

    def test_negative_exponent(self):
        assert parse_expression("u^-1") == Pow(Name("u"), -1)

    def test_left_associative_subtraction(self):
        assert parse_expression("1 - 2 - 3") == BinOp(
            "-",
            BinOp("-", Literal(Fraction(1)), Literal(Fraction(2))),
            Literal(Fraction(3)),
        )


class TestParseErrors:
    def test_dangling_power_reports_the_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("u ^")
        assert err.value.offset == 3
        assert "offset 3" in str(err.value)

    def test_unknown_name_lists_vocabulary(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("3 - (w + 1)")
        assert err.value.offset == 5
        assert "sqrt5" in str(err.value)
        assert "isqrt_sqrt5p1" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("u + @")
        assert err.value.offset == 4

    @pytest.mark.parametrize("text, offset", [
        ("\xa0?", 1),  # no-break space, 2 bytes in UTF-8
        ("\u0663+?", 2),  # Arabic-Indic digit three, 2 bytes in UTF-8
    ])
    def test_offset_counts_characters_not_bytes(self, text, offset):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.offset == offset
        assert len(text[:offset].encode()) == offset + 1

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse_expression("(u + 1")

    def test_trailing_junk(self):
        with pytest.raises(ExpressionError) as err:
            parse_expression("u u")
        assert err.value.offset == 2

    def test_zero_denominator_literal(self):
        with pytest.raises(ExpressionError):
            parse_expression("1/0")

    def test_empty_input(self):
        with pytest.raises(ExpressionError):
            parse_expression("")

    def test_every_unicode_space_separates_tokens(self):
        spaces = [chr(k) for k in range(sys.maxunicode + 1) if chr(k).isspace()]
        assert len(spaces) > 20
        for c in spaces:
            assert parse_expression(c + "u" + c) == Name("u"), hex(ord(c))

    def test_every_other_character_is_a_digit_or_unexpected(self):
        tokens = set(string.ascii_letters + string.digits + "_+-*/^()")
        for k in range(0x3000):
            c = chr(k)
            if c.isspace() or c in tokens:
                continue
            if c.isdecimal():
                assert parse_expression(c) == Literal(Fraction(int(c))), hex(k)
                continue
            with pytest.raises(ExpressionError, match="unexpected character") as err:
                parse_expression(c)
            assert err.value.offset == 0, hex(k)

    def test_nesting_limit_counts_parens_and_unary_minus(self):
        pairs = MAX_NESTING // 2
        closing = ")" * pairs
        assert evaluate_expression("-(" * pairs + "u" + closing) == constant("u")
        with pytest.raises(ExpressionError) as err:
            parse_expression("-(" * pairs + "-u" + closing)
        assert err.value.offset == 2 * pairs


class TestEvaluation:
    def test_sqrt5_identity(self):
        assert evaluate_expression("3 - (u + 1/u)^2") == constant("sqrt5")

    def test_sqrt2_identity(self):
        value = evaluate_expression("-1/2 * (u + 1/u) * (u - 1/u)^2")
        assert value == constant("sqrt2")

    def test_x_identity(self):
        assert evaluate_expression("u + 1/u") == constant("x")

    def test_rational_arithmetic(self):
        assert evaluate_expression("1/2 + 1/3") == Fraction(5, 6)
        assert evaluate_expression("2^-2") == Fraction(1, 4)

    def test_division_by_zero_field_element(self):
        with pytest.raises(ZeroDivisionError):
            evaluate_expression("1/(u - u)")

    def test_evaluates_ast_input(self):
        assert evaluate_expression(Name("i")) == constant("i")

    def test_minpoly_of_parsed_expression(self):
        value = evaluate_expression("(u - 1/u)^2")
        assert minimal_polynomial(value).primitive == RatPoly([-4, 2, 1])

    def test_all_constants_reachable(self):
        for name in ("u", "r", "x", "i", "tau", "sqrt2", "sqrt5",
                     "isqrt_sqrt5p1", "u1", "u2", "u3", "u4", "u5"):
            assert evaluate_expression(name) == constant(name)


CORPUS = [
    "u",
    "1/2",
    "3 - (u + 1/u)^2",
    "-1/2 * (u + 1/u) * (u - 1/u)^2",
    "u ^ 2 * r - tau",
    "-(u^2) + -u^2",
    "(1 + sqrt5) / (1 - sqrt5)",
    "u1 * u2 * u3 * u4 * u5",
    "1 - 2 - 3 - x",
    "r^-3",
    "2 / (3^2)",
    "tau^8 - 1",
    "u / (r * x)",
]


def bits(value):
    return max(n.bit_length() for n in (*value.nums, value.den))


class TestValueBound:
    def test_power_is_judged_by_its_value_not_its_exponent(self):
        # u^8193 needs 6267 bits, though its exponent is over the bound
        value = evaluate_expression(f"u^{MAX_VALUE_BITS + 1}")
        assert value == constant("u") ** (MAX_VALUE_BITS + 1)
        assert bits(value) == 6267
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression("u^99999999999")

    @pytest.mark.parametrize("text, base, n, size", [
        ("2^8191", "2", 8191, 8192),
        ("3^5000", "3", 5000, 7925),
        ("2^4097", "2", 4097, 4098),
        ("u1^3000", "u1", 3000, 3815),
        ("(sqrt5-2)^3000", "sqrt5-2", 3000, 6248),
    ])
    def test_power_within_the_bound_evaluates(self, text, base, n, size):
        value = evaluate_expression(text)
        assert value == evaluate_expression(base) ** n
        assert bits(value) == size

    @pytest.mark.parametrize("text, size", [
        ("2^8192", 8193),
        ("3^5200", 8242),
    ])
    def test_power_over_the_bound_is_refused(self, text, size):
        with pytest.raises(ValueError, match=f"value of {size} bits exceeds the "
                                             f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression(text)

    def test_power_result_is_checked_after_the_power(self):
        # (1+u)^4096 needs 5867 bits, and its square, the power, 11733
        with pytest.raises(ValueError, match="11733 bits"):
            evaluate_expression(f"(1+u)^{MAX_VALUE_BITS}")

    def test_negative_power_is_a_power_of_the_inverse(self):
        # (u + r/3) has 2-bit coordinates, its inverse 8-bit ones
        assert not evaluate_expression("(u+r/3)^1500").is_zero()
        assert evaluate_expression("(u+r/3)^-3") == evaluate_expression("(u+r/3)^3").inverse()
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression("(u+r/3)^-1500")
        # the inverse of u + 2^4000 needs 32000 bits, and is refused before
        # it is squared
        with pytest.raises(ValueError, match="value of 32000 bits"):
            evaluate_expression("(u+2^4000)^-2")

    @pytest.mark.parametrize("name, period", [("tau", 8), ("i", 4)])
    def test_root_of_unity_takes_the_longest_exponent(self, name, period):
        n = int("9" * 2466)
        start = time.perf_counter()
        value = evaluate_expression(f"{name}^{n}")
        assert time.perf_counter() - start < 1.0
        assert value == constant(name) ** (n % period)

    def test_no_product_takes_an_operand_over_the_bound(self, monkeypatch):
        # a product of operands over the bound fails at once, so an
        # unchecked squaring is caught before it squares on towards
        # 2^36-fold sizes
        multiply = FieldElement.__mul__

        def spy(a, b):
            assert all(bits(x) <= MAX_VALUE_BITS for x in (a, b)
                       if isinstance(x, FieldElement))
            return multiply(a, b)

        monkeypatch.setattr(FieldElement, "__mul__", spy)
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression("u^99999999999")

    def test_literals_are_checked(self):
        # 10^2466 < 2^8192 < 10^2467
        assert evaluate_expression("1/" + "9" * 2466).den == 10**2466 - 1
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression("1/" + "9" * 2467)

    def test_literal_digits_are_bounded_when_parsed(self):
        # 10^2466 < 2^8192 < 10^2467: 2467 digits may be in the bound and
        # are left to evaluation, 2468 never are
        assert parse_expression("9" * 2467) == Literal(Fraction(10**2467 - 1))
        for text, offset in [("1" + "0" * 2467, 0), ("1/" + "9" * 2468, 2),
                             ("u^" + "1" * 5000, 2)]:
            with pytest.raises(ExpressionError, match=f"{MAX_VALUE_BITS}-bit bound") as err:
                parse_expression(text)
            assert err.value.offset == offset

    def test_leading_zeros_of_any_script_do_not_count(self, default_digit_limit):
        assert parse_expression("0" * 5000 + "1") == Literal(Fraction(1))
        assert parse_expression("\u0660" * 5000 + "\u0663") == Literal(Fraction(3))
        assert parse_expression("0" * 3000) == Literal(Fraction(0))
        assert parse_expression("0" * 3000 + "9" * 2467) == Literal(Fraction(10**2467 - 1))

    def test_every_operation_result_is_checked(self):
        assert not evaluate_expression("u^4000 * u^4000").is_zero()
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression("u^4000 * u^4000 * u^4000")


class TestFormatting:
    @pytest.mark.parametrize("source", CORPUS)
    def test_roundtrip_on_corpus(self, source):
        ast = parse_expression(source)
        assert parse_expression(parenthesized(ast)) == ast

    def test_long_chain_formats_compares_and_hashes(self):
        # too deep to parenthesize in full, so two separate parses are
        # compared, which == walks link by link
        source = "+".join(["u"] * 3000)
        ast, again = parse_expression(source), parse_expression(source)
        assert ast == again
        assert hash(ast) == hash(again)
        assert ast != parse_expression("+".join(["u"] * 2999) + "-u")


def expression_asts(depth: int = 0) -> st.SearchStrategy:
    leaves = st.one_of(
        st.builds(Literal, st.builds(
            Fraction,
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=1, max_value=9),
        )),
        st.sampled_from([Name("u"), Name("r"), Name("x"), Name("tau"), Name("i")]),
    )
    if depth >= 3:
        return leaves
    sub = expression_asts(depth + 1)
    return st.one_of(
        leaves,
        st.builds(Unary, sub),
        st.builds(Pow, sub, st.integers(min_value=0, max_value=3)),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
    )


@given(expression_asts())
@settings(max_examples=120, deadline=None)
def test_formatting_reparses_to_the_same_tree(ast):
    rendered = parenthesized(ast)
    assert parse_expression(rendered) == ast
    try:
        expected = evaluate_expression(ast)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            evaluate_expression(rendered)
        return
    assert evaluate_expression(rendered) == expected


#: bits per unit of exponent run from 0 (tau, i) to 6.6 (99/98), so an
#: exponent drawn on a log scale up to 2^15 falls on both sides of the bound
POWER_BASES = st.one_of(
    st.sampled_from([Name(name) for name in CONSTANT_NAMES]),
    st.builds(Literal, st.builds(
        Fraction,
        st.integers(min_value=-99, max_value=99).filter(bool),
        st.integers(min_value=1, max_value=99),
    )),
)
EXPONENTS = st.integers(min_value=0, max_value=15).flatmap(
    lambda k: st.integers(min_value=-(2**k), max_value=2**k))


@given(POWER_BASES, EXPONENTS)
@example(Name("u"), 8193)
@example(Name("u"), 12000)
@settings(max_examples=60, deadline=None)
def test_a_power_is_refused_exactly_when_its_value_is_over_the_bound(base, n):
    expected = evaluate_expression(base) ** n
    # each step builds base^m for some m <= |n|, and for these bases that
    # is within the bound when base^n is
    if bits(expected) > MAX_VALUE_BITS:
        with pytest.raises(ValueError, match=f"{MAX_VALUE_BITS}-bit bound"):
            evaluate_expression(Pow(base, n))
    else:
        assert evaluate_expression(Pow(base, n)) == expected


#: pieces of text: every token kind, known and unknown names, Unicode
#: spaces and digits, and characters no token takes
TEXT_PIECES = [*"0123456789+-*/^()", "12", "007", "u", "r", "x", "i", "tau", "sqrt5",
               "u1", "w", "_u", " ", "\t", "\n", "\xa0", "\u3000", "\x1c", "\u0663",
               "\u0660", "\u06f5", "\xe9", "@", "\xb2", "?", ".", "**"]


@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
def test_any_text_parses_or_fails_at_an_offset_inside_it(text):
    try:
        ast = parse_expression(text)
    except ExpressionError as err:
        assert 0 <= err.offset <= len(text)
        return
    assert parse_expression(parenthesized(ast)) == ast
