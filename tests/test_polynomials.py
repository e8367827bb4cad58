from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import no_polynomial_arithmetic
from sicfield.polynomials import RatPoly, palindromic_lift
from sicfield.tower import U_MIN_POLY, X_MIN_POLY


def rat_polys(max_degree: int = 5) -> st.SearchStrategy[RatPoly]:
    coeff = st.builds(
        Fraction,
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    return st.builds(RatPoly, st.lists(coeff, max_size=max_degree + 1))


class TestBasics:
    def test_trailing_zeros_stripped(self):
        assert RatPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert RatPoly([0, 0, 0]).is_zero()
        assert RatPoly([]).degree == -1

    def test_degree_and_lead(self):
        p = RatPoly([4, 0, -6, 0, 1])
        assert p.degree == 4
        assert p.coeffs[-1] == 1

    def test_equality_with_scalars(self):
        assert RatPoly([3]) == 3
        assert RatPoly([Fraction(1, 2)]) == Fraction(1, 2)
        assert RatPoly([0, 1]) != 1

    def test_immutable(self):
        p = RatPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()


class TestArithmetic:
    def test_product(self):
        # (t^2 + 2t + 1)(t - 1) = t^3 + t^2 - t - 1
        assert RatPoly([1, 2, 1]) * RatPoly([-1, 1]) == RatPoly([-1, -1, 1, 1])

    def test_scalar_ops(self):
        p = RatPoly([1, 1])
        assert 2 * p == RatPoly([2, 2])
        assert p + 1 == RatPoly([2, 1])
        assert 1 - p == RatPoly([0, -1])
        assert p / 2 == RatPoly([Fraction(1, 2), Fraction(1, 2)])

    def test_pow(self):
        assert RatPoly([1, 1]) ** 2 == RatPoly([1, 2, 1])
        assert RatPoly([0, 1]) ** 0 == RatPoly.one()
        with pytest.raises(ValueError):
            RatPoly([1, 1]) ** -1

    def test_divmod(self):
        p = RatPoly([-1, -1, 1, 1])
        q, r = divmod(p, RatPoly([-1, 1]))
        assert q == RatPoly([1, 2, 1])
        assert r.is_zero()

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(RatPoly([1]), RatPoly.zero())

    def test_evaluate(self):
        p = RatPoly([4, 0, -6, 0, 1])
        assert p(Fraction(2)) == 16 - 24 + 4
        assert p(0) == 4
        assert abs(p(1.0 + 0j) - (-1.0)) < 1e-12

    @given(rat_polys(), rat_polys())
    def test_add_commutes_with_evaluation(self, p, q):
        at = Fraction(2, 3)
        assert (p + q)(at) == p(at) + q(at)

    @given(rat_polys(), rat_polys())
    def test_mul_commutes_with_evaluation(self, p, q):
        at = Fraction(-3, 2)
        assert (p * q)(at) == p(at) * q(at)

    @given(rat_polys(), rat_polys().filter(bool))
    def test_divmod_roundtrip(self, p, d):
        q, r = divmod(p, d)
        assert q * d + r == p
        assert r.is_zero() or r.degree < d.degree


class TestNormalForms:
    def test_monic(self):
        assert RatPoly([2, 4]).monic() == RatPoly([Fraction(1, 2), 1])
        with pytest.raises(ValueError):
            RatPoly.zero().monic()

    def test_primitive(self):
        assert RatPoly([Fraction(-1, 3), Fraction(1, 2)]).primitive() == RatPoly([-2, 3])
        assert RatPoly([-2, -4]).primitive() == RatPoly([1, 2])
        assert RatPoly([2, 4]).primitive() == RatPoly([1, 2])

    def test_primitive_has_positive_lead_and_content_one(self):
        p = RatPoly([Fraction(6, 5), 0, Fraction(-9, 10)]).primitive()
        assert all(c.denominator == 1 for c in p.coeffs)
        assert p.coeffs[-1] > 0
        assert p == RatPoly([-4, 0, 3])

    def test_format(self):
        assert RatPoly([4, 0, -6, 0, 1]).format() == "t^4 - 6t^2 + 4"
        assert RatPoly([-1, 1]).format("z") == "z - 1"
        assert RatPoly([Fraction(1, 2)]).format() == "1/2"
        assert RatPoly.zero().format() == "0"
        assert RatPoly([0, Fraction(3, 2)]).format() == "3/2*t"


class TestPalindromicLift:
    def test_linear(self):
        assert palindromic_lift(RatPoly([0, 1])) == RatPoly([1, 0, 1])

    def test_quadratic(self):
        assert palindromic_lift(RatPoly([-2, 0, 1])) == RatPoly([1, 0, 0, 0, 1])

    def test_quartic(self):
        lifted = palindromic_lift(RatPoly([4, 0, -6, 0, 1]))
        assert lifted == RatPoly([1, 0, -2, 0, -2, 0, -2, 0, 1])

    def test_lift_makes_no_polynomial_arithmetic(self):
        # the lift is one binomial rule on the coefficient list
        with no_polynomial_arithmetic():
            assert palindromic_lift(X_MIN_POLY) == U_MIN_POLY

    def test_order_must_match_degree(self):
        with pytest.raises(ValueError):
            palindromic_lift(RatPoly.zero())

    @given(rat_polys(max_degree=4).filter(lambda p: p.degree >= 1))
    def test_lift_is_palindromic_up_to_reversal(self, p):
        lifted = palindromic_lift(p)
        assert lifted.degree == 2 * p.degree
        assert lifted.is_palindromic()

    def test_root_transport(self):
        # if z is a root of the lift, z + 1/z is a root of the base
        base = RatPoly([-2, 0, 1])
        lifted = palindromic_lift(base)
        roots = [r for r in _complex_roots(lifted)]
        for z in roots:
            assert abs(base(z + 1 / z)) < 1e-9


def _complex_roots(p):
    import numpy as np

    return np.roots([float(c) for c in reversed(p.coeffs)])


@given(st.fractions(max_denominator=7).filter(lambda q: abs(q) < 100))
def test_constants_hash_like_their_value(q):
    p = RatPoly([q])
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1


def test_zero_polynomial_hashes_like_zero():
    assert RatPoly.zero() == 0 and hash(RatPoly.zero()) == hash(0)
