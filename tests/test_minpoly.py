import copy
import pickle
from concurrent.futures import ProcessPoolExecutor
import random
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import mul

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    field_elements,
    no_polynomial_arithmetic,
    nonzero_field_elements,
    small_fractions,
)
from reference import minimal_polynomial as reference_minimal_polynomial
from sicfield import tower
from sicfield.expressions import evaluate_expression
from sicfield.galois import generate_group, standard_generators
from sicfield.minpoly import (
    is_algebraic_integer,
    is_unit,
    minimal_polynomial,
    palindrome_reduce,
    palindromic_lift,
    verify_split,
)
from sicfield.polynomials import RatPoly
from sicfield.tower import (
    CONSTANT_NAMES,
    U_MIN_POLY,
    X_MIN_POLY,
    FieldElement,
    constant,
    embed,
)


class TestMinimalPolynomial:
    def test_generator_u(self):
        mp = minimal_polynomial(constant("u"))
        assert mp.degree == 8
        assert mp.primitive == U_MIN_POLY
        assert mp.monic == U_MIN_POLY

    def test_generator_r_shares_it(self):
        assert minimal_polynomial(constant("r")).primitive == U_MIN_POLY

    def test_trace_x(self):
        mp = minimal_polynomial(constant("x"))
        assert mp.degree == 4
        assert mp.primitive == X_MIN_POLY

    def test_rationals(self):
        mp = minimal_polynomial(FieldElement.from_rational(Fraction(1, 2)))
        assert mp.degree == 1
        assert mp.monic == RatPoly([Fraction(-1, 2), 1])
        assert mp.primitive == RatPoly([-1, 2])
        assert minimal_polynomial(FieldElement.from_rational(-1)).primitive == RatPoly([1, 1])
        assert minimal_polynomial(FieldElement.zero()).monic == RatPoly([0, 1])

    @pytest.mark.parametrize("name,expected", [
        ("sqrt5", RatPoly([-5, 0, 1])),
        ("sqrt2", RatPoly([-2, 0, 1])),
        ("i", RatPoly([1, 0, 1])),
        ("tau", RatPoly([1, 0, 0, 0, 1])),
        ("isqrt_sqrt5p1", RatPoly([-4, 0, 2, 0, 1])),
        ("u1", RatPoly([-1, -2, 1])),
        ("u2", RatPoly([-1, 0, 1, 0, 1])),
    ])
    def test_named_constants(self, name, expected):
        assert minimal_polynomial(constant(name)).primitive == expected

    @pytest.mark.parametrize("name,degree", [
        ("u1", 2), ("u2", 4), ("u3", 8), ("u4", 8), ("u5", 8),
    ])
    def test_unit_degrees(self, name, degree):
        assert minimal_polynomial(constant(name)).degree == degree

    @pytest.mark.parametrize("name", ["u4", "u5"])
    def test_vanishes_at_high_precision(self, name):
        # independent numerical route: the exact polynomial must kill the
        # 40-digit embedding of the element it was computed from
        mp = minimal_polynomial(constant(name))
        z = embed(constant(name), dps=40)
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator
                      for c in reversed(mp.monic.coeffs)]
            assert abs(mpmath.polyval(coeffs, z)) < mpmath.mpf(10) ** -30

    def test_unit_modulus_elements_have_palindromic_minpoly(self):
        for name in ("u", "tau"):
            assert minimal_polynomial(constant(name)).monic.is_palindromic()

    def test_degree_divides_sixteen(self):
        for name in ("u", "r", "x", "i", "tau", "sqrt2", "sqrt5"):
            assert 16 % minimal_polynomial(constant(name)).degree == 0

    @given(field_elements())
    @settings(max_examples=25, deadline=None)
    def test_primitive_form_is_the_normalized_monic_form(self, a):
        # RatPoly.primitive is the reference for the content and sign
        mp = minimal_polynomial(a)
        assert mp.primitive == mp.monic.primitive()
        assert mp.monic == mp.primitive / mp.primitive.coefficient(mp.degree)

    @given(small_fractions(max_num=5, max_den=4))
    @settings(max_examples=20, deadline=None)
    def test_rational_inputs_degree_one(self, q):
        mp = minimal_polynomial(FieldElement.from_rational(q))
        assert mp.degree == 1
        assert mp.monic == RatPoly([-q, 1])

    @given(st.one_of(nonzero_field_elements(),
                     st.sampled_from(CONSTANT_NAMES).map(constant)))
    @settings(max_examples=30, deadline=None)
    def test_inverse_reverses_the_minimal_polynomial(self, a):
        # t^n p(1/t) kills 1/a; reversal keeps the content, and the sign
        # makes the lead positive again
        coeffs = minimal_polynomial(a).primitive.coeffs[::-1]
        sign = 1 if coeffs[-1] > 0 else -1
        expected = RatPoly(sign * c for c in coeffs)
        assert minimal_polynomial(a.inverse()).primitive == expected


#: named constants by the degree of their minimal polynomials; 1 stands
#: for degree 1, and u + 2r for degree 16, which no named constant has
BASES = {
    1: [FieldElement.one()],
    2: [constant(name) for name in ("sqrt2", "sqrt5", "i", "u1")],
    4: [constant(name) for name in ("x", "tau", "isqrt_sqrt5p1", "u2")],
    8: [constant(name) for name in ("u", "r", "u3", "u4", "u5")],
    16: [constant("u") + 2 * constant("r")],
}


def generic_element(seed: int, numerator_bits: int, denominator_bits: int) -> FieldElement:
    """16 coordinates with numerators of exactly numerator_bits bits, of
    random sign, over denominators of exactly denominator_bits bits."""
    rng = random.Random(seed)
    return FieldElement([
        Fraction(rng.choice((-1, 1)) * (rng.getrandbits(numerator_bits - 1) | 1 << numerator_bits - 1),
                 rng.getrandbits(denominator_bits - 1) | 1 << denominator_bits - 1)
        for _ in range(16)
    ])


def fresh_copies(*elements: FieldElement) -> list[FieldElement]:
    """Equal elements built anew from coordinates, which hold no
    dependence kept from an earlier call."""
    return [FieldElement(a.coords) for a in elements]


class TestAgainstReference:
    @pytest.mark.parametrize("degree", sorted(BASES))
    @given(pick=st.integers(min_value=0, max_value=4),
           coeffs=st.lists(small_fractions(max_num=5, max_den=4), min_size=1, max_size=4))
    @example(pick=0, coeffs=[0])
    @example(pick=1, coeffs=[Fraction(-3, 2), 0, -1])
    @settings(max_examples=15, deadline=None)
    def test_matches_the_first_power_dependence(self, degree, pick, coeffs):
        # a rational polynomial in a constant of the given degree; its own
        # degree divides that one
        base = BASES[degree][pick % len(BASES[degree])]
        a = sum((c * base**k for k, c in enumerate(coeffs)), FieldElement.zero())
        mp = minimal_polynomial(a)
        expected = reference_minimal_polynomial(a)
        assert list(mp.monic.coeffs) == expected
        assert mp.degree == len(expected) - 1
        if a:
            assert a * a.inverse() == 1

    def test_a_wrong_trace_raises(self, monkeypatch):
        # each element's powers have a u coordinate, so the wrong Tr(u)
        # reaches its power sums; the exact check must refuse every candidate.
        # Shared constants keep a dependence found by an earlier test, so
        # the checks run on fresh equal copies, which must read the trace.
        # The inverse reads no trace, so it stays exact
        wrong = list(tower._trace())
        wrong[1] += 1
        monkeypatch.setattr(tower, "_trace", lambda: tuple(wrong))
        for a in fresh_copies(constant("u"), constant("tau"), BASES[16][0],
                              generic_element(3, 4, 3)):
            with pytest.raises(AssertionError, match="no candidate"):
                minimal_polynomial(a)
            assert a * a.inverse() == 1

    @pytest.mark.parametrize("degree", sorted(BASES))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_powers_are_the_products(self, degree, data):
        # the power vectors are v_k = 2^k b^k, b = den(a) a, as products
        # by __mul__, and only as many as the degree needs. Sparse elements
        # are rational polynomials in a constant of the given degree, dense
        # ones generic; 0 and negative rationals at 1
        elements = [st.builds(
            lambda base, coeffs: sum((c * base**k for k, c in enumerate(coeffs)),
                                     FieldElement.zero()),
            st.sampled_from(BASES[degree]),
            st.lists(small_fractions(max_num=5, max_den=4), min_size=1, max_size=4))]
        if degree == 1:
            elements += [st.just(FieldElement.zero()),
                         small_fractions(max_num=9, max_den=9).map(
                             lambda q: FieldElement.from_rational(-abs(q)))]
        if degree == 16:
            elements.append(st.builds(generic_element, st.integers(min_value=0, max_value=2**16),
                                      st.integers(min_value=1, max_value=10),
                                      st.integers(min_value=1, max_value=5)))
        a, = fresh_copies(data.draw(st.one_of(*elements)))
        # the powers are the one kind of _apply call whose columns are a
        # list, the columns built so far, not a tuple of tensor or
        # automorphism entries
        powers, apply = [], tower._apply

        def recorded(columns, nums):
            out = apply(columns, nums)
            if isinstance(columns, list):
                powers.append(out)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tower, "_apply", recorded)
            mp = minimal_polynomial(a)
        twice_b = 2 * FieldElement(a.nums)
        products = [twice_b]
        while len(products) < mp.degree:
            products.append(products[-1] * twice_b)
        assert [FieldElement(v) for v in powers] == products
        assert list(mp.monic.coeffs) == reference_minimal_polynomial(a)
        if a:
            assert a * a.inverse() == 1

    def test_a_corrupt_column_raises(self, monkeypatch):
        # column i of multiplication by a is row i of the structure tensor
        # applied to a. Each entry u * basis_j of row 1 gains 1 at its
        # first coordinate, a different one for each j, so column 1, which
        # holds a u, is wrong for every nonzero a; each element has a
        # nonzero u coordinate, so a^2 already reads it. The traces and
        # the norm maps stay those of the true tensor, and the inverse's
        # products, which read row 1 too, must end in an irrational norm.
        # fresh copies, as above, so that the corrupt column is read
        elements = fresh_copies(constant("u"), constant("tau"), BASES[16][0],
                                generic_element(3, 4, 3))
        table = list(tower._structure())
        table[1] = tuple(((k, entry + 1), *rest) for (k, entry), *rest in table[1])
        tower._trace()
        tower._norm_steps()
        monkeypatch.setattr(tower, "_structure", lambda: tuple(table))
        for a in elements:
            with pytest.raises(AssertionError, match="no candidate"):
                minimal_polynomial(a)
            with pytest.raises(AssertionError, match="not rational"):
                a.inverse()

    def test_generic_degree_sixteen_with_64_bit_numerators(self):
        a = generic_element(16, 64, 32)
        start = time.perf_counter()
        mp = minimal_polynomial(a)
        inverse = a.inverse()
        elapsed = time.perf_counter() - start
        assert mp.degree == 16
        assert a * inverse == 1
        assert elapsed < 0.5


def power_sums(coeffs: list[int]) -> list[int]:
    """The power sums P_1..P_n of the roots of the monic polynomial with
    these coefficients, lowest power first, by the forward Newton
    identities P_k = sum_(i<k) (-1)^(i-1) e_i P_(k-i) + (-1)^(k-1) k e_k."""
    n = len(coeffs) - 1
    e = [(-1) ** i * coeffs[n - i] for i in range(n + 1)]
    sums: list[int] = []
    for k in range(1, n + 1):
        total = sum((-1) ** (i - 1) * e[i] * sums[k - i - 1] for i in range(1, k))
        sums.append(total + (-1) ** (k - 1) * k * e[k])
    return sums


class TestNewton:
    @given(st.integers(min_value=1, max_value=16).flatmap(
               lambda n: st.lists(st.integers(-20, 20), min_size=n, max_size=n)),
           st.integers(min_value=1, max_value=9))
    @example(lower=list(range(-8, 8)), den=9)
    @settings(max_examples=60, deadline=None)
    def test_power_sums_round_trip(self, lower, den):
        # the roots of M over den are the roots of M(den t)
        coeffs = lower + [1]
        scaled = RatPoly(c * den**j for j, c in enumerate(coeffs)).primitive()
        assert RatPoly(tower._from_power_sums(power_sums(coeffs), den)) == scaled

    def test_a_fractional_elementary_symmetric_function_is_refused(self):
        # P_1 = 0 and P_2 = 1 give e_2 = (e_1 P_1 - P_2) / 2 = -1/2
        assert tower._from_power_sums([0, 1], 1) is None


class TestTrace:
    @given(field_elements())
    @settings(max_examples=30, deadline=None)
    def test_is_the_sum_of_the_galois_conjugates(self, a):
        # Tr(a) is the sum of the 16 images of a, a route that does not
        # read the structure tensor's diagonal
        group = generate_group(list(standard_generators().values()))
        conjugates = sum((g.apply(a) for g in group), FieldElement.zero())
        assert len(group) == 16
        assert Fraction(sum(map(mul, tower._trace(), a.nums)), a.den) == conjugates


def integral_elements() -> st.SearchStrategy[FieldElement]:
    """Integer coordinates: sums of basis elements, all algebraic integers."""
    return st.builds(FieldElement, st.lists(st.integers(-3, 3), min_size=16, max_size=16))


def unit_products() -> st.SearchStrategy[FieldElement]:
    """+-1 times a product of powers of the units u, r and u1..u5."""
    units = [constant(name) for name in ("u", "r", "u1", "u2", "u3", "u4", "u5")]
    return st.builds(
        lambda sign, exponents: sign * reduce(mul, map(pow, units, exponents)),
        st.sampled_from((1, -1)),
        st.lists(st.integers(-2, 2), min_size=len(units), max_size=len(units)))


class TestIntegralityAndUnits:
    def test_algebraic_integers(self):
        for name in ("u", "r", "x", "i", "tau", "sqrt2", "sqrt5",
                     "isqrt_sqrt5p1", "u1", "u2", "u3", "u4", "u5"):
            assert is_algebraic_integer(constant(name)), name

    def test_half_is_not(self):
        assert not is_algebraic_integer(FieldElement.from_rational(Fraction(1, 2)))

    def test_units(self):
        for name in ("u", "r", "tau", "i", "u1", "u2", "u3", "u4", "u5"):
            assert is_unit(constant(name)), name

    def test_non_units(self):
        assert not is_unit(constant("x"))  # constant term 4
        assert not is_unit(constant("sqrt5"))  # constant term -5
        assert not is_unit(constant("isqrt_sqrt5p1"))  # constant term -4
        assert not is_unit(FieldElement.from_rational(Fraction(1, 2)))

    def test_rational_units(self):
        assert is_unit(FieldElement.from_rational(-1))
        assert is_unit(FieldElement.one())
        assert not is_unit(FieldElement.from_rational(2))

    @pytest.mark.parametrize("text, integral_traces, integral, unit", [
        ("1/2", True, False, False),
        ("sqrt5/2", True, False, False),
        ("u1/3", False, False, False),  # Tr(u1) = 16
        ("u1^5", True, True, True),
    ])
    def test_trace_screen(self, text, integral_traces, integral, unit):
        # the traces of a and a^2 screen out some non-integers, not all
        a = evaluate_expression(text)
        traces = [Fraction(sum(map(mul, tower._trace(), p.nums)), p.den)
                  for p in (a, a * a)]
        assert all(t.denominator == 1 for t in traces) == integral_traces
        assert is_algebraic_integer(a) == integral
        assert is_unit(a) == unit

    @given(st.one_of(field_elements(), integral_elements(), unit_products(),
                     unit_products().map(lambda e: e / 2)))
    @example(FieldElement.from_rational(Fraction(1, 2)))
    @example(constant("sqrt5") / 2)
    @example(constant("u1") / 3)
    @example(constant("u1") ** 5)
    @example(FieldElement.zero())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_minimal_polynomial(self, a):
        result = minimal_polynomial(a)
        assert is_algebraic_integer(a) == result.is_algebraic_integer
        assert is_unit(a) == result.is_unit


class TestKeptDependence:
    """The checked power dependence is kept on the element it was found
    for: one computation serves the minimal polynomial and the unit and
    integrality tests, with results equal to a fresh element's. The
    inverse reads no trace and is kept the same way."""

    @pytest.fixture
    def trace_reads(self, monkeypatch):
        # counts the reads of the trace from every sicfield module that
        # holds it, not only from tower
        reads = []
        trace = tower._trace

        def counted():
            reads.append(1)
            return trace()

        for module in list(sys.modules.values()):
            if (module.__name__.startswith("sicfield")
                    and getattr(module, "_trace", None) is trace):
                monkeypatch.setattr(module, "_trace", counted)
        return reads

    def test_computed_once(self, trace_reads):
        for a in fresh_copies(constant("u3"), BASES[16][0], generic_element(5, 8, 4),
                              constant("sqrt5") / 2):
            trace_reads.clear()
            minimal_polynomial(a)
            assert len(trace_reads) == 1
            is_unit(a)
            is_algebraic_integer(a)
            a.inverse()
            assert len(trace_reads) == 1
        inverse_first, = fresh_copies(constant("u3"))
        trace_reads.clear()
        inverse_first.inverse()
        assert not trace_reads

    def test_computed_once_from_is_unit(self, trace_reads):
        # the unit test asked first computes the one result the others read;
        # u1/3 is not an algebraic integer, since Tr(u1) = 16
        for a in fresh_copies(constant("u3"), BASES[16][0], generic_element(5, 8, 4),
                              constant("sqrt5") / 2, constant("u1") / 3):
            trace_reads.clear()
            is_unit(a)
            minimal_polynomial(a)
            is_algebraic_integer(a)
            a.inverse()
            assert len(trace_reads) == 1

    @given(st.one_of(nonzero_field_elements(), integral_elements(), unit_products(),
                     unit_products().map(lambda e: e / 2)))
    @example(constant("sqrt5") / 2)
    @example(constant("u1") / 3)
    @example(FieldElement.zero())
    @settings(max_examples=30, deadline=None)
    def test_results_match_a_fresh_element(self, a):
        def results(e):
            inverse = e.inverse() if e else None
            return minimal_polynomial(e), is_unit(e), is_algebraic_integer(e), inverse

        kept, fresh = fresh_copies(a, a)
        first = results(kept)
        assert results(kept) == first
        assert results(fresh) == first

    @given(st.one_of(field_elements(), integral_elements(), unit_products(),
                     unit_products().map(lambda e: e / 2)))
    @example(constant("u1") / 3)
    @settings(max_examples=30, deadline=None)
    def test_is_unit_before_or_after_the_minimal_polynomial(self, a):
        before, after = fresh_copies(a, a)
        unit = is_unit(before)
        integral = is_algebraic_integer(before)
        minimal_polynomial(before)
        minimal_polynomial(after)
        assert is_unit(after) == unit
        assert is_algebraic_integer(after) == integral
        assert is_unit(before) == unit

    def test_equality_hash_and_immutability(self):
        kept, fresh = fresh_copies(BASES[16][0], BASES[16][0])
        half, = fresh_copies(FieldElement.from_rational(Fraction(1, 2)))
        for a in (kept, half):
            minimal_polynomial(a)
            a.inverse()
        assert kept == fresh and hash(kept) == hash(fresh)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        for name in ("nums", "den", "_dependence", "_inverse"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(kept, name, None)

    def test_no_reference_cycle(self):
        # neither the kept coefficients nor the kept inverse refer to a, so
        # it is still freed by reference counting
        a, = fresh_copies(BASES[16][0])
        count = sys.getrefcount(a)
        minimal_polynomial(a)
        a.inverse()
        assert sys.getrefcount(a) == count

    def test_kept_powers_cannot_be_changed(self):
        # the kept coefficients are a tuple, the kept inverse an immutable
        # element; neither slot can be set from outside, and neither is
        # pickled or copied
        a, = fresh_copies(constant("u"))
        q = tower._power_dependence(a)
        inverse = a.inverse()
        assert isinstance(q, tuple) and tower._power_dependence(a) is q
        assert a.inverse() is inverse
        for name in ("_dependence", "_inverse"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(a, name, None)
        for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert not hasattr(other, "_dependence") and not hasattr(other, "_inverse")
            assert other.inverse() == inverse


def copiers():
    return [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy]


class TestPickleAndCopy:
    @pytest.mark.parametrize("copier", copiers(), ids=["pickle", "copy", "deepcopy"])
    def test_round_trips(self, copier):
        g = standard_generators()["g4"]
        mp = minimal_polynomial(constant("u3"))
        group = generate_group(list(standard_generators().values()))
        assert len(group) == 16
        for value in (constant("u3"), FieldElement.from_rational(Fraction(-3, 7)),
                      mp, mp.primitive, RatPoly(()), *group):
            other = copier(value)
            assert type(other) is type(value)
            assert other == value and hash(other) == hash(value)
        assert copier(g).apply(constant("u")) == g.apply(constant("u"))

    def test_loading_an_automorphism_checks_its_images(self, monkeypatch):
        data = pickle.dumps(standard_generators()["g4"])
        monkeypatch.setattr(tower, "_substitution", lambda image_u, image_r: None)
        with pytest.raises(ValueError, match="tower relations"):
            pickle.loads(data)

    def test_minimal_polynomials_cross_a_process_pool(self):
        # the exact value types pickle both ways: the minimal polynomials of
        # the named constants, computed in two worker processes, equal the
        # ones computed in this process
        elements = [constant(name) for name in CONSTANT_NAMES]
        local = [minimal_polynomial(e) for e in elements]
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(minimal_polynomial, elements))
        assert len(remote) == 13 and remote == local, remote

    def test_the_kept_dependence_is_not_pickled(self):
        kept, fresh = fresh_copies(BASES[16][0], BASES[16][0])
        minimal_polynomial(kept)
        assert pickle.dumps(kept) == pickle.dumps(fresh)
        for other in (pickle.loads(pickle.dumps(kept)), copy.deepcopy(kept)):
            assert not hasattr(other, "_dependence")
            assert minimal_polynomial(other) == minimal_polynomial(kept)


class TestPalindromeReduce:
    def test_inverse_of_lift_on_the_tower_polynomial(self):
        assert palindrome_reduce(U_MIN_POLY) == X_MIN_POLY

    def test_small_cases(self):
        assert palindrome_reduce(RatPoly([1, 0, 1])) == RatPoly([0, 1])
        assert palindrome_reduce(RatPoly([1, 0, 0, 0, 1])) == RatPoly([-2, 0, 1])

    def test_rejects_non_palindromes(self):
        with pytest.raises(ValueError, match="palindromic"):
            palindrome_reduce(RatPoly([1, 2, 3]))

    def test_rejects_odd_degree_and_constants(self):
        with pytest.raises(ValueError, match="even degree"):
            palindrome_reduce(RatPoly([1, 1]))
        with pytest.raises(ValueError, match="even degree"):
            palindrome_reduce(RatPoly([1]))

    # q up to degree 8, so lifts reach degree 16, the degree of the field;
    # no RatPoly sum, product or power runs
    @given(st.lists(small_fractions(max_num=4, max_den=3), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=4))
    @example(lower=[4, 0, -6, 0], lead_den=1)  # X_MIN_POLY
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, lower, lead_den):
        q = RatPoly(lower + [Fraction(1, lead_den)])
        with no_polynomial_arithmetic():
            assert palindrome_reduce(palindromic_lift(q)) == q


class TestVerifySplit:
    def test_tower_polynomial_splits(self):
        u = constant("u")
        r = constant("r")
        roots = [u, -u, u.inverse(), -u.inverse(), r, -r, r.inverse(), -r.inverse()]
        assert verify_split(U_MIN_POLY, roots)

    def test_quadratic(self):
        s5 = constant("sqrt5")
        assert verify_split(RatPoly([-5, 0, 1]), [s5, -s5])
        assert verify_split(RatPoly([-10, 0, 2]), [s5, -s5])  # non-monic ok

    def test_roots_not_closed_under_negation(self):
        # the golden ratio and its conjugate: negating both roots gives
        # another polynomial, so a sign slip in each factor t - root shows
        s5 = constant("sqrt5")
        roots = [(1 + s5) / 2, (1 - s5) / 2]
        assert verify_split(RatPoly([-1, -1, 1]), roots)
        assert not verify_split(RatPoly([-1, -1, 1]), [-root for root in roots])

    def test_wrong_multiset_fails(self):
        u = constant("u")
        assert not verify_split(RatPoly([-5, 0, 1]), [u, -u])
        assert not verify_split(U_MIN_POLY, [u] * 8)

    def test_wrong_count_fails(self):
        assert not verify_split(RatPoly([-5, 0, 1]), [constant("sqrt5")])
        assert not verify_split(RatPoly.zero(), [])
