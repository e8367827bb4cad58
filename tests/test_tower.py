from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import field_elements, nonzero_field_elements, small_fractions
from reference import reduce_mod
from sicfield import tower
from sicfield.expressions import evaluate_expression
from sicfield.galois import Automorphism
from sicfield.polynomials import RatPoly
from sicfield.tower import (
    CONSTANT_NAMES,
    EMBED_RELATIVE_ERROR,
    U_MIN_POLY,
    X_MIN_POLY,
    FieldElement,
    constant,
    _TABLE_ERROR,
    _basis_values,
    _embed_double,
    embed,
    substitute,
)

U = constant("u")
R = constant("r")
X = constant("x")
I = constant("i")
TAU = constant("tau")
SQRT2 = constant("sqrt2")
SQRT5 = constant("sqrt5")
ISQRT = constant("isqrt_sqrt5p1")

_REFERENCE = {name: constant(name) for name in CONSTANT_NAMES}

# frozen from a 30-digit evaluation of the defining radicals
EMBED_U = complex(0.4370160244488211, 0.8994537199739336)
EMBED_R = -1.7000157758867898
EMBED_INV_R = -0.5882298353839474


def radicals():
    """u and r from their defining radicals, at the current mpmath precision."""
    s5, s2 = mpmath.sqrt(5), mpmath.sqrt(2)
    u = mpmath.mpc((s5 - 1) / (2 * s2), mpmath.sqrt(s5 + 1) / 2)
    r = -(s5 + 1) / (2 * s2) - mpmath.sqrt(s5 - 1) / 2
    return u, r


def reference_value(e, dps=60):
    """The embedded value of e to dps digits, relative to its modulus. The
    terms may cancel down to about the inverse of the largest coordinate,
    so twice its digits are added."""
    digits = max(len(str(abs(n))) for n in e.nums)
    with mpmath.workdps(dps + 2 * digits + 10):
        u, r = radicals()
        z = mpmath.fsum(n * u ** (m % 8) * r ** (m // 8) for m, n in enumerate(e.nums))
        z /= e.den
    with mpmath.workdps(dps):
        return +z


def cancelling_sums():
    """b s^n for s = sqrt5 - 2 or sqrt2 - 1: coordinates that grow like
    (sqrt5 + 2)^n or (sqrt2 + 1)^n, a value that shrinks like s^n."""
    return st.builds(lambda b, s, n: b * s**n, nonzero_field_elements(),
                     st.sampled_from((SQRT5 - 2, SQRT2 - 1)), st.integers(1, 40))


class TestRepresentation:
    def test_coords_roundtrip(self):
        e = U + 3 * R - Fraction(1, 2)
        assert FieldElement(e.coords) == e

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            FieldElement([1, 2, 3])

    def test_immutable_and_hashable(self):
        with pytest.raises(AttributeError):
            U.coords = ()
        assert len({U, U, R}) == 2

    def test_u_polynomial_reduces(self):
        assert U_MIN_POLY(U).is_zero()
        assert FieldElement([0, 1] + [0] * 14) == U

    def test_parts(self):
        e = U + 2 * R
        assert e.u_part == RatPoly([0, 1])
        assert e.r_part == RatPoly([2])

    def test_rational_detection(self):
        assert FieldElement.from_rational(Fraction(3, 7)).is_rational()
        assert FieldElement.from_rational(Fraction(3, 7)) == Fraction(3, 7)
        assert not U.is_rational()


class TestReductionRules:
    def test_u_eighth_power(self):
        # u^8 = 2u^6 + 2u^4 + 2u^2 - 1
        assert (U**8).coords[:8] == (-1, 0, 2, 0, 2, 0, 2, 0)
        assert all(c == 0 for c in (U**8).coords[8:])

    def test_inverse_of_u_closed_form(self):
        # 1/u = 2u + 2u^3 + 2u^5 - u^7
        assert U.inverse() == FieldElement([0, 2, 0, 2, 0, 2, 0, -1] + [0] * 8)

    def test_defining_polynomials_vanish(self):
        assert U_MIN_POLY(U).is_zero()
        assert U_MIN_POLY(R).is_zero()
        assert X_MIN_POLY(X).is_zero()

    def test_r_quadratic(self):
        # r^2 + (2/x) r + 1 = 0
        c = 2 / X
        assert R * R + c * R + 1 == FieldElement.zero()


    def test_structure_tensor_every_entry(self):
        # T[i][j] against u^(a+b) r^(e+f) reduced by long division with the
        # octic and with r^2 = -1 - c r, doubled; c = 2/x = (6x - x^3)/2 by
        # x^4 - 6x^2 + 4 = 0, with x = u + 1/u and 1/u = 2u + 2u^3 + 2u^5 - u^7
        from sicfield import tower

        def times(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for k, a in enumerate(p):
                for m, b in enumerate(q):
                    out[k + m] += a * b
            return out

        def reduced(p):
            return reduce_mod(p, U_MIN_POLY.coeffs)

        x = [0, 3, 0, 2, 0, 2, 0, -1]
        c = [(6 * a - b) / 2 for a, b in zip(x, reduced(times(x, times(x, x))))]
        assert reduced(times(c, x)) == [2] + [0] * 7
        table = tower._structure()
        for i in range(16):
            for j in range(16):
                power = reduced([0] * (i % 8 + j % 8) + [1])
                r_degree = i // 8 + j // 8
                if r_degree == 0:
                    vec = power + [0] * 8
                elif r_degree == 1:
                    vec = [0] * 8 + power
                else:
                    vec = [-a for a in power] + [-a for a in reduced(times(power, c))]
                expected = {k: 2 * a for k, a in enumerate(vec) if a}
                assert dict(table[i][j]) == expected, (i, j)


class TestNamedConstants:
    def test_built_without_polynomial_division(self, monkeypatch):
        from sicfield import sic4, tower

        def no_division(self, divisor):
            raise AssertionError("polynomial division")

        monkeypatch.setattr(RatPoly, "__divmod__", no_division)
        for cached in (tower._constants, tower._structure, tower._norm_step,
                       tower._norm_steps, sic4._tau_powers, sic4.fiducial_projector):
            cached.cache_clear()
        for name in CONSTANT_NAMES:
            assert constant(name) == _REFERENCE[name]
        assert all(check.passed for check in sic4.verify_sic_projector())

    def test_all_names_resolve(self):
        for name in CONSTANT_NAMES:
            assert isinstance(constant(name), FieldElement)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="sqrt5"):
            constant("q")

    def test_square_roots(self):
        assert SQRT5 * SQRT5 == 5
        assert SQRT2 * SQRT2 == 2
        assert ISQRT * ISQRT == -1 - SQRT5

    def test_imaginary_unit(self):
        assert I * I == -1
        assert TAU * TAU == I

    def test_tau_is_a_primitive_eighth_root(self):
        assert TAU**4 == -1
        assert TAU**8 == 1

    def test_trace_identities(self):
        inv_r = R.inverse()
        assert X * (R + inv_r) == -2
        assert ISQRT * (R - inv_r) == -2 * I

    def test_u3_reconstructs_u_exactly(self):
        assert constant("u3") == U

    def test_u5_is_the_sum(self):
        assert constant("u5") == constant("u2") + constant("u3")

    def test_u1_closed_form(self):
        assert constant("u1") == 1 + SQRT2


class TestFieldOps:
    def test_inverse_roundtrip_constants(self):
        for name in CONSTANT_NAMES:
            e = constant(name)
            assert e * e.inverse() == 1
        # a rational element, and one with coordinates above 64 bits
        assert FieldElement.from_rational(Fraction(3, 7)).inverse() == Fraction(7, 3)
        big = U * (2**70 + 1) / 3**45 - R / (2**65 + 3) + 5
        assert big.den.bit_length() > 64 and big * big.inverse() == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            FieldElement.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            U / FieldElement.zero()
        with pytest.raises(ZeroDivisionError):
            U / 0

    def test_negative_powers(self):
        assert U**-1 == U.inverse()
        assert (R**-2) * R * R == 1

    def test_scalar_mixing(self):
        assert Fraction(1, 2) * U + U / 2 == U
        assert 1 - (1 - U) == U
        assert 3 / (R * 3) == R.inverse()

    @given(field_elements(), field_elements(), field_elements())
    @settings(max_examples=30, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(nonzero_field_elements())
    @settings(max_examples=15, deadline=None)
    def test_inverse_roundtrip_random(self, a):
        assert a * a.inverse() == 1


    @given(field_elements(), field_elements())
    @settings(max_examples=30, deadline=None)
    def test_tensor_product_matches_polynomial_reduction(self, a, b):
        # independent route: multiply the Q(u) parts as polynomials and
        # reduce with the octic and r^2 = -1 - c r, c = 2/x
        def reduced(poly):
            return reduce_mod(poly.coeffs, U_MIN_POLY.coeffs)

        c = 2 / X
        ac, bd = a.u_part * b.u_part, a.r_part * b.r_part
        cross = a.u_part * b.r_part + a.r_part * b.u_part
        expected = (FieldElement(reduced(ac) + reduced(cross))
                    - FieldElement(reduced(bd) + [0] * 8) * (1 + c * R))
        assert a * b == expected

    @given(field_elements(), field_elements())
    @settings(max_examples=30, deadline=None)
    def test_equal_elements_hash_equal(self, a, b):
        # equal values reached by different routes
        for c in ((a + b) - b, FieldElement(a.coords), (a * 6) / 6):
            assert c == a and hash(c) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @given(small_fractions(max_num=9, max_den=9))
    def test_rationals_hash_like_their_value(self, q):
        e = FieldElement.from_rational(q)
        assert e == q and hash(e) == hash(q)
        assert len({e, q}) == 1
        if q.denominator == 1:
            assert e == int(q) and hash(e) == hash(int(q))
            assert len({e, int(q)}) == 1


    @given(st.one_of(field_elements(),
                     small_fractions().map(FieldElement.from_rational)),
           st.one_of(small_fractions(), st.integers(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_scalars_act_as_their_elements(self, x, q):
        e = FieldElement.from_rational(q)
        assert x * q == q * x == x * e
        assert x + q == q + x == x + e
        assert (x == q) == (x == e) == (x.is_rational() and x.coords[0] == q)
        if x.is_rational():
            assert hash(x) == hash(x.coords[0])
            if x == q:
                assert hash(x) == hash(q)


#: an element of degree 16 that no norm step fixes
GENERIC = U + 2 * R + Fraction(1, 3) * U**3 * R


def dense_elements(bits: int = 64) -> st.SearchStrategy[FieldElement]:
    """Nonzero elements whose 16 coordinates have numerators and
    denominators of up to bits bits."""
    coordinate = st.builds(Fraction, st.integers(-2**bits, 2**bits),
                           st.integers(min_value=1, max_value=2**bits))
    return st.builds(FieldElement, st.lists(coordinate, min_size=16, max_size=16)).filter(bool)


def constant_polynomials() -> st.SearchStrategy[FieldElement]:
    """Nonzero rational polynomials in one named constant, whose norm
    steps are partly skipped: the element already lies in a subfield."""
    return st.builds(
        lambda name, coeffs: sum((c * constant(name)**k for k, c in enumerate(coeffs)),
                                 FieldElement.zero()),
        st.sampled_from(CONSTANT_NAMES),
        st.lists(small_fractions(max_num=5, max_den=4), min_size=1, max_size=4)).filter(bool)


def fresh(a: FieldElement) -> FieldElement:
    """An equal element with no inverse kept from an earlier call."""
    return FieldElement(a.coords)


class Recorder:
    """A norm step that records each n it is applied to, with its index."""

    def __init__(self, index, g, seen):
        self.index, self.g, self.seen = index, g, seen

    def apply(self, elem):
        self.seen.append((self.index, elem))
        return self.g.apply(elem)


class TestNormInverse:
    @given(st.one_of(dense_elements(), constant_polynomials()))
    @settings(max_examples=60, deadline=None)
    def test_inverse_round_trips(self, a):
        b = fresh(a).inverse()
        assert a * b == 1
        assert b.inverse() == a

    @given(st.one_of(dense_elements(bits=8), constant_polynomials()))
    @settings(max_examples=40, deadline=None)
    def test_each_norm_is_fixed_by_the_steps_taken(self, a):
        # n before step k lies in the field that steps 0..k-1 fix, which
        # certifies the tower: each step halves the field n lies in
        steps, seen = tower._norm_steps(), []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tower, "_norm_steps",
                          lambda: tuple(Recorder(k, g, seen) for k, g in enumerate(steps)))
            b = fresh(a).inverse()
        assert [k for k, _ in seen] == [0, 1, 2, 3]
        for k, n in seen:
            assert all(g.apply(n) == n for g in steps[:k])
        assert a * b == 1

    def test_a_generic_element_takes_every_step(self):
        a = GENERIC
        for k, g in enumerate(tower._norm_steps()):
            assert g.apply(a) != a, k
            a = a * g.apply(a)
        assert a.is_rational() and a

    @pytest.mark.parametrize("dropped", range(4))
    @given(st.one_of(dense_elements(bits=8), constant_polynomials()))
    @settings(max_examples=25, deadline=None)
    def test_a_step_replaced_by_the_identity_never_gives_a_wrong_inverse(self, dropped, a):
        # the identity fixes every n, so its step is skipped and a generic
        # norm ends irrational: the inverse raises, and whatever it
        # returns is still exact
        steps = list(tower._norm_steps())
        steps[dropped] = Automorphism.identity()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tower, "_norm_steps", lambda: tuple(steps))
            with pytest.raises(AssertionError, match="not rational"):
                fresh(GENERIC).inverse()
            try:
                b = fresh(a).inverse()
            except AssertionError:
                return
        assert a * b == 1


class TestConjugation:
    def test_on_generators(self):
        assert U.conjugate() == U.inverse()
        assert R.conjugate() == R

    def test_on_constants(self):
        assert I.conjugate() == -I
        assert SQRT2.conjugate() == SQRT2
        assert TAU.conjugate() * TAU == 1

    def test_involution(self):
        e = TAU + 5 * R * U - Fraction(2, 3)
        assert e.conjugate().conjugate() == e

    @given(field_elements())
    @settings(max_examples=30, deadline=None)
    def test_involution_random(self, a):
        assert a.conjugate().conjugate() == a

    @given(field_elements(), field_elements())
    @settings(max_examples=20, deadline=None)
    def test_ring_homomorphism(self, a, b):
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    @given(field_elements())
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_embedding(self, a):
        lhs = embed(a.conjugate())
        rhs = embed(a).conjugate()
        assert abs(lhs - rhs) < 1e-9


class TestEmbedding:
    def test_generator_values(self):
        assert abs(embed(U) - EMBED_U) < 1e-14
        assert abs(embed(R) - EMBED_R) < 1e-14
        assert abs(embed(R.inverse()) - EMBED_INV_R) < 1e-14

    def test_u_has_unit_modulus(self):
        assert abs(abs(embed(U)) - 1) < 1e-14
        assert abs(embed(R)) > 1

    def test_named_values(self):
        assert abs(embed(SQRT5) - 5**0.5) < 1e-14
        assert abs(embed(SQRT2) - 2**0.5) < 1e-14
        assert abs(embed(I) - 1j) < 1e-14
        assert abs(embed(TAU) - (-(1 + 1j) / 2**0.5)) < 1e-14

    def test_extended_precision(self):
        val = embed(U, dps=40)
        assert isinstance(val, mpmath.mpc)
        with mpmath.workdps(40):
            resid = mpmath.polyval(
                [1, 0, -2, 0, -2, 0, -2, 0, 1], val,
            )
            assert abs(resid) < mpmath.mpf(10) ** -35

    def test_extended_matches_double(self):
        for name in CONSTANT_NAMES:
            hi = embed(constant(name), dps=30)
            lo = embed(constant(name))
            assert abs(complex(hi) - lo) < 1e-13

    @given(field_elements(), field_elements())
    @settings(max_examples=20, deadline=None)
    def test_embedding_is_multiplicative(self, a, b):
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-6

    @given(field_elements(), field_elements(), st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_multiplicative_within_stated_bound(self, a, b, n):
        # each value is within EMBED_RELATIVE_ERROR of the truth, relative
        # to its modulus; powers push coordinates past double precision
        a = a**n
        za, zb, zab = embed(a), embed(b), embed(a * b)
        slack = 3 * EMBED_RELATIVE_ERROR + 2.0**-50
        assert abs(zab - za * zb) <= slack * abs(za * zb)

    def test_huge_coordinates_stay_certified(self):
        # u^100 has 60-bit coordinates and double Horner used to return
        # about -131072 + 65536i for it
        z = embed(U**100)
        assert abs(z - complex(embed(U, dps=50) ** 100)) < 1e-12
        z = embed(U**20000)  # coordinates beyond the float range
        assert abs(abs(z) - 1) < 1e-12

    def test_dunder_complex(self):
        assert complex(U) == embed(U)

    def test_zero(self):
        zero = FieldElement.zero()
        assert embed(zero) == 0
        assert embed(zero, dps=30) == 0

    def test_one_digit(self):
        # the smallest dps embed takes
        val = embed(SQRT5, 1)
        assert isinstance(val, mpmath.mpc)
        assert abs(val - mpmath.sqrt(5)) <= mpmath.sqrt(5) / 10

    @pytest.mark.parametrize("dps", [-5, 0, 2.5, True, "50"], ids=repr)
    def test_dps_must_be_a_positive_int(self, dps):
        with pytest.raises(ValueError, match="dps"):
            embed(SQRT5, dps)


class TestIntegerEmbedding:
    """The path of embed that an a-priori double bound does not certify:
    an exact integer sum against a fixed-point table of the basis."""

    @pytest.mark.parametrize("q", [128, 192, 1024])
    def test_table_within_its_bound(self, q):
        re, im = _basis_values(q)
        # 400 digits, 1328 bits, resolve a unit below 2^1024 with room
        with mpmath.workdps(400):
            u, r = radicals()
            for m in range(16):
                exact = u ** (m % 8) * r ** (m // 8) * mpmath.mpf(2) ** q
                error = mpmath.mpc(re[m], im[m]) - exact
                assert abs(error.real) <= 1 and abs(error.imag) <= 1, m
                assert abs(error) <= _TABLE_ERROR, m

    # (sqrt5 - 2)^60, about 2^-125 with 126-bit coordinates, cancels
    # further than the first q covers, so q doubles
    @pytest.mark.parametrize("text", ["sqrt5 - 2", "u1^-12", "(u + 1/u)^2 / r",
                                      "(sqrt5 - 2)^60"])
    def test_fallback_elements(self, text):
        e = evaluate_expression(text)
        assert _embed_double(e) is None
        exact = reference_value(e)
        assert abs(embed(e) - exact) <= EMBED_RELATIVE_ERROR * abs(exact)
        with mpmath.workdps(60):
            assert abs(embed(e, dps=40) - exact) <= mpmath.mpf(10) ** -40 * abs(exact)

    @given(cancelling_sums())
    @settings(max_examples=40, deadline=None)
    def test_cancelling_sums(self, e):
        assume(_embed_double(e) is None)
        exact = reference_value(e)
        assert abs(embed(e) - exact) <= EMBED_RELATIVE_ERROR * abs(exact)


class TestSubstitute:
    # substitution of generator images, through the automorphisms built on it
    def test_identity_images(self):
        e = TAU + R * U
        assert Automorphism(U, R).apply(e) == e
        assert Automorphism.identity().apply(e) == e

    def test_swap_images_on_powers(self):
        g4 = Automorphism(R, U)
        assert g4.apply(U * U) == R * R
        assert g4.apply(U + R) == R + U
        assert substitute(TAU + R * U, R, U) == g4.apply(TAU + R * U)

    def test_non_automorphism_images_rejected(self):
        with pytest.raises(ValueError):
            Automorphism(U + 1, R)
        with pytest.raises(ValueError):
            substitute(TAU, U + 1, R)

    def test_rational_fixed(self):
        half = FieldElement.from_rational(Fraction(1, 2))
        assert Automorphism(R, U).apply(half) == half


def test_rational_scalars_behave():
    # the exact scalar type underneath: sign normalization, lowest terms,
    # interop with int, hash agreement
    assert Fraction(2, -4) == Fraction(-1, 2)
    assert Fraction(2, -4).denominator == 2
    assert Fraction(6, 3) == 2
    assert hash(Fraction(5, 1)) == hash(5)
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 0)


def test_str_forms():
    assert str(FieldElement.from_rational(0)) == "0"
    assert "r" in str(R)
    assert "u" in str(U + R)
