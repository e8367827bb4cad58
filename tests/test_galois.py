import operator
from itertools import combinations

import pytest
from hypothesis import given, settings

from conftest import field_elements
from sicfield.galois import (
    Automorphism,
    _closure,
    action_table,
    center,
    certify_structure,
    element_order,
    fixed_subfield_check,
    generate_group,
    is_abelian,
    is_normal,
    multiplication_table,
    order_census,
    standard_generators,
)
from sicfield.tower import (
    U_MIN_POLY,
    FieldElement,
    _norm_steps,
    constant,
    defining_relations_hold,
    embed,
)

GENS = standard_generators()
G1, G2, G3, G4 = GENS["g1"], GENS["g2"], GENS["g3"], GENS["g4"]
GROUP = generate_group(list(GENS.values()))

U = constant("u")
R = constant("r")


class TestAutomorphismValidation:
    def test_standard_generators_are_valid(self):
        assert set(GENS) == {"g1", "g2", "g3", "g4"}
        for g in GENS.values():
            assert isinstance(g, Automorphism)

    def test_g1_is_the_conjugation_map(self):
        # built once: conjugate, the inverse's norm steps and the standard
        # generators apply the same matrices
        steps, gens = _norm_steps(), standard_generators()
        assert all(gens[name] is g for name, g in zip(("g3", "g1", "g2", "g4"), steps))
        assert U.conjugate() == steps[1].apply(U) == U.inverse()

    def test_defining_images(self):
        assert G1.image_u == U.inverse() and G1.image_r == R
        assert G2.image_u == -U and G2.image_r == -R
        assert G3.image_u == U and G3.image_r == R.inverse()
        assert G4.image_u == R and G4.image_r == U

    def test_bad_u_image_rejected(self):
        with pytest.raises(ValueError):
            Automorphism(U + 1, R)

    def test_bad_r_image_rejected(self):
        # roots of the octic are fine for u, but r must satisfy the
        # transported quadratic as well
        with pytest.raises(ValueError):
            Automorphism(U, -R)
        with pytest.raises(ValueError):
            Automorphism(-U, R)

    def test_relation_check_accepts_exactly_the_group_pairs(self):
        # 8 images of u and 8 of r make 64 pairs; the 16 automorphisms
        # are exactly the pairs that satisfy both relations
        group_pairs = {(g.image_u, g.image_r) for g in GROUP}
        u_images = {u for u, _ in group_pairs}
        r_images = {r for _, r in group_pairs}
        assert len(group_pairs) == 16 and len(u_images) == len(r_images) == 8
        accepted = {(u, r) for u in u_images for r in r_images
                    if defining_relations_hold(u, r)}
        assert accepted == group_pairs

    def test_octic_is_checked_on_its_own(self):
        # C(0) = 0 and i^2 = -1, so the r-relation holds; only the octic fails
        zero, i = FieldElement.zero(), constant("i")
        assert not defining_relations_hold(zero, i)
        with pytest.raises(ValueError):
            Automorphism(zero, i)

    def test_relation_check_matches_horner_reference(self):
        def reference(image_u, image_r):
            # the relations as first written: Horner on the octic, then
            # c = 2/(u + 1/u) carried through the map by its definition
            if not U_MIN_POLY(image_u).is_zero():
                return False
            c = 2 / (image_u + image_u.inverse())
            return (image_r * image_r + c * image_r + 1).is_zero()

        others = [FieldElement.zero(), FieldElement.from_rational(2),
                  U + 1, constant("i"), constant("sqrt2"), constant("tau")]
        u_images = list({g.image_u for g in GROUP}) + others
        r_images = list({g.image_r for g in GROUP}) + others
        for image_u in u_images:
            for image_r in r_images:
                assert (defining_relations_hold(image_u, image_r)
                        == reference(image_u, image_r))

    def test_identity(self):
        assert Automorphism.identity().is_identity()
        assert Automorphism.identity().apply(constant("tau")) == constant("tau")


class TestGroupStructure:
    def test_order_sixteen(self):
        assert len(GROUP) == 16

    def test_generators_are_involutions(self):
        for g in GENS.values():
            assert element_order(g) == 2

    def test_census(self):
        assert order_census(GROUP) == {1: 1, 2: 11, 4: 4}

    def test_nonabelian_with_center_of_order_four(self):
        assert not is_abelian(GROUP)
        assert len(center(GROUP)) == 4

    def test_g2_is_central(self):
        assert any(z == G2 for z in center(GROUP))

    def test_conjugation_relations(self):
        inv = G4.inverse()
        assert G4 * G1 * inv == G3
        assert G4 * G3 * inv == G1
        assert G4 * G2 * inv == G2

    def test_powers_match_repeated_products(self):
        identity = Automorphism.identity()
        for g in (G4, G1 * G4):
            inverse = next(h for h in GROUP if (h * g).is_identity())
            for n in range(-17, 18):
                expected = identity
                for _ in range(abs(n)):
                    expected = expected * (g if n > 0 else inverse)
                assert g**n == expected

    def test_huge_power_counts_modulo_the_order(self):
        g = G1 * G4  # order 4, and 4 divides 10^18
        assert (g ** 10**18).is_identity()
        assert g ** (10**18 + 1) == g

    def test_mixed_products_have_order_four(self):
        assert element_order(G1 * G4) == 4
        assert element_order(G3 * G4) == 4

    def test_inner_subgroup(self):
        H = generate_group([G1, G2, G3])
        assert len(H) == 8
        assert is_abelian(H)
        assert all(element_order(h) in (1, 2) for h in H)
        assert is_normal(GROUP, H)
        assert len(GROUP) // len(H) == 2

    def test_trivial_and_single_generator_subgroups(self):
        assert len(generate_group([])) == 1
        assert len(generate_group([G4])) == 2

    def test_multiplication_table_is_a_latin_square(self):
        table = multiplication_table(GROUP)
        n = len(GROUP)
        for row in table:
            assert sorted(row) == list(range(n))
        for col in zip(*table):
            assert sorted(col) == list(range(n))

    def test_certificate(self):
        cert = certify_structure(GROUP)
        assert cert.certified
        assert cert.isomorphism_type == "Z2 x D8"
        assert cert.order == 16
        assert cert.census == {1: 1, 2: 11, 4: 4}
        z = GROUP[cert.central_involution]
        sub = generate_group([GROUP[k] for k in cert.dihedral_generators])
        assert len(sub) == 8
        assert not is_abelian(sub)
        assert sum(1 for h in sub if element_order(h) == 2) == 5
        assert all(h != z for h in sub)

    def test_table_closure_is_the_generated_subgroup(self):
        # certify_structure closes pairs of indices under the table; each
        # closure must be the subgroup generate_group builds, in its order
        table = multiplication_table(GROUP)
        index = {g: k for k, g in enumerate(GROUP)}
        identity = index[Automorphism.identity()]
        for a in range(len(GROUP)):
            for b in range(len(GROUP)):
                closure = _closure(identity, [a, b], lambda x, y: table[x][y])
                expected = generate_group([GROUP[a], GROUP[b]])
                assert closure == [index[g] for g in expected]

    @pytest.mark.parametrize("names", [
        names for n in range(1, 5) for names in combinations(sorted(GENS), n)])
    def test_generation_is_the_plain_closure(self, names):
        # deciding membership by images must keep the elements and the
        # BFS order of composing every candidate product
        gens = [GENS[name] for name in names]
        plain = _closure(Automorphism.identity(), gens, operator.mul)
        assert generate_group(gens) == plain

    def test_generation_composes_only_new_elements(self, monkeypatch):
        calls = []
        compose = Automorphism.__mul__

        def counted(self, other):
            calls.append(1)
            return compose(self, other)

        monkeypatch.setattr(Automorphism, "__mul__", counted)
        group = generate_group(list(GENS.values()))
        assert len(group) == 16
        assert len(calls) == 15

    def test_certificate_rejects_subgroup(self):
        H = generate_group([G1, G2, G3])
        assert certify_structure(H).isomorphism_type is None

    def test_closure_safety_bound(self):
        # checked generators close on the whole group of 16
        assert len(generate_group(list(GENS.values()))) == 16


class TestHomomorphismProperty:
    @given(field_elements(), field_elements())
    @settings(max_examples=15, deadline=None)
    def test_g4_respects_ring_ops(self, a, b):
        assert G4.apply(a + b) == G4.apply(a) + G4.apply(b)
        assert G4.apply(a * b) == G4.apply(a) * G4.apply(b)

    @given(field_elements())
    @settings(max_examples=15, deadline=None)
    def test_g1_is_complex_conjugation(self, a):
        assert G1.apply(a) == a.conjugate()
        assert abs(embed(G1.apply(a)) - embed(a).conjugate()) < 1e-9

    @given(field_elements(), field_elements())
    @settings(max_examples=10, deadline=None)
    def test_every_matrix_is_a_ring_homomorphism(self, a, b):
        for g in GROUP:
            assert g.apply(a + b) == g.apply(a) + g.apply(b)
            assert g.apply(a * b) == g.apply(a) * g.apply(b)
            assert g.apply(FieldElement.one()) == 1

    def test_matrix_inverse_undoes_the_map(self):
        for g in GROUP:
            assert (g * g.inverse()).is_identity()
            assert g.inverse().apply(g.apply(U + 2 * R)) == U + 2 * R

    def test_rationals_are_fixed_by_everything(self):
        half = FieldElement.from_rational(1) / 2
        for g in GROUP:
            assert g.apply(half) == half


class TestActionTable:
    NAMES = ("sqrt5", "sqrt2", "isqrt_sqrt5p1", "i", "tau")

    def elements(self):
        return {name: constant(name) for name in self.NAMES}

    def test_shape(self):
        rows = action_table(GROUP, self.elements())
        assert len(rows) == 16
        assert all(set(row) == set(self.NAMES) for row in rows)

    def test_g2_row(self):
        row = action_table([G2], self.elements())[0]
        assert row["sqrt5"] == constant("sqrt5")
        assert row["sqrt2"] == -constant("sqrt2")
        assert row["isqrt_sqrt5p1"] == -constant("isqrt_sqrt5p1")
        assert row["i"] == constant("i")
        assert row["tau"] == -constant("tau")

    def test_g3_row(self):
        row = action_table([G3], self.elements())[0]
        assert row["sqrt5"] == constant("sqrt5")
        assert row["sqrt2"] == constant("sqrt2")
        assert row["isqrt_sqrt5p1"] == constant("isqrt_sqrt5p1")
        assert row["i"] == -constant("i")
        assert row["tau"] == constant("tau").conjugate()

    def test_g4_row(self):
        # derived by applying the homomorphism exactly; the images of
        # sqrt2 and tau come out fixed, and the imaginary square root
        # lands on the real number r - 1/r
        row = action_table([G4], self.elements())[0]
        assert row["sqrt5"] == -constant("sqrt5")
        assert row["sqrt2"] == constant("sqrt2")
        assert row["isqrt_sqrt5p1"] == R - R.inverse()
        assert row["i"] == constant("i")
        assert row["tau"] == constant("tau")
        image = embed(row["isqrt_sqrt5p1"])
        assert abs(image.imag) < 1e-12
        assert abs(image.real - -(5**0.5 - 1) ** 0.5) < 1e-12


class TestFixedSubfields:
    def test_inner_subgroup_fixes_sqrt5(self):
        H = generate_group([G1, G2, G3])
        assert fixed_subfield_check(H, constant("sqrt5"))
        assert not fixed_subfield_check(H, U)

    def test_full_group_moves_sqrt5(self):
        assert not fixed_subfield_check(GROUP, constant("sqrt5"))

    def test_everything_fixes_rationals(self):
        assert fixed_subfield_check(GROUP, FieldElement.from_rational(7))
