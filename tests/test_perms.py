import math
import random
import time

import pytest

from isomers.counting import young_character_index
from isomers.dissections import parse_tabloid
from isomers.orbits import is_character_orbit, orbit_space, stabilizer
from isomers.partitions import parse_partition
from isomers.perms import (
    CapExceeded,
    LinearCharacter,
    PermGroup,
    Permutation,
    conjugacy_classes,
    generate,
    linear_characters,
    parse_cycles,
    relative_sign_character,
    _generated,
)

from oracles import (
    closure,
    commutator_subgroup,
    conjugacy_partition,
    elements_of_cycle_type,
    random_subgroup,
    symmetric_group,
    young_subgroup,
)


class TestParseCycles:
    def test_six_cycle(self):
        p = parse_cycles("(123456)", 6)
        assert [p(k) for k in range(1, 7)] == [2, 3, 4, 5, 6, 1]

    def test_empty_is_identity(self):
        assert parse_cycles("", 4) == Permutation.identity(4)

    def test_double_transpositions(self):
        p = parse_cycles("(12)(34)(56)(78)", 8)
        assert p(1) == 2 and p(2) == 1 and p(7) == 8

    def test_spaced_tokens(self):
        p = parse_cycles("(1 10 3)(2 4)", 10)
        assert p(1) == 10 and p(10) == 3 and p(3) == 1 and p(2) == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("(17)", 6)
        with pytest.raises(ValueError):
            parse_cycles("(12)(23)", 6)
        with pytest.raises(ValueError):
            parse_cycles("(12", 6)

    def test_error_names_the_input(self):
        with pytest.raises(ValueError, match=r"\(17\)"):
            parse_cycles("(17)", 6)

    def test_str_roundtrip(self):
        rng = random.Random(3)
        for _ in range(50):
            d = rng.randint(1, 11)
            images = list(range(1, d + 1))
            rng.shuffle(images)
            p = Permutation(images)
            assert parse_cycles(str(p), d) == p


class TestComposition:
    def test_constructor_validates(self):
        for images in [(1, 1, 2), (0, 1), (1, 3), (2, 2)]:
            with pytest.raises(ValueError, match="not a permutation"):
                Permutation(images)

    def test_products_match_pointwise_composition(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.randint(1, 7)
            a, b = (Permutation(rng.sample(range(1, d + 1), d)) for _ in range(2))
            assert (a * b).images == tuple(a(b(k)) for k in range(1, d + 1))
            assert (a * a.inverse()).images == tuple(range(1, d + 1))

    def test_inverse_cancels(self):
        rng = random.Random(5)
        for _ in range(30):
            images = list(range(1, 8))
            rng.shuffle(images)
            s = Permutation(images)
            assert s * s.inverse() == Permutation.identity(7)

    def test_compose_order(self):
        # apply b first, then a; verified pointwise
        a = parse_cycles("(12)", 3)
        b = parse_cycles("(23)", 3)
        c = a * b
        assert [c(k) for k in (1, 2, 3)] == [2, 3, 1]
        assert c == parse_cycles("(123)", 3)

    def test_apply_point(self):
        p = parse_cycles("(135)(246)", 6)
        assert p(1) == 3


class TestCycleType:
    def test_full_cycle(self):
        assert parse_cycles("(123456)", 6).cycle_type().trimmed() == (6,)

    def test_double_transpositions(self):
        assert parse_cycles("(12)(34)(56)(78)", 8).cycle_type().trimmed() == (2, 2, 2, 2)

    def test_identity(self):
        assert Permutation.identity(4).cycle_type().trimmed() == (1, 1, 1, 1)


class TestGenerate:
    def test_benzene_order(self):
        g = generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])
        assert g.order == 12

    def test_square_symmetries_order(self):
        g = generate([parse_cycles("(1234)", 4), parse_cycles("(13)", 4)])
        assert g.order == 8

    def test_trivial(self):
        g = generate([], degree=4)
        assert g.order == 1

    def test_cap(self):
        with pytest.raises(ValueError):
            generate([parse_cycles("(12)", 5), parse_cycles("(12345)", 5)], cap=20)

    def test_closure_and_lagrange(self):
        rng = random.Random(11)
        for _ in range(20):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            assert math.factorial(d) % w.order == 0
            if w.order <= 200:
                elems = set(w.elements)
                for a in w.elements:
                    assert a.inverse() in elems
                    for b in w.elements:
                        assert a * b in elems

    def test_deterministic_element_order(self):
        g = generate([parse_cycles("(123)", 3), parse_cycles("(12)", 3)])
        images = [e.images for e in g.elements]
        assert images == sorted(images)


def _generated_groups():
    """Seeded random groups of degree at most 7, S7 and the trivial group of degree 1, all from generate."""
    rng = random.Random(41)
    groups = [random_subgroup(rng, rng.randint(1, 7)) for _ in range(12)]
    return [w for w in groups if w.order <= 720] + [symmetric_group(7), generate([], degree=1)]


class TestGroupsAgainstValidatingOracles:
    """Closure and classes against references built from validating products only."""

    def test_generate_is_the_closure(self):
        for w in _generated_groups():
            assert set(w.elements) == closure(w.generators, w.degree)
            assert list(w.elements) == sorted(w.elements, key=lambda p: p.images)

    def test_generate_cap_counts_every_element(self):
        s5 = [parse_cycles("(12)", 5), parse_cycles("(12345)", 5)]
        assert generate(s5, cap=120).order == 120
        with pytest.raises(CapExceeded, match="closure exceeds cap of 119 elements"):
            generate(s5, cap=119)

    def test_classes_match_full_conjugation(self):
        groups = _generated_groups()
        assert all(_generated(w) for w in groups)  # classes closed under the generators
        s5 = symmetric_group(5)
        stab = stabilizer(s5, parse_tabloid("{1,2}{3,4,5}", 5))
        partial = PermGroup(3, [parse_cycles("(123)", 3)], symmetric_group(3).elements)  # (123) alone splits S3's 3-cycles
        assert stab.order == 12 and not _generated(stab) and not _generated(partial)  # classes by every element
        for w in groups + [stab, partial]:
            classes = conjugacy_classes(w)
            assert {frozenset(c.members) for c in classes} == conjugacy_partition(w), w
            keys = [(c.cycle_type.trimmed(), c.representative.images) for c in classes]
            assert keys == sorted(keys)
            assert all(list(c.members) == sorted(c.members) for c in classes)


class TestConjugacyClasses:
    def test_abelian_group_singletons(self):
        klein = generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])
        assert [len(c) for c in conjugacy_classes(klein)] == [1, 1, 1, 1]

    def test_trivial(self):
        assert len(conjugacy_classes(generate([], degree=3))) == 1

    def test_hexagon_group_class_count(self):
        # frozen from a brute-force conjugation scan over all 12 elements
        g = generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])
        classes = conjugacy_classes(g)
        assert len(classes) == 6
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 3, 3]
        union = [p for c in classes for p in c.members]
        assert sorted(union) == list(g.elements)

    def test_class_members_conjugate_and_same_type(self):
        g = symmetric_group(4)
        for cls in conjugacy_classes(g):
            types = {p.cycle_type() for p in cls.members}
            assert types == {cls.cycle_type}
            rep = cls.representative
            reachable = {rep.conjugated_by(t) for t in g.elements}
            assert reachable == set(cls.members)


class TestElementsOfCycleType:
    def test_naphthalene_involutions(self):
        g = generate([parse_cycles("(12)(34)(56)(78)", 8), parse_cycles("(13)(24)(57)(68)", 8)])
        assert len(elements_of_cycle_type(g, parse_partition("2^4", 8))) == 3

    def test_identity_type(self):
        g = symmetric_group(4)
        assert elements_of_cycle_type(g, parse_partition("1^4", 4)) == [Permutation.identity(4)]

    def test_full_cycles_in_hexagon_group(self):
        g = generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])
        found = elements_of_cycle_type(g, parse_partition("6", 6))
        assert set(found) == {parse_cycles("(123456)", 6), parse_cycles("(165432)", 6)}


class TestYoungSubgroup:
    def test_order_4_2(self):
        g = young_subgroup(parse_partition("4,2", 6))
        assert g.order == 48
        for p in g.elements:
            assert {p(k) for k in (1, 2, 3, 4)} == {1, 2, 3, 4}
            assert {p(5), p(6)} == {5, 6}

    def test_trivial_blocks(self):
        assert young_subgroup(parse_partition("1^4", 4)).order == 1

    def test_single_block_is_full(self):
        assert young_subgroup(parse_partition("5", 5)).order == 120

    def test_cap_refuses_before_closure(self):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="Young subgroup of 12 has 479001600 elements"):
            young_subgroup(parse_partition("12", 12))
        assert time.perf_counter() - start < 1.0
        assert young_subgroup(parse_partition("8,1", 9)).order == math.factorial(8)

    @pytest.mark.parametrize("text,d", [("3,2", 5), ("2,2,1", 5), ("4,2", 6)])
    def test_order_formula(self, text, d):
        lam = parse_partition(text, d)
        assert young_subgroup(lam).order == math.prod(math.factorial(k) for k in lam.trimmed())


class TestLinearCharacters:
    def test_klein_has_four(self):
        klein = generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])
        chars = linear_characters(klein)
        assert len(chars) == 4
        kernels = {frozenset(c.kernel_elements()) for c in chars}
        # the three order-2 kernels plus the whole group
        assert frozenset(klein.elements) in kernels
        for text in ["(12)(34)", "(13)(24)", "(14)(23)"]:
            sub = generate([parse_cycles(text, 4)])
            assert frozenset(sub.elements) in kernels

    def test_trivial_group(self):
        g = generate([], degree=3)
        chars = linear_characters(g)
        assert len(chars) == 1 and chars[0].order == 1

    def test_hexagon_group_four_sign_characters(self):
        g = generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])
        chars = linear_characters(g)
        assert len(chars) == 4
        assert all(c.order in (1, 2) for c in chars)

    def test_multiplicativity_and_class_constancy(self):
        rng = random.Random(23)
        for _ in range(8):
            w = random_subgroup(rng, rng.randint(2, 5))
            for chi in linear_characters(w):
                n = chi.order
                for a in w.elements:
                    for b in w.elements:
                        assert chi.exponent(a * b) % n == (chi.exponent(a) + chi.exponent(b)) % n
                for cls in conjugacy_partition(w):
                    assert len({chi.exponent(p) for p in cls}) == 1

    def test_count_equals_commutator_index(self):
        rng = random.Random(29)
        for _ in range(10):
            w = random_subgroup(rng, rng.randint(2, 5))
            if w.order > 100:
                continue
            derived = commutator_subgroup(w)
            chars = linear_characters(w)
            assert len(chars) == w.order // derived.order
            assert len({c.key() for c in chars}) == len(chars)

    def test_symmetric_seven_is_unit_and_sign(self):
        s7 = generate([parse_cycles("(1234567)", 7), parse_cycles("(12)", 7)])
        start = time.perf_counter()
        chars = linear_characters(s7)
        assert time.perf_counter() - start < 5.0
        assert set(s7._memo) == {"generated"}  # no walk, edges or cycle keys are kept on the group
        assert [c.order for c in chars] == [1, 2]
        assert all(chars[0].exponent(g) == 0 for g in s7.elements)
        assert all(chars[1].exponent(g) == (0 if g.sign() == 1 else 1) for g in s7.elements)

    def test_exponents_follow_element_order(self):
        d4 = generate([parse_cycles("(1234)", 4), parse_cycles("(13)", 4)])
        klein = generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])
        chars = [chi for w in _generated_groups() for chi in linear_characters(w)]
        chars += [relative_sign_character(symmetric_group(3), generate([parse_cycles("(123)", 3)]))]
        chars += [relative_sign_character(d4, klein)]
        for chi in chars:
            elements = chi.group.elements
            assert len(chi.exponents) == len(elements)
            assert all(chi.exponents[k] == chi.exponent(g) for k, g in enumerate(elements)), chi

    def test_exponent_refuses_a_permutation_outside_the_group(self):
        a3 = generate([parse_cycles("(123)", 3)])
        chi = linear_characters(a3)[1]
        for outside in (parse_cycles("(12)", 3), parse_cycles("(13)", 3), Permutation.identity(4)):  # between elements, past the last, another degree
            with pytest.raises(ValueError, match="outside the character's domain"):
                chi.exponent(outside)
        with pytest.raises(ValueError, match="2 exponents for a group of order 3"):
            LinearCharacter(a3, 1, (0, 0))

    def test_generators_must_generate_the_group(self):
        s3 = generate([parse_cycles("(123)", 3), parse_cycles("(12)", 3)])
        group = PermGroup(3, [parse_cycles("(123)", 3)], s3.elements)
        with pytest.raises(ValueError, match="do not generate"):
            linear_characters(group)

    def test_cyclic_group_has_complex_characters(self):
        c3 = generate([parse_cycles("(123)", 3)])
        orders = sorted(c.order for c in linear_characters(c3))
        assert orders == [1, 3, 3]


def _accepts(group, lam, tabloid, theta, chi=None):
    """Whether the orbit of the tabloid passes the character test with the sign mask theta."""
    space = orbit_space(group, parse_partition(lam, group.degree))
    return is_character_orbit(space.orbit_of(parse_tabloid(tabloid, group.degree)), chi, theta)


class TestSignProduct:
    """theta as a sign mask, evaluated on the stabilizer of one orbit."""

    def test_all_false_is_unit(self):
        s5 = symmetric_group(5)
        lam = parse_partition("3,2", 5)
        for orbit in orbit_space(s5, lam):
            assert is_character_orbit(orbit, None, (False, False))
        assert young_character_index(lam, (False, False)) == young_character_index(lam)

    def test_single_transposition(self):
        swap12 = generate([parse_cycles("(12)", 4)])
        swap34 = generate([parse_cycles("(34)", 4)])
        # the sign on block 1 is -1 on (12) and 1 on (34)
        assert not _accepts(swap12, "2,2", "{1,2}{3,4}", (True, False))
        assert _accepts(swap34, "2,2", "{1,2}{3,4}", (True, False))
        assert _accepts(swap12, "2,2", "{1,2}{3,4}", (False, True))

    def test_product_of_even_blocks(self):
        g = generate([parse_cycles("(123)(456)", 6)])
        assert _accepts(g, "3,3", "{1,2,3}{4,5,6}", (True, True))

    def test_matches_global_sign(self):
        # on shape 5 the sign mask (True,) is the sign: <p> passes the test exactly when p is even
        for p in symmetric_group(5).elements:
            assert _accepts(generate([p], degree=5), "5", "{1,2,3,4,5}", (True,)) == (p.sign() == 1)

    def test_mask_length_checked(self):
        g = symmetric_group(5)
        orbit = next(iter(orbit_space(g, parse_partition("3,2", 5))))
        for mask in [(True,), (True, False, False)]:
            with pytest.raises(ValueError, match="mask length"):
                young_character_index(parse_partition("3,2", 5), mask)
            with pytest.raises(ValueError, match="mask length"):
                is_character_orbit(orbit, None, mask)


class TestRelativeSign:
    def test_sign_of_s3(self):
        s3 = symmetric_group(3)
        a3 = generate([parse_cycles("(123)", 3)])
        chi = relative_sign_character(s3, a3)
        for p in s3.elements:
            assert chi.is_one(p) == (p.sign() == 1)

    def test_square_group_over_klein(self):
        d4 = generate([parse_cycles("(1234)", 4), parse_cycles("(13)", 4)])
        klein = generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])
        chi = relative_sign_character(d4, klein)
        minus = {str(p) for p in d4.elements if not chi.is_one(p)}
        assert minus == {"(13)", "(24)", "(1234)", "(1432)"}

    def test_rejects_wrong_index(self):
        s3 = symmetric_group(3)
        triv = generate([], degree=3)
        with pytest.raises(ValueError):
            relative_sign_character(s3, triv)


def test_unit_character_always_first():
    g = symmetric_group(4)
    chars = linear_characters(g)
    assert chars[0].order == 1
    assert all(chars[0].is_one(p) for p in g.elements)
