import math
import random
from fractions import Fraction
from itertools import accumulate, product as iproduct

import pytest

from isomers.counting import (
    CountReport,
    PowerSumPoly,
    RootOfUnitySum,
    build_report,
    combinatorially_equivalent,
    count_brute,
    count_classes,
    count_ruch,
    count_scalar,
    count_types,
    cycle_index,
    monotonicity_check,
    scalar_product,
    young_character_index,
)
from isomers.partitions import Partition, all_partitions, centralizer_order, dominance_leq, parse_partition
from isomers.perms import LinearCharacter, generate, linear_characters, parse_cycles

from oracles import monomial_h_coefficient, random_subgroup, restricted_sign_exponent, symmetric_group, young_subgroup


def hexagon_group():
    return generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])


def klein_group():
    return generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])


def square_group():
    return generate([parse_cycles("(1234)", 4), parse_cycles("(13)", 4)])


def ring_pair_group():
    return generate([parse_cycles("(12)(34)(56)(78)", 8), parse_cycles("(13)(24)(57)(68)", 8)])


def effective_masks(lam):
    """Sign masks modulo blocks of size one, where the sign is trivial."""
    parts = lam.trimmed()
    choices = [( (False,) if p == 1 else (False, True) ) for p in parts]
    return [tuple(m) for m in iproduct(*choices)]


class TestRootOfUnitySum:
    def test_full_cycle_sums_vanish(self):
        for n in (2, 3, 4, 5, 6, 12):
            total = sum((RootOfUnitySum.root(e, n) for e in range(n)), RootOfUnitySum.of(0))
            assert total.as_fraction() == 0

    def test_multiplication_wraps(self):
        w = RootOfUnitySum.root(1, 3)
        assert (w * w * w).as_fraction() == 1

    def test_conjugation(self):
        w = RootOfUnitySum.root(1, 5)
        assert (w * w.conjugate()).as_fraction() == 1

    def test_irrational_detected(self):
        w = RootOfUnitySum.root(1, 3)
        assert w.as_fraction() is None

    def test_mixed_orders(self):
        # a sixth root squared is a cube root
        z6 = RootOfUnitySum.root(1, 6)
        assert (z6 * z6) == RootOfUnitySum.root(1, 3)


class TestCycleIndex:
    def test_trivial_group(self):
        w = generate([], degree=4)
        z = cycle_index(w)
        assert z.coeffs == {(1, 1, 1, 1): Fraction(1)}

    def test_hexagon_full_cycles(self):
        z = cycle_index(hexagon_group())
        assert z.coefficient((6,)) == Fraction(2, 12)

    def test_ring_pair_group(self):
        z = cycle_index(ring_pair_group())
        assert z.coeffs == {
            (1,) * 8: Fraction(1, 4),
            (2, 2, 2, 2): Fraction(3, 4),
        }

    def test_weighted_by_character(self):
        g = klein_group()
        chi = next(c for c in linear_characters(g) if c.order == 2)
        z = cycle_index(g, chi)
        # identity contributes 1/4; of the three involutions one sits in
        # the kernel (+1) and two map to -1, netting -1/4
        assert z.coefficient((1, 1, 1, 1)) == Fraction(1, 4)
        assert z.coefficient((2, 2)) == Fraction(-1, 4)


class TestCompleteHomogeneous:
    def test_all_ones(self):
        for d in (1, 2, 3, 5):
            h = young_character_index(parse_partition(",".join(["1"] * d), d))
            assert h.coeffs == {(1,) * d: Fraction(1)}

    def test_single_two(self):
        h = young_character_index(parse_partition("2", 2))
        assert h.coeffs == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_against_naive_convolution(self):
        for text, d in [("2,2", 4), ("3,2", 5), ("4,2", 6), ("2,2,1", 5)]:
            lam = parse_partition(text, d)
            h = young_character_index(lam)
            for alpha in all_partitions(d):
                assert h.coefficient(alpha.trimmed()) == monomial_h_coefficient(
                    lam.trimmed(), alpha.trimmed()
                )

    def test_masks_match_young_subgroup_closure(self):
        # the h/e product against the cycle index of the closed Young
        # subgroup weighted by a table of block signs, every mask for d <= 6
        for d in range(1, 7):
            for lam in all_partitions(d):
                group = young_subgroup(lam)
                ends = list(accumulate(lam.trimmed()))
                blocks = [range(end - part + 1, end + 1) for part, end in zip(lam.trimmed(), ends)]
                for mask in iproduct((False, True), repeat=len(blocks)):
                    table = {
                        p: sum(restricted_sign_exponent(p.images, b) for b, flag in zip(blocks, mask) if flag) % 2
                        for p in group.elements
                    }
                    weighted = cycle_index(group, LinearCharacter(group, 2, table))
                    assert young_character_index(lam, mask) == weighted, (lam, mask)


class TestScalarProduct:
    def test_power_sum_norm(self):
        for d in (2, 3, 4):
            for alpha in all_partitions(d):
                p = PowerSumPoly(d, {alpha.trimmed(): Fraction(1)})
                assert scalar_product(p, p) == centralizer_order(alpha)

    @pytest.mark.parametrize("d", list(range(1, 9)))
    def test_orthogonality(self, d):
        shapes = all_partitions(d)
        for a in shapes:
            for b in shapes:
                pa = PowerSumPoly(d, {a.trimmed(): Fraction(1)})
                pb = PowerSumPoly(d, {b.trimmed(): Fraction(1)})
                expected = centralizer_order(a) if a == b else 0
                assert scalar_product(pa, pb) == expected

    def test_h2_self_pairing(self):
        h = young_character_index(parse_partition("2", 2))
        assert scalar_product(h, h) == Fraction(1)

    def test_bilinearity(self):
        rng = random.Random(41)
        d = 4
        shapes = [p.trimmed() for p in all_partitions(d)]

        def random_poly():
            return PowerSumPoly(
                d, {k: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for k in rng.sample(shapes, 3)}
            )

        for _ in range(20):
            f1, f2, g = random_poly(), random_poly(), random_poly()
            lhs = scalar_product(PowerSumPoly(d, _poly_add(f1, f2)), g)
            assert lhs == scalar_product(f1, g) + scalar_product(f2, g)


def _poly_add(f, g):
    out = dict(f.coeffs)
    for k, v in g.coeffs.items():
        out[k] = out.get(k, Fraction(0)) + v
    return out


class TestCountScalar:
    def test_hexagon_counts(self):
        g = hexagon_group()
        assert count_scalar(g, None, parse_partition("4,2", 6)) == 3
        assert count_scalar(g, None, parse_partition("3^2", 6)) == 3

    def test_klein_monosub(self):
        assert count_scalar(klein_group(), None, parse_partition("1^4", 4)) == 6

    def test_symmetric_group_all_ones(self):
        for d in (2, 3, 4, 5):
            sd = symmetric_group(d)
            for lam in all_partitions(d):
                assert count_scalar(sd, None, lam) == 1


class TestCountClasses:
    def test_hexagon_trisub(self):
        assert count_classes(hexagon_group(), None, parse_partition("3,3", 6)) == 3

    def test_ring_pair_62(self):
        assert count_classes(ring_pair_group(), None, parse_partition("6,2", 8)) == 10

    def test_square_group_disub(self):
        assert count_classes(square_group(), None, parse_partition("2^2", 4)) == 2

    def test_sign_character_cases(self):
        # frozen from hand evaluation over the three-point symmetric group:
        # the signed count collapses to 0 with unit theta and returns 1
        # when theta carries the sign on the size-2 block
        s3 = symmetric_group(3)
        sign = next(c for c in linear_characters(s3) if c.order == 2)
        lam = parse_partition("2,1", 3)
        theta_unit = (False, False)
        theta_sign = (True, False)
        assert count_classes(s3, sign, lam, theta_unit) == 0
        assert count_classes(s3, sign, lam, theta_sign) == 1
        assert count_brute(s3, lam, sign, theta_unit) == 0
        assert count_brute(s3, lam, sign, theta_sign) == 1

    def test_complex_character_counts(self):
        c3 = generate([parse_cycles("(123)", 3)])
        omega = next(c for c in linear_characters(c3) if c.order == 3)
        expected = {"1,1,1": 2, "2,1": 1, "3": 0}
        for text, value in expected.items():
            lam = parse_partition(text, 3)
            assert count_classes(c3, omega, lam) == value
            assert count_scalar(c3, omega, lam) == value
            assert count_brute(c3, lam, omega) == value

    def test_rejects_non_sign_product_theta(self):
        g = klein_group()
        lam = parse_partition("2,2", 4)
        for mask in [(True,), (True, False, False)]:
            with pytest.raises(ValueError, match="mask length"):
                count_classes(g, None, lam, mask)
            with pytest.raises(ValueError, match="mask length"):
                count_scalar(g, None, lam, mask)
            with pytest.raises(ValueError, match="mask length"):
                count_brute(g, lam, None, mask)


class TestCountTypes:
    def test_ring_pair_71(self):
        assert count_types(ring_pair_group(), parse_partition("7,1", 8)) == 2

    def test_hexagon_42(self):
        assert count_types(hexagon_group(), parse_partition("4,2", 6)) == 3

    def test_trivial_group_multinomial(self):
        w = generate([], degree=5)
        for lam in all_partitions(5):
            expected = math.factorial(5) // math.prod(math.factorial(k) for k in lam.trimmed())
            assert count_types(w, lam) == expected


class TestCountRuch:
    def test_klein_212(self):
        assert count_ruch(klein_group(), parse_partition("2,1^2", 4)) == 3

    def test_symmetric_group(self):
        for d in (3, 4, 5):
            sd = symmetric_group(d)
            for lam in all_partitions(d):
                assert count_ruch(sd, lam) == 1

    def test_agreement_random_subgroups(self):
        rng = random.Random(42)
        for _ in range(40):
            d = rng.randint(2, 6)
            w = random_subgroup(rng, d)
            for lam in all_partitions(d):
                n = count_types(w, lam)
                assert count_ruch(w, lam) == n
                assert count_brute(w, lam) == n


class TestCountBrute:
    def test_hexagon(self):
        assert count_brute(hexagon_group(), parse_partition("3,3", 6)) == 3

    def test_square_group_monosub(self):
        assert count_brute(square_group(), parse_partition("1^4", 4)) == 3

    def test_chiral_filter(self):
        s3 = symmetric_group(3)
        a3 = generate([parse_cycles("(123)", 3)])
        from isomers.perms import relative_sign_character

        chi_e = relative_sign_character(s3, a3)
        assert count_brute(s3, parse_partition("1,1,1", 3), chi_e) == 1

    def test_degree_guard(self):
        w = generate([], degree=11)
        with pytest.raises(ValueError):
            count_brute(w, Partition((1,) * 11))


class TestFourWayAgreement:
    def test_builtin_groups_all_shapes(self):
        for w in (klein_group(), square_group(), hexagon_group(), ring_pair_group()):
            for lam in all_partitions(w.degree):
                report = build_report(w, lam)
                assert report.agree, (w, lam, report)

    def test_random_subgroups(self):
        rng = random.Random(43)
        for _ in range(30):
            d = rng.randint(2, 6)
            w = random_subgroup(rng, d)
            for lam in all_partitions(d):
                report = build_report(w, lam)
                assert report.agree


class TestCharacterPairAgreement:
    @pytest.mark.parametrize("maker", [klein_group, square_group, hexagon_group])
    def test_all_sign_characters_and_masks(self, maker):
        w = maker()
        chars = [c for c in linear_characters(w) if c.order <= 2]
        for lam in all_partitions(w.degree):
            for chi in chars:
                for theta in effective_masks(lam):
                    formula = count_classes(w, chi, lam, theta)
                    brute = count_brute(w, lam, chi, theta)
                    scalar = count_scalar(w, chi, lam, theta)
                    assert formula == brute == scalar

    def test_ring_pair_group_selected_shapes(self):
        w = ring_pair_group()
        chars = [c for c in linear_characters(w) if c.order <= 2]
        for text in ["8", "7,1", "6,2", "4,4", "4,2,2", "2^4", "5,2,1"]:
            lam = parse_partition(text, 8)
            for chi in chars:
                for theta in effective_masks(lam):
                    assert count_classes(w, chi, lam, theta) == count_brute(w, lam, chi, theta)


class TestCombinatorialEquivalence:
    def test_self(self):
        g = hexagon_group()
        assert combinatorially_equivalent(g, g)

    def test_conjugate(self):
        rng = random.Random(44)
        from oracles import random_permutation

        for _ in range(10):
            d = rng.randint(2, 6)
            w = random_subgroup(rng, d)
            s = random_permutation(rng, d)
            conj = generate([s * g * s.inverse() for g in w.generators] or [], degree=d)
            if not w.generators:
                conj = w
            assert combinatorially_equivalent(w, conj)

    def test_equivalence_with_count_families(self):
        rng = random.Random(45)
        for _ in range(60):
            d = rng.randint(2, 6)
            w1 = random_subgroup(rng, d)
            w2 = random_subgroup(rng, d)
            counts_equal = all(
                count_types(w1, lam) == count_types(w2, lam) for lam in all_partitions(d)
            )
            assert combinatorially_equivalent(w1, w2) == counts_equal


class TestMonotonicity:
    def test_hexagon_unit(self):
        assert monotonicity_check(hexagon_group()) == []

    def test_every_builtin_character(self):
        for w in (klein_group(), square_group(), hexagon_group(), ring_pair_group()):
            for chi in linear_characters(w):
                assert monotonicity_check(w, chi) == []

    def test_extremes(self):
        rng = random.Random(46)
        for _ in range(10):
            d = rng.randint(2, 6)
            w = random_subgroup(rng, d)
            bottom = Partition((1,) * d)
            top = Partition((d,), d)
            counts = {lam: count_types(w, lam) for lam in all_partitions(d)}
            for lam in all_partitions(d):
                assert counts[bottom] >= counts[lam] >= counts[top]

    def test_sign_character_on_s3(self):
        s3 = symmetric_group(3)
        sign = next(c for c in linear_characters(s3) if c.order == 2)
        assert monotonicity_check(s3, sign) == []


class TestCountReport:
    def test_json_shape(self):
        report = build_report(hexagon_group(), parse_partition("4,2", 6))
        payload = report.to_json_dict()
        assert payload == {
            "shape": "4,2",
            "chi": "1",
            "theta": "1",
            "scalar": 3,
            "t527": 3,
            "t529": 3,
            "ruch": 3,
            "brute": 3,
            "agree": True,
        }

    def test_non_unit_drops_unit_routes(self):
        g = klein_group()
        chi = next(c for c in linear_characters(g) if c.order == 2)
        report = build_report(g, parse_partition("2,2", 4), chi, None, chi_label="1?")
        assert report.via_types is None and report.via_ruch is None
        assert report.agree

    def test_frozen_value(self):
        lam = parse_partition("4,2", 6)
        report = build_report(hexagon_group(), lam)
        assert report == build_report(hexagon_group(), lam) and hash(report) == hash(build_report(hexagon_group(), lam))
        assert report == CountReport(lam, "1", "1", 3, 3, 3, 3, 3)
        assert report != CountReport(lam, "1", "1", 3, 3, None, None, 3)
        with pytest.raises(AttributeError):
            report.via_brute = 4


class TestOrbitSizeBookkeeping:
    def test_sizes_sum_to_tabloid_count(self):
        rng = random.Random(47)
        from isomers.orbits import orbit_space

        for _ in range(10):
            d = rng.randint(2, 6)
            w = random_subgroup(rng, d)
            for lam in all_partitions(d):
                space = orbit_space(w, lam)
                expected = math.factorial(d) // math.prod(math.factorial(k) for k in lam.trimmed())
                assert sum(o.size for o in space) == expected
                assert len(space) == count_types(w, lam)
