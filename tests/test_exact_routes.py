"""The integer counting routes against a Fraction oracle, position walks, and brute counts under characters."""

from fractions import Fraction
from itertools import product

import pytest

import isomers.orbits
from isomers.catalog import BUILTIN_NAMES, builtin
from isomers.counting import (
    PowerSumPoly,
    RootOfUnitySum,
    _exact_quotient,
    count_brute,
    count_classes,
    count_ruch,
    count_scalar,
    count_types,
    cycle_index,
    scalar_product,
    young_character_index,
)
from isomers.orbits import is_character_orbit, orbit_space
from isomers.partitions import Partition, all_partitions, centralizer_order, parse_partition
from isomers.perms import PermGroup, generate, linear_characters, parse_cycles

from oracles import (
    act_raw,
    conjugated_theta_exponent,
    count_by_fractions,
    raw_orbits,
    raw_tabloids_of_shape,
    symmetric_group,
)


def _cycle(d):
    return parse_cycles("(" + "".join(map(str, range(1, d + 1))) + ")", d)


def _flip(d):
    return parse_cycles("".join(f"({i}{d + 1 - i})" for i in range(1, d // 2 + 1)), d)


GROUPS = {name: (lambda name=name: builtin(name).group) for name in BUILTIN_NAMES}
for _d in range(3, 8):
    GROUPS[f"S{_d}"] = lambda d=_d: symmetric_group(d)
    GROUPS[f"A{_d}"] = lambda d=_d: generate([parse_cycles(f"(12{k})", d) for k in range(3, d + 1)])
    GROUPS[f"C{_d}"] = lambda d=_d: generate([_cycle(d)])
    GROUPS[f"D{_d}"] = lambda d=_d: generate([_cycle(d), _flip(d)])
GROUPS["C12"] = lambda: generate([parse_cycles("(1234)(567)", 7)])  # a cyclic group of order 12 on 7 points


def every_mask(lam):
    return list(product((False, True), repeat=len(lam.trimmed())))


class TestIntegerRoutes:
    @pytest.mark.parametrize("name", list(GROUPS))
    def test_equal_the_fraction_oracle(self, name):
        # every shape, every linear character and every sign mask
        w = GROUPS[name]()
        chars = linear_characters(w)
        for lam in all_partitions(w.degree):
            unit = count_by_fractions(w, lam)
            assert unit.denominator == 1
            assert count_ruch(w, lam) == count_types(w, lam) == count_scalar(w, None, lam) == unit, lam
            for chi in chars:
                for mask in every_mask(lam):
                    expected = count_by_fractions(w, lam, chi, mask)
                    assert expected.denominator == 1
                    assert count_scalar(w, chi, lam, mask) == count_classes(w, chi, lam, mask) == expected, (lam, chi, mask)

    def test_characters_above_order_two_are_covered(self):
        orders = {c.order for name in ("A4", "C5", "C6", "C7", "C12") for c in linear_characters(GROUPS[name]())}
        assert {3, 4, 5, 6, 7, 12} <= orders

    @pytest.mark.parametrize("name", ["C5", "C12"])
    def test_public_power_sums_above_order_two(self, name):
        # values off the cycle index under chi are root-of-unity sums with Fraction coefficients,
        # and the Hall pairing with the Young index puts chi on the conjugated side
        w = GROUPS[name]()
        for chi in (c for c in linear_characters(w) if c.order > 2):
            z = cycle_index(w, chi)
            values = z.coeffs
            assert values and all(isinstance(v, RootOfUnitySum) for v in values.values())
            for lam in all_partitions(w.degree):
                young = young_character_index(lam)
                expected = count_by_fractions(w, lam, chi)
                pairing = sum(v * young.coefficient(key + (0,)) * centralizer_order(key) for key, v in values.items())
                assert pairing == scalar_product(young, z) == scalar_product(z, young) == expected, (lam, chi.order)
            assert z.coefficient((1,) * w.degree) == RootOfUnitySum.of(Fraction(1, w.order))
        # g and its inverse share a cycle type, so every value above is real; the conjugation shows on a complex one
        omega = PowerSumPoly(3, {(3,): RootOfUnitySum.root(1, 3)})
        assert scalar_product(omega, omega) == centralizer_order((3,))

    def test_exact_division_refuses_what_is_not_a_count(self):
        assert _exact_quotient(12, 4) == 3
        assert _exact_quotient(RootOfUnitySum(3, {0: 6, 1: 3, 2: 3}), 3) == 1  # 6 + 3 zeta + 3 zeta^2 = 3
        for num, den in [(7, 2), (-4, 2), (RootOfUnitySum.root(1, 3), 1), (RootOfUnitySum(4, {0: 3}), 2)]:
            with pytest.raises(ArithmeticError):
                _exact_quotient(num, den)

    def test_planted_numerators_are_refused(self):
        # a cycle index worth 6/4 at 1^3, and one that leaves out one 3-cycle of C3
        w = generate([parse_cycles("(123)", 3)])
        w._memo["cycle_index"] = PowerSumPoly(3, {(1, 1, 1): 1}, 4)
        with pytest.raises(ArithmeticError):
            count_scalar(w, None, Partition((1, 1, 1)))
        w._memo["cycle_index"] = PowerSumPoly(3, {(1, 1, 1): 1, (3,): 1}, 3)
        for route in (count_types, count_ruch):
            with pytest.raises(ArithmeticError):
                route(w, parse_partition("3", 3))


class TestPositionWalks:
    @pytest.mark.parametrize("name", ["S5", "A5", "C5", "D5", "D6", "C12", "benzene"])
    def test_match_definitional_orbits(self, name, monkeypatch):
        # the walked group and the same elements in a group not known to be generated
        generated = GROUPS[name]()
        unknown = PermGroup(generated.degree, generated.generators, generated.elements)
        getters = isomers.orbits._getters
        for w, may_walk in ((generated, True), (unknown, False)):
            walks = 0
            for lam in all_partitions(w.degree):
                gathered = []
                monkeypatch.setattr(isomers.orbits, "_getters", lambda group: gathered.append(group) or getters(group))
                got = {frozenset(m.components for m in o.members) for o in orbit_space(w, lam)}
                assert got == set(raw_orbits(w, raw_tabloids_of_shape(lam.trimmed()))), (name, lam)
                assert len(got) == len(orbit_space(w, lam))
                walks += not gathered
            assert (walks > 0) == may_walk


def raw_stabilizers(w, lam) -> list[tuple[tuple, list]]:
    """Each raw orbit's least tabloid and the elements fixing it, by the definitional action."""
    reps = [min(orbit) for orbit in raw_orbits(w, raw_tabloids_of_shape(lam.trimmed()))]
    return [(rep, [g for g in w.elements if act_raw(g.images, rep) == rep]) for rep in reps]


def raw_character_count(stabilizers, chi, mask) -> int:
    """The orbits whose whole stabilizer passes chi times theta, theta conjugated literally."""
    def passes(g, rep):
        return (2 * chi.exponent(g) + conjugated_theta_exponent(g.images, rep, mask) * chi.order) % (2 * chi.order) == 0

    return sum(all(passes(g, rep) for g in fixers) for rep, fixers in stabilizers)


class TestCharacterBruteCount:
    @pytest.mark.parametrize("name", ["S4", "A4", "D5", "C6", "benzene"])
    def test_walks_without_a_space(self, name):
        # every shape, character and mask counted with no orbit space formed, then against the space's filter
        w = GROUPS[name]()
        chars = linear_characters(w)
        for lam in all_partitions(w.degree):
            stabilizers = raw_stabilizers(w, lam)
            for chi in chars:
                for mask in every_mask(lam):
                    n = count_brute(w, lam, chi, mask)
                    assert ("orbit_space", lam) not in w._memo
                    assert n == raw_character_count(stabilizers, chi, mask), (lam, chi, mask)
            space = orbit_space(w, lam)
            for chi in chars:
                for mask in every_mask(lam):
                    filtered = sum(1 for orbit in space if is_character_orbit(orbit, chi, mask))
                    assert count_brute(w, lam, chi, mask) == filtered
