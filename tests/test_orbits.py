import itertools
import math
import random
from fractions import Fraction

import pytest

import isomers.orbits
from isomers.catalog import builtin
from isomers.counting import count_brute
from isomers.dissections import (
    Dissection,
    all_tabloids,
    is_cover_dissection,
    is_cover_tabloid,
    leq_dissection,
    parse_tabloid,
    raise_into,
    standard_tabloid,
    tabloid_words,
)
from isomers.orbits import (
    CELL_CAP,
    TABLOID_CAP,
    ChiralEntry,
    Orbit,
    OrbitSpace,
    check_degree_cap,
    check_tabloid_cap,
    classify_chiral,
    is_character_orbit,
    orbit_adjacent,
    orbit_cover,
    orbit_interval,
    orbit_leq,
    orbit_poset,
    orbit_space,
    reaction_pairs,
    refine,
    stabilizer,
)
from isomers.partitions import Partition, all_partitions, dominance_leq, parse_partition, shapes_between
from isomers.perms import (
    CapExceeded,
    Permutation,
    generate,
    linear_characters,
    parse_cycles,
)

from oracles import (
    act_raw,
    burnside_count,
    conjugated_theta_exponent,
    leq_composition,
    leq_dissection_raw,
    orbit_cover_by_witness,
    orbit_interval_by_definition,
    random_permutation,
    random_subgroup,
    raw_orbits,
    raw_partitions,
    raw_tabloids_of_shape,
    standard_transporter_raw,
    symmetric_group,
    young_subgroup,
)


def T(text, d):
    return parse_tabloid(text, d)


def hexagon_group():
    return generate([parse_cycles("(123456)", 6), parse_cycles("(13)(46)", 6)])


def klein_group():
    return generate([parse_cycles("(12)(34)", 4), parse_cycles("(13)(24)", 4)])


def square_group():
    return generate([parse_cycles("(1234)", 4), parse_cycles("(13)", 4)])


class TestOrbitSpace:
    def test_hexagon_disub_orbits(self):
        space = orbit_space(hexagon_group(), parse_partition("4,2", 6))
        assert sorted(o.size for o in space) == [3, 6, 6]
        # the catalog tabloids land in distinct orbits of the right sizes
        named = {
            "{2,3,5,6}{1,4}": 3,
            "{1,2,3,4}{5,6}": 6,
            "{2,4,5,6}{1,3}": 6,
        }
        for text, size in named.items():
            assert space.orbit_of(T(text, 6)).size == size

    def test_hexagon_trisub_orbits(self):
        space = orbit_space(hexagon_group(), parse_partition("3,3", 6))
        assert sorted(o.size for o in space) == [2, 6, 12]
        assert space.orbit_of(T("{1,2,4}{3,5,6}", 6)).size == 12
        assert space.orbit_of(T("{1,2,3}{4,5,6}", 6)).size == 6
        assert space.orbit_of(T("{1,3,5}{2,4,6}", 6)).size == 2

    def test_symmetric_group_single_orbit(self):
        for d in (3, 4, 5):
            sd = symmetric_group(d)
            for lam in all_partitions(d):
                assert len(orbit_space(sd, lam)) == 1

    def test_partition_of_tabloids(self):
        rng = random.Random(31)
        for _ in range(10):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            space = orbit_space(w, lam)
            members = [m for o in space for m in o.members]
            assert sorted(members) == all_tabloids(lam)
            for o in space:
                assert o.representative == min(o.members)
                assert w.order % o.size == 0

    def test_burnside_consistency(self):
        rng = random.Random(32)
        for _ in range(12):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            tabs = raw_tabloids_of_shape(lam.trimmed())
            assert len(orbit_space(w, lam)) == burnside_count(w, tabs)

    def test_matches_raw_orbits(self):
        rng = random.Random(33)
        for _ in range(10):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            got = {frozenset(m.components for m in o.members) for o in orbit_space(w, lam)}
            raw = {frozenset(t) for t in raw_orbits(w, raw_tabloids_of_shape(lam.trimmed()))}
            assert got == raw

    def test_member_components_are_shared_within_a_space(self):
        # a member's one stored form is its row-word: the very tuple its orbit
        # holds, which is the one tabloid_words gathered for the shape
        lam = parse_partition("2^2,1^4", 8)
        space = orbit_space(builtin("naphthalene").group, lam)
        held = {w: w for w in tabloid_words(lam)}
        for o in space:
            members = o.members
            assert o.representative.row_word() is o.words[0]
            for k, m in enumerate(members):
                assert m.row_word() is o.words[k] is held[o.words[k]]
                assert m in o

    def test_counting_builds_no_member(self, monkeypatch):
        built = []
        trusted = Dissection._trusted.__func__
        monkeypatch.setattr(Dissection, "_trusted", classmethod(lambda cls, w: built.append(w) or trusted(cls, w)))
        w = builtin("benzene").group
        lam = parse_partition("2,2,1,1", 6)
        for chi in linear_characters(w):
            count_brute(w, lam, chi, (True, False, True, False))
        assert built == []
        space = orbit_space(w, lam)
        assert len(space.orbits[0].members) == space.orbits[0].size == len(built)

    def test_tabloid_cap_refuses_before_building(self):
        w = generate([], degree=9)
        assert math.factorial(9) > TABLOID_CAP >= math.factorial(8)
        with pytest.raises(CapExceeded, match="tabloid cap"):
            orbit_space(w, parse_partition("1^9", 9))
        assert not [key for key in w._memo if key[0] == "orbit_space"]
        assert len(orbit_space(w, parse_partition("5,1^4", 9))) == math.factorial(9) // math.factorial(5)
        # 445,2 has under TABLOID_CAP tabloids, but each is a 447-point word;
        # 999,1 at degree 1000 is 10^6 cells, the most any test sends
        wide = generate([], degree=447)
        assert math.comb(447, 2) <= TABLOID_CAP and 1000 * 1000 < CELL_CAP < math.comb(447, 2) * 447
        with pytest.raises(CapExceeded, match="cell cap"):
            orbit_space(wide, parse_partition("445,2", 447))
        assert not [key for key in wide._memo if key[0] == "orbit_space"]
        check_tabloid_cap([parse_partition("999,1", 1000), parse_partition("198,2", 200)])

    def test_refusals_come_before_enumeration(self, monkeypatch):
        # the degree and the tabloid cap are read off the shape, for a space and a unit count alike
        import isomers.orbits

        def enumerated(lam):
            raise AssertionError("tabloids enumerated")

        monkeypatch.setattr(isomers.orbits, "tabloid_words", enumerated)
        w = generate([], degree=9)
        for refuse in (orbit_space, count_brute):
            with pytest.raises(CapExceeded, match="tabloid cap"):
                refuse(w, parse_partition("1^9", 9))
            with pytest.raises(ValueError, match="degree"):
                refuse(w, parse_partition("1^8", 8))

    def test_degree_cap_is_the_finest_shape_cap(self):
        for d in range(1, 13):
            refusals = []
            for check in (lambda: check_degree_cap(d), lambda: check_tabloid_cap([Partition((1,) * d)])):
                try:
                    check()
                    refusals.append(None)
                except CapExceeded as exc:
                    refusals.append(str(exc))
            assert refusals[0] == refusals[1], d
            assert (refusals[0] is not None) == (d >= 9), d


def _definitional_cases():
    """(group, shape) pairs for the definitional orbit and stabilizer checks."""
    cases = []
    for name in ("ethene", "benzene"):
        w = builtin(name).group
        cases += [(w, lam) for lam in all_partitions(w.degree)]
    w = builtin("naphthalene").group
    for lam in all_partitions(8):
        if math.factorial(8) // math.prod(map(math.factorial, lam)) <= 2520:
            cases.append((w, lam))
    rng = random.Random(35)
    for _ in range(12):
        w = random_subgroup(rng, rng.randint(2, 6))
        cases.append((w, rng.choice(all_partitions(w.degree))))
    return cases


class TestDefinitionalOrbits:
    """orbit_space and stabilizer against the definitional action on raw tabloids."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _definitional_cases()

    def test_orbits_match_raw_orbits(self, cases):
        for w, lam in cases:
            raw = raw_orbits(w, raw_tabloids_of_shape(lam.trimmed()))
            got = [tuple(m.components for m in o.members) for o in orbit_space(w, lam)]
            # same member sets, members sorted, orbits in representative order
            assert got == [tuple(sorted(o)) for o in raw], (w, lam)

    def test_stabilizers_match_fixed_elements(self, cases):
        for w, lam in cases:
            for o in orbit_space(w, lam):
                for a in (o.representative, o.members[-1]):
                    fixed = {g for g in w.elements if act_raw(g.images, a.components) == a.components}
                    assert set(stabilizer(w, a).elements) == fixed, (w, a)

    def test_orbit_of_reads_every_member(self, cases):
        for w, lam in cases:
            space = orbit_space(w, lam)
            for o in space:
                assert all(space.orbit_of(m) is o for m in o.members)
        other = next(mu for mu in all_partitions(w.degree) if mu != lam)
        with pytest.raises(ValueError, match="not a tabloid of shape"):
            space.orbit_of(standard_tabloid(other))


def a5_group():
    return generate([parse_cycles("(123)", 5), parse_cycles("(12345)", 5)])


def with_gathers(group):
    """The group with its per-element gathers already built."""
    isomers.orbits._getters(group)
    return group


class TestOrbitSpacePaths:
    """Each side of the gather-count rule gives the definitional orbits, member for member.

    A walk along the generators costs their count per tabloid; sending one
    word per orbit through every element costs at least |G| * ceil(N / |G|),
    and |G| more while the per-element gathers are not built.  Only the
    second reads the gathers.
    """

    @pytest.mark.parametrize(
        "make,shape,walks",
        [
            (lambda: symmetric_group(7), "7", True),
            (lambda: symmetric_group(7), "4,3", True),
            (lambda: symmetric_group(5), "3,1,1", True),
            (lambda: generate([], degree=1), "1", True),
            (lambda: symmetric_group(5), "1^5", True),
            (klein_group, "1^4", False),
            (lambda: generate([parse_cycles("(1234)", 5)]), "2,1^3", True),
            (lambda: stabilizer(symmetric_group(5), T("{1,2}{3,4,5}", 5)), "2,2,1", False),
            (a5_group, "1^5", False),
            (lambda: with_gathers(symmetric_group(5)), "1^5", False),
            (lambda: with_gathers(symmetric_group(5)), "3,1,1", True),
        ],
        ids=[
            "S7-7", "S7-4,3", "S5-3,1,1", "trivial-1", "S5-1^5", "klein-1^4", "C4-2,1^3", "stabilizer-2,2,1",
            "A5-1^5", "S5-built-1^5", "S5-built-3,1,1",
        ],
    )
    def test_matches_raw_orbits(self, make, shape, walks, monkeypatch):
        w = make()
        gathered = []
        getters = isomers.orbits._getters
        monkeypatch.setattr(isomers.orbits, "_getters", lambda group: gathered.append(group) or getters(group))
        lam = parse_partition(shape, w.degree)
        got = [tuple(m.components for m in o.members) for o in orbit_space(w, lam)]
        assert (not gathered) == walks
        assert got == [tuple(sorted(o)) for o in raw_orbits(w, raw_tabloids_of_shape(lam.trimmed()))]


class TestStabilizer:
    def test_paired_blocks(self):
        g = klein_group()
        stab = stabilizer(g, T("{1,2}{3,4}", 4))
        assert set(stab.elements) == {parse_cycles("", 4), parse_cycles("(12)(34)", 4)}

    def test_trivial_stabilizer(self):
        g = klein_group()
        stab = stabilizer(g, T("{1,2}{3}{4}", 4))
        assert stab.order == 1

    def test_stabilizers_conjugate_along_the_orbit(self):
        rng = random.Random(48)
        for _ in range(20):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            orbit = rng.choice(orbit_space(w, lam).orbits)
            a = orbit.representative
            tau = rng.choice(w.elements)
            moved = stabilizer(w, a.acted_by(tau))
            expected = {tau * s * tau.inverse() for s in stabilizer(w, a).elements}
            assert set(moved.elements) == expected

    def test_orbit_stabilizer_product(self):
        rng = random.Random(34)
        for _ in range(10):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            for o in orbit_space(w, lam):
                assert o.size * stabilizer(w, o.representative).order == w.order


def transporter(a):
    return Permutation(standard_transporter_raw(a.components))


class TestTransporter:
    """The oracle's transporter, on which the theta oracle rests."""

    def test_identity_on_standard(self):
        lam = parse_partition("3,2,1", 6)
        std = standard_tabloid(lam)
        u = transporter(std)
        assert std.acted_by(u) == std

    def test_replay_random(self):
        rng = random.Random(35)
        for _ in range(80):
            d = rng.randint(1, 8)
            lam = rng.choice(all_partitions(d))
            a = rng.choice(all_tabloids(lam)) if d <= 5 else _random_tabloid_of(rng, lam)
            u = transporter(a)
            assert standard_tabloid(lam).acted_by(u) == a

    def test_witnesses_differ_by_block_permutation(self):
        lam = parse_partition("2,2", 4)
        a = T("{1,3}{2,4}", 4)
        u = transporter(a)
        for eta in young_subgroup(lam).elements:
            # u composed with any block permutation is another witness
            assert standard_tabloid(lam).acted_by(u * eta) == a


def _random_tabloid_of(rng, lam):
    remaining = list(range(1, lam.d + 1))
    comps = []
    for size in lam.trimmed():
        chosen = rng.sample(remaining, size)
        comps.append(chosen)
        for x in chosen:
            remaining.remove(x)
    return Dissection(comps, lam.d)


class TestOrbitOrder:
    def test_korner_positive(self):
        g = hexagon_group()
        lower = orbit_space(g, parse_partition("3,3", 6))
        upper = orbit_space(g, parse_partition("4,2", 6))
        a_low = lower.orbit_of(T("{1,2,4}{3,5,6}", 6))
        b_up = upper.orbit_of(T("{1,2,3,4}{5,6}", 6))
        assert orbit_leq(a_low, b_up)

    def test_korner_negative(self):
        g = hexagon_group()
        lower = orbit_space(g, parse_partition("3,3", 6))
        upper = orbit_space(g, parse_partition("4,2", 6))
        c_low = lower.orbit_of(T("{1,3,5}{2,4,6}", 6))
        a_up = upper.orbit_of(T("{2,3,5,6}{1,4}", 6))
        # exhaustive translate scan agrees
        assert not any(
            leq_dissection(c_low.representative.acted_by(s), a_up.representative) for s in g.elements
        )
        assert not orbit_leq(c_low, a_up)

    def test_reflexive(self):
        g = klein_group()
        space = orbit_space(g, parse_partition("2,2", 4))
        for o in space:
            assert orbit_leq(o, o)

    def test_representative_independence(self):
        rng = random.Random(36)
        for _ in range(60):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam, mu = rng.choice(all_partitions(d)), rng.choice(all_partitions(d))
            a = rng.choice(orbit_space(w, lam).orbits)
            b = rng.choice(orbit_space(w, mu).orbits)
            expected = orbit_leq(a, b)
            ra = rng.choice(a.members)
            rb = rng.choice(b.members)
            swapped = any(leq_dissection(ra.acted_by(s), rb) for s in w.elements)
            assert swapped == expected


class TestOrbitAdjacentAndCovers:
    def test_adjacent_example(self):
        g = klein_group()
        a = orbit_space(g, parse_partition("2,2", 4)).orbit_of(T("{1,2}{3,4}", 4))
        b = orbit_space(g, parse_partition("3,1", 4)).orbit_of(T("{1,2,3}{4}", 4))
        assert orbit_adjacent(a, b)

    def test_equal_shapes_never_adjacent(self):
        g = klein_group()
        space = orbit_space(g, parse_partition("2,2", 4))
        for a in space:
            for b in space:
                assert not orbit_adjacent(a, b)

    def test_adjacent_pairs_carry_chain_witnesses(self):
        # every adjacent orbit pair admits a translate pair joined by an
        # increasing-index substitution chain, and conversely
        from isomers.dissections import substitution_chain

        for w in (klein_group(), hexagon_group()):
            shapes = all_partitions(w.degree)
            for lam in shapes:
                for mu in shapes:
                    for a in orbit_space(w, lam).orbits:
                        for b in orbit_space(w, mu).orbits:
                            if lam == mu:
                                continue
                            witness = False
                            for s in w.elements:
                                t = a.representative.acted_by(s)
                                if t == b.representative or not leq_dissection(t, b.representative):
                                    continue
                                try:
                                    substitution_chain(t, b.representative)
                                    witness = True
                                    break
                                except ValueError:
                                    continue
                            assert witness == orbit_adjacent(a, b)

    def test_adjacent_is_leq_plus_shape_step(self):
        from isomers.partitions import raising_op

        rng = random.Random(37)
        for _ in range(40):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam, mu = rng.choice(all_partitions(d)), rng.choice(all_partitions(d))
            steps = {
                raising_op(i, j, lam)
                for i in range(1, d + 1)
                for j in range(i + 1, d + 1)
            }
            for a in orbit_space(w, lam).orbits:
                for b in orbit_space(w, mu).orbits:
                    expected = mu.parts in steps and a != b and orbit_leq(a, b)
                    assert orbit_adjacent(a, b) == expected

    def test_korner_edge_is_cover(self):
        g = hexagon_group()
        a = orbit_space(g, parse_partition("3,3", 6)).orbit_of(T("{1,2,4}{3,5,6}", 6))
        b = orbit_space(g, parse_partition("4,2", 6)).orbit_of(T("{2,3,5,6}{1,4}", 6))
        assert orbit_cover(a, b)

    def test_multi_step_reaction_is_not_cover(self):
        g = klein_group()
        a = orbit_space(g, parse_partition("2,1^2", 4)).orbit_of(T("{1,2}{3}{4}", 4))
        b = orbit_space(g, parse_partition("3,1", 4)).orbit_of(T("{1,2,3}{4}", 4))
        assert orbit_leq(a, b)
        assert not orbit_cover(a, b)

    def _hasse_oracle(self, w):
        shapes = all_partitions(w.degree)
        spaces = {lam: orbit_space(w, lam) for lam in shapes}
        nodes = [o for lam in shapes for o in spaces[lam].orbits]
        leq = {}
        for a in nodes:
            for b in nodes:
                leq[(id(a), id(b))] = a is b or (a != b and orbit_leq(a, b))
        covers = set()
        for a in nodes:
            for b in nodes:
                if a is b or not leq[(id(a), id(b))] or a == b:
                    continue
                if not any(
                    c is not a and c is not b and leq[(id(a), id(c))] and leq[(id(c), id(b))]
                    for c in nodes
                ):
                    covers.add((id(a), id(b)))
        return nodes, covers

    @pytest.mark.parametrize("maker", [klein_group, square_group])
    def test_covers_match_hasse_oracle_builtin_groups(self, maker):
        w = maker()
        nodes, covers = self._hasse_oracle(w)
        for a in nodes:
            for b in nodes:
                if a is b:
                    continue
                assert orbit_cover(a, b) == ((id(a), id(b)) in covers)

    def test_covers_match_hasse_oracle_d5_groups(self):
        # degree 5 reaches the regime where tabloid covers may join
        # non-adjacent shapes; the index route must still match
        rng = random.Random(38)
        for _ in range(4):
            w = random_subgroup(rng, 5)
            nodes, covers = self._hasse_oracle(w)
            for a in nodes:
                for b in nodes:
                    if a is b:
                        continue
                    assert orbit_cover(a, b) == ((id(a), id(b)) in covers)


class TestWordComparisonsMatchTranslates:
    """orbit_leq and orbit_cover against their definitions over the translates g.ra."""

    @staticmethod
    def _check_pair(a, b):
        rb = b.representative
        translates = [a.representative.acted_by(g) for g in a.group.elements]
        comparable = [t for t in translates if leq_dissection(t, rb)]
        assert orbit_leq(a, b) == bool(comparable)
        expected_cover = a != b and bool(comparable) and all(is_cover_tabloid(t, rb) for t in comparable)
        assert orbit_cover(a, b) == expected_cover

    @pytest.mark.parametrize("name", ["ethene", "benzene"])
    def test_every_comparable_shape_pair(self, name):
        w = builtin(name).group
        shapes = all_partitions(w.degree)
        for lam in shapes:
            for mu in shapes:
                if not (dominance_leq(lam, mu) or dominance_leq(mu, lam)):
                    continue
                for a in orbit_space(w, lam):
                    for b in orbit_space(w, mu):
                        self._check_pair(a, b)

    @pytest.mark.parametrize("cover", ["4,3,1:4,4", "5,1,1,1:5,2,1"])
    def test_naphthalene_cover(self, cover):
        w = builtin("naphthalene").group
        lo, hi = (orbit_space(w, parse_partition(text, 8)) for text in cover.split(":"))
        for lower, upper in ((lo, hi), (hi, lo)):
            for a in lower:
                for b in upper:
                    self._check_pair(a, b)

    def test_cached_shapes_between(self):
        for d in range(1, 9):
            shapes = raw_partitions(d)
            for lam in shapes:
                for mu in shapes:
                    direct = [nu for nu in shapes if leq_composition(lam, nu) and leq_composition(nu, mu)]
                    between = [nu.parts for nu in shapes_between(lam, mu)]
                    assert between == sorted(direct, reverse=True)  # all_partitions order
        # shapes of different degrees are refused, not read as an interval
        with pytest.raises(ValueError):
            shapes_between(Partition([2, 1], 3), Partition([4], 4))
        with pytest.raises(ValueError):
            shapes_between(Partition([4], 4), Partition([2, 1], 3))


class TestComparablePairs:
    """orbit_poset's pairs against the definition on raw tabloids and raw dominance."""

    @pytest.mark.parametrize("name", ["ethene", "benzene"])
    def test_matches_definition(self, name):
        w = builtin(name).group
        shapes = all_partitions(w.degree)
        pairs = [(a, b) for a, b, _ in orbit_poset(w, shapes)]
        assert all(a.shape != b.shape for a, b in pairs)
        assert len(set(pairs)) == len(pairs)
        expected = set()
        for lam in shapes:
            for mu in shapes:
                if lam == mu or not leq_composition(lam.parts, mu.parts):
                    continue
                for a in orbit_space(w, lam):
                    translates = {act_raw(g.images, a.representative.components) for g in w.elements}
                    for b in orbit_space(w, mu):
                        rb = b.representative.components
                        if any(leq_dissection_raw(t, rb) for t in translates):
                            expected.add((a, b))
        assert set(pairs) == expected

    def test_memory_follows_the_words_at_degree_1000(self):
        # the order reads member words in place: the 1,000 orbits of shape
        # 999,1 under a trivial degree-1000 group cost about their words
        # (8 KB each), not a d^2/8-byte index per member
        import tracemalloc

        w = generate([], degree=1000)
        shapes = [parse_partition("999,1", 1000), parse_partition("1000", 1000)]
        tracemalloc.start()
        try:
            poset = orbit_poset(w, shapes)
            covers = sum(orbit_cover(a, b) for a, b, _ in poset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(poset) == covers == sum(cover for *_, cover in poset) == 1000
        assert peak < 32 * 2**20, peak

    def test_cap_refuses_before_building(self):
        w = generate([], degree=8)
        with pytest.raises(ValueError, match="poset cap"):
            orbit_poset(w, all_partitions(8))
        assert not [key for key in w._memo if key[0] == "orbit_space"]

    def test_tabloid_cap_refuses_before_building(self):
        # the pair bound passes, and the shapes under the cap come first
        w = generate([parse_cycles("(123456789)", 9)])
        with pytest.raises(CapExceeded, match="tabloid cap"):
            orbit_poset(w, [parse_partition(s, 9) for s in ("8,1", "9", "1^9")])
        assert not [key for key in w._memo if key[0] == "orbit_space"]


def dihedral8_group():
    return generate([parse_cycles("(12345678)", 8), parse_cycles("(18)(27)(36)(45)", 8)])


class TestIndexMatchesDefinitions:
    """orbit_poset, orbit_cover and orbit_interval, read off the bitset index, against their definitions.

    orbit_poset's pairs are the orbit_leq scan over every orbit pair of a
    shape step, in its order, and each pair's flag is orbit_cover and the
    witness search over comparable member words; orbit_interval is
    the pointwise word order on both sides over every orbit of every shape
    in the interval.
    """

    # a step with at most ALL_PAIRS orbit pairs also checks that its
    # incomparable pairs are no covers; by default the flags are checked on
    # every pair and the intervals on a stride of at most INTERVALS
    # comparable pairs per step
    ALL_PAIRS = 3000
    INTERVALS = 60
    # a step with no middle shape and one with several
    MIDDLES = {("middle shapes", 0), ("middle shapes", 2)}

    @classmethod
    def _check_step(cls, group, lam, mu, seen, flags=None, intervals=INTERVALS):
        lower, upper = orbit_space(group, lam), orbit_space(group, mu)
        poset = orbit_poset(group, [lam, mu])
        pairs = [(a, b) for a, b, _ in poset]
        assert pairs == [(a, b) for a in lower for b in upper if orbit_leq(a, b)]
        between = shapes_between(lam, mu)
        seen.add(("middle shapes", min(len(between) - 2, 2)))  # none, one, or several
        # flags are checked on a stride of at most `flags` pairs, or on every pair
        stride = (-(-len(poset) // flags) or 1) if flags else 1
        for a, b, cover in poset[::stride]:
            assert cover == orbit_cover(a, b) == orbit_cover_by_witness(a, b), (a, b)
            assert not orbit_cover(b, a)
            seen.add(("cover" if cover else "comparable", len(between) > 2))
            seen.add(("regular lower orbit", a.size == group.order))
        if len(lower) * len(upper) <= cls.ALL_PAIRS:
            comparable = set(pairs)
            for a in lower:
                for b in upper:
                    if (a, b) not in comparable:
                        assert not orbit_cover(a, b) and not orbit_cover(b, a), (a, b)
                        assert not orbit_cover_by_witness(a, b), (a, b)
        for a, b in pairs[:: -(-len(pairs) // intervals) or 1]:
            interval = orbit_interval(a, b)
            assert interval == orbit_interval_by_definition(a, b, [orbit_space(group, nu) for nu in between])
            # b and a are the only orbits of their shapes, and a step with no middle shape holds nothing else
            assert interval[0] == b and interval[-1] == a and (len(between) > 2 or len(interval) == 2)
            # a middle shape whose AND came out empty
            seen.add(("gap", len({c.shape for c in interval}) < len(between)))

    @classmethod
    def _check_group(cls, group, steps=None, flags=None, intervals=INTERVALS):
        seen = set()
        if steps is None:
            shapes = all_partitions(group.degree)
            steps = [(lam, mu) for lam in shapes for mu in shapes if lam != mu and dominance_leq(lam, mu)]
        for lam, mu in steps:
            cls._check_step(group, lam, mu, seen, flags, intervals)
        return seen

    @pytest.mark.parametrize("name", ["ethene", "benzene"])
    def test_builtin_every_comparable_shape_pair(self, name):
        seen = self._check_group(builtin(name).group)
        assert {("cover", False), ("comparable", True), ("regular lower orbit", True)} | self.MIDDLES <= seen

    def test_naphthalene_pairs(self):
        w = builtin("naphthalene").group
        steps = [
            tuple(parse_partition(text, 8) for text in pair.split(":"))
            for pair in (
                "4,3,1:4,4",
                "5,1,1,1:5,2,1",
                "4,2,2:5,3",
                "3,3,1,1:4,4",
                "5,1,1,1:6,2",
                "4,4:8",
                "3,3,1,1:5,3",
                "4,2,1,1:5,2,1",
                "3,2,2,1:4,2,2",
            )
        ]
        seen = self._check_group(w, steps)
        expected = {("cover", False), ("comparable", True), ("gap", True), ("regular lower orbit", True)}
        assert expected | self.MIDDLES <= seen

    def test_naphthalene_every_step_up_to_10000_pairs(self):
        # 87 of the 164 steps under POSET_PAIR_CAP, with 0 to 19 middle
        # shapes; for time, the flags are checked on a stride of at most 100
        # pairs per step and the intervals on a stride of at most 5
        w = builtin("naphthalene").group
        shapes = all_partitions(8)
        steps = [
            (lam, mu)
            for lam in shapes
            for mu in shapes
            if lam != mu
            and dominance_leq(lam, mu)
            and len(orbit_space(w, lam)) * len(orbit_space(w, mu)) <= 10_000
        ]
        seen = self._check_group(w, steps, flags=100, intervals=5)
        assert len(steps) == 87
        assert {len(shapes_between(lam, mu)) - 2 for lam, mu in steps} == set(range(20))
        assert {("cover", False), ("comparable", True), ("regular lower orbit", True)} | self.MIDDLES <= seen

    @pytest.mark.parametrize(
        "gens",
        [["(12)", "(12345)"], ["(123)", "(12345)"], ["(12345)"]],
        ids=["S5", "A5", "C5"],
    )
    def test_degree_5_groups(self, gens):
        seen = self._check_group(generate([parse_cycles(g, 5) for g in gens]))
        assert {("cover", False), ("comparable", True), ("regular lower orbit", True)} | self.MIDDLES <= seen

    def test_dihedral_8(self):
        steps = [
            tuple(parse_partition(text, 8) for text in pair.split(":"))
            for pair in ("4,2,2:5,3", "3,3,1,1:6,2", "5,1,1,1:7,1", "4,4:8", "3,3,2:4,3,1", "4,3,1:4,4")
        ]
        seen = self._check_group(dihedral8_group(), steps)
        expected = {("cover", False), ("cover", True), ("comparable", True), ("gap", True), ("regular lower orbit", True)}
        assert expected | self.MIDDLES <= seen

    @pytest.mark.parametrize("d", range(1, 7))
    def test_trivial_group(self, d):
        # for time, the steps with more than 6,000 orbit pairs are left out:
        # one of 21 at degree 5, 18 of 53 at degree 6 (up to 259,200 pairs)
        w = generate([], degree=d)
        shapes = all_partitions(d)
        steps = [
            (lam, mu)
            for lam in shapes
            for mu in shapes
            if lam != mu and dominance_leq(lam, mu) and len(orbit_space(w, lam)) * len(orbit_space(w, mu)) <= 6_000
        ]
        seen = self._check_group(w, steps)
        assert len(steps) == {1: 0, 2: 1, 3: 3, 4: 10, 5: 20, 6: 35}[d]
        if d >= 2:
            assert {("regular lower orbit", True), ("middle shapes", 0)} <= seen
        if d >= 4:
            assert ("middle shapes", 2) in seen
        if d >= 5:
            assert {("comparable", True), ("gap", True)} <= seen
        if d == 5:
            assert ("cover", True) in seen  # a cover that skips a shape

    def test_incomparable_shapes_give_no_pairs(self):
        w = builtin("benzene").group
        lam, mu = parse_partition("3,3", 6), parse_partition("4,1,1", 6)
        assert orbit_poset(w, [lam, mu]) == orbit_poset(w, [mu, lam]) == []
        assert not any(orbit_cover(a, b) or orbit_cover(b, a) for a in orbit_space(w, lam) for b in orbit_space(w, mu))

    def test_degree_1000_poset_builds_no_column(self, tmp_path, capsys, monkeypatch):
        # every tabloid of 999,1 lies below the one tabloid of 1000, whose
        # word names no level above 1, and the step has no middle shape, so
        # the poset reads no column
        from isomers.cli import main
        from isomers.orbits import _OrbitIndex

        def refuse(*args):
            raise AssertionError("an index column was built")

        monkeypatch.setattr(_OrbitIndex, "_columns", refuse)
        path = tmp_path / "trivial.grp"
        path.write_text("degree 1000\n")
        assert main(["poset", "--group-file", str(path), "--shape", "999,1:1000"]) == 0
        assert capsys.readouterr().out.count("[cover]") == 1000


class TestOrbitInterval:
    def test_singleton(self):
        g = klein_group()
        space = orbit_space(g, parse_partition("2,2", 4))
        for o in space:
            assert orbit_interval(o, o) == [o] == orbit_interval_by_definition(o, o, [space])

    def test_chain_through_middle_shapes(self):
        g = klein_group()
        bottom = orbit_space(g, parse_partition("1^4", 4)).orbit_of(T("{1}{2}{3}{4}", 4))
        top = orbit_space(g, parse_partition("4", 4)).orbits[0]
        got = {(o.shape.trimmed(), o.representative) for o in orbit_interval(bottom, top)}
        shapes = {s for s, _ in got}
        assert (2, 1, 1) in shapes and (2, 2) in shapes and (3, 1) in shapes

    def test_matches_translate_union_route(self):
        # alternative computation: push every tabloid interval through the
        # orbit projection and compare
        g = klein_group()
        shapes = all_partitions(4)
        spaces = {lam: orbit_space(g, lam) for lam in shapes}
        all_orbits = [o for lam in shapes for o in spaces[lam].orbits]

        def project(tabloid):
            return spaces[Partition(tabloid.shape())].orbit_of(tabloid)

        from isomers.dissections import interval_dissections

        for a in all_orbits:
            for b in all_orbits:
                if not orbit_leq(a, b):
                    continue
                via_def = {
                    (o.shape, o.representative) for o in orbit_interval(a, b)
                }
                ra, rb = a.representative, b.representative
                via_thm = set()
                for s in g.elements:
                    t = ra.acted_by(s)
                    if leq_dissection(t, rb):
                        for x in interval_dissections(t, rb):
                            if x.is_tabloid():
                                o = project(x)
                                via_thm.add((o.shape, o.representative))
                assert via_def == via_thm

    def test_rejects_incomparable(self):
        g = klein_group()
        space = orbit_space(g, parse_partition("2,2", 4))
        with pytest.raises(ValueError):
            orbit_interval(space.orbits[0], space.orbits[1])


class TestReactionPairs:
    def test_korner_count(self):
        g = hexagon_group()
        pairs = reaction_pairs(g, parse_partition("3,3", 6), parse_partition("4,2", 6))
        assert len(pairs) == 6

    def test_single_pair(self):
        g = klein_group()
        pairs = reaction_pairs(g, parse_partition("3,1", 4), parse_partition("4", 4))
        assert len(pairs) == 1

    def test_full_symmetric_group(self):
        for d in (3, 4, 5):
            sd = symmetric_group(d)
            for lam in all_partitions(d):
                for mu in all_partitions(d):
                    from isomers.partitions import raising_op

                    if any(
                        mu.parts == raising_op(i, j, lam)
                        for i in range(1, d + 1)
                        for j in range(i + 1, d + 1)
                    ):
                        assert len(reaction_pairs(sd, lam, mu)) == 1

    def test_rejects_non_adjacent(self):
        g = klein_group()
        with pytest.raises(ValueError):
            reaction_pairs(g, parse_partition("1^4", 4), parse_partition("2,2", 4))


class TestCharacterOrbits:
    def test_unit_pair_accepts_everything(self):
        rng = random.Random(39)
        for _ in range(10):
            d = rng.randint(2, 5)
            w = random_subgroup(rng, d)
            lam = rng.choice(all_partitions(d))
            chi = linear_characters(w)[0]
            for o in orbit_space(w, lam):
                assert is_character_orbit(o, chi, (False,) * len(lam.trimmed()))

    def test_klein_characters_separate_block_orbits(self):
        g = klein_group()
        lam = parse_partition("2,2", 4)
        space = orbit_space(g, lam)
        theta = (False, False)
        chi2 = next(
            c
            for c in linear_characters(g)
            if c.order == 2 and c.is_one(parse_cycles("(12)(34)", 4))
        )
        assert is_character_orbit(space.orbit_of(T("{1,2}{3,4}", 4)), chi2, theta)
        assert not is_character_orbit(space.orbit_of(T("{1,4}{2,3}", 4)), chi2, theta)

    def test_trivial_stabilizer_accepts_everything(self):
        g = klein_group()
        lam = parse_partition("2,1^2", 4)
        theta = (True, False, False)
        for chi in linear_characters(g):
            for o in orbit_space(g, lam):
                assert stabilizer(g, o.representative).order == 1
                assert is_character_orbit(o, chi, theta)

    def test_matches_conjugated_theta_oracle(self):
        # theta(u^-1 sigma u) built literally, against the library's sign on
        # the representative's components: every character, every mask
        rng = random.Random(47)
        groups = [builtin("ethene").group, builtin("benzene").group]
        groups += [random_subgroup(rng, rng.randint(2, 6)) for _ in range(8)]
        for w in groups:
            chars = linear_characters(w)
            for lam in all_partitions(w.degree):
                masks = list(itertools.product((False, True), repeat=len(lam.trimmed())))
                for o in orbit_space(w, lam):
                    comps = o.representative.components
                    stab = [g for g in w.elements if act_raw(g.images, comps) == comps]
                    for mask in masks:
                        thetas = [conjugated_theta_exponent(g.images, comps, mask) for g in stab]
                        for chi in chars:
                            expected = all(
                                (Fraction(chi.exponent(g), chi.order) + Fraction(t, 2)).denominator == 1
                                for g, t in zip(stab, thetas)
                            )
                            assert is_character_orbit(o, chi, mask) == expected, (w, o, chi, mask)


class TestKernelOrbitStructure:
    def _builtin_groups(self):
        yield klein_group()
        yield square_group()
        yield hexagon_group()
        yield generate(
            [parse_cycles("(12)(34)(56)(78)", 8), parse_cycles("(13)(24)(57)(68)", 8)]
        )

    def test_kernel_orbit_structure(self):
        # inside one orbit, all kernel-suborbits share a size and their
        # count divides the character's kernel index; the character-orbit
        # test picks out exactly the orbits achieving that index, which is
        # the maximal count (attained on the all-singletons shape)
        for w in self._builtin_groups():
            shapes = [
                lam
                for lam in all_partitions(w.degree)
                if w.degree <= 6 or lam.trimmed()[0] >= w.degree - 4
            ]  # keep the degree-8 skeleton inside a sane budget here
            for chi in linear_characters(w):
                kernel = generate(chi.kernel_elements(), degree=w.degree)
                index = w.order // kernel.order
                max_seen = 0
                for lam in shapes:
                    theta = (False,) * len(lam.trimmed())
                    fine = orbit_space(kernel, lam)
                    mapping = refine(orbit_space(w, lam), fine)
                    for coarse, fines in mapping.items():
                        sizes = {f.size for f in fines}
                        assert len(sizes) == 1
                        assert index % len(fines) == 0
                        assert is_character_orbit(coarse, chi, theta) == (len(fines) == index)
                        max_seen = max(max_seen, len(fines))
                assert max_seen == index


class TestRefine:
    def test_ethene_structural_merges_monosub(self):
        fine = orbit_space(klein_group(), parse_partition("1^4", 4))
        coarse = orbit_space(square_group(), parse_partition("1^4", 4))
        mapping = refine(coarse, fine)
        u = coarse.orbit_of(T("{1}{2}{3}{4}", 4))
        v = coarse.orbit_of(T("{1}{2}{4}{3}", 4))
        w = coarse.orbit_of(T("{1}{3}{2}{4}", 4))
        fine_reps = {c: {f.representative for f in fs} for c, fs in mapping.items()}
        a = fine.orbit_of(T("{1}{2}{3}{4}", 4)).representative
        h = fine.orbit_of(T("{3}{2}{1}{4}", 4)).representative
        b = fine.orbit_of(T("{1}{2}{4}{3}", 4)).representative
        c = fine.orbit_of(T("{1}{4}{2}{3}", 4)).representative
        e = fine.orbit_of(T("{1}{3}{2}{4}", 4)).representative
        f = fine.orbit_of(T("{3}{1}{2}{4}", 4)).representative
        assert fine_reps[u] == {a, h}
        assert fine_reps[v] == {b, c}
        assert fine_reps[w] == {e, f}

    def test_ethene_structural_merges_disub(self):
        fine = orbit_space(klein_group(), parse_partition("2,2", 4))
        coarse = orbit_space(square_group(), parse_partition("2,2", 4))
        mapping = refine(coarse, fine)
        u = coarse.orbit_of(T("{1,2}{3,4}", 4))
        v = coarse.orbit_of(T("{1,3}{2,4}", 4))
        assert {f.representative for f in mapping[u]} == {
            fine.orbit_of(T("{1,2}{3,4}", 4)).representative,
            fine.orbit_of(T("{1,4}{2,3}", 4)).representative,
        }
        assert len(mapping[v]) == 1

    def test_equal_groups_identity(self):
        g = klein_group()
        space = orbit_space(g, parse_partition("2,2", 4))
        mapping = refine(space, space)
        for coarse, fines in mapping.items():
            assert fines == (coarse,)


class TestClassifyChiral:
    def test_degenerate_equal_groups(self):
        g = klein_group()
        report = classify_chiral(g, g, parse_partition("2,2", 4))
        assert all(not e.is_pair for e in report.entries)

    def test_alternating_inside_symmetric(self):
        s3 = symmetric_group(3)
        a3 = generate([parse_cycles("(123)", 3)])
        report = classify_chiral(a3, s3, parse_partition("1,1,1", 3))
        assert len(report.entries) == 1
        entry = report.entries[0]
        assert entry.is_pair and entry.chi_e_orbit and len(entry.fine_orbits) == 2

    def test_klein_inside_square_group(self):
        report = classify_chiral(klein_group(), square_group(), parse_partition("2,1^2", 4))
        kinds = sorted((len(e.fine_orbits), e.is_pair) for e in report.entries)
        assert kinds == [(1, False), (2, True)]

    def test_rejects_bad_index(self):
        s4 = symmetric_group(4)
        with pytest.raises(ValueError):
            classify_chiral(klein_group(), s4, parse_partition("2,2", 4))


class TestValueTypes:
    def test_orbit_compares_and_hashes_by_identity(self):
        space = orbit_space(hexagon_group(), parse_partition("4,2", 6))
        a = space.orbits[0]
        twin = Orbit(a.group, a.shape, a.words)
        assert a == a and a != twin and hash(a) == object.__hash__(a) and hash(twin) == object.__hash__(twin)
        assert {a: 0}.get(twin) is None
        assert Orbit.__slots__ == ("group", "shape", "words")  # nothing is cached per member
        with pytest.raises(AttributeError):
            a.members = ()

    def test_orbit_space_is_a_frozen_value(self):
        space = orbit_space(hexagon_group(), parse_partition("4,2", 6))
        copy = OrbitSpace(space.group, space.shape, space.orbits)
        assert copy == space and hash(copy) == hash(space) and copy.positions == space.positions
        assert copy != OrbitSpace(space.group, space.shape, space.orbits[1:])
        with pytest.raises(AttributeError):
            space.orbits = ()

    def test_chiral_records_are_frozen_values(self):
        s3 = symmetric_group(3)
        a3 = generate([parse_cycles("(123)", 3)])
        lam = parse_partition("1,1,1", 3)
        report = classify_chiral(a3, s3, lam)
        assert report == classify_chiral(a3, s3, lam) and hash(report) == hash(classify_chiral(a3, s3, lam))
        entry = report.entries[0]
        assert entry == ChiralEntry(
            coarse=entry.coarse, fine_orbits=entry.fine_orbits, is_pair=True, chi_e_orbit=True
        )
        assert entry != ChiralEntry(entry.coarse, entry.fine_orbits, False, True)
        with pytest.raises(AttributeError):
            entry.is_pair = False
        with pytest.raises(AttributeError):
            report.entries = ()


class TestBlockCharacterSymmetry:
    def test_diastereomer_pair_sits_in_symmetric_difference(self):
        # the two paired-block orbits are separated by the two non-kernel
        # characters individually, but swapping the characters (a
        # relabeling automorphism of the group) swaps the orbits, so the
        # pair lands inside the symmetric difference of the two orbit sets
        g = klein_group()
        lam = parse_partition("2,2", 4)
        space = orbit_space(g, lam)
        theta = (False, False)
        chi2 = next(
            c for c in linear_characters(g) if c.order == 2 and c.is_one(parse_cycles("(12)(34)", 4))
        )
        chi3 = next(
            c for c in linear_characters(g) if c.order == 2 and c.is_one(parse_cycles("(14)(23)", 4))
        )
        a = space.orbit_of(T("{1,2}{3,4}", 4))
        b = space.orbit_of(T("{1,4}{2,3}", 4))
        via_chi2 = {o.representative for o in space if is_character_orbit(o, chi2, theta)}
        via_chi3 = {o.representative for o in space if is_character_orbit(o, chi3, theta)}
        sym_diff = via_chi2 ^ via_chi3
        assert a.representative in sym_diff and b.representative in sym_diff
        # the relabeling (2 4) conjugates the group onto itself and swaps
        # the kernels of the two characters
        relabel = parse_cycles("(24)", 4)
        conjugated = {relabel * x * relabel.inverse() for x in g.elements}
        assert conjugated == set(g.elements)
        swapped_kernel = {relabel * x * relabel.inverse() for x in chi2.kernel_elements()}
        assert swapped_kernel == set(chi3.kernel_elements())


class TestTranslateCoverLift:
    def test_translated_covers_stay_covers(self):
        # a cover pair in the dissection order stays a cover after any
        # group translate of the lower element that remains comparable
        rng = random.Random(40)
        hits = 0
        while hits < 60:
            d = rng.randint(2, 5)
            a = _random_dissection(rng, d)
            candidates = [
                (i, s)
                for i in range(1, d)
                for s in range(1, d + 1)
                if a.component_of(s) == i + 1
            ]
            if not candidates:
                continue
            i, s = rng.choice(candidates)
            b = raise_into(i, s, a)
            zeta = random_permutation(rng, d)
            ta = a.acted_by(zeta)
            if ta == b or not leq_dissection(ta, b):
                continue
            hits += 1
            assert is_cover_dissection(ta, b)


def _random_dissection(rng, d):
    comps = [[] for _ in range(d)]
    for point in range(1, d + 1):
        comps[rng.randrange(d)].append(point)
    return Dissection(comps)
