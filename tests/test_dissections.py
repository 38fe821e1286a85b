import math
import random
from itertools import product

import pytest

from isomers.dissections import (
    Dissection,
    _assign_words,
    all_tabloids,
    format_tabloid,
    interval_dissections,
    is_cover_dissection,
    is_cover_tabloid,
    leq_dissection,
    lift_shape,
    parse_tabloid,
    raise_into,
    raising_moves,
    standard_tabloid,
    substitution_chain,
    tabloid_formatter,
    word_formatter,
    tabloid_words,
)
from isomers.partitions import Partition, all_partitions, dominance_leq, parse_partition
from isomers.perms import generate, parse_cycles

from oracles import (
    act_raw,
    all_dissections,
    components_of_word,
    covers_bitset,
    covers_from_leq,
    interval_dissections_raw,
    interval_shapes,
    leq_dissection_raw,
    raise_into_raw,
    random_permutation,
    random_subgroup,
    raw_compositions,
    raw_tabloids_of_shape,
    symmetric_group,
)


def T(text, d):
    return parse_tabloid(text, d)


def random_dissection(rng, d):
    comps = [[] for _ in range(d)]
    for point in range(1, d + 1):
        comps[rng.randrange(d)].append(point)
    return Dissection(comps)


def raise_all(i, xs, a):
    """raise_into for every element of xs, in order."""
    for s in xs:
        a = raise_into(i, s, a)
    return a


def feasible(a, b, n):
    """Whether the interval [a, b] holds a dissection of shape n, by the earliest-deadline core."""
    return _assign_words(a.row_word(), b.row_word(), tuple(n)) is not None


def comparable_pairs_upto_4():
    """Every ordered pair a <= b of dissections of degree at most 4, by the raw oracle."""
    for d in range(1, 5):
        univ = all_dissections(d)
        for a in univ:
            for b in univ:
                if leq_dissection_raw(a.components, b.components):
                    yield a, b


def raw_component(a, s):
    """The component of a holding point s, read off the component tuples."""
    return next(k for k, comp in enumerate(a.components, start=1) if s in comp)


def random_tabloid(rng, d):
    lam = rng.choice(all_partitions(d))
    comps = []
    remaining = list(range(1, d + 1))
    for size in lam.trimmed():
        chosen = rng.sample(remaining, size)
        comps.append(chosen)
        for x in chosen:
            remaining.remove(x)
    return Dissection(comps, d)


class TestShapeAndEpsilon:
    def test_shape(self):
        assert T("{1,2}{3,4}", 4).shape() == (2, 2, 0, 0)

    def test_catalog_tabloid_shape(self):
        assert T("{2,3,5,6}{1,4}", 6).shape() == (4, 2, 0, 0, 0, 0)

    def test_shape_invariant_under_action(self):
        rng = random.Random(1)
        for _ in range(40):
            d = rng.randint(1, 7)
            a = random_dissection(rng, d)
            g = random_permutation(rng, d)
            assert a.acted_by(g).shape() == a.shape()

    def test_component_of(self):
        a = T("{1,2}{3,4}", 4)
        assert a.component_of(3) == 2
        assert a.component_of(1) == 1

    def test_standard_tabloid_blocks(self):
        lam = parse_partition("3,2,1", 6)
        std = standard_tabloid(lam)
        assert std.components == ((1, 2, 3), (4, 5), (6,), (), (), ())
        for k, comp in enumerate(std.components, start=1):
            for s in comp:
                assert std.component_of(s) == k

    def test_epsilon_decreases_under_raising(self):
        rng = random.Random(2)
        for _ in range(60):
            d = rng.randint(2, 7)
            a = random_dissection(rng, d)
            i, s = rng.randint(1, d), rng.randint(1, d)
            b = raise_into(i, s, a)
            for x in range(1, d + 1):
                assert b.component_of(x) <= a.component_of(x)


class TestDominance:
    def test_reflexive(self):
        a = T("{1,2}{3}", 3)
        assert leq_dissection(a, a)

    def test_hexagon_catalog_pair(self):
        a = T("{1,2,4}{3,5,6}", 6)
        b = T("{2,3,5,6}{1,4}", 6).acted_by(parse_cycles("(135)(246)", 6))
        assert leq_dissection(a, b)

    def test_matches_raw_oracle(self):
        rng = random.Random(3)
        for _ in range(300):
            d = rng.randint(1, 6)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            assert leq_dissection(a, b) == leq_dissection_raw(a.components, b.components)
        for d in range(1, 5):
            univ = all_dissections(d)
            for a in univ:
                for b in univ:
                    assert leq_dissection(a, b) == leq_dissection_raw(a.components, b.components)

    def test_shape_map_is_monotone(self):
        rng = random.Random(4)
        for _ in range(300):
            d = rng.randint(1, 7)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if leq_dissection(a, b):
                assert dominance_leq(a.shape(), b.shape())

    def test_rigidity_equal_shapes(self):
        # equal shapes plus comparability force equality; exhaustive小 d
        for d in (2, 3, 4):
            univ = all_dissections(d)
            for a in univ:
                for b in univ:
                    if leq_dissection(a, b) and a.shape() == b.shape():
                        assert a == b


class TestRaiseOps:
    def test_single_move(self):
        a = T("{1,2}{3,4}", 4)
        assert raise_into(1, 3, a) == T("{1,2,3}{4}", 4)

    def test_identity_when_already_early(self):
        a = T("{1,2}{3,4}", 4)
        assert raise_into(2, 1, a) == a

    def test_shape_matches_part_raise(self):
        from isomers.partitions import raising_op

        rng = random.Random(5)
        for _ in range(200):
            d = rng.randint(2, 7)
            a = random_dissection(rng, d)
            i, s = rng.randint(1, d), rng.randint(1, d)
            j = a.component_of(s)
            b = raise_into(i, s, a)
            assert b.shape() == raising_op(i, j, a.shape())

    def test_empty_set_is_identity(self):
        # no move, or only moves into an element's own or a later component, leave a as it is
        a = T("{1,2}{3,4}", 4)
        assert raise_all(1, [], a) == a
        assert raise_all(2, [1, 2, 3, 4], a) == a

    def test_set_action_order_free(self):
        rng = random.Random(6)
        for _ in range(100):
            d = rng.randint(2, 6)
            a = random_dissection(rng, d)
            xs = rng.sample(range(1, d + 1), rng.randint(0, d))
            i = rng.randint(1, d)
            shuffled = xs[:]
            rng.shuffle(shuffled)
            assert raise_all(i, xs, a) == raise_all(i, shuffled, a)

    def test_set_shape_identity(self):
        from isomers.partitions import raising_op

        rng = random.Random(7)
        for _ in range(150):
            d = rng.randint(2, 6)
            a = random_dissection(rng, d)
            xs = rng.sample(range(1, d + 1), rng.randint(2, d))
            i = rng.randint(1, d)
            expected = a.shape()
            for s in xs:
                expected = raising_op(i, a.component_of(s), expected)
            assert raise_all(i, xs, a).shape() == expected

    def test_monotone(self):
        rng = random.Random(8)
        for _ in range(150):
            d = rng.randint(2, 6)
            a = random_dissection(rng, d)
            i, s = rng.randint(1, d), rng.randint(1, d)
            b = raise_into(i, s, a)
            assert leq_dissection(a, b)
            if a.component_of(s) > i:
                assert a != b

    @pytest.mark.parametrize("i", [0, -1, 5])
    def test_rejects_component_index_outside_degree(self, i):
        a = T("{1,2}{3}{4}", 4)
        with pytest.raises(ValueError, match="component index"):
            raise_into(i, 3, a)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_commutation_exhaustive(self, d):
        points = range(1, d + 1)
        for a in all_dissections(d):
            for i1 in points:
                for s1 in points:
                    for i2 in points:
                        for s2 in points:
                            x = raise_into(i1, s1, raise_into(i2, s2, a))
                            y = raise_into(i2, s2, raise_into(i1, s1, a))
                            assert x == y


def word_cases():
    """Every row-word of degree 0-4, by all_dissections, then a seeded sample of 300 at degree 5."""
    words = []
    for d in range(5):
        got = [a.row_word() for a in all_dissections(d)]
        assert sorted(got) == list(product(range(1, d + 1), repeat=d))
        words.extend(got)
    rng = random.Random(41)
    return words + [tuple(rng.randint(1, 5) for _ in range(5)) for _ in range(300)]


class TestWordPrimary:
    """A Dissection stores its row-word: the unchecked word constructor against
    the validating component one, and each word operation against a
    component-wise reference."""

    def test_trusted_matches_validating_constructor(self):
        by_degree: dict[int, list] = {}
        for w in word_cases():
            comps = components_of_word(w)
            t, v = Dissection._trusted(w), Dissection(comps)
            assert t.components == v.components == comps
            assert t.row_word() == v.row_word() == w
            assert t == v and hash(t) == hash(v)
            assert t.shape() == v.shape() == tuple(map(len, comps))
            assert format_tabloid(t) == format_tabloid(v) == "".join("{" + ",".join(map(str, c)) + "}" for c in comps)
            by_degree.setdefault(len(w), []).append((t, v, comps))
        rng = random.Random(42)
        for d, cases in by_degree.items():
            pairs = product(cases, repeat=2) if d <= 3 else (rng.sample(cases, 2) for _ in range(2000))
            for (t1, v1, c1), (t2, v2, c2) in pairs:
                assert (t1 < v2) == (v1 < t2) == (c1 < c2)
                assert (t1 <= v2) == (v1 <= t2) == (c1 <= c2)
                assert (t1 == v2) == (c1 == c2)

    def test_acted_by_matches_raw_action(self):
        rng = random.Random(43)
        groups = {0: generate([], degree=0), 1: generate([], degree=1)}
        groups.update({d: symmetric_group(d) for d in range(2, 5)})
        groups[5] = random_subgroup(rng, 5)
        assert any(g != g.inverse() for g in groups[5].elements)  # so g and its inverse act apart
        for w in word_cases():
            comps = components_of_word(w)
            for g in groups[len(w)].elements:
                moved = Dissection._trusted(w).acted_by(g)
                assert moved.components == act_raw(g.images, comps)
                assert moved == Dissection(comps).acted_by(g) == Dissection(act_raw(g.images, comps))

    def test_raise_into_matches_raw_move(self):
        for w in word_cases():
            comps = components_of_word(w)
            a = Dissection._trusted(w)
            for i in range(1, len(w) + 1):
                for s in range(1, len(w) + 1):
                    raised = raise_into(i, s, a)
                    assert raised.components == raise_into_raw(i, s, comps)
                    assert raised == Dissection(raise_into_raw(i, s, comps))


class TestRaisingMoves:
    def test_equal_gives_empty(self):
        a = T("{1,2}{3}", 3)
        assert raising_moves(a, a) == []

    def test_absent_when_incomparable(self):
        a = T("{3}{1,2}", 3)
        b = T("{1,2}{3}", 3)
        assert raising_moves(b, a) is None or raising_moves(b, a) == []
        assert raising_moves(T("{2}{1}{3}", 3), T("{1}{2}{3}", 3)) is None

    def test_replay_random(self):
        rng = random.Random(9)
        count = 0
        while count < 200:
            d = rng.randint(2, 6)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if not leq_dissection(a, b):
                assert raising_moves(a, b) is None
                continue
            count += 1
            moves = raising_moves(a, b)
            cur = a
            for i, s in moves:
                cur = raise_into(i, s, cur)
            assert cur == b

    def test_each_point_moves_once_into_its_component_exhaustive(self):
        pairs = 0
        for a, b in comparable_pairs_upto_4():
            pairs += 1
            moves = raising_moves(a, b)
            assert moves == sorted(moves)  # (component, point) order
            moved = [s for _, s in moves]
            assert len(moved) == len(set(moved))
            assert set(moved) == {s for s in range(1, a.degree + 1) if raw_component(a, s) != raw_component(b, s)}
            cur = a
            for i, s in moves:
                assert i == raw_component(b, s) < raw_component(a, s)
                cur = raise_into(i, s, cur)
            assert cur == b
        assert pairs == 10226


class TestLiftShape:
    def test_trivial_target(self):
        a = T("{1}{2}{3}", 3)
        b = T("{1,2,3}", 3)
        assert lift_shape(a, b, a.shape()) == a

    def test_target_at_top_gives_b(self):
        rng = random.Random(10)
        for _ in range(100):
            d = rng.randint(2, 6)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if leq_dissection(a, b):
                assert lift_shape(a, b, b.shape()) == b

    def test_random_triples(self):
        # every shape in the dominance interval either lifts with all three
        # postconditions or is genuinely absent from the interval
        rng = random.Random(11)
        hits = 0
        while hits < 120:
            d = rng.randint(2, 5)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if not leq_dissection(a, b):
                continue
            mids = [
                n
                for n in raw_compositions(d)
                if dominance_leq(a.shape(), n) and dominance_leq(n, b.shape())
            ]
            n = rng.choice(mids)
            realizable = {
                tuple(len(c) for c in x)
                for x in interval_dissections_raw(a.components, b.components, d)
                if leq_dissection_raw(a.components, x) and leq_dissection_raw(x, b.components)
            }
            if n in realizable:
                x = lift_shape(a, b, n)
                assert Dissection(x.components) == x  # built unchecked, so validate it here
                assert x.shape() == tuple(n)
                assert leq_dissection(a, x) and leq_dissection(x, b)
            else:
                with pytest.raises(ValueError):
                    lift_shape(a, b, n)
            hits += 1

    def test_feasibility_matches_raw_enumeration(self):
        rng = random.Random(18)
        hits = 0
        while hits < 60:
            d = rng.randint(2, 5)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if not leq_dissection(a, b):
                continue
            hits += 1
            realizable = {
                tuple(len(c) for c in x)
                for x in interval_dissections_raw(a.components, b.components, d)
                if leq_dissection_raw(a.components, x) and leq_dissection_raw(x, b.components)
            }
            for n in raw_compositions(d):
                assert feasible(a, b, n) == (n in realizable)

    def test_feasibility_exhaustive_tabloid_pairs_d5(self):
        # every comparable tabloid pair at five points, every partition:
        # the deadline-driven feasibility decision must match the set of
        # shapes actually present in the raw interval

        tabs = sorted({t for lam in all_partitions(5) for t in all_tabloids(lam)})
        n = len(tabs)
        up = [0] * n
        for i, a in enumerate(tabs):
            for j, b in enumerate(tabs):
                if leq_dissection(a, b):
                    up[i] |= 1 << j
        shapes = [p.parts for p in all_partitions(5)]
        checked = 0
        for i, a in enumerate(tabs):
            for j, b in enumerate(tabs):
                if not (up[i] >> j) & 1:
                    continue
                present = set()
                m = up[i]
                while m:
                    low = m & -m
                    k = low.bit_length() - 1
                    m ^= low
                    if (up[k] >> j) & 1 or k == j:
                        present.add(tabs[k].shape())
                for nu in shapes:
                    if dominance_leq(a.shape(), nu) and dominance_leq(nu, b.shape()):
                        assert feasible(a, b, nu) == (nu in present)
                        checked += 1
        assert checked > 10000

    def test_known_unreachable_shape(self):
        # the dominance interval admits (1,3,0,0,1) but the dissection
        # interval provably contains no dissection of that shape

        a = Dissection([(4,), (), (5,), (), (1, 2, 3)])
        b = Dissection([(3, 4), (1, 2), (5,), (), ()])
        n = (1, 3, 0, 0, 1)
        assert leq_dissection(a, b)
        assert dominance_leq(a.shape(), n) and dominance_leq(n, b.shape())
        assert not feasible(a, b, n)
        with pytest.raises(ValueError):
            lift_shape(a, b, n)

    def test_word_core_matches_lift_shape(self):
        # the unchecked row-word core, which the orbit-cover witness oracle
        # in oracles.py calls, gives lift_shape's word, and that word has
        # shape n inside the raw interval; None, where lift_shape raises,
        # means n is absent from the raw interval
        def check(a, b, n, realizable):
            word = _assign_words(a.row_word(), b.row_word(), n)
            try:
                x = lift_shape(a, b, n)
            except ValueError:
                x = None
            assert word == (None if x is None else x.row_word())
            assert (word is not None) == (n in realizable)
            if word is not None:
                comps = components_of_word(word)
                assert tuple(map(len, comps)) == n
                assert leq_dissection_raw(a.components, comps) and leq_dissection_raw(comps, b.components)

        def realizable_shapes(a, b):
            if not leq_dissection_raw(a.components, b.components):
                return set()
            raw = interval_dissections_raw(a.components, b.components, a.degree)
            return {
                tuple(map(len, x))
                for x in raw
                if leq_dissection_raw(a.components, x) and leq_dissection_raw(x, b.components)
            }

        for d in range(1, 4):
            univ = all_dissections(d)
            for a in univ:
                for b in univ:
                    realizable = realizable_shapes(a, b)
                    for n in raw_compositions(d):
                        check(a, b, n, realizable)
        compositions = {d: raw_compositions(d) for d in range(4, 9)}
        rng = random.Random(19)
        for _ in range(150):
            d = rng.randint(4, 8)
            a = b = random_dissection(rng, d)
            for _ in range(rng.randint(0, 4)):
                b = raise_into(rng.randint(1, d), rng.randint(1, d), b)
            if rng.random() < 0.2:
                a, b = b, a
            realizable = realizable_shapes(a, b)
            targets = [rng.choice(compositions[d])] + ([rng.choice(sorted(realizable))] if realizable else [])
            for n in targets:
                check(a, b, n, realizable)

    def test_rejects_outside_interval(self):
        a = T("{1}{2}{3}", 3)
        b = T("{1,2,3}", 3)
        with pytest.raises(ValueError):
            lift_shape(a, b, (0, 0, 3))

    @pytest.mark.parametrize(
        "n",
        [(2, 1), (2, 1, 0, 0), (3, 1, -1), (2, 2, 0), (1, 1, 0)],
        ids=["short", "long", "negative", "sum_above", "sum_below"],
    )
    def test_rejects_malformed_target(self, n):
        # wrong length, a negative entry, a sum above or below the degree:
        # the checks before the unchecked core refuse each one
        a = T("{1}{2}{3}", 3)
        b = T("{1,2,3}", 3)
        with pytest.raises(ValueError):
            lift_shape(a, b, n)


class TestIntervalShapes:
    def test_singleton(self):
        a = T("{1,2}{3}", 3)
        assert interval_shapes(a, a) == {a.shape()}

    def test_adjacent_hexagon_pair(self):
        a = T("{1,2,4}{3,5,6}", 6)
        b = T("{1,2,4,5}{3,6}", 6)
        assert interval_shapes(a, b) == {(3, 3, 0, 0, 0, 0), (4, 2, 0, 0, 0, 0)}

    def test_image_is_feasible_part_of_dominance_interval(self):
        # the attained shapes are exactly the feasible members of the
        # dominance interval; the containment can be strict from d=4 up
        rng = random.Random(12)
        hits = 0
        while hits < 60:
            d = rng.randint(2, 5)
            a, b = random_dissection(rng, d), random_dissection(rng, d)
            if not leq_dissection(a, b):
                continue
            hits += 1
            interval = {
                tuple(n)
                for n in raw_compositions(d)
                if dominance_leq(a.shape(), n) and dominance_leq(n, b.shape())
            }
            attained = interval_shapes(a, b)
            assert attained <= interval
            assert attained == {n for n in interval if feasible(a, b, n)}

    def test_tabloid_intervals_have_shape_gaps_from_d5(self):
        # frozen counterexample: the middle partition (3,1,1) sits between
        # the shapes in dominance yet no tabloid of that shape sits between
        # the tabloids, so the pair is a cover across non-adjacent shapes

        a = T("{1,2}{3,4}{5}", 5)
        b = T("{1,2,5}{3,4}", 5)
        assert leq_dissection(a, b)
        mid = (3, 1, 1, 0, 0)
        assert dominance_leq(a.shape(), mid) and dominance_leq(mid, b.shape())
        assert not feasible(a, b, mid)
        tabloid_shapes = {x.shape() for x in interval_dissections(a, b) if x.is_tabloid()}
        assert tabloid_shapes == {a.shape(), b.shape()}
        assert is_cover_tabloid(a, b)

    def test_interval_matches_raw_enumeration(self):
        pairs = 0
        for a, b in comparable_pairs_upto_4():
            pairs += 1
            got = [x.components for x in interval_dissections(a, b)]
            raw = {
                x
                for x in interval_dissections_raw(a.components, b.components, a.degree)
                if leq_dissection_raw(a.components, x) and leq_dissection_raw(x, b.components)
            }
            assert got == sorted(raw)
        assert pairs == 10226


class TestSubstitutionChain:
    def test_strongly_adjacent_single_move(self):
        a = T("{1,2}{3,4}", 4)
        b = raise_into(1, 3, a)
        chain = substitution_chain(a, b)
        assert chain == [(1, 3)]

    def test_known_two_step(self):
        a = T("{1,2}{3}{4}", 4)
        b = T("{1,2,4}{3}", 4)
        chain = substitution_chain(a, b)
        cur = a
        for i, s in chain:
            cur = raise_into(i, s, cur)
        assert cur == b
        indices = [i for i, _ in chain]
        assert indices == sorted(indices)

    def test_random_adjacent_pairs_replay(self):
        rng = random.Random(14)
        hits = 0
        while hits < 200:
            d = rng.randint(2, 6)
            a = random_dissection(rng, d)
            i, s = rng.randint(1, d), rng.randint(1, d)
            b = raise_into(i, s, a)
            if a == b:
                continue
            hits += 1
            chain = substitution_chain(a, b)
            cur = a
            prev_i = 0
            for ci, cs in chain:
                assert ci > prev_i
                prev_i = ci
                nxt = a.component_of(cs)
                assert nxt > ci
                cur = raise_into(ci, cs, cur)
            assert cur == b

    def test_is_raising_moves_exhaustive(self):
        # every pair of degree <= 4 it accepts: the chain is the pointwise move list
        accepted = 0
        for a, b in comparable_pairs_upto_4():
            try:
                chain = substitution_chain(a, b)
            except ValueError:
                continue
            accepted += 1
            assert chain == raising_moves(a, b)
        assert accepted == 2503

    def test_rejects_non_adjacent(self):
        a = T("{1}{2}{3}{4}", 4)
        b = T("{1,2}{3,4}", 4)
        with pytest.raises(ValueError):
            substitution_chain(a, b)


class TestCovers:
    def test_simple_dissection_cover(self):
        a = T("{1}{2}{3}", 3)
        b = Dissection([(1, 2), (), (3,)])
        assert is_cover_dissection(a, b)
        assert not is_cover_dissection(a, a)

    def test_dissection_covers_match_oracle_d4(self):
        univ = all_dissections(4)
        oracle = covers_bitset(univ, leq_dissection)
        claimed = set()
        for a in univ:
            for i in range(1, 4):
                for s in range(1, 5):
                    if a.component_of(s) == i + 1:
                        b = raise_into(i, s, a)
                        assert is_cover_dissection(a, b)
                        claimed.add((a, b))
        assert claimed == oracle
        rng = random.Random(15)
        for _ in range(500):
            a, b = rng.choice(univ), rng.choice(univ)
            assert is_cover_dissection(a, b) == ((a, b) in oracle)

    def test_tabloid_cover_requires_shape_cover(self):
        a = T("{1}{2}{3}{4}", 4)
        b = T("{1,2}{3,4}", 4)
        assert not is_cover_tabloid(a, b)

    def test_hexagon_cover_pair(self):
        a = T("{1,3,5}{2,4,6}", 6)
        b = T("{2,4,5,6}{1,3}", 6).acted_by(parse_cycles("(123456)", 6))
        assert leq_dissection(a, b)
        assert is_cover_tabloid(a, b)

    @pytest.mark.parametrize("d", [3, 4])
    def test_tabloid_covers_match_oracle_exhaustive(self, d):
        univ = sorted({t for lam in all_partitions(d) for t in all_tabloids(lam)})
        oracle = covers_from_leq(univ, leq_dissection)
        for a in univ:
            for b in univ:
                assert is_cover_tabloid(a, b) == ((a, b) in oracle)


class TestAllTabloids:
    def test_counts(self):
        assert len(all_tabloids(parse_partition("4,2", 6))) == 15
        assert len(all_tabloids(parse_partition("6", 6))) == 1
        assert len(all_tabloids(parse_partition("3,3", 6))) == 20

    def test_equal_blocks_are_positional(self):
        tabs = all_tabloids(parse_partition("3,3", 6))
        assert T("{1,2,3}{4,5,6}", 6) in tabs
        assert T("{4,5,6}{1,2,3}", 6) in tabs

    def test_multinomial_count(self):
        for d in range(1, 9):
            for lam in all_partitions(d):
                expected = math.factorial(d) // math.prod(math.factorial(k) for k in lam.trimmed())
                assert len(all_tabloids(lam)) == expected

    def test_canonical_order(self):
        # the enumerator emits canonical order without a final sort, and its
        # unchecked components are the ones the validating constructor stores
        for d in range(1, 8):
            for lam in all_partitions(d):
                tabs = all_tabloids(lam)
                assert tabs == sorted(tabs)
                assert [t.components for t in tabs] == raw_tabloids_of_shape(lam.trimmed())
                assert all(Dissection(t.components).components == t.components for t in tabs)

    def test_row_words(self):
        for lam in all_partitions(5):
            for word, t in zip(tabloid_words(lam), all_tabloids(lam), strict=True):
                comps = tuple(tuple(x for x in range(1, 6) if word[x - 1] == k) for k in range(1, 6))
                assert comps == t.components
                assert word == t.row_word() == tuple(t.component_of(x) for x in range(1, 6))
                assert word == Dissection(t.components).row_word()  # rebuilt from the components

    def test_words_match_raw_tabloids_exhaustive(self):
        # every shape of degree 0-7: the gathered words come in the oracle's
        # order, and each is the row-word of the matching all_tabloids member
        assert all_tabloids(Partition(())) == [Dissection(())]
        for d in range(0, 8):
            for lam in all_partitions(d) if d else [Partition(())]:
                words = tabloid_words(lam)
                tabs = all_tabloids(lam)
                raw = raw_tabloids_of_shape(lam.trimmed())
                assert len(words) == len(tabs) == len(raw)
                for word, t, comps in zip(words, tabs, raw):
                    assert t.components == comps
                    assert word == tuple(next(k for k, c in enumerate(comps, 1) if x in c) for x in range(1, d + 1))
                    assert word == t.row_word()


class TestTextFormat:
    def test_format_full_components(self):
        a = T("{2,3,5,6}{1,4}", 6)
        assert format_tabloid(a) == "{2,3,5,6}{1,4}{}{}{}{}"

    def test_parse_trailing_empties_optional(self):
        assert T("{1,2}{3,4}", 4) == T("{1,2}{3,4}{}{}", 4)

    def test_parse_without_degree_drops_trailing_empties(self):
        # the degree is the number of points; empty components past it go, non-empty ones are refused
        assert parse_tabloid("{1,2}{3}{}{}{}") == parse_tabloid("{1,2}{3}") == T("{1,2}{3}", 3)
        assert parse_tabloid("{}{1,2}{3}{}").components == ((), (1, 2), (3,))
        for text in ("{}{}{1}", "{1}{}{}{2}{}"):
            with pytest.raises(ValueError, match="components"):
                parse_tabloid(text)

    def test_roundtrip(self):
        rng = random.Random(16)
        for _ in range(50):
            d = rng.randint(1, 8)
            a = random_dissection(rng, d)
            assert parse_tabloid(format_tabloid(a), d) == a

    def test_formatter_matches_format_tabloid(self):
        # every tabloid of every shape of degree 0-8, formatted from its row-word
        # alone by each formatter; two-digit points on the shapes of degree 10-12 with at most
        # 5,000 tabloids (all of them under TABLOID_CAP would be 1.7 million)
        shapes = [lam for d in range(1, 9) for lam in all_partitions(d)] + [Partition(())]
        shapes += [
            lam for d in (10, 11, 12) for lam in all_partitions(d) if math.factorial(d) // math.prod(map(math.factorial, lam.parts)) <= 5000
        ]
        for lam in shapes:
            tabs = all_tabloids(lam)
            for text in (tabloid_formatter(lam), word_formatter(lam)):
                assert [text(t.row_word()) for t in tabs] == list(map(format_tabloid, tabs)), lam
        assert len([lam for lam in shapes if lam.d >= 10]) == 44

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_tabloid("{1,2}{2,3}", 4)
        with pytest.raises(ValueError):
            parse_tabloid("{1,9}", 4)


def test_degree_one_degenerate():
    a = T("{1}", 1)
    assert a.shape() == (1,)
    assert raise_into(1, 1, a) == a
    assert leq_dissection(a, a)
    assert all_tabloids(Partition((1,))) == [a]
