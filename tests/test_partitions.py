import random
import re

import pytest

from isomers.partitions import (
    Partition,
    adjacent_raising_chain,
    all_partitions,
    centralizer_order,
    common_prefix_len,
    covers_above,
    dominance_leq,
    format_partition,
    in_M,
    is_cover_composition,
    is_cover_partition,
    parse_partition,
    prefix_gaps,
    raising_op,
    raising_pair,
)

from oracles import covers_from_leq, leq_composition, raw_compositions, symmetric_group


def P(text, d):
    return parse_partition(text, d)


class TestDominance:
    def test_diagram_edge_example(self):
        assert dominance_leq((2, 2, 2, 0, 0, 0), (3, 2, 1, 0, 0, 0))

    def test_reflexive(self):
        l = (3, 2, 1, 0, 0, 0)
        assert dominance_leq(l, l)

    def test_incomparable_pair(self):
        a, b = (3, 3, 0, 0, 0, 0), (4, 1, 1, 0, 0, 0)
        assert not dominance_leq(a, b)
        assert not dominance_leq(b, a)

    def test_matches_definitional_oracle_d4(self):
        for l in raw_compositions(4):
            for m in raw_compositions(4):
                assert dominance_leq(l, m) == leq_composition(l, m)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_partial_order_axioms(self, d):
        univ = raw_compositions(d)
        for x in univ:
            assert dominance_leq(x, x)
        for x in univ:
            for y in univ:
                if dominance_leq(x, y) and dominance_leq(y, x):
                    assert x == y
        rng = random.Random(7)
        for _ in range(3000):
            x, y, z = (rng.choice(univ) for _ in range(3))
            if dominance_leq(x, y) and dominance_leq(y, z):
                assert dominance_leq(x, z)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominance_leq((1, 1), (2, 0, 0))


class TestRaisingOp:
    def test_diagram_edge(self):
        assert raising_op(1, 2, (3, 3, 0, 0, 0, 0)) == (4, 2, 0, 0, 0, 0)

    def test_identity_when_j_below_i(self):
        l = (2, 1, 1)
        assert raising_op(2, 1, l) == l
        assert raising_op(2, 2, l) == l

    def test_may_leave_nonnegatives(self):
        out = raising_op(1, 3, (2, 2, 0, 0))
        assert out == (3, 2, -1, 0)
        assert not in_M(out)

    def test_stays_inside_iff_donor_positive(self):
        for l in raw_compositions(4):
            for i in range(1, 4):
                for j in range(i + 1, 5):
                    assert in_M(raising_op(i, j, l)) == (l[j - 1] >= 1)


class TestStats:
    def test_gaps_zero_on_equal(self):
        l = (2, 1, 1, 0)
        assert prefix_gaps(l, l) == ((0, 0, 0), 0)

    def test_gaps_example(self):
        gaps, total = prefix_gaps((2, 2, 2, 0, 0, 0), (3, 2, 1, 0, 0, 0))
        # independent check: running prefix sums by hand
        expect = []
        sl = sm = 0
        for a, b in zip((2, 2, 2, 0, 0), (3, 2, 1, 0, 0)):
            sl += a
            sm += b
            expect.append(sm - sl)
        assert gaps == tuple(expect) == (1, 1, 0, 0, 0)
        assert total == 2

    def test_dominance_iff_gaps_nonnegative(self):
        univ = raw_compositions(4)
        for l in univ:
            for m in univ:
                gaps, _ = prefix_gaps(l, m)
                assert dominance_leq(l, m) == all(g >= 0 for g in gaps)

    def test_common_prefix(self):
        assert common_prefix_len((3, 2, 1), (3, 2, 1)) == 3
        assert common_prefix_len((3, 2, 1, 0, 0, 0), (3, 3, 0, 0, 0, 0)) == 1
        assert common_prefix_len((2, 1, 0), (3, 0, 0)) == 0


class TestRaisingChain:
    def test_empty_on_equal(self):
        assert adjacent_raising_chain((2, 1, 1), (2, 1, 1)) == []

    def replay(self, l, m):
        chain = adjacent_raising_chain(l, m)
        assert len(chain) == prefix_gaps(l, m)[1]
        cur = l
        for i in chain:
            nxt = raising_op(i, i + 1, cur)
            assert in_M(nxt)
            assert dominance_leq(cur, nxt) and cur != nxt
            cur = nxt
        assert cur == m

    def test_padded_triplet(self):
        self.replay((2, 2, 2, 0, 0, 0), (3, 2, 1, 0, 0, 0))

    def test_columns_to_row(self):
        l, m = (1, 1, 1, 1), (4, 0, 0, 0)
        assert prefix_gaps(l, m)[1] == 6
        self.replay(l, m)

    def test_all_comparable_pairs_small(self):
        for d in (2, 3, 4, 5):
            univ = raw_compositions(d)
            for l in univ:
                for m in univ:
                    if dominance_leq(l, m):
                        self.replay(l, m)

    def test_rejects_incomparable(self):
        with pytest.raises(ValueError):
            adjacent_raising_chain((3, 0, 0), (1, 1, 1))


class TestCovers:
    def test_cover_composition_direct(self):
        assert is_cover_composition((2, 2, 2, 0, 0, 0), (2, 3, 1, 0, 0, 0))
        assert not is_cover_composition((2, 2, 2), (2, 2, 2))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_cover_composition_vs_oracle(self, d):
        univ = raw_compositions(d)
        oracle = covers_from_leq(univ, leq_composition)
        for l in univ:
            for m in univ:
                assert is_cover_composition(l, m) == ((l, m) in oracle)

    def test_cover_partition_examples(self):
        assert is_cover_partition(P("4,1,1", 6), P("4,2", 6))
        assert not is_cover_partition(P("4,1,1", 6), P("5,1", 6))
        assert is_cover_partition(P("3,3", 6), P("4,2", 6))

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_cover_partition_vs_oracle(self, d):
        parts = [p.parts for p in all_partitions(d)]
        oracle = covers_from_leq(parts, leq_composition)
        for l in parts:
            for m in parts:
                assert is_cover_partition(Partition(l), Partition(m)) == ((l, m) in oracle)


class TestRaisingPair:
    """raising_pair against its definition: m is l plus one unit at i, minus one at j > i."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_vs_unit_moves(self, d):
        univ = raw_compositions(d)
        for l in univ:
            moves = {}
            for i in range(d):
                for j in range(i + 1, d):
                    m = list(l)
                    m[i] += 1
                    m[j] -= 1
                    moves[tuple(m)] = (i + 1, j + 1)
            for m in set(univ) | set(moves):
                assert raising_pair(l, m) == moves.get(m)

    def test_partitions_and_length_mismatch(self):
        assert raising_pair(P("3,3", 6), P("4,2", 6)) == (1, 2)
        assert raising_pair(P("4,2", 6), P("3,3", 6)) is None
        with pytest.raises(ValueError):
            raising_pair((2, 1), (3, 0, 0))


class TestEnumeration:
    def test_partition_counts(self):
        # independent: raw enumeration over compositions
        from oracles import raw_partitions

        for d in range(1, 9):
            assert [p.parts for p in all_partitions(d)] == sorted(raw_partitions(d), reverse=True)
        assert len(all_partitions(6)) == 11

    def test_decreasing_lex_order(self):
        ps = [p.parts for p in all_partitions(6)]
        assert ps == sorted(ps, reverse=True)
        assert ps[0] == (6, 0, 0, 0, 0, 0)
        assert ps[-1] == (1, 1, 1, 1, 1, 1)

    def test_covers_above_examples(self):
        up = covers_above(P("3,2,1", 6))
        assert {p.trimmed() for p in up} == {(4, 1, 1), (3, 3)}
        assert covers_above(P("6", 6)) == []

    def test_hasse_diagram_p6(self):
        edges = {
            (lam.trimmed(), mu.trimmed())
            for lam in all_partitions(6)
            for mu in covers_above(lam)
        }
        assert edges == {
            ((5, 1), (6,)),
            ((4, 2), (5, 1)),
            ((4, 1, 1), (4, 2)),
            ((3, 3), (4, 2)),
            ((3, 2, 1), (4, 1, 1)),
            ((3, 2, 1), (3, 3)),
            ((3, 1, 1, 1), (3, 2, 1)),
            ((2, 2, 2), (3, 2, 1)),
            ((2, 2, 1, 1), (3, 1, 1, 1)),
            ((2, 2, 1, 1), (2, 2, 2)),
            ((2, 1, 1, 1, 1), (2, 2, 1, 1)),
            ((1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1)),
        }


class TestCentralizerOrder:
    def test_all_fixed(self):
        import math

        for d in range(1, 8):
            assert centralizer_order(P("1" + ",1" * (d - 1), d)) == math.factorial(d)

    def test_two_twos(self):
        assert centralizer_order(P("2,2", 4)) == 8

    def test_class_sizes_in_symmetric_groups(self):
        # d!/z equals the conjugacy class size, checked by brute force
        import math
        from collections import Counter

        for d in range(2, 8):
            sd = symmetric_group(d)
            census = Counter(g.cycle_type().trimmed() for g in sd.elements)
            for lam in all_partitions(d):
                z = centralizer_order(lam)
                assert math.factorial(d) // z == census[lam.trimmed()]


class TestHash:
    def test_cached_hash_follows_equality(self):
        for d in range(1, 7):
            for lam in all_partitions(d):
                twin = Partition(lam.trimmed(), d)
                assert hash(lam) == hash(twin) == hash(("Partition", lam.parts)) == hash(lam)
                assert {lam: 1}[twin] == 1

    def test_hash_is_stored_once(self):
        lam = P("3,2,1", 6)
        with pytest.raises(AttributeError):
            lam._hash
        hash(lam)
        assert lam._hash == hash(("Partition", lam.parts))


class TestTextFormat:
    @pytest.mark.parametrize(
        "text,parts",
        [("4,2", (4, 2)), ("2^2,1^2", (2, 2, 1, 1)), ("6", (6,)), ("2,1^4", (2, 1, 1, 1, 1))],
    )
    def test_parse(self, text, parts):
        assert parse_partition(text, 6).trimmed() == parts

    def test_roundtrip_is_canonical(self):
        for d in range(1, 8):
            for lam in all_partitions(d):
                assert parse_partition(format_partition(lam), d) == lam

    def test_plain_and_exponent_forms_agree(self):
        assert parse_partition("2,2,1,1", 6) == parse_partition("2^2,1^2", 6)

    def test_format_uses_exponents(self):
        assert format_partition(P("2,2,1,1", 6)) == "2^2,1^2"
        assert format_partition(P("4,2", 6)) == "4,2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_partition("4,,2", 6)
        for text, d in (("6,2^-1", 6), ("2^2,1^0", 4), ("2^0,3", 3)):  # once shortened to 6, 2^2 and 3
            with pytest.raises(ValueError, match=f"exponent below 1 in partition {re.escape(repr(text))}"):
                parse_partition(text, d)
        with pytest.raises(ValueError):
            Partition((1, 2, 1))

    def test_messages_print_the_parts_given(self):
        # checked before the padding to the degree, so no message prints it
        cases = [
            ((5, 2), 10**6, "not a partition of 1000000: 5,2"),
            ((1,) * 999_999, 10**6, "not a partition of 1000000: 1^999999"),
            ((2, 4), 6, "parts not weakly decreasing: 2,4"),
            ((3, 0, 1), None, "parts not weakly decreasing: 3,0,1"),
            ((1,) * 7, 6, "more than 6 parts: 1^7"),
            ((), 3, "not a partition of 3: no parts"),
            ((3, -1), 2, "not a partition of 2: 3,-1"),
        ]
        for parts, d, message in cases:
            with pytest.raises(ValueError) as refusal:
                Partition(parts, d)
            assert str(refusal.value) == message
        assert Partition((5, 2), 7).parts == (5, 2, 0, 0, 0, 0, 0)

    def test_refuses_a_long_exponent_before_expanding_it(self):
        with pytest.raises(ValueError, match=r"more than 6 parts in partition '3,1\^9999999'"):
            parse_partition("3,1^9999999", 6)
