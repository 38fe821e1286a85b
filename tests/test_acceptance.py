"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single ``PASS criterion N`` line on success (visible
with ``pytest -s`` or in captured output); failures surface as ordinary
assertion errors.  Stated runtime budgets are asserted with wall clocks.
"""

import math
import random
import time

from isomers.catalog import builtin, genetic_diagram, kauffmann_count, korner_relations
from isomers.counting import build_report, combinatorially_equivalent, count_types, monotonicity_check
from isomers.dissections import (
    Dissection,
    all_tabloids,
    is_cover_dissection,
    is_cover_tabloid,
    leq_dissection,
    parse_tabloid,
    raise_into,
    substitution_chain,
)
from isomers.orbits import is_character_orbit, orbit_cover, orbit_leq, orbit_space, reaction_pairs, refine
from isomers.partitions import (
    adjacent_raising_chain,
    all_partitions,
    covers_above,
    dominance_leq,
    in_M,
    is_cover_composition,
    is_cover_partition,
    parse_partition,
    prefix_gaps,
    raising_op,
)
from isomers.perms import generate, linear_characters, parse_cycles

from oracles import all_dissections, leq_composition, random_permutation, random_subgroup, raw_compositions

# -- shared helpers ------------------------------------------------------------


def _covers_bitset_ints(universe, leq):
    n = len(universe)
    up = [0] * n
    down = [0] * n
    for i in range(n):
        xi = universe[i]
        for j in range(n):
            if i != j and leq(xi, universe[j]):
                up[i] |= 1 << j
                down[j] |= 1 << i
    covers = set()
    for i in range(n):
        m = up[i]
        while m:
            low = m & -m
            j = low.bit_length() - 1
            m ^= low
            if not (up[i] & down[j]):
                covers.add((i, j))
    return covers


def _hasse_over_orbits(group):
    shapes = all_partitions(group.degree)
    nodes = [o for lam in shapes for o in orbit_space(group, lam).orbits]
    leq = [[a is b or (a != b and orbit_leq(a, b)) for b in nodes] for a in nodes]
    covers = set()
    n = len(nodes)
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if not any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                covers.add((i, j))
    return nodes, covers


def test_criterion_1_benzene_counts():
    start = time.time()
    g = builtin("benzene").group
    for text in ("4,2", "3^2"):
        lam = parse_partition(text, 6)
        report = build_report(g, lam)
        assert report.agree
        assert report.via_scalar == 3
    elapsed = time.time() - start
    assert elapsed < 1.0, f"benzene counts took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: benzene counts 3 and 3 on every route ({elapsed:.2f}s)")


def test_criterion_2_benzene_orbit_structure():
    g = builtin("benzene").group
    disub = orbit_space(g, parse_partition("4,2", 6))
    trisub = orbit_space(g, parse_partition("3^2", 6))
    assert sorted(o.size for o in disub) == [3, 6, 6]
    assert sorted(o.size for o in trisub) == [2, 6, 12]
    listed = {
        "{2,3,5,6}{1,4}{}{}{}{}": 3,
        "{1,2,3,4}{5,6}{}{}{}{}": 6,
        "{2,4,5,6}{1,3}{}{}{}{}": 6,
        "{1,2,4}{3,5,6}{}{}{}{}": 12,
        "{1,2,3}{4,5,6}{}{}{}{}": 6,
        "{1,3,5}{2,4,6}{}{}{}{}": 2,
    }
    for text, size in listed.items():
        tab = parse_tabloid(text, 6)
        space = disub if tab.shape()[0] == 4 else trisub
        assert space.orbit_of(tab).size == size
    print("\nPASS criterion 2: benzene orbit sizes {3,6,6} and {12,6,2} with the listed tabloids")


def test_criterion_3_korner_relations():
    g = builtin("benzene").group
    relations = korner_relations()
    assert relations == [
        ("a_(3^2)", "a_(4,2)"),
        ("a_(3^2)", "b_(4,2)"),
        ("a_(3^2)", "c_(4,2)"),
        ("b_(3^2)", "b_(4,2)"),
        ("b_(3^2)", "c_(4,2)"),
        ("c_(3^2)", "c_(4,2)"),
    ]
    pairs = reaction_pairs(g, parse_partition("3^2", 6), parse_partition("4,2", 6))
    assert len(pairs) == 6
    print("\nPASS criterion 3: the six classical genetic relations, reaction count 6")


ETHENE_STATED_EDGES = {
    ("a_(3,1)", "a_(4)"),
    ("a_(2^2)", "a_(3,1)"),
    ("b_(2^2)", "a_(3,1)"),
    ("c_(2^2)", "a_(3,1)"),
    ("a_(2,1^2)", "a_(2^2)"),
    ("b_(2,1^2)", "b_(2^2)"),
    ("c_(2,1^2)", "c_(2^2)"),
    ("a_(1^4)", "a_(2,1^2)"),
    ("b_(1^4)", "a_(2,1^2)"),
    ("c_(1^4)", "b_(2,1^2)"),
    ("e_(1^4)", "b_(2,1^2)"),
    ("f_(1^4)", "c_(2,1^2)"),
    ("h_(1^4)", "c_(2,1^2)"),
}

ETHENE_EXTRAS = {
    ("a_(2,1^2)", "a_(3,1)"),
    ("b_(2,1^2)", "a_(3,1)"),
    ("c_(2,1^2)", "a_(3,1)"),
}


def test_criterion_4_ethene():
    start = time.time()
    spec = builtin("ethene")
    shapes = ["4", "3,1", "2^2", "2,1^2", "1^4"]
    assert [count_types(spec.group, parse_partition(s, 4)) for s in shapes] == [1, 1, 3, 3, 6]
    assert [count_types(spec.structural, parse_partition(s, 4)) for s in shapes] == [1, 1, 2, 2, 3]

    diagram = genetic_diagram(spec)
    merges = dict(diagram.merges)
    assert merges["u_(2^2)"] == ("a_(2^2)", "b_(2^2)")
    assert merges["u_(2,1^2)"] == ("a_(2,1^2)", "b_(2,1^2)")
    assert merges["u_(1^4)"] == ("a_(1^4)", "h_(1^4)")
    assert merges["v_(1^4)"] == ("b_(1^4)", "c_(1^4)")
    assert merges["w_(1^4)"] == ("e_(1^4)", "f_(1^4)")
    # singleton structural classes restate the v-identifications
    node_class = {n.name: n.structural_class for n in diagram.nodes}
    assert node_class["c_(2^2)"] == "v_(2^2)"
    assert node_class["c_(2,1^2)"] == "v_(2,1^2)"

    # every stated neighbour arrow is a computed cover and the three
    # stated non-neighbour reactions are computed non-cover relations
    assert ETHENE_STATED_EDGES <= set(diagram.edges)
    assert set(diagram.extra_relations) == ETHENE_EXTRAS
    assert not ETHENE_EXTRAS & set(diagram.edges)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"ethene took {elapsed:.2f}s"
    print(f"\nPASS criterion 4: ethene counts, merges, edges, and extras ({elapsed:.2f}s)")


def test_criterion_5_naphthalene():
    start = time.time()
    g = builtin("naphthalene").group
    for lam in all_partitions(8):
        report = build_report(g, lam)
        assert report.agree
        assert kauffmann_count(lam) == report.via_scalar
    elapsed = time.time() - start
    assert elapsed < 10.0, f"naphthalene took {elapsed:.2f}s"
    print(f"\nPASS criterion 5: closed form equals all routes on every shape of 8 ({elapsed:.2f}s)")


def test_criterion_6_p6_hasse_diagram():
    shapes = all_partitions(6)
    assert len(shapes) == 11
    edges = {
        (lam.trimmed(), mu.trimmed()) for lam in shapes for mu in covers_above(lam)
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
    print("\nPASS criterion 6: the 11-node dominance diagram with the depicted 12 edges")


# -- criterion 7: the property suite -------------------------------------------


def _random_dissection(rng, d):
    comps = [[] for _ in range(d)]
    for point in range(1, d + 1):
        comps[rng.randrange(d)].append(point)
    return Dissection(comps)


def _random_tabloid(rng, shapes):
    lam = rng.choice(shapes)
    d = lam.d
    remaining = list(range(1, d + 1))
    comps = []
    for size in lam.trimmed():
        chosen = rng.sample(remaining, size)
        comps.append(chosen)
        for x in chosen:
            remaining.remove(x)
    return Dissection(comps, d)


def _lowerings(x, tabloids_only):
    """All single-element inverse moves of x (results one step below x)."""
    out = []
    d = x.degree
    for j in range(1, d + 1):
        for s in x.components[j - 1]:
            for k in range(j + 1, d + 1):
                comps = [list(c) for c in x.components]
                comps[j - 1].remove(s)
                comps[k - 1].append(s)
                y = Dissection(comps)
                if not tabloids_only or y.is_tabloid():
                    out.append(y)
    return out


def _interval_members(x, y):
    """Closed interval by sandwiched prefix-union enumeration (independent)."""
    from itertools import combinations as comb

    d = x.degree
    ux, uy = [], []
    ax, ay = set(), set()
    for k in range(d):
        ax |= set(x.components[k])
        ay |= set(y.components[k])
        ux.append(frozenset(ax))
        uy.append(frozenset(ay))
    found = []

    def rec(k, prev, comps):
        if k == d:
            found.append(Dissection(comps))
            return
        base = ux[k] | prev
        slack = sorted(uy[k] - base)
        for r in range(len(slack) + 1):
            for extra in comb(slack, r):
                u = base | set(extra)
                comps.append(sorted(u - prev))
                rec(k + 1, u, comps)
                comps.pop()

    rec(0, frozenset(), [])
    return found


def test_criterion_7_property_suite():
    start = time.time()
    rng = random.Random(20260809)
    # built once per degree; rng.choice reads only a list's length, so the draws do not depend on this
    compositions = {d: raw_compositions(d) for d in range(2, 8)}
    partitions = {d: all_partitions(d) for d in range(2, 8)}

    # (a) exhaustive cover agreement, d <= 5
    for d in (2, 3, 4, 5):
        comps = compositions[d]
        oracle = _covers_bitset_ints(comps, leq_composition)
        idx = {c: i for i, c in enumerate(comps)}
        for li, l in enumerate(comps):
            for mi, m in enumerate(comps):
                assert is_cover_composition(l, m) == ((li, mi) in oracle)
    for d in (2, 3, 4, 5, 6):
        parts = partitions[d]
        raw = [p.parts for p in parts]
        oracle = _covers_bitset_ints(raw, leq_composition)
        for i, l in enumerate(parts):
            for j, m in enumerate(parts):
                assert is_cover_partition(l, m) == ((i, j) in oracle)
    for d in (2, 3, 4):
        univ = all_dissections(d)
        oracle = _covers_bitset_ints(univ, leq_dissection)
        for i, a in enumerate(univ):
            for j, b in enumerate(univ):
                assert is_cover_dissection(a, b) == ((i, j) in oracle)
    # dissections of five points: relation-level exhaustive plus sampling
    univ5 = all_dissections(5)
    idx5 = {x: i for i, x in enumerate(univ5)}
    oracle5 = _covers_bitset_ints(univ5, leq_dissection)
    claimed5 = set()
    for i, x in enumerate(univ5):
        for comp_index in range(1, 5):
            for s in x.components[comp_index]:
                claimed5.add((i, idx5[raise_into(comp_index, s, x)]))
    assert claimed5 == oracle5
    for _ in range(20000):
        i, j = rng.randrange(len(univ5)), rng.randrange(len(univ5))
        assert is_cover_dissection(univ5[i], univ5[j]) == ((i, j) in oracle5)
    for d in (2, 3, 4, 5):
        tabs = sorted({t for lam in partitions[d] for t in all_tabloids(lam)})
        oracle = _covers_bitset_ints(tabs, leq_dissection)
        for i, a in enumerate(tabs):
            for j, b in enumerate(tabs):
                assert is_cover_tabloid(a, b) == ((i, j) in oracle)
    # orbit covers against the definitional reduction, exhaustively at d <= 5
    small_groups = [
        builtin("ethene").group,
        builtin("ethene").structural,
        generate([parse_cycles("(12345)", 5)]),
        generate([parse_cycles("(12345)", 5), parse_cycles("(25)(34)", 5)]),
        generate([parse_cycles("(12)", 5), parse_cycles("(345)", 5)]),
    ]
    for w in small_groups:
        nodes, covers = _hasse_over_orbits(w)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if a is not b:
                    assert orbit_cover(a, b) == ((i, j) in covers)

    # (a) continued: 500 random instances at d <= 7 per relation family
    for _ in range(500):
        d = rng.randint(6, 7)
        comps = compositions[d]
        l = tuple(rng.choice(comps))
        m = tuple(rng.choice(comps))
        claimed = is_cover_composition(l, m)
        truth = (
            l != m
            and leq_composition(l, m)
            and not any(z != l and z != m and leq_composition(l, z) and leq_composition(z, m) for z in comps)
        )
        assert claimed == truth
    for _ in range(500):
        d = rng.randint(6, 7)
        parts = partitions[d]
        lam, mu = rng.choice(parts), rng.choice(parts)
        truth = (
            lam != mu
            and dominance_leq(lam, mu)
            and not any(
                z != lam and z != mu and dominance_leq(lam, z) and dominance_leq(z, mu) for z in parts
            )
        )
        assert is_cover_partition(lam, mu) == truth
    for family in ("dissections", "tabloids"):
        hits = 0
        while hits < 500:
            d = rng.randint(6, 7)
            upper = _random_tabloid(rng, partitions[d]) if family == "tabloids" else _random_dissection(rng, d)
            lower = upper
            for _ in range(rng.randint(1, 3)):
                downs = _lowerings(lower, family == "tabloids")
                if not downs:
                    break
                lower = rng.choice(downs)
            if lower == upper:
                continue
            hits += 1
            members = [
                z
                for z in _interval_members(lower, upper)
                if leq_dissection(lower, z) and leq_dissection(z, upper)
                and (family == "dissections" or z.is_tabloid())
            ]
            truth = len(members) == 2  # just the endpoints
            if family == "tabloids":
                assert is_cover_tabloid(lower, upper) == truth
            else:
                assert is_cover_dissection(lower, upper) == truth
    # orbit covers, random instances at d <= 7 with bounded strata
    hits = 0
    while hits < 500:
        d = rng.randint(6, 7)
        w = random_subgroup(rng, d)
        usable = [
            lam
            for lam in partitions[d]
            if math.factorial(d) // math.prod(math.factorial(k) for k in lam.trimmed()) <= 500
        ]
        if len(usable) < 2:
            continue
        budget = 20
        for _ in range(budget):
            lam, mu = rng.choice(usable), rng.choice(usable)
            if lam == mu or not dominance_leq(lam, mu):
                continue
            middles = [
                nu
                for nu in usable
                if nu not in (lam, mu) and dominance_leq(lam, nu) and dominance_leq(nu, mu)
            ]
            if any(nu not in usable for nu in partitions[d] if dominance_leq(lam, nu) and dominance_leq(nu, mu)):
                continue  # an intermediate stratum is too large to enumerate
            a = rng.choice(orbit_space(w, lam).orbits)
            b = rng.choice(orbit_space(w, mu).orbits)
            if not orbit_leq(a, b):
                assert not orbit_cover(a, b)
                hits += 1
                continue
            blocked = any(
                orbit_leq(a, c) and orbit_leq(c, b)
                for nu in middles
                for c in orbit_space(w, nu).orbits
            )
            assert orbit_cover(a, b) == (not blocked)
            hits += 1
            if hits >= 500:
                break

    # (b) constructive chains replay, 500 random instances each
    for _ in range(500):
        d = rng.randint(2, 7)
        comps = compositions[d]
        l, m = rng.choice(comps), rng.choice(comps)
        if not leq_composition(l, m):
            l, m = m, l
        if not leq_composition(l, m):
            continue
        chain = adjacent_raising_chain(l, m)
        assert len(chain) == prefix_gaps(l, m)[1]
        cur = l
        for i in chain:
            nxt = raising_op(i, i + 1, cur)
            assert in_M(nxt) and dominance_leq(cur, nxt) and cur != nxt
            cur = nxt
        assert cur == m
    hits = 0
    while hits < 500:
        d = rng.randint(2, 7)
        a = _random_dissection(rng, d)
        moves = [
            (i, s) for i in range(1, d) for s in range(1, d + 1) if a.component_of(s) > i
        ]
        if not moves:
            continue
        i, s = rng.choice(moves)
        b = raise_into(i, s, a)
        hits += 1
        chain = substitution_chain(a, b)
        cur = a
        prev_index = 0
        for ci, cs in chain:
            assert ci > prev_index
            prev_index = ci
            assert a.component_of(cs) > ci
            cur = raise_into(ci, cs, cur)
        assert cur == b

    # (c) kernel-orbit structure, exhaustive over the shipped skeletons
    for name in ("ethene", "benzene", "naphthalene"):
        w = builtin(name).group
        for chi in linear_characters(w):
            kernel = generate(chi.kernel_elements(), degree=w.degree)
            index = w.order // kernel.order
            for lam in all_partitions(w.degree):
                theta = (False,) * len(lam.trimmed())
                mapping = refine(orbit_space(w, lam), orbit_space(kernel, lam))
                for coarse_orbit, fines in mapping.items():
                    assert len({f.size for f in fines}) == 1
                    assert index % len(fines) == 0
                    assert is_character_orbit(coarse_orbit, chi, theta) == (len(fines) == index)

    # (d) monotone counts along dominance for every skeleton character
    for name in ("ethene", "benzene", "naphthalene"):
        w = builtin(name).group
        for chi in linear_characters(w):
            assert monotonicity_check(w, chi) == []

    # (e) four-route agreement on 200 random subgroups
    for _ in range(200):
        d = rng.randint(2, 7)
        w = random_subgroup(rng, d)
        for lam in partitions[d]:
            assert build_report(w, lam).agree

    elapsed = time.time() - start
    assert elapsed < 120.0, f"property suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 7: cover oracles, chain replays, kernel structure, monotonicity, agreement ({elapsed:.1f}s)")


def test_criterion_8_combinatorial_equivalence():
    rng = random.Random(88)
    checked = 0
    while checked < 100:
        d = rng.randint(2, 6)
        w1 = random_subgroup(rng, d)
        if rng.random() < 0.3:
            s = random_permutation(rng, d)
            w2 = generate([s * g * s.inverse() for g in w1.generators], degree=d)
        else:
            w2 = random_subgroup(rng, d)
        counts_equal = all(count_types(w1, lam) == count_types(w2, lam) for lam in all_partitions(d))
        assert combinatorially_equivalent(w1, w2) == counts_equal
        checked += 1
    print("\nPASS criterion 8: cycle-type census equality matches equal count families on 100 pairs")
