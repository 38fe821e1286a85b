"""Independent brute-force oracles used across the test suite.

Everything here works from first principles (definitional orderings, raw
enumeration, open-interval scans) and never calls the library's shortcut
criteria, so agreement is meaningful evidence.  The one library call is
the orbit-cover witness search's realizability test, checked on its own
against raw intervals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product

from isomers.dissections import Dissection, _assign_words, interval_dissections
from isomers.partitions import Partition, shapes_between
from isomers.perms import DEFAULT_CAP, CapExceeded, PermGroup, Permutation, generate


# -- definitional dominance ----------------------------------------------------

def leq_composition(l, m) -> bool:
    return all(a <= b for a, b in zip(accumulate(l), accumulate(m)))


def leq_dissection_raw(a, b) -> bool:
    ua, ub = set(), set()
    for ca, cb in zip(a, b):
        ua |= set(ca)
        ub |= set(cb)
        if not ua <= ub:
            return False
    return True


def covers_from_leq(universe, leq):
    """All cover pairs (x, y) via open-interval emptiness over the universe."""
    out = set()
    for x in universe:
        for y in universe:
            if x == y or not leq(x, y):
                continue
            if not any(z != x and z != y and leq(x, z) and leq(z, y) for z in universe):
                out.add((x, y))
    return out


def covers_bitset(universe, leq):
    """Same cover set, but with bitset up/down masks (larger universes)."""
    n = len(universe)
    idx = {x: i for i, x in enumerate(universe)}
    up = [0] * n
    down = [0] * n
    for i, x in enumerate(universe):
        for j, y in enumerate(universe):
            if i != j and leq(x, y):
                up[i] |= 1 << j
                down[j] |= 1 << i
    out = set()
    for i in range(n):
        mask = up[i]
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            if not (up[i] & down[j]):
                out.add((universe[i], universe[j]))
    return out


def orbit_cover_by_witness(a, b) -> bool:
    """Whether orbit b covers orbit a, by a witness search over a's member words.

    The open orbit interval is the image of the open tabloid intervals
    between the members of a below b's representative beta and beta
    itself, and a tabloid strictly between has a shape strictly between.
    So a < b is a cover when some member lies below beta and no such shape
    is realizable between any of them and beta.  Realizability is the
    library's earliest-deadline witness producer on row-words, which
    test_dissections checks against the raw interval; the pointwise word
    order is spelled out here.
    """
    if a.shape == b.shape:
        return False
    beta = b.words[0]
    below = [w for w in a.words if all(bx <= wx for bx, wx in zip(beta, w))]
    inner = shapes_between(a.shape, b.shape)[1:-1]
    return bool(below) and not any(_assign_words(w, beta, nu.parts) is not None for nu in inner for w in below)


def orbit_interval_by_definition(a, b, spaces) -> list:
    """The orbits c with a <= c <= b among the given orbit spaces, in their order.

    x <= y when some member of x, a translate of its representative, lies
    at or below y's representative: in the pointwise word order, no point
    sits in an earlier component of the member than of y's representative.
    """

    def leq(x, y):
        top = y.words[0]
        return any(all(t <= w for t, w in zip(top, word)) for word in x.words)

    return [c for space in spaces for c in space if leq(a, c) and leq(c, b)]


# -- raw enumerations ----------------------------------------------------------

def raw_compositions(d):
    out = []

    def rec(pos, rem, acc):
        if pos == d - 1:
            out.append(tuple(acc + [rem]))
            return
        for k in range(rem + 1):
            rec(pos + 1, rem - k, acc + [k])

    rec(0, d, [])
    return out


def raw_partitions(d):
    return [tuple(c) for c in raw_compositions(d) if all(a >= b for a, b in zip(c, c[1:]))]


def raw_tabloids_of_shape(sizes):
    """Tabloids of one shape, as tuples of sorted point tuples."""
    d = sum(sizes)
    sizes = tuple(sizes) + (0,) * (d - len(sizes))
    out = []

    def rec(k, remaining, acc):
        if k == d:
            out.append(tuple(acc))
            return
        if sizes[k] == 0:
            rec(k + 1, remaining, acc + [()])
            return
        for chosen in combinations(remaining, sizes[k]):
            rec(k + 1, tuple(x for x in remaining if x not in chosen), acc + [chosen])

    rec(0, tuple(range(1, d + 1)), [])
    return out


def all_dissections(d: int) -> list[Dissection]:
    """Every ordered dissection of [1,d], sorted; there are d**d of them."""
    return sorted(map(Dissection._trusted, product(range(1, d + 1), repeat=d)))


def interval_shapes(a: Dissection, b: Dissection) -> set[tuple[int, ...]]:
    """Shapes attained on the interval [a, b]."""
    return {x.shape() for x in interval_dissections(a, b)}


def raw_all_tabloids(d):
    out = []
    for sizes in raw_partitions(d):
        out.extend(raw_tabloids_of_shape([s for s in sizes if s]))
    return out


def act_raw(images, tab):
    return tuple(tuple(sorted(images[x - 1] for x in comp)) for comp in tab)


def components_of_word(word):
    """The component tuples of the dissection that puts point x in component word[x-1]."""
    d = len(word)
    return tuple(tuple(x for x in range(1, d + 1) if word[x - 1] == k) for k in range(1, d + 1))


def raise_into_raw(i, s, tab):
    """Move point s into component i of the component tuples tab when it sits in a later one."""
    j = next(k for k, comp in enumerate(tab, start=1) if s in comp)
    if j <= i:
        return tab
    out = list(tab)
    out[j - 1] = tuple(x for x in tab[j - 1] if x != s)
    out[i - 1] = tuple(sorted(tab[i - 1] + (s,)))
    return tuple(out)


def raw_orbits(group: PermGroup, tabs):
    """Orbits as frozensets of raw tabloids, definitional action."""
    seen = set()
    orbits = []
    for t in tabs:
        if t in seen:
            continue
        orbit = frozenset(act_raw(g.images, t) for g in group.elements)
        seen |= orbit
        orbits.append(orbit)
    return orbits


def burnside_count(group: PermGroup, tabs) -> int:
    """Average number of fixed tabloids over the group."""
    total = sum(sum(1 for t in tabs if act_raw(g.images, t) == t) for g in group.elements)
    assert total % group.order == 0
    return total // group.order


def interval_dissections_raw(x, y, d):
    """The closed interval [x, y] by sandwiched prefix-union enumeration."""
    ux = []
    uy = []
    acc_x, acc_y = set(), set()
    for k in range(d):
        acc_x |= set(x[k])
        acc_y |= set(y[k])
        ux.append(frozenset(acc_x))
        uy.append(frozenset(acc_y))
    found = []

    def rec(k, prev, comps):
        if k == d:
            found.append(tuple(comps))
            return
        base = ux[k] | prev
        slack = sorted(uy[k] - base)
        for r in range(len(slack) + 1):
            for extra in combinations(slack, r):
                u = base | set(extra)
                comps.append(tuple(sorted(u - prev)))
                rec(k + 1, u, comps)
                comps.pop()

    rec(0, frozenset(), [])
    return found


# -- characters of the Young subgroup -------------------------------------------

def restricted_sign_exponent(images, points) -> int:
    """0 or 1: the parity of the permutation on points, which it must preserve, by counting inversions."""
    pts = sorted(points)
    vals = [images[x - 1] for x in pts]
    assert sorted(vals) == pts
    return sum(1 for i in range(len(vals)) for j in range(i + 1, len(vals)) if vals[i] > vals[j]) % 2


def standard_transporter_raw(tab) -> list[int]:
    """Images of a u carrying the standard tabloid onto tab: block k, in order, onto component k, sorted."""
    images = []
    for comp in tab:
        images.extend(sorted(comp))
    return images


def conjugated_theta_exponent(images, tab, mask) -> int:
    """theta(u^-1 sigma u) as an exponent of -1, literally.

    sigma (given by its images) fixes tab; u is standard_transporter_raw(tab)
    and theta the product of the signs on the masked standard blocks.
    """
    u = standard_transporter_raw(tab)
    u_inv = [0] * len(u)
    for x, y in enumerate(u, start=1):
        u_inv[y - 1] = x
    conj = [u_inv[images[u[x] - 1] - 1] for x in range(len(u))]
    sizes = [len(comp) for comp in tab if comp]
    starts = [sum(sizes[:k]) + 1 for k in range(len(sizes))]
    blocks = [range(start, start + size) for start, size in zip(starts, sizes)]
    return sum(restricted_sign_exponent(conj, b) for b, flag in zip(blocks, mask) if flag) % 2


# -- group sampling ------------------------------------------------------------

def random_permutation(rng: random.Random, d: int) -> Permutation:
    images = list(range(1, d + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_subgroup(rng: random.Random, d: int, max_gens: int = 2) -> PermGroup:
    gens = [random_permutation(rng, d) for _ in range(rng.randint(1, max_gens))]
    return generate(gens, degree=d)


def symmetric_group(d: int) -> PermGroup:
    gens = [Permutation.from_cycles([[1, 2]], d), Permutation.from_cycles([list(range(1, d + 1))], d)]
    if d == 1:
        return generate([], degree=1)
    return generate(gens, degree=d)


# -- groups through validating products ------------------------------------------

def compose(a: Permutation, b: Permutation) -> Permutation:
    """a*b, (a*b)(i) = a(b(i)), through the validating constructor."""
    return Permutation([a.images[j - 1] for j in b.images])


def invert(a: Permutation) -> Permutation:
    """a^-1 through the validating constructor."""
    return Permutation(sorted(range(1, a.degree + 1), key=lambda i: a.images[i - 1]))


def closure(gens, d: int) -> set[Permutation]:
    """Every product of the generators: multiply by each until no product is new."""
    elements = {Permutation(range(1, d + 1))}
    frontier = set(elements)
    while frontier:
        frontier = {compose(x, g) for x in frontier for g in gens} - elements
        elements |= frontier
    return elements


def conjugacy_partition(group: PermGroup) -> set[frozenset[Permutation]]:
    """The conjugacy classes, each found by conjugating one member by every element."""
    left = set(group.elements)
    classes = set()
    for x in group.elements:
        if x in left:
            cls = frozenset(compose(compose(g, x), invert(g)) for g in group.elements)
            classes.add(cls)
            left -= cls
    return classes


def cycle_lengths(p: Permutation) -> tuple[int, ...]:
    """The cycle lengths of p, fixed points included, longest first, by following images."""
    left = set(range(1, p.degree + 1))
    lengths = []
    while left:
        x = start = min(left)
        n = 0
        while True:
            left.discard(x)
            x = p.images[x - 1]
            n += 1
            if x == start:
                break
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def elements_of_cycle_type(group: PermGroup, alpha: Partition) -> list[Permutation]:
    """All group elements whose cycle type is alpha, in element order."""
    return [g for g in group.elements if cycle_lengths(g) == alpha.trimmed()]


def commutator_subgroup(group: PermGroup) -> PermGroup:
    """The closure of all commutators a b a^-1 b^-1."""
    comms = {compose(compose(a, b), compose(invert(a), invert(b))) for a in group.elements for b in group.elements}
    return PermGroup(group.degree, sorted(comms), closure(comms, group.degree))


def young_subgroup(lam: Partition) -> PermGroup:
    """The direct product of the symmetric groups on the consecutive blocks of lam, element by element.

    Refuses, before building any element, a subgroup above DEFAULT_CAP.
    """
    parts = lam.trimmed()
    if (order := math.prod(math.factorial(k) for k in parts)) > DEFAULT_CAP:
        raise CapExceeded(f"Young subgroup of {lam} has {order} elements, above the cap of {DEFAULT_CAP}")
    blocks = [range(end - part + 1, end + 1) for part, end in zip(parts, accumulate(parts))]
    elements = [Permutation([x for images in choice for x in images]) for choice in product(*map(permutations, blocks))]
    gens = [Permutation.from_cycles([[a, a + 1]], lam.d) for block in blocks for a in block[:-1]]
    return PermGroup(lam.d, gens, elements)


# -- symmetric function cross-checks -------------------------------------------

def monomial_h_coefficient(sizes, alpha) -> Fraction:
    """Coefficient of the power-sum monomial for alpha in the h-product.

    Computed by explicit convolution of single h expansions, an
    independent route kept deliberately naive.
    """
    polys = []
    for n in [s for s in sizes if s]:
        polys.append({tuple(sorted((p for p in part if p), reverse=True)): Fraction(1, _zee(part)) for part in raw_partitions(n)})
    acc = {(): Fraction(1)}
    for poly in polys:
        nxt = {}
        for k1, c1 in acc.items():
            for k2, c2 in poly.items():
                key = tuple(sorted(k1 + k2, reverse=True))
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        acc = nxt
    return acc.get(tuple(sorted((a for a in alpha if a), reverse=True)), Fraction(0))


def _zee(part) -> int:
    import math

    z = 1
    for v in set(p for p in part if p):
        m = sum(1 for p in part if p == v)
        z *= v**m * math.factorial(m)
    return z


# -- orbit counts in Fractions --------------------------------------------------

def _mobius(n: int) -> int:
    """The Mobius function, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def rational_root_sum(coeffs: dict[int, Fraction], n: int) -> Fraction:
    """The value of sum c_e zeta^e, zeta a primitive n-th root of unity, when that value is rational.

    A rational value equals its average over the Galois conjugates zeta ->
    zeta^k, k prime to n, and sum_k zeta^(k e) is the Ramanujan sum
    sum_{d | gcd(e, n)} mu(n / d) d, so no cyclotomic polynomial is used.
    """
    def ramanujan(e: int) -> int:
        g = math.gcd(e, n)
        return sum(_mobius(n // d) * d for d in range(1, g + 1) if g % d == 0)

    return sum((c * ramanujan(e) for e, c in coeffs.items()), Fraction(0)) / ramanujan(0)


@lru_cache(maxsize=None)
def _young_tally(lam) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Per (cycle type, sign exponent on each block), the element count of the Young subgroup of lam."""
    parts = lam.trimmed()
    blocks = [range(end - part + 1, end + 1) for part, end in zip(parts, accumulate(parts))]
    tally: dict = {}
    for y in young_subgroup(lam).elements:
        key = (cycle_lengths(y), tuple(restricted_sign_exponent(y.images, b) for b in blocks))
        tally[key] = tally.get(key, 0) + 1
    return tally


@lru_cache(maxsize=16)
def _group_tally(group: PermGroup, chi) -> dict[tuple[tuple[int, ...], int], int]:
    """Per (cycle type, exponent of chi), the element count of group."""
    tally: dict = {}
    for g in group.elements:
        key = (cycle_lengths(g), 0 if chi is None else chi.exponent(g) % chi.order)
        tally[key] = tally.get(key, 0) + 1
    return tally


def count_by_fractions(group: PermGroup, lam, chi=None, mask=None) -> Fraction:
    """The orbit count <Z(G; chi), Z(Y; theta)>, Y the Young subgroup of lam and theta its sign mask, in Fractions.

    (1 / |G| |Y|) times the sum over g in G and y in Y of one cycle type of
    chi(g) theta(y) z_type, from the elements of both groups; chi is a
    library LinearCharacter (None is the unit), read only for its exponents.
    """
    young: dict[tuple[int, ...], int] = {}
    for (ctype, signs), count in _young_tally(lam).items():
        parity = sum(s for s, flag in zip(signs, mask or ()) if flag) % 2
        young[ctype] = young.get(ctype, 0) + (-count if parity else count)
    young_order = math.prod(math.factorial(k) for k in lam.trimmed())
    total: dict[int, Fraction] = {}
    for (ctype, e), count in _group_tally(group, chi).items():
        term = Fraction(count * young.get(ctype, 0) * _zee(ctype), group.order * young_order)
        total[e] = total.get(e, Fraction(0)) + term
    return rational_root_sum(total, 1 if chi is None else chi.order)
