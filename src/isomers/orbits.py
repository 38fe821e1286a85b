"""Group orbits of tabloids and the factored substitution order.

A W-orbit of tabloids stands for one (potential) isomer; the partial order
between orbits, inherited from dominance on tabloids, is the genetic order
of substitution reactions.  Character tests on orbit stabilizers pick out
distinguished orbit families, in particular the ones holding chiral pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from functools import reduce
from itertools import accumulate, chain, compress, islice, repeat
from operator import and_, attrgetter, itemgetter, le, or_

from .dissections import Dissection, tabloid_positions, tabloid_words
from .partitions import Partition, dominance_leq, raising_pair, shapes_between
from .perms import CapExceeded, LinearCharacter, PermGroup, Permutation, _gather, _generated, _runs, _tables, relative_sign_character

__all__ = [
    "CELL_CAP",
    "POSET_PAIR_CAP",
    "TABLOID_CAP",
    "ChiralReport",
    "Orbit",
    "OrbitSpace",
    "check_degree_cap",
    "check_tabloid_cap",
    "check_theta_mask",
    "classify_chiral",
    "is_character_orbit",
    "orbit_adjacent",
    "orbit_cover",
    "orbit_interval",
    "orbit_leq",
    "orbit_poset",
    "orbit_space",
    "reaction_pairs",
    "refine",
    "stabilizer",
]

# orbit_poset refuses requests with more orbit pairs than this to compare
POSET_PAIR_CAP = 250_000
# orbit_space refuses shapes with more tabloids than this
TABLOID_CAP = 100_000
# ... and shapes with more cells than this: tabloids times degree, the row-word
# entries their space holds and the points their listing prints
CELL_CAP = 4_000_000


class _Record:
    """An immutable value record whose fields are its class's ``__slots__``.

    Arguments fill the fields in slot order, by position or keyword; a field
    left out takes its value in ``_defaults``.  Equality, hashing and repr
    read the fields, as a frozen dataclass's do.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__} is missing the field {name}")
            object.__setattr__(self, name, values[name])

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


class Orbit:
    """A W-orbit of tabloids: its members' row-words, sorted; the representative is the first.

    A member is a ``Dissection`` wrapped around its word on each access;
    nothing else is stored per member.  Equality and
    hashing are by identity: orbit spaces are memoized per group, so each
    orbit exists once, and dicts keyed by orbit never hash its members.
    """

    __slots__ = ("group", "shape", "words")

    def __init__(self, group: PermGroup, shape: Partition, words: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "words", words)

    def __setattr__(self, *a):
        raise AttributeError("Orbit is immutable")

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def representative(self) -> Dissection:
        """The first member."""
        return Dissection._trusted(self.words[0])

    @property
    def members(self) -> tuple[Dissection, ...]:
        """The member tabloids, in word order."""
        return tuple(map(Dissection._trusted, self.words))

    def __contains__(self, a: Dissection) -> bool:
        return a.row_word() in self.words

    def __repr__(self):
        return f"Orbit({self.representative}, size={self.size})"


class _OrbitIndex:
    """Bitsets over the tabloids of one orbit space, numbered orbit by orbit.

    Tabloid i (the i-th member word, orbits in order) is bit n - 1 - i of
    an int, so a bitset's n-digit binary text reads the tabloids in order,
    and orbit k holds the run of tabloids bounds[k] to bounds[k + 1] - 1.
    A column, the tabloids whose component at one point is at least one
    level, is built on first lookup; the tabloids below or above a word
    are ANDs and ORs of columns, gathered per level in C.  The orbits those
    tabloids hit are read off the runs, and kept per orbit asked about as
    one bit per orbit.  Components are bytes: a shape under TABLOID_CAP has
    at most eight parts, since l parts give at least l! tabloids.
    """

    __slots__ = ("orbits", "bounds", "size", "levels", "columns", "_under", "_over")

    def __init__(self, space: OrbitSpace):
        self.orbits = space.orbits
        self.bounds = tuple(accumulate((orbit.size for orbit in space.orbits), initial=0))
        self.size = self.bounds[-1]
        self.levels = len(space.shape.trimmed())
        self.columns: dict[int, list[int | None]] = {}  # per level k, per point, its column once built
        self._under: dict[Orbit, int] = {}
        self._over: dict[Orbit, int] = {}

    def _columns(self, k: int, points: list[int]) -> list[int]:
        """The columns of level k at these 0-based points, each built on first lookup."""
        level = self.columns.get(k)
        if level is None:
            level = self.columns[k] = [None] * len(self.orbits[0].words[0])
        cols = list(map(level.__getitem__, points))
        if None in cols:
            table = b"0" * k + b"1" * (256 - k)  # translates a component byte v to "1" exactly when v >= k
            for i, x in enumerate(points):
                if cols[i] is None:
                    words = chain.from_iterable(map(attrgetter("words"), self.orbits))
                    cols[i] = level[x] = int(bytes(map(itemgetter(x), words)).translate(table), 2)
        return cols

    def below(self, beta: tuple[int, ...]) -> int:
        """The tabloids at or below the one with row-word beta: no point sits in an earlier component."""
        bits = (1 << self.size) - 1
        for k in range(2, max(beta) + 1):
            bits = reduce(and_, self._columns(k, list(compress(range(len(beta)), map(k.__eq__, beta)))), bits)
        return bits

    def above(self, alpha: tuple[int, ...]) -> int:
        """The tabloids at or above the one with row-word alpha: no point sits in a later component."""
        late = 0
        for k in range(1, self.levels):  # a point at k in alpha is late at k + 1 or beyond
            late = reduce(or_, self._columns(k + 1, list(compress(range(len(alpha)), map(k.__eq__, alpha)))), late)
        return ((1 << self.size) - 1) ^ late

    def hits(self, bits: int) -> list[int]:
        """The positions of the orbits holding a tabloid of bits, ascending: one find per orbit hit."""
        text = f"{bits:0{self.size}b}"
        bounds, out = self.bounds, []
        i = text.find("1")
        while i >= 0:
            k = bisect_right(bounds, i) - 1
            out.append(k)
            i = text.find("1", bounds[k + 1])
        return out

    def _hit_orbits(self, bits: int) -> int:
        """The orbits holding a tabloid of bits, one bit each: orbit k is bit len(orbits) - 1 - k."""
        text = bytearray(b"0") * len(self.orbits)
        for k in self.hits(bits):
            text[k] = 49  # "1"
        return int(text, 2)

    def under(self, b: Orbit) -> int:
        """The orbits c here with c <= b: those holding a tabloid below b's representative (memoized)."""
        bits = self._under.get(b)
        if bits is None:
            bits = self._under[b] = self._hit_orbits(self.below(b.words[0]))
        return bits

    def over(self, a: Orbit) -> int:
        """The orbits c here with a <= c: those holding a tabloid above a's representative (memoized)."""
        bits = self._over.get(a)
        if bits is None:
            bits = self._over[a] = self._hit_orbits(self.above(a.words[0]))
        return bits


class OrbitSpace:
    """All W-orbits on the tabloids of one shape, in representative order."""

    __slots__ = ("group", "shape", "orbits", "_positions", "_index")

    def __init__(self, group: PermGroup, shape: Partition, orbits: tuple[Orbit, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "orbits", orbits)

    def __setattr__(self, *a):
        raise AttributeError("OrbitSpace is immutable")

    def __eq__(self, other):
        if type(other) is not OrbitSpace:
            return NotImplemented
        return (self.group, self.shape, self.orbits) == (other.group, other.shape, other.orbits)

    def __hash__(self):
        return hash((self.group, self.shape, self.orbits))

    def __len__(self):
        return len(self.orbits)

    def __iter__(self):
        return iter(self.orbits)

    @property
    def positions(self) -> dict[tuple[int, ...], int]:
        """The position in ``orbits`` of the orbit holding each row-word; built on first lookup."""
        try:
            return self._positions
        except AttributeError:
            object.__setattr__(self, "_positions", {w: k for k, orbit in enumerate(self.orbits) for w in orbit.words})
            return self._positions

    @property
    def index(self) -> _OrbitIndex:
        """The bitset index over this space's tabloids; built on first lookup, its columns on theirs."""
        try:
            return self._index
        except AttributeError:
            object.__setattr__(self, "_index", _OrbitIndex(self))
            return self._index

    def orbit_of(self, a: Dissection) -> Orbit:
        k = self.positions.get(a.row_word())
        if k is None:
            raise ValueError(f"{a} is not a tabloid of shape {self.shape}")
        return self.orbits[k]


def _tabloids(parts: Iterable[int], d: int) -> int:
    """The multinomial d!/prod(parts_i!) of parts summing to d, or a partial product past TABLOID_CAP.

    It is built as a product of binomials, one factor at a time.  The
    partial products only grow, so it stops at the first one past the cap
    and never forms a huge factorial.
    """
    tabloids, left = 1, d
    for part in parts:
        k = min(part, left - part)
        for i in range(1, k + 1):
            tabloids = tabloids * (left - k + i) // i
            if tabloids > TABLOID_CAP:
                return tabloids
        left -= part
    return tabloids


def check_tabloid_cap(shapes: Sequence[Partition]):
    """Refuse, before any enumeration, a shape with more than TABLOID_CAP tabloids or CELL_CAP cells."""
    for lam in shapes:
        tabloids = _tabloids(lam.trimmed(), lam.d)
        if tabloids > TABLOID_CAP:
            raise CapExceeded(f"shape {lam} has more than {TABLOID_CAP} tabloids, the tabloid cap")
        if tabloids * lam.d > CELL_CAP:
            raise CapExceeded(f"shape {lam} has {tabloids} tabloids of degree {lam.d}, more than {CELL_CAP} cells, the cell cap")


def check_degree_cap(d: int):
    """Refuse, from the degree alone, a request over every shape of degree d past TABLOID_CAP.

    The finest shape 1^d has d! tabloids, the most of any shape of degree
    d, so it bounds them all.  No d-part partition is built.
    """
    if _tabloids(repeat(1, d), d) > TABLOID_CAP:
        raise CapExceeded(f"shape 1^{d} has more than {TABLOID_CAP} tabloids, the tabloid cap")


def check_theta_mask(lam: Partition, theta: tuple[bool, ...] | None) -> tuple[bool, ...]:
    """theta's sign mask over the parts of lam, all False for the unit (None).

    theta(eta) is the product of the signs of eta on the masked blocks of
    the Young subgroup of lam.
    """
    parts = len(lam.trimmed())
    if theta is None:
        return (False,) * parts
    if len(theta) != parts:
        raise ValueError(f"theta mask length {len(theta)} differs from part count {parts} of {lam}")
    return theta


def _getters(group: PermGroup) -> tuple[Callable[[tuple[int, ...]], tuple[int, ...]], ...]:
    """Per element g of group, in element order, the gather sending a row-word w to w∘g (memoized per group)."""
    getters = group._memo.get("getters")
    if getters is None:
        getters = group._memo["getters"] = tuple(map(_gather, group.images))
    return getters


def _orbit_positions(group: PermGroup, lam: Partition) -> tuple[tuple[tuple[int, ...], ...], Iterator[Collection[int]]]:
    """The tabloid words of shape lam, and a generator of each orbit's positions among them (``perms._runs``).

    Tabloids are row-words on this path, numbered in canonical order
    (``tabloid_positions``), and g sends w to w∘g.  The first tabloid not
    yet placed is the least of its orbit, so orbits come out in
    representative order.  An orbit is its first word sent through every
    element but the identity, or walked along generators known to
    generate, as permutations of the positions built once per shape in C.
    The gathers cost |G| per orbit, at least |G| * ceil(N / |G|) for N
    tabloids, and |G| more to build when the group has none yet; the walk
    costs the generator count per tabloid, and is taken unless it costs
    more.  The degree and the tabloid cap are checked before any tabloid
    is enumerated.
    """
    if lam.d != group.degree:
        raise ValueError("shape degree differs from group degree")
    check_tabloid_cap([lam])
    words, index = tabloid_words(lam), tabloid_positions(lam)
    gens, n, order = group.generators, len(words), group.order
    if _generated(group) and len(gens) * n <= order * (-(-n // order) + ("getters" not in group._memo)):
        return words, _runs(words, index, _tables(words, index, [_gather(g.images) for g in gens]), ())
    return words, _runs(words, index, None, _getters(group)[1:])  # the identity, elements[0], fixes every word


def orbit_space(group: PermGroup, lam: Partition) -> OrbitSpace:
    """Partition the tabloids of shape lam into group orbits (memoized).

    The orbits are those of ``_orbit_positions``, in its order.  No member
    dissection is built here: an orbit holds the word tuples of
    ``tabloid_words`` at its positions, sorted, and a member is wrapped
    around its word only when asked for.
    """
    cached = group._memo.get(("orbit_space", lam))
    if cached is not None:
        return cached
    words, runs = _orbit_positions(group, lam)
    space = OrbitSpace(group, lam, tuple(Orbit(group, lam, tuple(map(words.__getitem__, sorted(at)))) for at in runs))
    group._memo[("orbit_space", lam)] = space
    return space


def _fixing(group: PermGroup, w: tuple[int, ...]) -> Iterator[int]:
    """The positions in element order of the elements of group fixing the row-word w."""
    return (k for k, get in enumerate(_getters(group)) if get(w) == w)


def stabilizer(group: PermGroup, a: Dissection) -> PermGroup:
    """The subgroup fixing the dissection a."""
    if a.degree != group.degree:
        raise ValueError("degree mismatch")
    fixed = tuple(Permutation._trusted(group.images[k]) for k in _fixing(group, a.row_word()))
    return PermGroup(group.degree, fixed, fixed)


def _require_same_group(a: Orbit, b: Orbit) -> None:
    if a.group is not b.group and a.group != b.group:
        raise ValueError("orbits belong to different groups")


def orbit_leq(a: Orbit, b: Orbit) -> bool:
    """Factored dominance: some group translate of a's representative precedes b's.

    The translates are exactly a's members, so the test is one pointwise
    pass per member word: no point sits later in b's representative.
    """
    _require_same_group(a, b)
    beta = b.words[0]
    return any(all(map(le, beta, w)) for w in a.words)


def orbit_adjacent(a: Orbit, b: Orbit) -> bool:
    """a < b with shapes one raising operator apart."""
    _require_same_group(a, b)
    if raising_pair(a.shape, b.shape) is None:
        return False
    return a != b and orbit_leq(a, b)


def _cover_test(group: PermGroup, lam: Partition, mu: Partition) -> Callable[[Orbit, Orbit], bool]:
    """The cover test for comparable orbit pairs a < b of shapes lam < mu.

    An orbit strictly between a and b has a shape strictly between theirs
    (two comparable tabloids of one shape are equal).  The interval
    [lam, mu] lists its shapes in decreasing lexicographic order, which
    dominance refines, so it runs from mu to lam and the strict middles are
    its inner entries.  Per middle index, the orbits below b and those above
    a are two memoized bitsets, and an orbit lies between exactly when it is
    in both.  The middle indexes are resolved once, when the test is made.
    """
    middles = [orbit_space(group, nu).index for nu in shapes_between(lam, mu)[1:-1]]
    return lambda a, b: not any(ix.under(b) & ix.over(a) for ix in middles)


def orbit_cover(a: Orbit, b: Orbit) -> bool:
    """Neighbour test in the orbit order: a < b with no orbit strictly between."""
    _require_same_group(a, b)
    if a.shape == b.shape or not orbit_leq(a, b):
        return False
    return _cover_test(a.group, a.shape, b.shape)(a, b)


def orbit_interval(a: Orbit, b: Orbit) -> list[Orbit]:
    """All orbits c with a <= c <= b, across every intermediate shape: b, the middle shapes' orbits, then a.

    Two comparable tabloids of one shape are equal, so b's shape holds b
    alone and a's holds a alone.  Per strict middle shape, from b's down to
    a's, one AND of the index's orbits below b and orbits above a.
    """
    if not orbit_leq(a, b):
        raise ValueError("a does not precede b in the orbit order")
    if a.shape == b.shape:
        return [a]
    out = [b]
    for lam in shapes_between(a.shape, b.shape)[1:-1]:
        index = orbit_space(a.group, lam).index
        text = f"{index.under(b) & index.over(a):0{len(index.orbits)}b}"
        out.extend(compress(index.orbits, map("1".__eq__, text)))
    out.append(a)
    return out


def _fewest_orbits(group: PermGroup, lam: Partition) -> int:
    """A lower bound on the orbit count of shape lam: no orbit outgrows the group."""
    return -(-_tabloids(lam.trimmed(), lam.d) // group.order)


def orbit_poset(group: PermGroup, shapes: Sequence[Partition]) -> list[tuple[Orbit, Orbit, bool]]:
    """Every orbit pair a < b between distinct, dominance-comparable shapes, with its cover flag.

    Shapes are visited in the given order, lower shape outermost, and the
    orbits of each in representative order.  Before any orbit space is
    built, a lower bound on the orbit pairs to compare is checked against
    POSET_PAIR_CAP.  For each upper orbit, one AND of the lower index's
    columns gives the lower tabloids below its representative, and the
    lower orbits they hit are read off their runs.  Each pair is
    comparable by construction, so its flag is ``_cover_test`` alone, made
    once per shape step.
    """
    check_tabloid_cap(shapes)  # so the bound below is exact
    steps = [(lam, mu) for lam in shapes for mu in shapes if lam != mu and dominance_leq(lam, mu)]
    bound = sum(_fewest_orbits(group, lam) * _fewest_orbits(group, mu) for lam, mu in steps)
    if bound > POSET_PAIR_CAP:
        raise CapExceeded(
            f"at least {bound} orbit pairs to compare, above the poset cap of {POSET_PAIR_CAP}; request fewer shapes"
        )
    out = []
    for lam, mu in steps:
        lower, upper = orbit_space(group, lam), orbit_space(group, mu)
        index, above = lower.index, [[] for _ in lower.orbits]
        for b in upper:
            for k in index.hits(index.below(b.words[0])):
                above[k].append(b)
        is_cover = _cover_test(group, lam, mu)
        for a, row in zip(lower.orbits, above):
            out.extend((a, b, is_cover(a, b)) for b in row)
    return out


def reaction_pairs(group: PermGroup, lam: Partition, mu: Partition) -> list[tuple[Orbit, Orbit]]:
    """All orbit pairs (a, b) with a < b across two adjacent shapes.

    Their number is the count of simple substitution reactions between the
    two empirical formulas.
    """
    if raising_pair(lam, mu) is None:
        raise ValueError(f"shapes {lam} and {mu} are not adjacent")
    return [(a, b) for a, b, _ in orbit_poset(group, [lam, mu])]


def is_character_orbit(
    orbit: Orbit, chi: LinearCharacter | None, theta: tuple[bool, ...] | None = None
) -> bool:
    """Whether chi(sigma) * theta(u^-1 sigma u) is 1 on the whole stabilizer.

    Here u carries the standard tabloid onto the orbit representative, and
    theta is a sign mask over the shape's parts (None, like a None chi, is
    the unit).  The test is ``_is_character_word`` on the representative.
    """
    group = orbit.group
    if chi is not None and chi.group != group:
        raise ValueError("chi is not a character of the orbit's group")
    mask = check_theta_mask(orbit.shape, theta)
    return _is_character_word(group, orbit.words[0], group.order // orbit.size, chi, mask)


def _is_character_word(
    group: PermGroup, w: tuple[int, ...], fixers: int, chi: LinearCharacter | None, mask: tuple[bool, ...]
) -> bool:
    """Whether chi(sigma) * theta(u^-1 sigma u) is 1 on the stabilizer of the row-word w, of ``fixers`` elements.

    sigma fixes w, so each of its cycles lies in one component, and
    u^-1 sigma u restricted to block k is conjugate to sigma restricted to
    component k: theta(u^-1 sigma u) is the sign of sigma on the masked
    components, (-1)^sum(len(c) - 1) over its cycles c there.  The
    identity passes, and the test stops once it has seen ``fixers``
    elements (|G| over the orbit size), so a regular orbit reads no element.
    All arithmetic is on exact root-of-unity exponents.
    """
    if fixers == 1:  # a regular orbit: the identity alone
        return True
    masked = {x for x, k in enumerate(w, start=1) if mask[k - 1]}
    order = 1 if chi is None else chi.order  # chi(sigma) = zeta^(2e) and -1 = zeta^order, zeta a 2*order-th root
    for k in islice(_fixing(group, w), 1, fixers):
        cycles = Permutation._trusted(group.images[k]).cycles() if masked else ()
        flips = sum(len(c) - 1 for c in cycles if c[0] in masked)
        e = (0 if chi is None else 2 * chi.exponents[k]) + flips * order
        if e % (2 * order) != 0:
            return False
    return True


def refine(coarse: OrbitSpace, fine: OrbitSpace) -> dict[Orbit, tuple[Orbit, ...]]:
    """Map each coarse-group orbit to the fine-group orbits it contains."""
    if not fine.group.is_subgroup_of(coarse.group):
        raise ValueError("fine group is not a subgroup of the coarse group")
    if fine.shape != coarse.shape:
        raise ValueError("orbit spaces have different shapes")
    holder_of = coarse.positions
    buckets: list[list[Orbit]] = [[] for _ in coarse.orbits]
    for f in fine.orbits:
        buckets[holder_of[f.words[0]]].append(f)
    return {c: tuple(fs) for c, fs in zip(coarse.orbits, buckets)}


class ChiralEntry(_Record):
    """One coarse orbit, the fine orbits inside it, and whether they form a chiral pair."""

    __slots__ = ("coarse", "fine_orbits", "is_pair", "chi_e_orbit")


class ChiralReport(_Record):
    """Per coarse-group orbit: the fine orbits inside and the mirror test.

    An orbit splitting in two holds a chiral pair; equivalently the
    relative sign character is identically 1 on its stabilizers.
    """

    __slots__ = ("group", "extended_group", "shape", "entries")


def classify_chiral(group: PermGroup, extended: PermGroup, lam: Partition) -> ChiralReport:
    """Split the extended-group orbits into chiral pairs and singles.

    Requires group <= extended of index 1 or 2.  With index 1 every orbit
    is a single.  With index 2 an orbit is a pair exactly when the relative
    sign character is identically 1 on its stabilizers; the report asserts
    that equivalence.
    """
    if not group.is_subgroup_of(extended):
        raise ValueError("group is not a subgroup of the extended group")
    index = extended.order // group.order
    if extended.order % group.order or index not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {extended.order}/{group.order}")
    coarse = orbit_space(extended, lam)
    fine = orbit_space(group, lam)
    mapping = refine(coarse, fine)
    chi_e = relative_sign_character(extended, group) if index == 2 else None
    entries = []
    for c in coarse.orbits:
        fs = mapping[c]
        if index == 1:
            entries.append(ChiralEntry(c, fs, False, False))
            continue
        flag = is_character_orbit(c, chi_e)
        is_pair = len(fs) == 2
        if is_pair != flag:
            raise AssertionError(f"splitting and character test disagree on {c}")
        entries.append(ChiralEntry(c, fs, is_pair, flag))
    return ChiralReport(group, extended, lam, tuple(entries))
