"""Group orbits of tabloids and the factored substitution order.

A W-orbit of tabloids stands for one (potential) isomer; the partial order
between orbits, inherited from dominance on tabloids, is the genetic order
of substitution reactions.  Character tests on orbit stabilizers pick out
distinguished orbit families, in particular the ones holding chiral pairs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from .dissections import Dissection, shape_feasible, tabloid_builder, tabloid_words, word_mask
from .partitions import Partition, dominance_leq, raising_pair, shapes_between
from .perms import CapExceeded, LinearCharacter, PermGroup, Permutation, _close, _gather, _generated, relative_sign_character

__all__ = [
    "POSET_PAIR_CAP",
    "TABLOID_CAP",
    "ChiralReport",
    "Orbit",
    "OrbitSpace",
    "check_degree_cap",
    "check_tabloid_cap",
    "check_theta_mask",
    "classify_chiral",
    "comparable_pairs",
    "is_character_orbit",
    "orbit_adjacent",
    "orbit_cover",
    "orbit_interval",
    "orbit_leq",
    "orbit_space",
    "reaction_pairs",
    "refine",
    "stabilizer",
]

# comparable_pairs refuses requests with more orbit pairs than this to compare
POSET_PAIR_CAP = 250_000
# orbit_space refuses shapes with more tabloids than this
TABLOID_CAP = 100_000


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

    The member dissections are built on first use, by a ``tabloid_builder``
    shared by the orbits of one space, so equal component tuples across
    the space are stored once.  Equality and hashing are by identity: orbit
    spaces are memoized per group, so each orbit exists once, and dicts
    keyed by orbit never hash its members.
    """

    __slots__ = ("group", "shape", "words", "_build", "_representative", "_members", "_masks")

    def __init__(
        self,
        group: PermGroup,
        shape: Partition,
        words: tuple[tuple[int, ...], ...],
        build: Callable[[Iterable[tuple[int, ...]]], list[Dissection]],
    ):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_build", build)

    def __setattr__(self, *a):
        raise AttributeError("Orbit is immutable")

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def representative(self) -> Dissection:
        """The first member; built alone until the members are."""
        try:
            return self._representative
        except AttributeError:
            object.__setattr__(self, "_representative", self._build(self.words[:1])[0])
            return self._representative

    @property
    def members(self) -> tuple[Dissection, ...]:
        """The member tabloids, in word order; built on first use."""
        try:
            return self._members
        except AttributeError:
            object.__setattr__(self, "_members", (self.representative, *self._build(self.words[1:])))
            return self._members

    @property
    def masks(self) -> tuple[int, ...]:
        """word_mask of each member, in member order; built on first comparison."""
        try:
            return self._masks
        except AttributeError:
            object.__setattr__(self, "_masks", tuple(map(word_mask, self.words)))
            return self._masks

    def __contains__(self, a: Dissection) -> bool:
        return a in self.members

    def __repr__(self):
        return f"Orbit({self.representative}, size={self.size})"


class OrbitSpace:
    """All W-orbits on the tabloids of one shape, in representative order."""

    __slots__ = ("group", "shape", "orbits", "_positions")

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

    def orbit_of(self, a: Dissection) -> Orbit:
        k = self.positions.get(a.row_word())
        if k is None:
            raise ValueError(f"{a} is not a tabloid of shape {self.shape}")
        return self.orbits[k]


def check_tabloid_cap(shapes: Sequence[Partition]):
    """Refuse, before any enumeration, a shape with more than TABLOID_CAP tabloids.

    The multinomial d!/prod(lam_i!) is built as a product of binomials, one
    factor at a time.  The partial products only grow, so the check stops
    at the first one past the cap and never forms a huge factorial.
    """
    for lam in shapes:
        tabloids, left = 1, lam.d
        for part in lam.trimmed():
            k = min(part, left - part)
            for i in range(1, k + 1):
                tabloids = tabloids * (left - k + i) // i
                if tabloids > TABLOID_CAP:
                    raise CapExceeded(f"shape {lam} has more than {TABLOID_CAP} tabloids, the tabloid cap")
            left -= part


def check_degree_cap(d: int):
    """Refuse, from the degree alone, a request over every shape of degree d past TABLOID_CAP.

    The finest shape 1^d has d! tabloids, the most of any shape of degree
    d, so it bounds them all.  The factorial stops once it passes the cap,
    and no d-part partition is built.
    """
    tabloids = 1
    for k in range(2, d + 1):
        tabloids *= k
        if tabloids > TABLOID_CAP:
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
        getters = group._memo["getters"] = tuple(_gather(g.images) for g in group.elements)
    return getters


def orbit_space(group: PermGroup, lam: Partition) -> OrbitSpace:
    """Partition the tabloids of shape lam into group orbits (memoized).

    Tabloids are row-words on this path, numbered in canonical order.  A
    group element g sends the word w to the word w∘g.  The first tabloid
    not yet placed is the least of its orbit, so orbits come out in
    representative order with sorted members.  No member dissection is
    built here.  Each orbit is its first word sent through every element
    (|G| gathers per orbit, at least |G| * ceil(N / |G|) for N tabloids) or,
    when fewer, walked along generators known to generate (their count per word).
    """
    if lam.d != group.degree:
        raise ValueError("shape degree differs from group degree")
    cached = group._memo.get(("orbit_space", lam))
    if cached is not None:
        return cached
    check_tabloid_cap([lam])
    words = tabloid_words(lam)
    index = dict(zip(words, range(len(words))))
    gens, n = group.generators, len(words)
    walk = _generated(group) and len(gens) * n < group.order * -(-n // group.order)
    steps = [_gather(g.images) for g in gens] if walk else _getters(group)
    placed = bytearray(n)
    build = tabloid_builder(lam)
    orbits = []
    for k, w in enumerate(words):
        if placed[k]:
            continue
        at = sorted(map(index.__getitem__, _close(w, steps)) if walk else {index[get(w)] for get in steps})
        for j in at:
            placed[j] = 1
        orbits.append(Orbit(group, lam, tuple(map(words.__getitem__, at)), build))
    space = OrbitSpace(group, lam, tuple(orbits))
    group._memo[("orbit_space", lam)] = space
    return space


def _fixing(group: PermGroup, w: tuple[int, ...]) -> Iterator[Permutation]:
    """The elements of group fixing the row-word w, in element order."""
    return (g for g, get in zip(group.elements, _getters(group)) if get(w) == w)


def stabilizer(group: PermGroup, a: Dissection) -> PermGroup:
    """The subgroup fixing the dissection a."""
    if a.degree != group.degree:
        raise ValueError("degree mismatch")
    fixed = tuple(_fixing(group, a.row_word()))
    return PermGroup(group.degree, fixed, fixed)


def _require_same_group(a: Orbit, b: Orbit) -> None:
    if a.group is not b.group and a.group != b.group:
        raise ValueError("orbits belong to different groups")


def orbit_leq(a: Orbit, b: Orbit) -> bool:
    """Factored dominance: some group translate of a's representative precedes b's.

    The translates are exactly a's members, so the test runs on their masks.
    """
    _require_same_group(a, b)
    outside_b = ~b.masks[0]
    return any(not m & outside_b for m in a.masks)


def orbit_adjacent(a: Orbit, b: Orbit) -> bool:
    """a < b with shapes one raising operator apart."""
    _require_same_group(a, b)
    if raising_pair(a.shape, b.shape) is None:
        return False
    return a != b and orbit_leq(a, b)


def orbit_cover(a: Orbit, b: Orbit) -> bool:
    """Neighbour test in the orbit order, through tabloid-level covers.

    The open interval between the orbits is the image of the open tabloid
    intervals over all comparable translates of a's representative, so the
    orbits are neighbours exactly when every comparable translate pair is a
    tabloid cover (and at least one comparable translate exists).  A tabloid
    strictly between two others has a shape strictly between theirs, so a
    translate is a cover unless some such shape is realizable between it
    and b's representative; with no such shape every comparable translate
    of a distinct shape is a cover.
    """
    _require_same_group(a, b)
    lam, mu = a.shape, b.shape
    outside_b = ~b.masks[0]
    below = [k for k, m in enumerate(a.masks) if not m & outside_b]
    if lam == mu or not below:
        return False  # comparable tabloids of one shape are equal
    rb = b.representative
    return not any(
        shape_feasible(a.members[k], rb, nu) for nu in shapes_between(lam, mu) if nu != lam and nu != mu for k in below
    )


def orbit_interval(a: Orbit, b: Orbit, spaces: dict[Partition, OrbitSpace] | None = None) -> list[Orbit]:
    """All orbits c with a <= c <= b, across every intermediate shape."""
    if not orbit_leq(a, b):
        raise ValueError("a does not precede b in the orbit order")
    group = a.group
    if spaces is None:
        spaces = {}
    out = []
    for lam in shapes_between(a.shape, b.shape):
        if lam not in spaces:
            spaces[lam] = orbit_space(group, lam)
        for c in spaces[lam]:
            if orbit_leq(a, c) and orbit_leq(c, b):
                out.append(c)
    return out


def _tabloid_count(lam: Partition) -> int:
    """The multinomial d!/prod(lam_i!): the number of tabloids of shape lam."""
    return math.factorial(lam.d) // math.prod(math.factorial(k) for k in lam)


def _fewest_orbits(group: PermGroup, lam: Partition) -> int:
    """A lower bound on the orbit count of shape lam: no orbit outgrows the group."""
    return -(-_tabloid_count(lam) // group.order)


def comparable_pairs(group: PermGroup, shapes: Sequence[Partition]) -> list[tuple[Orbit, Orbit]]:
    """Every orbit pair a < b between distinct, dominance-comparable shapes.

    Shapes are visited in the given order, lower shape outermost, and the
    orbits of each in representative order.  Before any orbit space is
    built, a lower bound on the orbit pairs to compare is checked against
    POSET_PAIR_CAP.
    """
    steps = [(lam, mu) for lam in shapes for mu in shapes if lam != mu and dominance_leq(lam, mu)]
    bound = sum(_fewest_orbits(group, lam) * _fewest_orbits(group, mu) for lam, mu in steps)
    if bound > POSET_PAIR_CAP:
        raise CapExceeded(
            f"at least {bound} orbit pairs to compare, above the poset cap of {POSET_PAIR_CAP}; request fewer shapes"
        )
    pairs = []
    for lam, mu in steps:
        upper = orbit_space(group, mu)
        pairs.extend((a, b) for a in orbit_space(group, lam) for b in upper if orbit_leq(a, b))
    return pairs


def reaction_pairs(group: PermGroup, lam: Partition, mu: Partition) -> list[tuple[Orbit, Orbit]]:
    """All orbit pairs (a, b) with a < b across two adjacent shapes.

    Their number is the count of simple substitution reactions between the
    two empirical formulas.
    """
    if raising_pair(lam, mu) is None:
        raise ValueError(f"shapes {lam} and {mu} are not adjacent")
    return comparable_pairs(group, [lam, mu])


def is_character_orbit(
    orbit: Orbit, chi: LinearCharacter | None, theta: tuple[bool, ...] | None = None
) -> bool:
    """Whether chi(sigma) * theta(u^-1 sigma u) is 1 on the whole stabilizer.

    Here u carries the standard tabloid onto the orbit representative, and
    theta is a sign mask over the shape's parts (None, like a None chi, is
    the unit).  sigma fixes the representative, so each of its cycles lies
    in one component, and u^-1 sigma u restricted to block k is conjugate
    to sigma restricted to component k: theta(u^-1 sigma u) is the sign of
    sigma on the masked components, (-1)^sum(len(c) - 1) over its cycles c
    there.  All arithmetic is on exact root-of-unity exponents.
    """
    group = orbit.group
    if chi is not None and chi.group != group:
        raise ValueError("chi is not a character of the orbit's group")
    w = orbit.words[0]
    mask = check_theta_mask(orbit.shape, theta)
    masked = {x for x, k in enumerate(w, start=1) if mask[k - 1]}
    order = 1 if chi is None else chi.order  # chi(sigma) = zeta^(2e) and -1 = zeta^order, zeta a 2*order-th root
    for sigma in _fixing(group, w):
        flips = sum(len(c) - 1 for c in sigma.cycles() if c[0] in masked) if masked else 0
        e = (0 if chi is None else 2 * chi.exponent(sigma)) + flips * order
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
