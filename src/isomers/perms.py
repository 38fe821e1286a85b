"""Permutations of [1,d], finite permutation groups, and linear characters.

Points are 1-based throughout.  Groups are materialized as the sorted
image tuples of their elements (breadth-first closure of their
generators), which is all the desk scale of this library ever needs.
Character values are kept as exact exponents of a primitive root of
unity, never as floats.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from operator import attrgetter, itemgetter

from .partitions import Partition

__all__ = [
    "CapExceeded",
    "ConjugacyClass",
    "LinearCharacter",
    "PermGroup",
    "Permutation",
    "generate",
    "linear_characters",
    "parse_cycles",
    "relative_sign_character",
]

DEFAULT_CAP = 100_000

_images = attrgetter("images")


class CapExceeded(ValueError):
    """A request refused before it builds more than a size cap allows."""


def _gather(images: Sequence[int]) -> Callable[[tuple], tuple]:
    """One C-level gather sending t to t∘p for p with these images: t*p on images, p's action on row-words."""
    if len(images) <= 1:  # a one-index itemgetter returns the item, not a 1-tuple
        return itemgetter(slice(0, len(images)))
    return itemgetter(*map((-1).__add__, images))  # the 0-based indices p(i) - 1


def _cycle_key(images: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle lengths of the permutation with these images, fixed points included, longest first."""
    pad, left, lengths = (0, *images), set(images), []
    while left:
        x = left.pop()
        n, y = 1, pad[x]
        while y != x:
            left.remove(y)
            n, y = n + 1, pad[y]
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def _tables(items: Sequence, index: Mapping, maps: Iterable[Callable]) -> list[list[int]]:
    """Each map as a permutation of positions: the position in ``index`` of every item's image, built in C."""
    return [list(map(index.__getitem__, map(f, items))) for f in maps]


def _runs(items: Sequence, index: Mapping, tables: list[list[int]] | None, others: Sequence[Callable]) -> Iterator[Collection[int]]:
    """The package's one orbit traversal: each orbit's positions among the items, from the first item not yet placed.

    An orbit is walked breadth-first along ``tables`` (from ``_tables``), a list in walk order, or, when tables is
    None, is the set of its first item's images under every map of ``others`` (the identity may be left out).
    """
    placed = bytearray(len(items))
    for k, w in enumerate(items):
        if placed[k]:
            continue
        if tables is None:
            at = {index[get(w)] for get in others}
            at.add(k)
            for j in at:
                placed[j] = 1
        else:
            placed[k], at = 1, [k]
            for x in at:  # breadth-first: the list grows while it is walked
                for move in tables:
                    y = move[x]
                    if not placed[y]:
                        placed[y] = 1
                        at.append(y)
        yield at


class Permutation:
    """A bijection of [1,d]; images[k] is the image of point k+1."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of [1,{len(imgs)}]: {imgs}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple this package built as a permutation of [1,d], unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls._trusted(tuple(range(1, d + 1)))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], d: int) -> "Permutation":
        images = list(range(1, d + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = list(cyc)
            for p in cyc:
                if not (1 <= p <= d):
                    raise ValueError(f"point {p} outside [1,{d}]")
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not (1 <= point <= self.degree):
            raise ValueError(f"point {point} outside [1,{self.degree}]")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (a*b)(i) = a(b(i))."""
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation._trusted(_gather(other.images)(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g * self * g^{-1}."""
        return g * self * g.inverse()

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, each starting at its minimum, sorted by minimum."""
        images, seen, out = self.images, set(), []
        for start in range(1, len(images) + 1):
            if start not in seen:
                cyc = [start]
                while (nxt := images[cyc[-1] - 1]) != start:
                    cyc.append(nxt)
                seen.update(cyc)
                if len(cyc) > 1:
                    out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        return Partition(_cycle_key(self.images), self.degree)

    def sign(self) -> int:
        return -1 if (self.degree - len(_cycle_key(self.images))) % 2 else 1

    def order(self) -> int:
        return math.lcm(*_cycle_key(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation.parse({str(self)!r}, d={self.degree})"

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "(1)"
        if self.degree <= 9:
            return "".join("(" + "".join(map(str, c)) + ")" for c in cycs)
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    @staticmethod
    def parse(text: str, d: int) -> "Permutation":
        return parse_cycles(text, d)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, d: int) -> Permutation:
    """Parse disjoint cycle notation, e.g. ``(123456)`` or ``(1 10 3)(2 4)``.

    Inside a cycle, points are separated by whitespace or commas; a run of
    bare digits is read one point per digit (single-digit points only).
    Unlisted points are fixed; empty text is the identity.
    """
    stripped = text.strip()
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise ValueError(f"malformed cycle text: {text!r}")
    cycles: list[list[int]] = []
    for inner in _CYCLE_RE.findall(stripped):
        inner = inner.strip()
        if not inner:
            continue
        if re.search(r"[\s,]", inner):
            points = [int(tok) for tok in re.split(r"[\s,]+", inner) if tok]
        else:
            if not inner.isdigit():
                raise ValueError(f"bad cycle entry {inner!r}")
            points = [int(ch) for ch in inner]
        cycles.append(points)
    try:
        return Permutation.from_cycles(cycles, d)
    except ValueError as exc:
        raise ValueError(f"{exc} in {text!r}") from None


class PermGroup:
    """A permutation group held as its elements' image tuples, sorted once.

    ``images`` is the sorted tuple of the elements' image tuples, so the
    identity comes first; cycle keys, per-element gathers and character
    exponents follow its order, and an element is found in it by bisection.
    The ``Permutation`` objects (``elements``, in the same order) are built
    on first use.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Iterable[Permutation]):
        self._hold(degree, generators, tuple(sorted(set(map(_images, elements)))))

    @classmethod
    def _of_images(cls, degree: int, generators: Sequence[Permutation], images: tuple[tuple[int, ...], ...]) -> "PermGroup":
        """The group of these image tuples, which this package built sorted and distinct, unchecked."""
        group = cls.__new__(cls)
        group._hold(degree, generators, images)
        return group

    def _hold(self, degree: int, generators: Sequence[Permutation], images: tuple[tuple[int, ...], ...]):
        self.degree = degree
        self.generators = tuple(generators)
        self.images = images
        self._memo: dict = {}  # per-group scratch cache (hash, cycle keys, unit cycle index, gathers, orbit spaces)
        if not images or images[0] != tuple(range(1, degree + 1)):
            raise ValueError("element list lacks the identity")

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, self.images))

    @property
    def order(self) -> int:
        return len(self.images)

    def _position(self, images: tuple[int, ...]) -> int | None:
        """The position in ``images`` of the element with these images, by bisection; None for a non-element."""
        k = bisect_left(self.images, images)
        return k if k < len(self.images) and self.images[k] == images else None

    def __eq__(self, other):
        return self is other or (isinstance(other, PermGroup) and self.degree == other.degree and self.images == other.images)

    def __hash__(self):
        h = self._memo.get("hash")
        if h is None:
            h = self._memo["hash"] = hash((self.degree, self.images))
        return h

    def __repr__(self):
        return f"PermGroup(d={self.degree}, order={self.order})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and None not in map(other._position, self.images)

    def cycle_keys(self) -> tuple[tuple[int, ...], ...]:
        """Each element's cycle type as a trimmed part tuple, in element order (one pass per group)."""
        keys = self._memo.get("cycle_keys")
        if keys is None:
            shared: dict[tuple[int, ...], tuple[int, ...]] = {}
            keys = tuple(shared.setdefault(k, k) for k in map(_cycle_key, self.images))
            self._memo["cycle_keys"] = keys
        return keys


def _generated(group: PermGroup) -> bool:
    """Whether the generators are known to generate the group: ``generate`` or ``linear_characters`` closed them."""
    return group._memo.get("generated", False)


class ConjugacyClass:
    """An orbit of the group acting on itself by conjugation."""

    __slots__ = ("representative", "members", "cycle_type")

    def __init__(self, members: Iterable[Permutation]):
        ms = tuple(sorted(members, key=_images))
        object.__setattr__(self, "members", ms)
        object.__setattr__(self, "representative", ms[0])
        object.__setattr__(self, "cycle_type", ms[0].cycle_type())

    def __setattr__(self, *a):
        raise AttributeError("ConjugacyClass is immutable")

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ConjugacyClass({self.representative}, size={len(self.members)})"


def generate(generators: Sequence[Permutation], degree: int | None = None, cap: int = DEFAULT_CAP) -> PermGroup:
    """Breadth-first closure of the generators on image tuples; errors past ``cap`` elements."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required to build the trivial group")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    identity = tuple(range(1, degree + 1))
    seen, frontier, maps = {identity}, [identity], [_gather(g.images) for g in gens]
    while frontier:
        nxt: list[tuple] = []
        for f in maps:
            new = set(map(f, frontier)) - seen
            seen |= new
            nxt.extend(new)
            if len(seen) > cap:
                raise CapExceeded(f"closure exceeds cap of {cap} elements")
        frontier = nxt
    group = PermGroup._of_images(degree, gens, tuple(sorted(seen)))
    group._memo["generated"] = True
    return group


def _conjugator(g: Permutation) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map sending the images of x to those of g * x * g^{-1}."""
    before = _gather(g.inverse().images)
    after = (0, *g.images).__getitem__
    return lambda x: tuple(map(after, before(x)))


def conjugacy_classes(group: PermGroup) -> list[ConjugacyClass]:
    """Partition of the group into conjugacy classes, deterministically ordered.

    Each class is walked along conjugation by the generators when they are
    known to generate the group, else found by conjugating by every element.
    No counting route reads it (the class formula reads ``cycle_index``); it
    stays for library callers and the benchmark's layer probe.
    """
    images, elements, index = group.images, group.elements, dict(zip(group.images, range(group.order)))
    if _generated(group):
        tables, others = _tables(images, index, map(_conjugator, group.generators)), ()
    else:
        tables, others = None, list(map(_conjugator, elements[1:]))  # the identity, elements[0], fixes every element
    classes = [ConjugacyClass(map(elements.__getitem__, at)) for at in _runs(images, index, tables, others)]
    classes.sort(key=lambda c: (c.cycle_type.trimmed(), c.representative.images))
    return classes


class LinearCharacter:
    """A homomorphism from a group into the roots of unity.

    Values are exp(2*pi*i*e/order) with the exponent e kept exactly:
    ``exponents`` holds one per element, in the group's element order.
    """

    __slots__ = ("group", "order", "exponents", "_cycle_index")

    def __init__(self, group: PermGroup, order: int, exponents: Iterable[int]):
        self.group = group
        self.order = order
        self.exponents = tuple(exponents)
        if len(self.exponents) != group.order:
            raise ValueError(f"{len(self.exponents)} exponents for a group of order {group.order}")
        self._cycle_index = None  # counting.cycle_index(group, self), built on first use

    def exponent(self, perm: Permutation) -> int:
        k = self.group._position(perm.images)
        if k is None:
            raise ValueError(f"{perm} outside the character's domain")
        return self.exponents[k]

    def is_one(self, perm: Permutation) -> bool:
        return self.exponent(perm) % self.order == 0

    def kernel_elements(self) -> list[Permutation]:
        return [g for g, e in zip(self.group.elements, self.exponents) if e % self.order == 0]

    def key(self) -> tuple:
        return (self.order, self.exponents)

    def __eq__(self, other):
        return isinstance(other, LinearCharacter) and self.group == other.group and self.key() == other.key()

    def __hash__(self):
        return hash((self.group, self.key()))

    def __repr__(self):
        return f"LinearCharacter(order={self.order}, group={self.group!r})"


def linear_characters(group: PermGroup) -> list[LinearCharacter]:
    """All homomorphisms into roots of unity, found on the Cayley graph.

    Candidate exponents are assigned to the generators (each consistent
    with its element order) and spread from the identity along the edges
    x -> x*g_i of a breadth-first walk, which raises unless it reaches every
    element, as e(x*g_i) = e(x) + e_i; an assignment is a character exactly
    when no edge disagrees.  Every value is a product of generator values,
    so exponents modulo the lcm of the generators' orders suffice.  The
    unit character is always first.
    """
    images, index = group.images, dict(zip(group.images, range(group.order)))
    steps = _tables(images, index, [_gather(g.images) for g in group.generators])
    walk = next(_runs(images, index, steps, ()))  # the identity is position 0
    if len(walk) != group.order:
        raise ValueError("stored generators do not generate the group")
    group._memo["generated"] = True
    edges = [(a, i, step[a]) for a in walk for i, step in enumerate(steps)]
    orders = [g.order() for g in group.generators]
    n = math.lcm(*orders)
    gen_choices = [range(0, n, n // m) for m in orders]

    # a character is fixed by its generator values, so no two assignments give the same one
    found: list[tuple[list[int], LinearCharacter]] = []
    for assign in itertools.product(*gen_choices):
        exps = [0] + [None] * (len(images) - 1)
        for a, i, b in edges:
            e = (exps[a] + assign[i]) % n
            if exps[b] is None:
                exps[b] = e
            elif exps[b] != e:
                break
        else:
            common = math.gcd(n, *exps)
            found.append((exps, LinearCharacter(group, n // common, [e // common for e in exps])))
    found.sort(key=itemgetter(0))
    return [chi for _, chi in found]


def relative_sign_character(big: PermGroup, small: PermGroup) -> LinearCharacter:
    """The order-2 character of ``big`` that is 1 exactly on ``small``.

    Requires small to be an index-2 subgroup of big.
    """
    if not small.is_subgroup_of(big):
        raise ValueError("small is not a subgroup of big")
    if big.order != 2 * small.order:
        raise ValueError(f"index is {big.order}/{small.order}, need exactly 2")
    return LinearCharacter(big, 2, [1 if small._position(g) is None else 0 for g in big.images])
