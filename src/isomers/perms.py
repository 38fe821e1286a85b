"""Permutations of [1,d], finite permutation groups, and linear characters.

Points are 1-based throughout.  Groups are materialized as sorted element
lists (breadth-first closure of their generators), which is all the desk
scale of this library ever needs.  Character values are kept as exact
exponents of a primitive root of unity, never as floats.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import lru_cache
from typing import Iterable, Sequence

from .partitions import Partition

__all__ = [
    "CapExceeded",
    "ConjugacyClass",
    "LinearCharacter",
    "PermGroup",
    "Permutation",
    "elements_of_cycle_type",
    "generate",
    "linear_characters",
    "parse_cycles",
    "relative_sign_character",
    "young_subgroup",
]

DEFAULT_CAP = 100_000


class CapExceeded(ValueError):
    """A request refused before it builds more than a size cap allows."""


class Permutation:
    """A bijection of [1,d]; images[k] is the image of point k+1."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of [1,{len(imgs)}]: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(1, d + 1))

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
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Permutation(inv)

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g * self * g^{-1}."""
        return g * self * g.inverse()

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> Partition:
        lengths = sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True)
        return Partition(lengths, self.degree)

    def cycle_counts(self) -> tuple[int, ...]:
        """(c_1, ..., c_d) with c_k the number of k-cycles."""
        return self.cycle_type().multiplicities()

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles(include_fixed=True))) % 2 else 1

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles(include_fixed=True)))

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
    if stripped.count("(") != len(_CYCLE_RE.findall(stripped)):
        raise ValueError(f"unbalanced parentheses: {text!r}")
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
    """A permutation group held as a complete, sorted element list."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._element_set = frozenset(self.elements)
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._census: dict[tuple[int, ...], int] | None = None
        self._memo: dict = {}  # per-group scratch cache (hash, image tuples, orbit spaces)
        if Permutation.identity(degree) not in self._element_set:
            raise ValueError("element list lacks the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._element_set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self._element_set == other._element_set
        )

    def __hash__(self):
        h = self._memo.get("hash")
        if h is None:
            h = self._memo["hash"] = hash((self.degree, self._element_set))
        return h

    def __repr__(self):
        return f"PermGroup(d={self.degree}, order={self.order})"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self._element_set <= other._element_set

    @property
    def classes(self) -> tuple["ConjugacyClass", ...]:
        if self._classes is None:
            self._classes = tuple(conjugacy_classes(self))
        return self._classes

    def cycle_type_census(self) -> dict[tuple[int, ...], int]:
        """Count of elements per cycle type (trimmed part tuples)."""
        if self._census is None:
            census: dict[tuple[int, ...], int] = {}
            for g in self.elements:
                key = g.cycle_type().trimmed()
                census[key] = census.get(key, 0) + 1
            self._census = census
        return dict(self._census)


class ConjugacyClass:
    """An orbit of the group acting on itself by conjugation."""

    __slots__ = ("representative", "members", "cycle_type")

    def __init__(self, members: Sequence[Permutation]):
        ms = tuple(sorted(members))
        object.__setattr__(self, "members", ms)
        object.__setattr__(self, "representative", ms[0])
        object.__setattr__(self, "cycle_type", ms[0].cycle_type())

    def __setattr__(self, *a):
        raise AttributeError("ConjugacyClass is immutable")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return f"ConjugacyClass({self.representative}, size={len(self.members)})"


def generate(generators: Sequence[Permutation], degree: int | None = None, cap: int = DEFAULT_CAP) -> PermGroup:
    """Breadth-first closure of the generators; errors past ``cap`` elements."""
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("degree required to build the trivial group")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > cap:
                        raise CapExceeded(f"closure exceeds cap of {cap} elements")
        frontier = nxt
    return PermGroup(degree, gens, sorted(elements))


def conjugacy_classes(group: PermGroup) -> list[ConjugacyClass]:
    """Partition of the group into conjugacy classes, deterministically ordered."""
    unassigned = set(group.elements)
    classes = []
    for x in group.elements:
        if x not in unassigned:
            continue
        members = {x.conjugated_by(g) for g in group.elements}
        unassigned -= members
        classes.append(ConjugacyClass(sorted(members)))
    classes.sort(key=lambda c: (c.cycle_type.trimmed(), c.representative.images))
    return classes


def elements_of_cycle_type(group: PermGroup, alpha: Partition) -> list[Permutation]:
    """All group elements whose cycle type is alpha."""
    if alpha.d != group.degree:
        raise ValueError("partition degree mismatch")
    return [g for g in group.elements if g.cycle_type() == alpha]


@lru_cache(maxsize=None)
def _young_cached(trimmed: tuple[int, ...], d: int) -> PermGroup:
    if (order := math.prod(math.factorial(k) for k in trimmed)) > DEFAULT_CAP:
        lam = Partition(trimmed, d)
        raise CapExceeded(f"Young subgroup of {lam} has {order} elements, above the cap of {DEFAULT_CAP}")
    gens = [
        Permutation.from_cycles([[a, a + 1]], d)
        for block in young_blocks(Partition(trimmed, d))
        for a in block[:-1]
    ]
    return generate(gens, degree=d)


def young_subgroup(lam: Partition, d: int | None = None) -> PermGroup:
    """Direct product of symmetric groups on consecutive blocks of sizes lam.

    A reference closure for tests: the library evaluates the characters of
    this group from their part masks and never builds it.
    """
    if d is None:
        d = lam.d
    if lam.d != d:
        lam = Partition(lam.trimmed(), d)
    return _young_cached(lam.trimmed(), d)


def young_blocks(lam: Partition) -> list[tuple[int, ...]]:
    """Consecutive blocks [1..lam_1], [lam_1+1..lam_1+lam_2], ..."""
    blocks = []
    start = 1
    for part in lam.trimmed():
        blocks.append(tuple(range(start, start + part)))
        start += part
    return blocks


class LinearCharacter:
    """A homomorphism from a group into the roots of unity.

    Values are exp(2*pi*i*e/order) with the exponent e kept exactly, one
    per element in ``table``.
    """

    def __init__(self, group: PermGroup, order: int, table: dict[Permutation, int]):
        self.group = group
        self.order = order
        self._table = table

    def exponent(self, perm: Permutation) -> int:
        try:
            return self._table[perm]
        except KeyError:
            raise ValueError(f"{perm} outside the character's domain") from None

    def is_one(self, perm: Permutation) -> bool:
        return self.exponent(perm) % self.order == 0

    def kernel_elements(self) -> list[Permutation]:
        return [g for g in self.group.elements if self.is_one(g)]

    def key(self) -> tuple:
        return (self.order, tuple(self.exponent(g) for g in self.group.elements))

    def __eq__(self, other):
        return isinstance(other, LinearCharacter) and self.group == other.group and self.key() == other.key()

    def __hash__(self):
        return hash((self.group, self.key()))

    def __repr__(self):
        return f"LinearCharacter(order={self.order}, group={self.group!r})"


def unit_character(group: PermGroup) -> LinearCharacter:
    return LinearCharacter(group, 1, {g: 0 for g in group.elements})


def linear_characters(group: PermGroup) -> list[LinearCharacter]:
    """All homomorphisms into roots of unity, found on the Cayley graph.

    Candidate exponents are assigned to the generators (each consistent
    with its element order) and spread from the identity along the edges
    x -> x*g_i as e(x*g_i) = e(x) + e_i; an assignment is a character
    exactly when no edge disagrees.  The unit character is always first.
    """
    if not group.generators:
        return [unit_character(group)]
    elements = [group.identity]
    index = {group.identity: 0}
    edges = []
    for a, x in enumerate(elements):  # breadth-first: the list grows while it is walked
        for i, g in enumerate(group.generators):
            y = x * g
            b = index.get(y)
            if b is None:
                b = index[y] = len(elements)
                elements.append(y)
            edges.append((a, i, b))
    if len(elements) != group.order:
        raise ValueError("stored generators do not generate the group")
    n = math.lcm(*(g.order() for g in group.elements))
    gen_choices = []
    for g in group.generators:
        step = n // math.gcd(n, g.order())
        gen_choices.append(range(0, n, step))

    # a character is fixed by its generator values, so no two assignments give the same one
    found: list[LinearCharacter] = []
    for assign in itertools.product(*gen_choices):
        exps = [0] + [None] * (len(elements) - 1)
        for a, i, b in edges:
            e = (exps[a] + assign[i]) % n
            if exps[b] is None:
                exps[b] = e
            elif exps[b] != e:
                break
        else:
            common = math.gcd(n, *exps)
            table = {el: e // common for el, e in zip(elements, exps)}
            found.append(LinearCharacter(group, n // common, table=table))
    found.sort(key=lambda c: tuple(c.exponent(g) * (n // c.order) for g in group.elements))
    return found


def relative_sign_character(big: PermGroup, small: PermGroup) -> LinearCharacter:
    """The order-2 character of ``big`` that is 1 exactly on ``small``.

    Requires small to be an index-2 subgroup of big.
    """
    if not small.is_subgroup_of(big):
        raise ValueError("small is not a subgroup of big")
    if big.order != 2 * small.order:
        raise ValueError(f"index is {big.order}/{small.order}, need exactly 2")
    table = {g: (0 if g in small else 1) for g in big.elements}
    return LinearCharacter(big, 2, table=table)


def commutator_subgroup(group: PermGroup) -> PermGroup:
    """Closure of all commutators; brute force, for cross-checks."""
    comms = {a * b * a.inverse() * b.inverse() for a in group.elements for b in group.elements}
    return generate(sorted(comms), degree=group.degree)
