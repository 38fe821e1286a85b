"""Ordered dissections of [1,d], tabloids, and raising moves between them.

A dissection is a d-tuple of disjoint subsets of [1,d] covering [1,d]
(empty components allowed); a tabloid additionally has weakly decreasing
component sizes.  The dominance order compares prefix unions.  Raising
moves transfer single elements toward earlier components and model inverse
substitution steps; every comparison A <= B is witnessed by an explicit
sequence of such moves.

Every order predicate here reads the row-word, w[x-1] the component of
point x.  With alpha the word of a and beta that of b, a <= b exactly when
beta_x <= alpha_x at every point x: each prefix union of a lies in that of
b when no point sits later in b than in a.  Dissections under dominance
are thus the product of d chains, one per point, and dominance, covers,
intervals and raising moves are pointwise readings of that product.

The tabloids of one shape have one numbering, canonical order, cached per
shape: ``tabloid_words`` lists their row-words and ``tabloid_positions``
maps a word to its number.  Orbit spaces are formed and counted over those
numbers.  Texts come from a second form, the reading: a tabloid's points
component by component, each component ascending, which is the order its
brace text prints them.  ``tabloid_formatter`` builds a shape's readings
in the same order, fills one template per shape with them and sorts
nothing; they live as long as the formatter.  ``word_formatter`` instead
sorts one word's points, for listings that print only representatives.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import combinations, product
from operator import itemgetter, le

from .partitions import Partition, dominance_leq, in_M, raising_pair, shapes_between
from .perms import Permutation, _gather

__all__ = [
    "Dissection",
    "all_tabloids",
    "format_tabloid",
    "interval_dissections",
    "is_cover_dissection",
    "is_cover_tabloid",
    "leq_dissection",
    "lift_shape",
    "parse_tabloid",
    "raise_into",
    "raising_moves",
    "standard_tabloid",
    "substitution_chain",
    "tabloid_formatter",
    "tabloid_positions",
    "tabloid_words",
    "word_formatter",
]


class Dissection:
    """A d-tuple of sorted disjoint subsets of [1,d] whose union is [1,d], stored as its row-word."""

    __slots__ = ("_word", "_components")

    def __init__(self, components: Iterable[Iterable[int]], d: int | None = None):
        comps = [tuple(sorted(c)) for c in components]
        if d is not None:
            if len(comps) > d:
                raise ValueError(f"more than {d} components")
            comps.extend([()] * (d - len(comps)))
        d = len(comps)
        flat = [x for c in comps for x in c]
        if sorted(flat) != list(range(1, d + 1)):
            raise ValueError(f"components do not dissect [1,{d}]: {comps}")
        word = [0] * d
        for k, comp in enumerate(comps, start=1):
            for x in comp:
                word[x - 1] = k
        object.__setattr__(self, "_word", tuple(word))

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "Dissection":
        """Wrap a row-word this package built, with every entry in [1,d], unchecked."""
        a = object.__new__(cls)
        object.__setattr__(a, "_word", word)
        return a

    def __setattr__(self, *a):
        raise AttributeError("Dissection is immutable")

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The d components as sorted tuples; read off the row-word on first use and kept."""
        try:
            return self._components
        except AttributeError:
            comps: list[list[int]] = [[] for _ in self._word]
            for x, k in enumerate(self._word, start=1):
                comps[k - 1].append(x)
            object.__setattr__(self, "_components", tuple(map(tuple, comps)))
            return self._components

    @property
    def degree(self) -> int:
        return len(self._word)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    def is_tabloid(self) -> bool:
        sizes = self.shape()
        return all(a >= b for a, b in zip(sizes, sizes[1:]))

    def component_of(self, s: int) -> int:
        """The (1-based) index of the component containing s."""
        if not 1 <= s <= self.degree:
            raise ValueError(f"point {s} outside [1,{self.degree}]")
        return self._word[s - 1]

    def row_word(self) -> tuple[int, ...]:
        """The tuple w with w[x-1] the (1-based) component holding point x."""
        return self._word

    def acted_by(self, perm: Permutation) -> "Dissection":
        """The image under perm: point perm(x) sits where x did, so the word is gathered by perm's inverse."""
        if perm.degree != self.degree:
            raise ValueError("degree mismatch")
        return Dissection._trusted(_gather(perm.inverse().images)(self._word))

    def __eq__(self, other):
        return isinstance(other, Dissection) and self._word == other._word

    def __hash__(self):
        return hash(self._word)

    def __lt__(self, other):  # lexicographic on component tuples, for canonical order
        return self.components < other.components

    def __le__(self, other):
        return self.components <= other.components

    def __repr__(self):
        return f"Dissection.parse({str(self)!r})"

    def __str__(self):
        return format_tabloid(self)

    @staticmethod
    def parse(text: str, d: int | None = None) -> "Dissection":
        return parse_tabloid(text, d)


def format_tabloid(a: Dissection) -> str:
    """Brace syntax with all components, e.g. ``{2,3,5,6}{1,4}{}{}{}{}``."""
    return "".join("{" + ",".join(map(str, c)) + "}" for c in a.components)


def parse_tabloid(text: str, d: int | None = None) -> Dissection:
    """Parse brace syntax; trailing empty components may be omitted if d given."""
    text = text.strip()
    if text and (not text.startswith("{") or not text.endswith("}")):
        raise ValueError(f"malformed dissection text: {text!r}")
    comps: list[list[int]] = []
    for part in text[1:-1].split("}{") if text else []:
        comps.append([int(tok) for tok in part.split(",") if tok.strip()] if part.strip() else [])
    if d is None:
        d = sum(len(c) for c in comps)
        if len(comps) > d:
            comps = comps[:d] if all(not c for c in comps[d:]) else comps
    return Dissection(comps, d)


def tabloid_words(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """The row-word of each tabloid of shape lam, in canonical order.

    Cached per trimmed shape for the life of the process, so every group of
    one degree shares the word tuples its orbit spaces hold.
    """
    return _shape_words(lam.trimmed(), 1)


@lru_cache(maxsize=None)
def tabloid_positions(lam: Partition) -> dict[tuple[int, ...], int]:
    """Each row-word of ``tabloid_words(lam)`` with its position there: the shape's one numbering, cached per shape."""
    words = tabloid_words(lam)
    return dict(zip(words, range(len(words))))


@lru_cache(maxsize=None)
def _shape_words(sizes: tuple[int, ...], first: int) -> tuple[tuple[int, ...], ...]:
    """Row-words of the tabloids whose components, labelled first, first + 1, ..., have these sizes.

    Canonical order compares the first component, then the rest.  So the
    first component runs through the combinations of the points in
    lexicographic order, and for each one every word of the shape without
    its first part (labels from first + 1) is spread over the points left
    by one gather: word[x] reads tail[rank of x among the points left],
    or the appended label first when x is chosen.
    """
    if len(sizes) <= 1:  # one component takes every point; none is the empty shape of degree 0
        return ((first,) * sum(sizes),)
    d = sum(sizes)
    rest = d - sizes[0]
    tails = [w + (first,) for w in _shape_words(sizes[1:], first + 1)]
    out: list[tuple[int, ...]] = []
    for chosen in combinations(range(d), sizes[0]):
        at = [rest] * d  # d >= 2 here, so the gather returns a tuple, not one item
        for rank, x in enumerate(sorted(set(range(d)).difference(chosen))):
            at[x] = rank
        out.extend(map(itemgetter(*at), tails))
    return tuple(out)


def _shape_readings(sizes: tuple[int, ...], labels: tuple) -> list[tuple]:
    """The reading of each tabloid of these sizes, in the canonical order of ``_shape_words``, in labels.

    A reading lists a tabloid's points component by component, each
    component ascending: the order ``format_tabloid`` prints them.  Point x
    is written labels[x - 1]: its text for a formatter, its 0-based index
    inside the recursion.  The walk over the combinations is that of the
    words: the chosen points come first, then a reading of the shape
    without its first part, whose points are the ones left, in ascending
    order.  One gather per tail reading, made once, reads the points left
    and the chosen ones off a tuple holding them in that order.  Nothing is
    cached: the tails cost a fraction of the shape, and a shape's readings
    live only as long as its formatter.
    """
    d = sum(sizes)
    if len(sizes) <= 1:
        return [labels]
    rest = d - sizes[0]
    gathers = [itemgetter(*range(rest, d), *r) for r in _shape_readings(sizes[1:], tuple(range(rest)))]
    out: list[tuple] = []
    for chosen in combinations(range(d), sizes[0]):
        points = tuple(map(labels.__getitem__, (*sorted(set(range(d)).difference(chosen)), *chosen)))
        out.extend([gather(points) for gather in gathers])
    return out


def tabloid_formatter(lam: Partition) -> Callable[[tuple[int, ...]], str]:
    """A function from the row-word of a tabloid of shape lam to its format_tabloid text; builds no Dissection.

    The text is one template, lam[k] fields per component, filled with the
    tabloid's reading in point texts, found at the word's position in the
    shape's numbering.  The readings of every tabloid of lam are built
    here and held by the function, so make one per shape listed.  A word
    that is no tabloid of shape lam raises KeyError.
    """
    template = _template(lam)
    at, readings = tabloid_positions(lam), _shape_readings(lam.trimmed(), tuple(map(str, range(1, lam.d + 1))))
    return lambda w: template % readings[at[w]]


def word_formatter(lam: Partition) -> Callable[[tuple[int, ...]], str]:
    """``tabloid_formatter(lam)``'s text of each word from the word alone, its points sorted stably by component."""
    template, texts, points = _template(lam), tuple(map(str, range(1, lam.d + 1))), range(lam.d)
    return lambda w: template % tuple(map(texts.__getitem__, sorted(points, key=w.__getitem__)))


def _template(lam: Partition) -> str:
    """The brace text of a tabloid of shape lam with a %s field per point: lam[k] fields in component k."""
    return "".join("{" + ",".join(["%s"] * k) + "}" for k in lam.parts)


def all_tabloids(lam: Partition) -> list[Dissection]:
    """All tabloids of shape lam, in canonical (lexicographic) order."""
    return list(map(Dissection._trusted, tabloid_words(lam)))


def standard_tabloid(lam: Partition) -> Dissection:
    """The tabloid with consecutive blocks [1..lam_1], [lam_1+1..], ..."""
    return Dissection._trusted(tuple(k for k, size in enumerate(lam.parts, start=1) for _ in range(size)))


def _words(a: Dissection, b: Dissection) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The row-words of a and b, which must have one degree."""
    alpha, beta = a.row_word(), b.row_word()
    if len(alpha) != len(beta):
        raise ValueError("degree mismatch")
    return alpha, beta


def leq_dissection(a: Dissection, b: Dissection) -> bool:
    """Dominance: every prefix union of a is contained in that of b.

    Pointwise, no point sits later in b than in a.
    """
    alpha, beta = _words(a, b)
    return all(map(le, beta, alpha))


def raise_into(i: int, s: int, a: Dissection) -> Dissection:
    """Move element s into component i if it currently sits later; else a."""
    if not 1 <= i <= a.degree:
        raise ValueError(f"component index {i} outside [1,{a.degree}]")
    if a.component_of(s) <= i:
        return a
    word = list(a.row_word())
    word[s - 1] = i
    return Dissection._trusted(tuple(word))


def _assign_words(alpha: tuple[int, ...], beta: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, ...] | None:
    """The row-word of some X with a <= X <= b and shape(X) = n, or None when none exists.

    alpha and beta are the row-words of a and b and n a non-negative
    composition of their common degree; nothing is checked.  An element
    sitting in component beta_x of b and alpha_x of a may occupy any
    component of X in [beta_x, alpha_x]; filling components in order and
    always spending the elements with the earliest deadline alpha_x decides
    feasibility exactly.  Ties break on the element, so the result is
    deterministic.
    """
    d = len(alpha)
    arrivals: list[list[int]] = [[] for _ in range(d + 1)]
    for x, bx in enumerate(beta, start=1):
        arrivals[bx].append(x)
    pool: list[int] = []
    word = [0] * d
    for v in range(1, d + 1):
        pool.extend(arrivals[v])
        pool.sort(key=lambda x: (alpha[x - 1], x))
        if len(pool) < n[v - 1]:
            return None
        chosen, pool = pool[: n[v - 1]], pool[n[v - 1] :]
        if any(alpha[x - 1] < v for x in chosen) or any(alpha[x - 1] <= v for x in pool):
            return None  # an element passed its deadline, as one with beta_x > alpha_x must
        for x in chosen:
            word[x - 1] = v
    return tuple(word)


def lift_shape(a: Dissection, b: Dissection, n: Sequence[int]) -> Dissection:
    """The canonical X with a <= X <= b and shape(X) = n.

    Requires a <= b and shape(a) <= n <= shape(b) in dominance with n
    non-negative.  Those conditions do not guarantee existence: a shape
    inside the dominance interval can still be unrealizable between a and
    b, and then this raises.
    """
    n = tuple(n)
    if not leq_dissection(a, b):
        raise ValueError("a does not precede b")
    if not in_M(n) or not dominance_leq(a.shape(), n) or not dominance_leq(n, b.shape()):
        raise ValueError(f"target shape {n} outside the dominance interval")
    word = _assign_words(a.row_word(), b.row_word(), n)
    if word is None:
        raise ValueError(f"no dissection of shape {n} lies between {a} and {b}")
    return Dissection._trusted(word)


def raising_moves(a: Dissection, b: Dissection) -> list[tuple[int, int]] | None:
    """A sequence of single-element raises carrying a onto b, or None.

    None exactly when a does not precede b in dominance.  Applying the
    returned (component, element) moves in order transforms a into b: each
    point x with beta_x < alpha_x moves once, straight into its component
    beta_x of b, and the moves fill b's components left to right.
    """
    if not leq_dissection(a, b):
        return None
    alpha, beta = a.row_word(), b.row_word()
    return sorted((bx, x) for x, (ax, bx) in enumerate(zip(alpha, beta), start=1) if bx < ax)


def interval_dissections(a: Dissection, b: Dissection) -> list[Dissection]:
    """The closed interval [a, b]: all X with a <= X <= b, sorted.

    X lies in it exactly when each point x sits in X somewhere in
    [beta_x, alpha_x], so the interval is the product of those ranges.
    """
    if not leq_dissection(a, b):
        raise ValueError("a does not precede b")
    alpha, beta = a.row_word(), b.row_word()
    return sorted(map(Dissection._trusted, product(*(range(bx, ax + 1) for ax, bx in zip(alpha, beta)))))


def substitution_chain(a: Dissection, b: Dissection) -> list[tuple[int, int]]:
    """The canonical move chain for a pair at dominance-adjacent shapes.

    Requires a < b with shape(b) obtained from shape(a) by one raising
    operator i <- j.  Returns moves (i_1, s_1), ..., (i_r, s_r) with
    strictly increasing components i = i_1 < ... < i_r, each s_k taken from
    component i_{k+1} of a (i_{r+1} = j); the moves commute and their
    product carries a onto b.  Intermediate stages may leave the tabloid
    family, never the dissection family.
    """
    if a.degree != b.degree:
        raise ValueError("degree mismatch")
    l, m = a.shape(), b.shape()
    pair = raising_pair(l, m)
    if pair is None or a == b or not leq_dissection(a, b):
        raise ValueError("shapes are not adjacent with a < b")
    i, j = pair
    moves = raising_moves(a, b)
    # each s_k sits in component i_{k+1} of a, so the components strictly increase
    sources = [i_k for i_k, _ in moves[1:]] + [j]
    if moves[0][0] != i or any(a.component_of(s) != src for (_, s), src in zip(moves, sources)):
        raise RuntimeError("the raising moves do not form a chain from i to j")
    return moves


def is_cover_dissection(a: Dissection, b: Dissection) -> bool:
    """Covering relation on dissections: one element drops one component.

    Pointwise, the words differ at exactly one point, and there by one.
    """
    alpha, beta = _words(a, b)
    moved = [(ax, bx) for ax, bx in zip(alpha, beta) if ax != bx]
    return len(moved) == 1 and moved[0][0] == moved[0][1] + 1


def is_cover_tabloid(a: Dissection, b: Dissection) -> bool:
    """Covering relation on tabloids: a < b with no tabloid strictly between.

    Any strictly intermediate tabloid would carry a shape strictly between
    the two shapes (equal shapes force equality), so the open interval is
    empty exactly when no strictly intermediate shape is realizable inside
    [a, b].  Shapes one raising step apart never admit an intermediate
    shape; for wider pairs realizability is decided per shape.
    """
    if not (a.is_tabloid() and b.is_tabloid()):
        raise ValueError("both arguments must be tabloids")
    if a == b or not leq_dissection(a, b):
        return False
    alpha, beta = a.row_word(), b.row_word()
    middles = shapes_between(a.shape(), b.shape())[1:-1]  # the ends are mu and lam
    return all(_assign_words(alpha, beta, nu.parts) is None for nu in middles)
