"""Orbit counting through symmetric functions and class formulas.

Four independent routes compute the number of group orbits of tabloids per
shape (optionally filtered by a character pair): the scalar product of the
generalized cycle index with a product of complete homogeneous and
elementary symmetric functions, the conjugacy class formula (its unit case
is ``count_types``), Ruch's double-coset formula, and definitional brute
force.  The three formula routes read one per-group tally, the cycle
index's sum of the character per cycle type: a character is constant on
a class, so the classes themselves are never formed.  The brute route
walks the shape's tabloids in their one numbering, the walk that forms an
orbit space, and reads each orbit off its run of positions: it forms no
orbit space unless the group has one memoized.  All arithmetic is exact
and in integers.  Each formula route sums one integer numerator (under a
character of order above 2, a sum of roots of unity with integer
coefficients) over one known denominator, |G| or |G| times the product
of the factorials of the shape's parts, and ends in one exact division.
That division reduces a sum of roots of unity against the cyclotomic
polynomial and raises ArithmeticError on an irrational value, a remainder
or a negative quotient, so every integrality assertion is sharp and
nothing is rounded.  ``fractions`` is imported only where a library
caller reads a value that is not an integer, so no CLI request loads it.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from itertools import product

from .orbits import _Record, _is_character_word, _orbit_positions, check_theta_mask
from .partitions import (
    Partition,
    all_partitions,
    centralizer_order,
    dominance_leq,
)
from .perms import DEFAULT_CAP, CapExceeded, LinearCharacter, PermGroup

__all__ = [
    "CountReport",
    "PowerSumPoly",
    "RootOfUnitySum",
    "build_report",
    "check_scalar_cap",
    "combinatorially_equivalent",
    "count_brute",
    "count_classes",
    "count_ruch",
    "count_scalar",
    "count_types",
    "cycle_index",
    "monotonicity_check",
    "scalar_product",
    "young_character_index",
]

# -- exact root-of-unity sums -------------------------------------------------

def _divmod_monic(num: Sequence, den: Sequence[int]) -> tuple[list, list]:
    """Quotient and remainder of num by the monic den, coefficients low degree first."""
    rem, deg = list(num), len(den) - 1
    quot = [0] * (len(rem) - deg)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + deg]
        if c:
            for i, dc in enumerate(den):
                rem[k + i] -= c * dc
    return quot, rem[:deg]


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial: x^n - 1 divided by every Phi_d, d | n, d < n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, _cyclotomic(d))
            assert not any(rem)
    return tuple(poly)


class RootOfUnitySum:
    """An exact element of the n-th cyclotomic field.

    Stored as coefficients over exponents of a primitive n-th root of
    unity, integers on every counting route; rationality tests reduce
    against the cyclotomic polynomial.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, int | Fraction]):
        self.order = order
        self.coeffs = {e % order: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def root(cls, exponent: int, order: int) -> "RootOfUnitySum":
        return cls(order, {exponent % order: 1})

    @classmethod
    def of(cls, value) -> "RootOfUnitySum":
        if isinstance(value, RootOfUnitySum):
            return value
        return cls(1, {0: value})

    def _lift(self, order: int) -> dict[int, int | Fraction]:
        step = order // self.order
        return {e * step: c for e, c in self.coeffs.items()}

    def __add__(self, other):
        other = RootOfUnitySum.of(other)
        n = math.lcm(self.order, other.order)
        coeffs = self._lift(n)
        for e, c in other._lift(n).items():
            coeffs[e] = coeffs.get(e, 0) + c
        return RootOfUnitySum(n, coeffs)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, RootOfUnitySum):
            return RootOfUnitySum(self.order, {e: c * other for e, c in self.coeffs.items()})
        n = math.lcm(self.order, other.order)
        a, b = self._lift(n), other._lift(n)
        coeffs: dict[int, int | Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea + eb) % n
                coeffs[e] = coeffs.get(e, 0) + ca * cb
        return RootOfUnitySum(n, coeffs)

    __rmul__ = __mul__

    def conjugate(self) -> "RootOfUnitySum":
        return RootOfUnitySum(self.order, {(-e) % self.order: c for e, c in self.coeffs.items()})

    def _reduced(self) -> list[int | Fraction]:
        """The coefficients reduced modulo the cyclotomic polynomial, below its degree."""
        coeffs = [0] * self.order
        for e, c in self.coeffs.items():
            coeffs[e] += c
        return _divmod_monic(coeffs, _cyclotomic(self.order))[1]

    def as_fraction(self) -> int | Fraction | None:
        """The rational value, or None when the sum is irrational."""
        red = self._reduced()
        if any(red[1:]):
            return None
        return red[0]

    def __eq__(self, other):
        if not isinstance(other, RootOfUnitySum) and not hasattr(other, "denominator"):  # a rational, int included
            return NotImplemented
        diff = self + (RootOfUnitySum.of(other) * -1)
        return all(c == 0 for c in diff._reduced())

    def __repr__(self):
        if (f := self.as_fraction()) is not None:
            return f"RootOfUnitySum.of({f})"
        terms = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"RootOfUnitySum({self.order}, {{{terms}}})"


def _root_sum(tally: Counter, order: int) -> int | RootOfUnitySum:
    """The sum of zeta^e over a tally of exponents e of a primitive order-th root zeta: an int for orders 1 and 2."""
    return tally[0] - tally[1] if order <= 2 else RootOfUnitySum(order, tally)


def _over(num, den: int):
    """num / den: an int when den divides it, else a Fraction; a RootOfUnitySum coefficient by coefficient."""
    if isinstance(num, RootOfUnitySum):
        return RootOfUnitySum(num.order, {e: _over(c, den) for e, c in num.coeffs.items()})
    quot, rem = divmod(num, den)
    if not rem:
        return quot
    from fractions import Fraction

    return Fraction(num, den)


def _exact_quotient(num, den: int) -> int:
    """The count num / den, which must be a non-negative integer; ArithmeticError otherwise, never rounded.

    num is an int or, under a character of order above 2, a
    RootOfUnitySum, whose value is first reduced to a rational one.
    """
    if isinstance(num, RootOfUnitySum):
        value = num.as_fraction()
        if value is None:
            raise ArithmeticError(f"value is not rational: {num!r} / {den}")
        num = value
    quot, rem = divmod(num, den)
    if rem or quot < 0:
        raise ArithmeticError(f"expected a non-negative integer, got {num} / {den}")
    return quot


# -- power-sum polynomials ----------------------------------------------------

class PowerSumPoly:
    """A sparse polynomial in the power-sum basis, keyed by cycle type.

    Keys are trimmed partition tuples; a key of weight d stands for the
    product of power sums over its parts.  Values are held as numerators
    ``nums`` over one positive denominator ``den``, which the counting
    routes read: ints on every counting route (integer-coefficient
    RootOfUnitySums under a character of order above 2).  ``coeffs`` and
    ``coefficient`` give the values themselves, as ints where they are
    integers.
    """

    __slots__ = ("degree", "nums", "den")

    def __init__(self, degree: int, coeffs: dict, den: int = 1):
        self.degree = degree
        self.den = den
        self.nums = {k: v for k, v in coeffs.items() if not _is_zero(v)}

    @property
    def coeffs(self) -> dict:
        return {k: _over(v, self.den) for k, v in self.nums.items()}

    def coefficient(self, key: Sequence[int]):
        v = self.nums.get(tuple(sorted((k for k in key if k), reverse=True)))
        return 0 if v is None else _over(v, self.den)

    def __eq__(self, other):
        if not isinstance(other, PowerSumPoly) or self.degree != other.degree:
            return False
        keys = set(self.nums) | set(other.nums)
        return all(_is_zero(self.nums.get(k, 0) * other.den + other.nums.get(k, 0) * -self.den) for k in keys)

    def __repr__(self):
        terms = " + ".join(f"({v})p_{list(k)}" for k, v in sorted(self.coeffs.items()))
        return f"PowerSumPoly<{terms or '0'}>"


def _is_zero(v) -> bool:
    if isinstance(v, RootOfUnitySum):
        return v.as_fraction() == 0
    return v == 0


def cycle_index(group: PermGroup, chi: LinearCharacter | None = None) -> PowerSumPoly:
    """Character-weighted average of power-sum monomials over the group.

    Integer tallies over |G|: per cycle key, the element count for the
    unit, else the sum of chi over the elements of that key, from a tally
    per (key, exponent).  Every formula route reads them.  Memoized on the
    group for the unit, on chi otherwise.
    """
    if chi is not None and chi.group != group:
        raise ValueError("character does not live on this group")
    unit = chi is None or chi.order == 1
    index = group._memo.get("cycle_index") if unit else chi._cycle_index
    if index is None:
        if unit:
            index = group._memo["cycle_index"] = PowerSumPoly(group.degree, Counter(group.cycle_keys()), group.order)
        else:
            tallies: dict[tuple[int, ...], Counter] = {}
            for (key, e), c in Counter(zip(group.cycle_keys(), map(chi._table.__getitem__, group.images))).items():
                tallies.setdefault(key, Counter())[e % chi.order] += c
            sums = {k: _root_sum(t, chi.order) for k, t in tallies.items()}
            index = chi._cycle_index = PowerSumPoly(group.degree, sums, group.order)
    return index


@lru_cache(maxsize=None)
def _partition_numbers() -> tuple[int, ...]:
    """The partition numbers p(0), p(1), ... up to the first past DEFAULT_CAP (Euler's pentagonal recurrence)."""
    p = [1]
    while p[-1] <= DEFAULT_CAP:
        n, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            pair = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += pair if k % 2 else -pair
            k += 1
        p.append(total)
    return tuple(p)


def check_scalar_cap(shapes: Sequence[Partition]):
    """Refuse, before any expansion, a shape whose scalar route needs more than DEFAULT_CAP power-sum terms.

    The h/e product of a shape multiplies p(n) terms for each part n.  The
    partition numbers p are built once, only until one passes the cap, so
    a huge part costs no more than a small one.
    """
    p = _partition_numbers()
    for lam in shapes:
        terms = 1
        for part in lam.trimmed():
            terms *= p[min(part, len(p) - 1)]
            if terms > DEFAULT_CAP:
                raise CapExceeded(f"shape {lam} expands to more than {DEFAULT_CAP} power-sum terms, the scalar-route cap")


@lru_cache(maxsize=None)
def _h_or_e(n: int, signed: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    """n! h_n, or n! e_n when signed, in the power-sum basis: the class sizes n!/z_alpha, signed by alpha for e_n."""
    size = math.factorial(n)
    keys = [alpha.trimmed() for alpha in all_partitions(n)]
    return tuple((k, (_sign_of_type(k, n) if signed else 1) * (size // centralizer_order(k))) for k in keys)


@lru_cache(maxsize=None)
def young_character_index(lam: Partition, theta: tuple[bool, ...] | None = None) -> PowerSumPoly:
    """Cycle index of the Young subgroup of lam weighted by the sign mask theta.

    The Young subgroup is a product of symmetric groups on the blocks and
    theta a product of signs on the masked ones, so the index is a product
    over the parts: the complete homogeneous h_n for an unmasked part n, the
    elementary e_n for a masked one.  Each factor is scaled by n!, so the
    product has integer coefficients over the product of the parts'
    factorials.  The group is never built.
    """
    check_scalar_cap([lam])
    coeffs: dict[tuple[int, ...], int] = {(): 1}
    den = 1
    for part, masked in zip(lam.trimmed(), check_theta_mask(lam, theta)):
        nxt: dict[tuple[int, ...], int] = {}
        for key, c in coeffs.items():
            for hkey, hc in _h_or_e(part, masked):
                merged = tuple(sorted(key + hkey, reverse=True))
                nxt[merged] = nxt.get(merged, 0) + c * hc
        coeffs, den = nxt, den * math.factorial(part)
    return PowerSumPoly(lam.d, coeffs, den)


def _pairing(f: PowerSumPoly, g: PowerSumPoly):
    """The Hall pairing of f's and g's numerators: power sums are orthogonal with norm the centralizer order."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    total = 0
    for key, fv in f.nums.items():
        gv = g.nums.get(key)
        if gv is None:
            continue
        if isinstance(gv, RootOfUnitySum):
            gv = gv.conjugate()
        total = total + fv * (gv * centralizer_order(key))
    return total


def scalar_product(f: PowerSumPoly, g: PowerSumPoly):
    """Hall pairing: power sums are orthogonal with norm the centralizer order."""
    return _over(_pairing(f, g), f.den * g.den)


# -- the four counting routes -------------------------------------------------

def count_scalar(
    group: PermGroup,
    chi: LinearCharacter | None,
    lam: Partition,
    theta: tuple[bool, ...] | None = None,
) -> int:
    """Orbit count as a pairing of generalized cycle indices.

    W's cycle index weighted by chi is paired with the Young subgroup's
    weighted by the sign mask theta (None is the unit): the pairing of
    their numerators over |G| times the product of lam's part factorials.
    """
    index, young = cycle_index(group, chi), young_character_index(lam, theta)
    return _exact_quotient(_pairing(index, young), index.den * young.den)


@lru_cache(maxsize=None)
def _split_multiset(parts: tuple[int, ...], targets: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Distinct ways to split the multiset of parts (descending) into blocks of given weights (memoized)."""
    if not parts:
        return () if any(targets) else (((),) * len(targets),)
    v, c = parts[0], parts.count(parts[0])
    splits = []
    for ks in product(*(range(t // v + 1) for t in targets)):
        if sum(ks) == c:
            rest = tuple(t - k * v for t, k in zip(targets, ks))
            splits.extend(tuple((v,) * k + b for k, b in zip(ks, tail)) for tail in _split_multiset(parts[c:], rest))
    return tuple(splits)


def _sign_of_type(beta: tuple[int, ...], weight: int) -> int:
    return -1 if (weight - len(beta)) % 2 else 1


def count_classes(
    group: PermGroup,
    chi: LinearCharacter | None,
    lam: Partition,
    theta: tuple[bool, ...] | None = None,
) -> int:
    """Orbit count from the class formula over cycle types, and cycle-type splittings.

    theta is a sign mask over the parts of lam (None means the unit
    character).  Every cycle type shared with the Young subgroup, the
    all-fixed one included, contributes its cycle-index sum of chi times, per
    splitting over the blocks, the integer ratio z_alpha / prod z_beta (a
    product of multinomials) and the block signs; the total is over |G|.
    """
    if lam.d != group.degree:
        raise ValueError("shape degree differs from group degree")
    blocks = lam.trimmed()
    mask = check_theta_mask(lam, theta)
    total = 0
    for key, class_sum in cycle_index(group, chi).nums.items():
        z_alpha, weight = centralizer_order(key), 0
        for split in _split_multiset(key, blocks):
            sign = math.prod(_sign_of_type(b, size) for b, size, flag in zip(split, blocks, mask) if flag)
            weight += sign * (z_alpha // math.prod(map(centralizer_order, split)))
        if weight:
            total = total + class_sum * weight
    return _exact_quotient(total, group.order)


def count_types(group: PermGroup, lam: Partition) -> int:
    """Unit-character specialization of the class formula."""
    return count_classes(group, None, lam, None)


def count_ruch(group: PermGroup, lam: Partition) -> int:
    """Double-coset count over cycle types shared with the Young subgroup.

    Each shared type adds its element counts in W and in the Young
    subgroup over its class size in S_d, d!/z; the sum times d!/(|W| |Y|)
    is one integer numerator over |W| times the product of lam's part
    factorials.
    """
    if lam.d != group.degree:
        raise ValueError("shape degree differs from group degree")
    blocks = lam.trimmed()
    total = 0
    for key, w_count in cycle_index(group).nums.items():
        young_count = 0
        for split in _split_multiset(key, blocks):
            young_count += math.prod(math.factorial(size) // centralizer_order(b) for b, size in zip(split, blocks))
        total += w_count * young_count * centralizer_order(key)
    return _exact_quotient(total, group.order * math.prod(map(math.factorial, blocks)))


def count_brute(
    group: PermGroup,
    lam: Partition,
    chi: LinearCharacter | None = None,
    theta: tuple[bool, ...] | None = None,
) -> int:
    """Definitional count: enumerate tabloids, form orbits, filter by characters.

    The orbits are those of a space the group has memoized, or else the
    runs of the traversal that forms one, ``_orbit_positions``, which keeps
    nothing: no member words, no ``Orbit`` and no memoized space.  Under a
    character pair each orbit is tested on its least word, with the
    stabilizer's order |G| over the run's length.
    """
    space = group._memo.get(("orbit_space", lam))
    if chi is None and theta is None:
        return len(space) if space is not None else sum(1 for _ in _orbit_positions(group, lam)[1])
    if chi is not None and chi.group != group:
        raise ValueError("chi is not a character of the orbit's group")
    mask = check_theta_mask(lam, theta)
    if space is not None:
        orbits = ((orbit.words[0], orbit.size) for orbit in space)
    else:
        words, runs = _orbit_positions(group, lam)
        orbits = ((words[min(at)], len(at)) for at in runs)
    order = group.order
    return sum(1 for w, size in orbits if _is_character_word(group, w, order // size, chi, mask))


# -- cross-validation and order properties ------------------------------------

class CountReport(_Record):
    """One shape's counts along every applicable route.

    ``via_types`` and ``via_ruch`` are None where those routes do not apply
    (a non-unit character pair).
    """

    __slots__ = ("shape", "chi_label", "theta_label", "via_scalar", "via_classes", "via_types", "via_ruch", "via_brute")

    @property
    def agree(self) -> bool:
        vals = {self.via_scalar, self.via_classes, self.via_brute}
        vals.update(v for v in (self.via_types, self.via_ruch) if v is not None)
        return len(vals) == 1

    def to_json_dict(self) -> dict:
        return {
            "shape": str(self.shape),
            "chi": self.chi_label,
            "theta": self.theta_label,
            "scalar": self.via_scalar,
            "t527": self.via_classes,
            "t529": self.via_types,
            "ruch": self.via_ruch,
            "brute": self.via_brute,
            "agree": self.agree,
        }


def build_report(
    group: PermGroup,
    lam: Partition,
    chi: LinearCharacter | None = None,
    theta: tuple[bool, ...] | None = None,
    chi_label: str = "1",
    theta_label: str = "1",
) -> CountReport:
    """Run every applicable counting route for one shape and compare.

    In the unit case the class formula is its cycle-type specialization,
    so its one value fills both columns.
    """
    unit_case = (chi is None or chi.order == 1) and not any(theta or ())
    via_classes = count_classes(group, chi, lam, theta)
    return CountReport(
        shape=lam,
        chi_label=chi_label,
        theta_label=theta_label,
        via_scalar=count_scalar(group, chi, lam, theta),
        via_classes=via_classes,
        via_types=via_classes if unit_case else None,
        via_ruch=count_ruch(group, lam) if unit_case else None,
        via_brute=count_brute(group, lam, chi, theta),
    )


def combinatorially_equivalent(w1: PermGroup, w2: PermGroup) -> bool:
    """Equality of cycle-type censuses (the unit cycle indices' numerators); equivalent to equal counts at every shape."""
    if w1.degree != w2.degree:
        raise ValueError("degree mismatch")
    return cycle_index(w1).nums == cycle_index(w2).nums


def monotonicity_check(group: PermGroup, chi: LinearCharacter | None = None) -> list[tuple[Partition, Partition]]:
    """Shape pairs violating descent of counts along dominance (expected none)."""
    shapes = all_partitions(group.degree)
    counts = {lam: count_scalar(group, chi, lam) for lam in shapes}
    violations = []
    for lam in shapes:
        for mu in shapes:
            if lam != mu and dominance_leq(lam, mu) and counts[lam] < counts[mu]:
                violations.append((lam, mu))
    return violations
