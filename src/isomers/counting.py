"""Orbit counting through symmetric functions and class formulas.

Four independent routes compute the number of group orbits of tabloids per
shape (optionally filtered by a character pair): the scalar product of the
generalized cycle index with a product of complete homogeneous and
elementary symmetric functions, a conjugacy
class formula, its unit-character specialization over cycle types, Ruch's
double-coset formula, and definitional brute force.  All arithmetic is
exact: rationals throughout, sums of roots of unity reduced against
cyclotomic polynomials, so every integrality assertion is sharp.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from typing import Sequence

from .orbits import _Record, check_theta_mask, is_character_orbit, orbit_space
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

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    # divide x^n - 1 by the cyclotomic polynomials of all proper divisors
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d:
            continue
        div = [Fraction(c) for c in _cyclotomic(d)]
        poly = _polydiv_exact(poly, div)
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def _polydiv_exact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        for i, dc in enumerate(den):
            num[k + i] -= c * dc
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


class RootOfUnitySum:
    """An exact element of the n-th cyclotomic field.

    Stored as rational coefficients over exponents of a primitive n-th root
    of unity; rationality tests reduce against the cyclotomic polynomial.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction]):
        self.order = order
        self.coeffs = {e % order: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def root(cls, exponent: int, order: int) -> "RootOfUnitySum":
        return cls(order, {exponent % order: Fraction(1)})

    @classmethod
    def of(cls, value) -> "RootOfUnitySum":
        if isinstance(value, RootOfUnitySum):
            return value
        return cls(1, {0: Fraction(value)})

    def _lift(self, order: int) -> dict[int, Fraction]:
        step = order // self.order
        return {e * step: c for e, c in self.coeffs.items()}

    def __add__(self, other):
        other = RootOfUnitySum.of(other)
        n = math.lcm(self.order, other.order)
        coeffs = self._lift(n)
        for e, c in other._lift(n).items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
        return RootOfUnitySum(n, coeffs)

    __radd__ = __add__

    def __mul__(self, other):
        other = RootOfUnitySum.of(other)
        n = math.lcm(self.order, other.order)
        a, b = self._lift(n), other._lift(n)
        coeffs: dict[int, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea + eb) % n
                coeffs[e] = coeffs.get(e, Fraction(0)) + ca * cb
        return RootOfUnitySum(n, coeffs)

    __rmul__ = __mul__

    def conjugate(self) -> "RootOfUnitySum":
        return RootOfUnitySum(self.order, {(-e) % self.order: c for e, c in self.coeffs.items()})

    def _reduced(self) -> list[Fraction]:
        phi = _cyclotomic(self.order) if self.order > 1 else (Fraction(-1), Fraction(1))
        deg = len(phi) - 1
        rem = [Fraction(0)] * self.order
        for e, c in self.coeffs.items():
            rem[e] += c
        for k in range(len(rem) - 1, deg - 1, -1):
            c = rem[k] / phi[-1]
            if c:
                for i, pc in enumerate(phi):
                    rem[k - deg + i] -= c * pc
        return rem[:deg] if deg else [Fraction(0)]

    def as_fraction(self) -> Fraction | None:
        """The rational value, or None when the sum is irrational."""
        red = self._reduced()
        if any(c != 0 for c in red[1:]):
            return None
        return red[0] if red else Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, (RootOfUnitySum, Fraction, int)):
            return NotImplemented
        diff = self + (RootOfUnitySum.of(other) * -1)
        return all(c == 0 for c in diff._reduced())

    def __repr__(self):
        if (f := self.as_fraction()) is not None:
            return f"RootOfUnitySum.of({f})"
        terms = ", ".join(f"{e}: {c}" for e, c in sorted(self.coeffs.items()))
        return f"RootOfUnitySum({self.order}, {{{terms}}})"


def _char_value(chi: LinearCharacter, perm):
    """chi's value as Fraction (orders 1, 2) or RootOfUnitySum."""
    e = chi.exponent(perm) % chi.order
    if chi.order <= 2:
        return Fraction(-1) if e else Fraction(1)
    return RootOfUnitySum.root(e, chi.order)


def _exactify(value) -> Fraction:
    """Collapse to a Fraction, failing loudly if irrational."""
    if isinstance(value, RootOfUnitySum):
        f = value.as_fraction()
        if f is None:
            raise ArithmeticError(f"value is not rational: {value!r}")
        return f
    return Fraction(value)


def _as_count(value) -> int:
    f = _exactify(value)
    if f.denominator != 1 or f < 0:
        raise ArithmeticError(f"expected a non-negative integer, got {f}")
    return int(f)


# -- power-sum polynomials ----------------------------------------------------

class PowerSumPoly:
    """A sparse polynomial in the power-sum basis, keyed by cycle type.

    Keys are trimmed partition tuples; a key of weight d stands for the
    product of power sums over its parts.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[tuple[int, ...], Fraction | RootOfUnitySum]):
        self.degree = degree
        self.coeffs = {k: v for k, v in coeffs.items() if not _is_zero(v)}

    def coefficient(self, key: Sequence[int]):
        return self.coeffs.get(tuple(sorted((k for k in key if k), reverse=True)), Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, PowerSumPoly) or self.degree != other.degree:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(_is_zero(self.coeffs.get(k, 0) + other.coeffs.get(k, 0) * Fraction(-1)) for k in keys)

    def __repr__(self):
        terms = " + ".join(f"({v})p_{list(k)}" for k, v in sorted(self.coeffs.items()))
        return f"PowerSumPoly<{terms or '0'}>"


def _is_zero(v) -> bool:
    if isinstance(v, RootOfUnitySum):
        return v.as_fraction() == 0
    return v == 0


def cycle_index(group: PermGroup, chi: LinearCharacter | None = None) -> PowerSumPoly:
    """Character-weighted average of power-sum monomials over the group.

    A sum over the elements, tallied per (cycle key, exponent), one
    coefficient built per key; memoized on the group for the unit, on chi otherwise.
    """
    if chi is not None and chi.group != group:
        raise ValueError("character does not live on this group")
    unit = chi is None or chi.order == 1
    index = group._memo.get("cycle_index") if unit else chi._cycle_index
    if index is None:
        n = 1 if unit else chi.order
        tallies: dict[tuple[int, ...], Counter] = {}
        exps = repeat(0) if unit else map(chi.exponent, group.elements)
        for (key, e), c in Counter(zip(group.cycle_keys(), exps)).items():
            tallies.setdefault(key, Counter())[e % n] += c
        weight = Fraction(1, group.order)
        index = PowerSumPoly(
            group.degree,
            {k: (t[0] - t[1]) * weight if n <= 2 else RootOfUnitySum(n, t) * weight for k, t in tallies.items()},
        )
        if unit:
            group._memo["cycle_index"] = index
        else:
            chi._cycle_index = index
    return index


def check_scalar_cap(shapes: Sequence[Partition]):
    """Refuse, before any expansion, a shape whose scalar route needs more than DEFAULT_CAP power-sum terms.

    The h/e product of a shape multiplies p(n) terms for each part n.  The
    partition numbers p are built (Euler's pentagonal recurrence) only until
    one passes the cap, so a huge part costs no more than a small one.
    """
    p = [1]
    while p[-1] <= DEFAULT_CAP:
        n, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            pair = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += pair if k % 2 else -pair
            k += 1
        p.append(total)
    for lam in shapes:
        terms = 1
        for part in lam.trimmed():
            terms *= p[min(part, len(p) - 1)]
            if terms > DEFAULT_CAP:
                raise CapExceeded(f"shape {lam} expands to more than {DEFAULT_CAP} power-sum terms, the scalar-route cap")


@lru_cache(maxsize=None)
def _h_or_e(n: int, signed: bool) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """h_n, or e_n when signed, in the power-sum basis: sum of (sign of alpha) p_alpha / z_alpha."""
    keys = [alpha.trimmed() for alpha in all_partitions(n)]
    return tuple((k, Fraction(_sign_of_type(k, n) if signed else 1, centralizer_order(k))) for k in keys)


@lru_cache(maxsize=None)
def young_character_index(lam: Partition, theta: tuple[bool, ...] | None = None) -> PowerSumPoly:
    """Cycle index of the Young subgroup of lam weighted by the sign mask theta.

    The Young subgroup is a product of symmetric groups on the blocks and
    theta a product of signs on the masked ones, so the index is a product
    over the parts: the complete homogeneous h_n for an unmasked part n, the
    elementary e_n for a masked one.  The group is never built.
    """
    check_scalar_cap([lam])
    coeffs: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
    for part, masked in zip(lam.trimmed(), check_theta_mask(lam, theta)):
        nxt: dict[tuple[int, ...], Fraction] = {}
        for key, c in coeffs.items():
            for hkey, hc in _h_or_e(part, masked):
                merged = tuple(sorted(key + hkey, reverse=True))
                nxt[merged] = nxt.get(merged, Fraction(0)) + c * hc
        coeffs = nxt
    return PowerSumPoly(lam.d, coeffs)


def scalar_product(f: PowerSumPoly, g: PowerSumPoly):
    """Hall pairing: power sums are orthogonal with norm the centralizer order."""
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    total: Fraction | RootOfUnitySum = Fraction(0)
    for key, fv in f.coeffs.items():
        gv = g.coeffs.get(key)
        if gv is None:
            continue
        if isinstance(gv, RootOfUnitySum):
            gv = gv.conjugate()
        total = total + fv * gv * centralizer_order(key)
    return total


# -- the four counting routes -------------------------------------------------

def count_scalar(
    group: PermGroup,
    chi: LinearCharacter | None,
    lam: Partition,
    theta: tuple[bool, ...] | None = None,
) -> int:
    """Orbit count as a pairing of generalized cycle indices.

    W's cycle index weighted by chi is paired with the Young subgroup's
    weighted by the sign mask theta (None is the unit).
    """
    value = scalar_product(cycle_index(group, chi), young_character_index(lam, theta))
    return _as_count(value)


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
    """Orbit count from conjugacy classes and cycle-type splittings.

    theta is a sign mask over the parts of lam (None means the unit
    character).  The leading term handles the all-fixed type; every other
    common cycle type contributes its class sums weighted by centralizer
    ratios and block signs.
    """
    d = group.degree
    if lam.d != d:
        raise ValueError("shape degree differs from group degree")
    blocks = lam.trimmed()
    mask = check_theta_mask(lam, theta)
    total: Fraction | RootOfUnitySum = Fraction(
        math.factorial(d), group.order * math.prod(math.factorial(k) for k in blocks)
    )
    identity_type = (1,) * d
    for census_key, type_count in group.cycle_type_census().items():
        if census_key == identity_type:
            continue
        splits = _split_multiset(census_key, blocks)
        if not splits:
            continue
        if chi is None or chi.order == 1:
            class_sum: Fraction | RootOfUnitySum = Fraction(type_count)
        else:
            in_type = (cls for cls in group.classes if cls.cycle_type.trimmed() == census_key)
            class_sum = sum((_char_value(chi, cls.representative) * len(cls) for cls in in_type), Fraction(0))
        z_alpha = centralizer_order(census_key)
        for split in splits:
            ratio = Fraction(z_alpha, math.prod(centralizer_order(b) for b in split))
            theta_val = math.prod(_sign_of_type(b, weight) for b, weight, flag in zip(split, blocks, mask) if flag)
            total = total + class_sum * (ratio * theta_val * Fraction(1, group.order))
    return _as_count(total)


def count_types(group: PermGroup, lam: Partition) -> int:
    """Unit-character specialization of the class formula."""
    return count_classes(group, None, lam, None)


def count_ruch(group: PermGroup, lam: Partition) -> int:
    """Double-coset count over cycle types shared with the Young subgroup."""
    d = group.degree
    if lam.d != d:
        raise ValueError("shape degree differs from group degree")
    blocks = lam.trimmed()
    young_order = math.prod(math.factorial(k) for k in blocks)
    total = Fraction(0)
    for key, w_count in group.cycle_type_census().items():
        young_count = 0
        for split in _split_multiset(key, blocks):
            young_count += math.prod(
                math.factorial(weight) // centralizer_order(b) for b, weight in zip(split, blocks)
            )
        if not young_count:
            continue
        class_size = math.factorial(d) // centralizer_order(key)
        total += Fraction(w_count * young_count, class_size)
    total *= Fraction(math.factorial(d), group.order * young_order)
    return _as_count(total)


def count_brute(
    group: PermGroup,
    lam: Partition,
    chi: LinearCharacter | None = None,
    theta: tuple[bool, ...] | None = None,
) -> int:
    """Definitional count: enumerate tabloids, form orbits, filter by characters."""
    space = orbit_space(group, lam)
    if chi is None and theta is None:
        return len(space)
    return sum(1 for orbit in space if is_character_orbit(orbit, chi, theta))


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
    """Run every applicable counting route for one shape and compare."""
    unit_case = (chi is None or chi.order == 1) and not any(theta or ())
    return CountReport(
        shape=lam,
        chi_label=chi_label,
        theta_label=theta_label,
        via_scalar=count_scalar(group, chi, lam, theta),
        via_classes=count_classes(group, chi, lam, theta),
        via_types=count_types(group, lam) if unit_case else None,
        via_ruch=count_ruch(group, lam) if unit_case else None,
        via_brute=count_brute(group, lam, chi, theta),
    )


def combinatorially_equivalent(w1: PermGroup, w2: PermGroup) -> bool:
    """Equality of cycle-type censuses; equivalent to equal counts at every shape."""
    if w1.degree != w2.degree:
        raise ValueError("degree mismatch")
    return w1.cycle_type_census() == w2.cycle_type_census()


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
