"""Integer compositions and partitions under the dominance order.

Compositions are plain length-d integer tuples summing to d (entries may be
negative in transient contexts; ``in_M`` tests non-negativity).  Partitions
are zero-padded to length d so raising operators always have defined
coordinates.  All operator indices are 1-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, groupby
from operator import le

__all__ = [
    "Partition",
    "all_partitions",
    "adjacent_raising_chain",
    "centralizer_order",
    "common_prefix_len",
    "covers_above",
    "dominance_leq",
    "format_partition",
    "in_M",
    "is_cover_composition",
    "is_cover_partition",
    "parse_partition",
    "prefix_gaps",
    "raising_op",
    "raising_pair",
    "shapes_between",
]


def _parts(x) -> tuple[int, ...]:
    return x.parts if isinstance(x, Partition) else tuple(x)


class Partition:
    """A weakly decreasing composition of d, stored padded to length d."""

    __slots__ = ("parts", "_text", "_hash")

    def __init__(self, parts: Iterable[int], d: int | None = None):
        p = tuple(parts)
        n = len(p) if d is None else d
        # checked on the parts as given, before the padding, which no message prints
        if len(p) > n:
            raise ValueError(f"more than {n} parts: {_runs(p)}")
        if sorted(p, reverse=True) != list(p):
            raise ValueError(f"parts not weakly decreasing: {_runs(p)}")
        if (p and p[-1] < 0) or sum(p) != n:
            raise ValueError(f"not a partition of {n}: {_runs(p) or 'no parts'}")
        object.__setattr__(self, "parts", p + (0,) * (n - len(p)))

    def __setattr__(self, *a):
        raise AttributeError("Partition is immutable")

    @property
    def d(self) -> int:
        return len(self.parts)

    def trimmed(self) -> tuple[int, ...]:
        return self.parts[: len(self.parts) - self.parts.count(0)]  # the zeros are a suffix

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        """Hashed on first use: shapes key the orbit-space memo and shapes_between's cache."""
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(("Partition", self.parts)))
            return self._hash

    def __lt__(self, other):  # lexicographic, for deterministic sorting only
        return self.parts < other.parts

    def __repr__(self):
        return f"Partition({list(self.trimmed())}, d={self.d})"

    def __str__(self):
        """format_partition(self), built on first use: orbit listings name the shape once per orbit."""
        try:
            return self._text
        except AttributeError:
            object.__setattr__(self, "_text", format_partition(self))
            return self._text


def _runs(parts: Iterable[int]) -> str:
    """The parts in order, a run of one value written ``value^length``: no longer than the exponent form they were parsed from."""
    return ",".join(f"{k}^{n}" if (n := sum(1 for _ in run)) > 1 else str(k) for k, run in groupby(parts))


def format_partition(lam: Partition | Sequence[int]) -> str:
    """Render with exponents for repeated parts, e.g. ``2^2,1^2``."""
    return _runs(filter(None, _parts(lam))) or "0"


def parse_partition(text: str, d: int | None = None) -> Partition:
    """Parse ``4,2`` or exponent form ``2^2,1^2``; inverse of format_partition."""
    parts: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ValueError(f"empty part in partition {text!r}")
        if "^" in tok:
            base, _, exp = tok.partition("^")
            if int(exp) < 1:
                raise ValueError(f"exponent below 1 in partition {text!r}")
            if d is not None and len(parts) + int(exp) > d:  # refuse 1^(10^9) before building it
                raise ValueError(f"more than {d} parts in partition {text!r}")
            parts.extend([int(base)] * int(exp))
        else:
            parts.append(int(tok))
    return Partition(parts, d if d is not None else sum(parts))


def in_M(l: Sequence[int]) -> bool:
    """Whether all entries are non-negative (the composition lies in M_d)."""
    return all(k >= 0 for k in _parts(l))


def _check_same_d(l, m):
    if len(l) != len(m):
        raise ValueError(f"length mismatch: {len(l)} vs {len(m)}")


def dominance_leq(l: Sequence[int], m: Sequence[int]) -> bool:
    """True iff every prefix sum of l is at most that of m."""
    l, m = _parts(l), _parts(m)
    _check_same_d(l, m)
    return all(map(le, accumulate(l), accumulate(m)))


def raising_op(i: int, j: int, l: Sequence[int]) -> tuple[int, ...]:
    """Move one unit from part j to part i (identity when j <= i)."""
    p = _parts(l)
    d = len(p)
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"indices out of range: i={i}, j={j}, d={d}")
    if j <= i:
        return p
    out = list(p)
    out[i - 1] += 1
    out[j - 1] -= 1
    return tuple(out)


def common_prefix_len(l: Sequence[int], m: Sequence[int]) -> int:
    """Length of the maximal common prefix (0 when first entries differ)."""
    l, m = _parts(l), _parts(m)
    _check_same_d(l, m)
    q = 0
    for a, b in zip(l, m):
        if a != b:
            break
        q += 1
    return q


def prefix_gaps(l: Sequence[int], m: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Prefix-sum differences (r_1, ..., r_{d-1}) and their total."""
    l, m = _parts(l), _parts(m)
    _check_same_d(l, m)
    gaps = tuple(b - a for a, b in zip(accumulate(l), accumulate(m)))[: len(l) - 1]
    return gaps, sum(gaps)


def adjacent_raising_chain(l: Sequence[int], m: Sequence[int]) -> list[int]:
    """Indices i of adjacent raises i -> i+1 carrying l up to m.

    Requires l <= m with both in M_d.  Applying the raises in order keeps
    every intermediate composition in M_d and strictly increasing in
    dominance; the chain length equals the prefix-gap total.  The
    construction is inductive: locate the first stretch of positive gaps,
    pick the smallest donor part inside it, and expand the single raise
    into adjacent steps.
    """
    l, m = _parts(l), _parts(m)
    _check_same_d(l, m)
    if not (in_M(l) and in_M(m)):
        raise ValueError("both compositions must be non-negative")
    if not dominance_leq(l, m):
        raise ValueError(f"{l} does not precede {m} in dominance")
    d = len(l)
    chain: list[int] = []
    cur = l
    while cur != m:
        gaps, _ = prefix_gaps(cur, m)
        q = common_prefix_len(cur, m)
        # smallest kappa >= 2 with gap q+kappa zero; the gap at d is 0 by mass.
        kappa = 2
        while q + kappa <= d - 1 and gaps[q + kappa - 1] != 0:
            kappa += 1
        i = q + 1
        j = next(jj for jj in range(q + 2, q + kappa + 1) if cur[jj - 1] >= 1)
        # expand the i<-j move into adjacent steps j-1, j-2, ..., i
        for k in range(j - 1, i - 1, -1):
            cur = raising_op(k, k + 1, cur)
            chain.append(k)
    return chain


def raising_pair(l: Sequence[int], m: Sequence[int]) -> tuple[int, int] | None:
    """(i, j) with i < j when m is l with one unit moved from part j to part i."""
    l, m = _parts(l), _parts(m)
    _check_same_d(l, m)
    diff = [b - a for a, b in zip(l, m)]
    nz = [k for k, v in enumerate(diff) if v != 0]
    if len(nz) == 2 and diff[nz[0]] == 1 and diff[nz[1]] == -1:
        return nz[0] + 1, nz[1] + 1
    return None


def is_cover_composition(l: Sequence[int], m: Sequence[int]) -> bool:
    """Covering relation in M_d: m is one adjacent raise above l."""
    pair = raising_pair(l, m)
    return pair is not None and pair[1] == pair[0] + 1 and in_M(l) and in_M(m)


def is_cover_partition(lam: Partition, mu: Partition) -> bool:
    """Covering relation in P_d: one box moves up, minimally."""
    pair = raising_pair(lam, mu)
    if pair is None:
        return False
    i, j = pair
    return j == i + 1 or lam[i - 1] == lam[j - 1]


def all_partitions(d: int) -> list[Partition]:
    """All partitions of d in decreasing lexicographic order: the whole dominance interval [1^d, d]."""
    if d < 1:
        raise ValueError("d must be positive")
    return list(shapes_between((1,) * d, (d,) + (0,) * (d - 1)))


@lru_cache(maxsize=None)
def shapes_between(lam: Partition | Sequence[int], mu: Partition | Sequence[int]) -> tuple[Partition, ...]:
    """The closed dominance interval [lam, mu] of partitions, in decreasing lexicographic order (cached).

    Empty unless lam <= mu; lam and mu may be Partitions or part tuples of
    one length.  Only partitions whose every prefix sum lies between those
    of lam and mu are visited, so the cost follows the interval, not all of
    P_d.
    """
    lam, mu = _parts(lam), _parts(mu)
    _check_same_d(lam, mu)
    d = len(lam)
    lo, hi = tuple(accumulate(lam)), tuple(accumulate(mu))
    out: list[Partition] = []

    def rec(total: int, maxpart: int, acc: list[int]):
        if total == d:
            out.append(Partition(acc, d))
            return
        k = len(acc)
        for part in range(min(maxpart, hi[k] - total), max(lo[k] - total, 1) - 1, -1):
            acc.append(part)
            rec(total + part, part, acc)
            acc.pop()

    rec(0, d, [])
    return tuple(out)


def covers_above(lam: Partition) -> list[Partition]:
    """Partitions covering lam in the dominance order on P_d."""
    d = lam.d
    found = []
    for j in range(2, d + 1):
        if lam[j - 1] < 1:
            continue
        for i in range(1, j):
            mu = raising_op(i, j, lam)
            if all(a >= b for a, b in zip(mu, mu[1:])) and mu[-1] >= 0:
                cand = Partition(mu)
                if is_cover_partition(lam, cand) and cand not in found:
                    found.append(cand)
    return sorted(found, key=lambda p: p.parts, reverse=True)


@lru_cache(maxsize=None)
def centralizer_order(lam: Partition | tuple[int, ...]) -> int:
    """z_lam = prod_k k^{m_k} m_k! over the part multiplicities (memoized: a counting route asks for few keys, often)."""
    counts: dict[int, int] = {}
    for k in _parts(lam):
        if k > 0:
            counts[k] = counts.get(k, 0) + 1
    z = 1
    for k, mk in counts.items():
        z *= k**mk * math.factorial(mk)
    return z
