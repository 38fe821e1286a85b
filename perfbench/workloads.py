"""Seeded request mixes for the three benchmark workloads.

A workload's *mix* is the fixed list of distinct CLI requests one pass
sends.  The seed decides the mix and the order of every pass; the program
receives only the generated argv and, for ``groups``, the group files
written here.  A run sends several passes, so that every request is timed
several times (see ``run.py``); a pass therefore costs only a few
seconds.

- ``enumerate`` and ``order`` draw from finite request sets, so every
  possible request has a recorded stdout digest.  Each pass sends the
  whole set, in a seeded order: the work per pass is the same for every
  seed, which keeps run-to-run spread down to machine noise.
- ``groups`` sends groups of degree 5-7 given by random generators.
  Random generators mostly give S_n or A_n, whose costs differ by
  seconds, so each stratum has its own generators, drawn once (not from
  the seed) and kept only when their group has the stratum's order.  A
  run's seed relabels the points of each stratum's generators at random:
  the permutations vary with the seed, while the group and its action
  stay the same up to that relabelling.  How long ``count`` takes on S7
  depends on the generators by up to 40%, and a ``--chi`` request on one
  shape by up to 3x on the shape, so freshly drawn generators or seeded
  shapes would make the work differ from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path

WORKLOADS = ("enumerate", "order", "groups")
BUILTIN_DEGREE = {"benzene": 6, "ethene": 4, "naphthalene": 8}

# The naphthalene shapes ``enumerate`` sends ``count`` and ``orbits --format
# json`` for: tabloid counts from 1 to 20160, costs from interpreter
# start-up to 1 s.  ``1^8`` (40320 tabloids, 3.4 s for the two requests)
# would be half a pass on its own.
ENUMERATE_SHAPES = (
    "2,1,1,1,1,1,1",
    "2,2,1,1,1,1",
    "3,1,1,1,1,1",
    "2,2,2,1,1",
    "4,1,1,1,1",
    "3,3,1,1",
    "4,2,2",
    "5,2,1",
    "6,2",
    "8",
)

# The naphthalene dominance covers lo:hi whose orbit-pair product (orbit
# counts from ``count_types``) is at most ORDER_MAX_PRODUCT.  Larger ones
# cost 2.6 s (3,3,1,1:3,3,2, product 39200) up to minutes (the full
# naphthalene poset and ``verify --builtin naphthalene`` take 44 s or more,
# and the verify line set grows once the cover-suite skip cap is
# retired), too much of a pass.  The seven below 1k are mostly interpreter
# start-up.  Re-derived by a test.
ORDER_MAX_PRODUCT = 30000
ORDER_PAIRS = (
    "7,1:8",
    "6,2:7,1",
    "6,1,1:6,2",
    "5,3:6,2",
    "5,2,1:6,1,1",
    "5,2,1:5,3",
    "4,4:5,3",
    "5,1,1,1:5,2,1",
    "4,3,1:5,2,1",
    "4,3,1:4,4",
    "4,2,2:4,3,1",
    "4,2,1,1:5,1,1,1",
    "4,2,1,1:4,2,2",
    "3,3,2:4,2,2",
)
# Every dominance cover of 6; benzene's largest orbit-pair product is 1800.
# These, the small naphthalene covers and the ethene requests cost little
# more than interpreter start-up.  They are two thirds of ``order``'s
# requests, so its median request lies well inside a cluster of like
# cost and does not jump between two costs from run to run.
BENZENE_PAIRS = (
    "5,1:6",
    "4,2:5,1",
    "4,1,1:4,2",
    "3,3:4,2",
    "3,2,1:4,1,1",
    "3,2,1:3,3",
    "3,1,1,1:3,2,1",
    "2,2,2:3,2,1",
    "2,2,1,1:3,1,1,1",
    "2,2,1,1:2,2,2",
    "2,1,1,1,1:2,2,1,1",
    "1,1,1,1,1,1:2,1,1,1,1",
)

# Small ethene requests, so that each layer runs in every workload's trace
# and a "no change" prediction is measured rather than read off a zero:
# verify (counting, characters, covers, references), the DOT diagram, and
# a non-unit character count.  ``order`` runs the first two.
PROBES = (
    ("verify", "--builtin", "ethene"),
    ("diagram", "--builtin", "ethene", "--format", "dot"),
    ("count", "--builtin", "ethene", "--shape", "2,2", "--chi", "1"),
)

# (degree, generator count, group order) per ``groups`` stratum.  S7 and
# A7, the costliest groups, come twice each, with different generators.
GROUP_STRATA = (
    (5, 2, 120),
    (5, 2, 60),
    (5, 1, 6),
    (5, 1, 4),
    (6, 2, 720),
    (6, 2, 360),
    (6, 1, 6),
    (6, 1, 3),
    (7, 2, 5040),
    (7, 2, 2520),
    (7, 1, 12),
    (7, 2, 5040),
    (7, 2, 2520),
)
# --chi goes only to groups of order <= 360: linear_characters checks the
# full |G|^2 multiplication table, so one S6 request takes 5 s, most of a
# pass, and one A7/S7 request runs for minutes.  The cliff still shows
# through the A6 request, about 3.5x its plain ``--all-shapes`` request.
CHI_ORDER_LIMIT = 360


@dataclass(frozen=True)
class Mix:
    workload: str
    seed: int
    requests: tuple[tuple[str, ...], ...]

    def pass_order(self, index: int) -> list[tuple[str, ...]]:
        """The requests of pass ``index``, in that pass's seeded order."""
        order = list(self.requests)
        random.Random(f"{self.workload}:{self.seed}:pass{index}").shuffle(order)
        return order


def partitions(d: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of d as weakly decreasing tuples, in reverse lexicographic order."""
    if d == 0:
        return [()]
    largest = d if largest is None else largest
    return [(k,) + rest for k in range(min(d, largest), 0, -1) for rest in partitions(d - k, k)]


def shape_text(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def multinomial(lam: tuple[int, ...]) -> int:
    return factorial(sum(lam)) // prod(factorial(k) for k in lam)


def _order(gens: list[tuple[int, ...]], limit: int) -> int:
    """Order of the group the generators close to, stopping past ``limit``."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier and len(seen) <= limit:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(map(g.__getitem__, x))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _is_odd(perm: tuple[int, ...]) -> bool:
    seen = [False] * len(perm)
    transpositions = 0
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 1


def cycle_text(perm: tuple[int, ...]) -> str:
    """Cycle notation with single-digit points, e.g. ``(1243)(56)``."""
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = []
        x = start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = perm[x]
        out.append("(" + "".join(cycle) + ")")
    return "".join(out) or "()"


def random_generators(rng: random.Random, d: int, count: int, order: int) -> list[tuple[int, ...]]:
    """``count`` random non-identity permutations of degree d generating a group of ``order``."""
    identity = tuple(range(d))
    while True:
        gens = [tuple(rng.sample(range(d), d)) for _ in range(count)]
        if identity not in gens and _order(gens, order) == order:
            return gens


def relabel(perm: tuple[int, ...], sigma: list[int]) -> tuple[int, ...]:
    """``perm`` with every point i renamed sigma[i]: sigma perm sigma^-1."""
    out = [0] * len(perm)
    for i, image in enumerate(perm):
        out[sigma[i]] = sigma[image]
    return tuple(out)


def stratum_generators(k: int) -> list[tuple[int, ...]]:
    """The generators of stratum k of GROUP_STRATA, the same for every seed."""
    d, count, order = GROUP_STRATA[k]
    return random_generators(random.Random(f"groups:stratum{k}"), d, count, order)


def build(workload: str, seed: int, workdir: Path) -> Mix:
    """The seeded mix; ``groups`` writes its group files under ``workdir``."""
    probes = PROBES
    if workload == "enumerate":
        reqs = []
        for shape in ENUMERATE_SHAPES:
            reqs.append(("count", "--builtin", "naphthalene", "--shape", shape))
            reqs.append(("orbits", "--builtin", "naphthalene", "--shape", shape, "--format", "json"))
        for name in ("benzene", "ethene"):
            reqs.append(("count", "--builtin", name, "--all-shapes"))
            reqs.append(("orbits", "--builtin", name))
    elif workload == "order":
        reqs = [("poset", "--builtin", "naphthalene", "--shape", pair) for pair in ORDER_PAIRS]
        reqs += [("poset", "--builtin", "benzene", "--shape", pair) for pair in BENZENE_PAIRS]
        for name in ("benzene", "ethene"):
            reqs += [("poset", "--builtin", name), ("diagram", "--builtin", name)]
        probes = PROBES[:2]
    elif workload == "groups":
        rng = random.Random(f"groups:{seed}")
        groupdir = workdir / "groups"
        groupdir.mkdir(parents=True, exist_ok=True)
        reqs = []
        for k, (d, count, order) in enumerate(GROUP_STRATA):
            sigma = rng.sample(range(d), d)
            gens = [relabel(g, sigma) for g in stratum_generators(k)]
            path = groupdir / f"g{k}_deg{d}_order{order}.txt"
            path.write_text(f"degree {d}\n" + "".join(cycle_text(g) + "\n" for g in gens))
            rel = path.as_posix()
            reqs.append(("count", "--group-file", rel, "--all-shapes"))
            if order <= CHI_ORDER_LIMIT:
                # index 1 exists when a generator is odd: the sign is then a
                # non-trivial linear character
                chi = "1" if any(_is_odd(g) for g in gens) else "0"
                reqs.append(("count", "--group-file", rel, "--all-shapes", "--chi", chi))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Mix(workload, seed, tuple(reqs) + probes)
