"""Self-check suites: count agreement, monotonicity, and cover oracles.

These back the ``verify`` command and the acceptance tests.  Every check
returns human-readable lines plus a boolean; the unit of truth is exact
integer equality, never a tolerance.
"""

from __future__ import annotations

from .catalog import SkeletonSpec, genetic_diagram, kauffmann_count, korner_relations
from .counting import build_report, count_types, monotonicity_check
from .orbits import Orbit, check_degree_cap, orbit_leq, orbit_poset, orbit_space
from .partitions import Partition, all_partitions, dominance_leq, shapes_between
from .perms import PermGroup, linear_characters

# orbit-pair cover checks against the definitional oracle are skipped above
# this many candidate pairs per shape step (keeps verify usable at degree 8)
COVER_SUITE_PAIR_CAP = 4000


class VerifyResult:
    """The report lines of a verify run and how many of its checks failed."""

    __slots__ = ("lines", "failures")

    def __init__(self, lines: list[str] | None = None, failures: int = 0):
        self.lines = [] if lines is None else lines
        self.failures = failures

    def check(self, label: str, ok: bool):
        self.lines.append(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            self.failures += 1

    @property
    def ok(self) -> bool:
        return self.failures == 0


def verify_counts(group: PermGroup, result: VerifyResult):
    """All counting routes agree on every shape."""
    for lam in all_partitions(group.degree):
        report = build_report(group, lam)
        result.check(f"count agreement at {lam}: {report.via_scalar}", report.agree)


def verify_monotonicity(group: PermGroup, result: VerifyResult):
    """Counts never increase along dominance, for every linear character."""
    for k, chi in enumerate(linear_characters(group)):
        violations = monotonicity_check(group, chi)
        result.check(f"monotone counts for character {k} (order {chi.order})", not violations)


def _cover_oracle(
    lower: tuple[Orbit, ...], upper: tuple[Orbit, ...], middles: list[tuple[Orbit, ...]]
) -> set[tuple[Orbit, Orbit]]:
    """Definitional covers between two strata: comparable, no strict middle.

    The middles below each upper orbit are collected once, then tested
    against each lower orbit beneath it.
    """
    out = set()
    for b in upper:
        below_b = [c for stratum in middles for c in stratum if orbit_leq(c, b)]
        for a in lower:
            if orbit_leq(a, b) and not any(orbit_leq(a, c) for c in below_b):
                out.add((a, b))
    return out


def verify_covers(group: PermGroup, result: VerifyResult):
    """orbit_poset's covers equal the definitional open-interval-emptiness covers.

    The claimed side reads each middle shape's bitset index (comparable
    pairs, then one AND per middle shape); the oracle side scans every
    middle orbit with orbit_leq alone.  Runs across every
    dominance-comparable shape pair whose strata (the endpoints and
    everything between) stay small enough for the definitional oracle;
    larger pairs are reported as skipped.  Stratum sizes come from the
    counting formula, so nothing big is materialized just to be skipped.
    """
    shapes = all_partitions(group.degree)
    counts = {lam: count_types(group, lam) for lam in shapes}
    for lam in shapes:
        for mu in shapes:
            if lam == mu or not dominance_leq(lam, mu):
                continue
            between = shapes_between(lam, mu)
            if counts[lam] * counts[mu] > COVER_SUITE_PAIR_CAP or any(
                counts[nu] > COVER_SUITE_PAIR_CAP for nu in between
            ):
                result.lines.append(f"skip cover oracle at {lam} vs {mu} (stratum too large)")
                continue
            middles = [orbit_space(group, nu).orbits for nu in between[1:-1]]
            oracle = _cover_oracle(orbit_space(group, lam).orbits, orbit_space(group, mu).orbits, middles)
            claimed = {(a, b) for a, b, cover in orbit_poset(group, [lam, mu]) if cover}
            result.check(f"cover oracle {lam} vs {mu}: {len(oracle)} covers", claimed == oracle)


KORNER_SET = [
    ("a_(3^2)", "a_(4,2)"),
    ("a_(3^2)", "b_(4,2)"),
    ("a_(3^2)", "c_(4,2)"),
    ("b_(3^2)", "b_(4,2)"),
    ("b_(3^2)", "c_(4,2)"),
    ("c_(3^2)", "c_(4,2)"),
]

ETHENE_STATED_EDGES = {
    ("a_(3,1)", "a_(4)"),
    ("a_(2^2)", "a_(3,1)"),
    ("b_(2^2)", "a_(3,1)"),
    ("c_(2^2)", "a_(3,1)"),
    ("a_(2,1^2)", "a_(2^2)"),
    ("b_(2,1^2)", "b_(2^2)"),
    ("c_(2,1^2)", "c_(2^2)"),
    ("a_(1^4)", "a_(2,1^2)"),
    ("b_(1^4)", "a_(2,1^2)"),
    ("c_(1^4)", "b_(2,1^2)"),
    ("e_(1^4)", "b_(2,1^2)"),
    ("f_(1^4)", "c_(2,1^2)"),
    ("h_(1^4)", "c_(2,1^2)"),
}

ETHENE_EXTRAS = {
    ("a_(2,1^2)", "a_(3,1)"),
    ("b_(2,1^2)", "a_(3,1)"),
    ("c_(2,1^2)", "a_(3,1)"),
}

ETHENE_MERGES = {
    "u_(2^2)": ("a_(2^2)", "b_(2^2)"),
    "u_(2,1^2)": ("a_(2,1^2)", "b_(2,1^2)"),
    "u_(1^4)": ("a_(1^4)", "h_(1^4)"),
    "v_(1^4)": ("b_(1^4)", "c_(1^4)"),
    "w_(1^4)": ("e_(1^4)", "f_(1^4)"),
}


def verify_references(spec: SkeletonSpec, result: VerifyResult):
    """Pinned reference facts for the shipped skeletons."""
    if spec.name == "benzene":
        result.check("the six genetic relations, exactly", korner_relations() == KORNER_SET)
        sizes42 = sorted(o.size for o in orbit_space(spec.group, Partition((4, 2), 6)))
        sizes33 = sorted(o.size for o in orbit_space(spec.group, Partition((3, 3), 6)))
        result.check("di-substitution orbit sizes 3,6,6", sizes42 == [3, 6, 6])
        result.check("tri-substitution orbit sizes 2,6,12", sizes33 == [2, 6, 12])
    elif spec.name == "naphthalene":
        ok = all(kauffmann_count(lam) == count_types(spec.group, lam) for lam in all_partitions(8))
        result.check("closed-form counts match on all 22 shapes", ok)
    elif spec.name == "ethene":
        counts = [count_types(spec.group, lam) for lam in all_partitions(4)]
        result.check("substitution counts 1,1,3,3,6", counts == [1, 1, 3, 3, 6])
        structural = [count_types(spec.structural, lam) for lam in all_partitions(4)]
        result.check("structural counts 1,1,2,2,3", structural == [1, 1, 2, 2, 3])
        diagram = genetic_diagram(spec)
        result.check("stated reaction edges present", ETHENE_STATED_EDGES <= set(diagram.edges))
        result.check("the three non-cover reactions", set(diagram.extra_relations) == ETHENE_EXTRAS)
        result.check("structural merges", dict(diagram.merges) == ETHENE_MERGES)


def verify_skeleton(spec: SkeletonSpec) -> VerifyResult:
    """The full suite for one skeleton's substitution group."""
    check_degree_cap(spec.degree)
    # the cover suite runs first: the orbit spaces it forms stay memoized, so
    # the brute counts read them and walk only the shapes it skipped
    covers = VerifyResult()
    verify_covers(spec.group, covers)
    result = VerifyResult()
    verify_counts(spec.group, result)
    verify_monotonicity(spec.group, result)
    result.lines += covers.lines
    result.failures += covers.failures
    verify_references(spec, result)
    return result
