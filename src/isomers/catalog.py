"""Builtin skeleton groups, closed-form counts, and genetic diagrams.

The three classical skeletons ship with their substitution-symmetry groups
and, where the chemistry names them, pinned orbit letters that match the
traditional labels (para/ortho/meta and friends are recovered purely from
the diagram structure).  Genetic diagrams collect orbit covers as solid
edges and the remaining one-step-shape comparabilities as dashed extras.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .dissections import Dissection, parse_tabloid
from .orbits import (
    Orbit,
    OrbitSpace,
    classify_chiral,
    comparable_pairs,
    orbit_cover,
    orbit_space,
    refine,
)
from .partitions import Partition, all_partitions, format_partition, raising_pair
from .perms import PermGroup, generate, parse_cycles

__all__ = [
    "BUILTIN_NAMES",
    "DiagramNode",
    "GeneticDiagram",
    "SkeletonSpec",
    "assign_letters",
    "builtin",
    "emit_dot",
    "genetic_diagram",
    "kauffmann_count",
    "korner_relations",
]

BUILTIN_NAMES = ("benzene", "ethene", "naphthalene")


@dataclass(frozen=True)
class SkeletonSpec:
    """A named skeleton: its symmetry groups and pinned orbit letters.

    ``group`` acts for substitution isomerism; ``extended`` (equal to group
    when no chiral pairs exist) for stereoisomerism; ``structural`` for
    structural isomerism.  ``letters`` maps a shape to (letter, tabloid)
    pairs naming the orbit that contains the tabloid.
    """

    name: str
    degree: int
    group: PermGroup
    extended: PermGroup | None = None
    structural: PermGroup | None = None
    letters: dict[Partition, tuple[tuple[str, Dissection], ...]] | None = None
    structural_letters: dict[Partition, tuple[tuple[str, Dissection], ...]] | None = None
    notes: str = ""


def _group(d: int, *cycle_texts: str) -> PermGroup:
    return generate([parse_cycles(t, d) for t in cycle_texts], degree=d)


def _letters(d: int, table: dict[str, Sequence[tuple[str, str]]]) -> dict[Partition, tuple[tuple[str, Dissection], ...]]:
    out = {}
    for shape_text, pairs in table.items():
        lam = Partition([int(tok) for tok in shape_text.split("+")], d)
        out[lam] = tuple((letter, parse_tabloid(text, d)) for letter, text in pairs)
    return out


def builtin(name: str) -> SkeletonSpec:
    """One of the shipped skeletons: benzene, ethene, or naphthalene."""
    if name == "benzene":
        return SkeletonSpec(
            name="benzene",
            degree=6,
            group=_group(6, "(123456)", "(13)(46)"),
            letters=_letters(
                6,
                {
                    "4+2": [
                        ("a", "{2,3,5,6}{1,4}"),
                        ("b", "{1,2,3,4}{5,6}"),
                        ("c", "{2,4,5,6}{1,3}"),
                    ],
                    "3+3": [
                        ("a", "{1,2,4}{3,5,6}"),
                        ("b", "{1,2,3}{4,5,6}"),
                        ("c", "{1,3,5}{2,4,6}"),
                    ],
                },
            ),
            notes="six-fold carbon ring; di/tri-substitution recovers the classical genetic relations",
        )
    if name == "ethene":
        group = _group(4, "(12)(34)", "(13)(24)")
        structural = _group(4, "(1234)", "(13)")
        return SkeletonSpec(
            name="ethene",
            degree=4,
            group=group,
            extended=group,  # no chiral pairs among these derivatives
            structural=structural,
            letters=_letters(
                4,
                {
                    "4": [("a", "{1,2,3,4}")],
                    "3+1": [("a", "{1,2,3}{4}")],
                    "2+2": [("a", "{1,2}{3,4}"), ("b", "{1,4}{2,3}"), ("c", "{1,3}{2,4}")],
                    "2+1+1": [("a", "{1,2}{3}{4}"), ("b", "{1,4}{2}{3}"), ("c", "{1,3}{2}{4}")],
                    "1+1+1+1": [
                        ("a", "{1}{2}{3}{4}"),
                        ("b", "{1}{2}{4}{3}"),
                        ("c", "{1}{4}{2}{3}"),
                        ("e", "{1}{3}{2}{4}"),
                        ("f", "{3}{1}{2}{4}"),
                        ("h", "{3}{2}{1}{4}"),
                    ],
                },
            ),
            structural_letters=_letters(
                4,
                {
                    "4": [("a", "{1,2,3,4}")],
                    "3+1": [("a", "{1,2,3}{4}")],
                    "2+2": [("u", "{1,2}{3,4}"), ("v", "{1,3}{2,4}")],
                    "2+1+1": [("u", "{1,2}{3}{4}"), ("v", "{1,3}{2}{4}")],
                    "1+1+1+1": [("u", "{1}{2}{3}{4}"), ("v", "{1}{2}{4}{3}"), ("w", "{1}{3}{2}{4}")],
                },
            ),
            notes="two-carbon skeleton; structural group is a dihedral extension",
        )
    if name == "naphthalene":
        return SkeletonSpec(
            name="naphthalene",
            degree=8,
            group=_group(8, "(12)(34)(56)(78)", "(13)(24)(57)(68)"),
            notes="fused double ring; counts follow the classical closed form",
        )
    raise ValueError(f"unknown builtin skeleton {name!r}; choose from {BUILTIN_NAMES}")


def kauffmann_count(lam: Partition) -> int:
    """Closed-form derivative count for the naphthalene skeleton.

    A quarter of the multinomial, plus a correction term when every part is
    even (the three half-turn style symmetries then contribute).
    """
    if lam.d != 8:
        raise ValueError("shape must partition 8")
    parts = lam.trimmed()
    base = math.factorial(8)
    for k in parts:
        base //= math.factorial(k)
    if any(k % 2 for k in parts):
        assert base % 4 == 0
        return base // 4
    half = math.factorial(4)
    for k in parts:
        half //= math.factorial(k // 2)
    total = base + 3 * half
    assert total % 4 == 0
    return total // 4


def orbit_name(letter: str, shape: Partition) -> str:
    return f"{letter}_({format_partition(shape)})"


def assign_letters(
    space: OrbitSpace,
    pinned: tuple[tuple[str, Dissection], ...] | None,
) -> dict[Orbit, str]:
    """Pinned letters by orbit membership, canonical a, b, c, ... otherwise."""
    names: dict[Orbit, str] = {}
    if pinned is not None:
        for letter, tab in pinned:
            holder = space.orbit_of(tab)
            if holder in names:
                raise ValueError(f"two letters pin the same orbit of {space.shape}")
            names[holder] = letter
        if len(names) != len(space.orbits):
            raise ValueError(f"letter table for {space.shape} does not cover every orbit")
        return names
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for k, orbit in enumerate(space.orbits):
        names[orbit] = alphabet[k] if k < 26 else f"o{k}"
    return names


def korner_relations() -> list[tuple[str, str]]:
    """The comparabilities between benzene tri- and di-substitution orbits."""
    spec = builtin("benzene")
    lam = Partition([3, 3], 6)
    mu = Partition([4, 2], 6)
    pairs = comparable_pairs(spec.group, [lam, mu])
    lower_names = assign_letters(orbit_space(spec.group, lam), spec.letters.get(lam))
    upper_names = assign_letters(orbit_space(spec.group, mu), spec.letters.get(mu))
    return sorted((orbit_name(lower_names[a], lam), orbit_name(upper_names[b], mu)) for a, b in pairs)


@dataclass(frozen=True)
class DiagramNode:
    name: str
    shape: Partition
    size: int
    representative: Dissection
    chiral_pair: bool | None  # None when no extended group is available
    structural_class: str | None  # None when no structural group is available


@dataclass(frozen=True)
class GeneticDiagram:
    """Orbit nodes with cover edges and non-cover one-step relations.

    Edges are (lower, upper) node-name pairs; an edge means the upper
    isomer turns into the lower one by a single irreducible substitution.
    extra_relations hold comparable pairs at adjacent shapes that are not
    covers (a reaction exists but passes through intermediate isomers).
    """

    skeleton: str
    degree: int
    nodes: tuple[DiagramNode, ...]
    edges: tuple[tuple[str, str], ...]
    extra_relations: tuple[tuple[str, str], ...]
    merges: tuple[tuple[str, tuple[str, ...]], ...]  # structural class -> member nodes

    def to_json(self) -> str:
        payload = {
            "skeleton": self.skeleton,
            "degree": self.degree,
            "nodes": [
                {
                    "name": n.name,
                    "shape": str(n.shape),
                    "size": n.size,
                    "representative": str(n.representative),
                    "chiral_pair": n.chiral_pair,
                    "structural_class": n.structural_class,
                }
                for n in self.nodes
            ],
            "edges": [list(e) for e in self.edges],
            "extra_relations": [list(e) for e in self.extra_relations],
            "merges": [[name, list(members)] for name, members in self.merges],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def genetic_diagram(spec: SkeletonSpec, shapes: Sequence[Partition] | None = None) -> GeneticDiagram:
    """Build the full reaction diagram of a skeleton's orbits.

    Nodes are all orbits over the requested shapes (default: every shape).
    Chiral flags come from the extended group when present with index 2;
    structural classes from refining against the structural group.
    """
    group = spec.group
    if shapes is None:
        shapes = all_partitions(spec.degree)
    shapes = sorted(shapes, key=lambda p: p.parts, reverse=True)
    pairs = comparable_pairs(group, shapes)
    spaces = {lam: orbit_space(group, lam) for lam in shapes}
    names: dict[Partition, dict[Orbit, str]] = {}
    for lam in shapes:
        pinned = spec.letters.get(lam) if spec.letters else None
        names[lam] = assign_letters(spaces[lam], pinned)

    chiral: dict[str, bool] = {}
    if spec.extended is not None:
        for lam in shapes:
            report = classify_chiral(group, spec.extended, lam)
            for entry in report.entries:
                for fine in entry.fine_orbits:
                    chiral[orbit_name(names[lam][fine], lam)] = entry.is_pair

    structural: dict[str, str] = {}
    merges: list[tuple[str, tuple[str, ...]]] = []
    if spec.structural is not None:
        for lam in shapes:
            coarse = orbit_space(spec.structural, lam)
            pinned = spec.structural_letters.get(lam) if spec.structural_letters else None
            coarse_names = assign_letters(coarse, pinned)
            for c, fines in refine(coarse, spaces[lam]).items():
                cname = orbit_name(coarse_names[c], lam)
                members = tuple(orbit_name(names[lam][f], lam) for f in fines)
                for m in members:
                    structural[m] = cname
                if len(members) > 1:
                    merges.append((cname, members))

    nodes = []
    for lam in shapes:
        for orbit in spaces[lam].orbits:
            nm = orbit_name(names[lam][orbit], lam)
            nodes.append(
                DiagramNode(
                    name=nm,
                    shape=lam,
                    size=orbit.size,
                    representative=orbit.representative,
                    chiral_pair=chiral.get(nm),
                    structural_class=structural.get(nm),
                )
            )

    edges = []
    extras = []
    for a, b in pairs:
        pair = (orbit_name(names[a.shape][a], a.shape), orbit_name(names[b.shape][b], b.shape))
        if orbit_cover(a, b):
            edges.append(pair)
        elif raising_pair(a.shape, b.shape) is not None:
            extras.append(pair)
    return GeneticDiagram(
        skeleton=spec.name,
        degree=spec.degree,
        nodes=tuple(nodes),
        edges=tuple(sorted(edges)),
        extra_relations=tuple(sorted(extras)),
        merges=tuple(sorted(merges)),
    )


def _quote(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def emit_dot(diagram: GeneticDiagram) -> str:
    """Deterministic DOT rendering: clusters per shape, arrows upper -> lower.

    Solid arrows are covers (single irreducible substitutions), dashed ones
    the remaining one-step comparabilities, and bold double arrows join
    orbit pairs merged inside one structural class.
    """
    lines = [f"digraph {_quote(diagram.skeleton or 'orbits')} {{"]
    lines.append("  rankdir=TB;")
    by_shape: dict[str, list[DiagramNode]] = {}
    for node in diagram.nodes:
        by_shape.setdefault(str(node.shape), []).append(node)
    shape_order = []
    seen = set()
    for node in diagram.nodes:
        if str(node.shape) not in seen:
            seen.add(str(node.shape))
            shape_order.append(str(node.shape))
    for k, shape_text in enumerate(shape_order):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f"    label={_quote(shape_text)};")
        for node in sorted(by_shape[shape_text], key=lambda n: n.name):
            attrs = [f"label={_quote(node.name)}"]
            if node.chiral_pair:
                attrs.append("peripheries=2")
            lines.append(f"    {_quote(node.name)} [{', '.join(attrs)}];")
        lines.append("  }")
    for lower, upper in diagram.edges:
        lines.append(f"  {_quote(upper)} -> {_quote(lower)};")
    for lower, upper in diagram.extra_relations:
        lines.append(f"  {_quote(upper)} -> {_quote(lower)} [style=dashed];")
    for cname, members in diagram.merges:
        for a, b in zip(members, members[1:]):
            lines.append(f"  {_quote(a)} -> {_quote(b)} [dir=both, style=bold, label={_quote(cname)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
