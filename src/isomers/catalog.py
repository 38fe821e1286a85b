"""Builtin skeleton groups, closed-form counts, and genetic diagrams.

The three classical skeletons ship with their substitution-symmetry groups
and, where the chemistry names them, pinned orbit letters that match the
traditional labels (para/ortho/meta and friends are recovered purely from
the diagram structure).  Genetic diagrams collect orbit covers as solid
edges and the remaining one-step-shape comparabilities as dashed extras.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from .dissections import Dissection, parse_tabloid, tabloid_formatter, word_formatter
from .orbits import (
    Orbit,
    OrbitSpace,
    _Record,
    classify_chiral,
    orbit_poset,
    orbit_space,
    refine,
)
from .partitions import Partition, all_partitions, raising_pair
from .perms import PermGroup, generate, parse_cycles

__all__ = [
    "BUILTIN_NAMES",
    "DiagramNode",
    "GeneticDiagram",
    "SkeletonSpec",
    "builtin",
    "emit_dot",
    "genetic_diagram",
    "json_text",
    "kauffmann_count",
    "korner_relations",
    "orbit_listing_json",
    "orbit_listing_text",
    "orbit_names",
]

BUILTIN_NAMES = ("benzene", "ethene", "naphthalene")


class SkeletonSpec(_Record):
    """A named skeleton: its symmetry groups and pinned orbit letters.

    Fields: ``name``, ``degree``, ``group``, then the optional ``extended``,
    ``structural``, ``letters``, ``structural_letters`` and ``notes``.
    ``group`` acts for substitution isomerism; ``extended`` (equal to group
    when no chiral pairs exist) for stereoisomerism; ``structural`` for
    structural isomerism.  ``letters`` maps a shape to (letter, tabloid)
    pairs naming the orbit that contains the tabloid.
    """

    __slots__ = ("name", "degree", "group", "extended", "structural", "letters", "structural_letters", "notes")
    _defaults = {"extended": None, "structural": None, "letters": None, "structural_letters": None, "notes": ""}


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


def orbit_names(
    space: OrbitSpace, letters: dict[Partition, tuple[tuple[str, Dissection], ...]] | None
) -> dict[Orbit, str]:
    """Each orbit's name, such as ``a_(4,2)``: a letter, then the shape.

    ``letters`` is a skeleton's ``letters`` or ``structural_letters``
    table, or None.  When it pins this shape, each orbit takes the letter
    of the tabloid it holds; otherwise the orbits take a, b, c, ... in
    representative order, and o26, o27, ... past the alphabet.  The dict
    runs in representative order either way.
    """
    pinned = letters.get(space.shape) if letters else None
    if pinned is None:
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        chosen = {orbit: alphabet[k] if k < 26 else f"o{k}" for k, orbit in enumerate(space.orbits)}
    else:
        chosen = {}
        for letter, tab in pinned:
            holder = space.orbit_of(tab)
            if holder in chosen:
                raise ValueError(f"two letters pin the same orbit of {space.shape}")
            chosen[holder] = letter
        if len(chosen) != len(space.orbits):
            raise ValueError(f"letter table for {space.shape} does not cover every orbit")
    suffix = f"_({space.shape})"
    return {orbit: chosen[orbit] + suffix for orbit in space.orbits}


def korner_relations() -> list[tuple[str, str]]:
    """The comparabilities between benzene tri- and di-substitution orbits."""
    spec = builtin("benzene")
    shapes = [Partition([3, 3], 6), Partition([4, 2], 6)]
    names = {}
    for lam in shapes:
        names.update(orbit_names(orbit_space(spec.group, lam), spec.letters))
    return sorted((names[a], names[b]) for a, b, _ in orbit_poset(spec.group, shapes))


def json_text(payload) -> str:
    """payload as JSON text: indented, keys sorted, newline-terminated."""
    import json  # here, not at the top: commands that write no JSON never load it

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_string(text: str) -> str:
    """text as the JSON string json_text writes: quoted here when no character of it needs an escape.

    Orbit names and shape texts are such strings, so a listing of them
    never loads ``json``; any other string goes through its encoder.
    """
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(text)


# One listing object; a member text holds only digits, braces and commas, so
# the template and the separator between members quote the member texts.
_ORBIT_JSON = (
    '  {\n    "members": [\n      "%s"\n    ],\n    "name": %s,\n    "representative": "%s",\n    "shape": %s,\n    "size": %d\n  }'
)
_MEMBER_SEP = '",\n      "'


def orbit_listing_text(rows: Iterable[tuple[str, Orbit]]) -> Iterator[str]:
    """One line per (name, orbit) row: the name, the size and the representative; one formatter per run of one shape."""
    shape = None
    for name, orbit in rows:
        if orbit.shape is not shape:
            shape, text = orbit.shape, word_formatter(orbit.shape)
        yield f"{name:>14}  size={orbit.size:<4} rep={text(orbit.words[0])}\n"


def orbit_listing_json(rows: Iterable[tuple[str, Orbit]]) -> Iterator[str]:
    """What json_text writes of one listing object per (name, orbit) row, one chunk per orbit.

    Each chunk is built from the members' readings in that fixed layout;
    the formatter and the quoted shape text are made once per run of rows
    with one shape.
    """
    shape = None
    head = "[\n"
    for name, orbit in rows:
        if orbit.shape is not shape:
            shape = orbit.shape
            text, shape_json = tabloid_formatter(shape), _json_string(str(shape))
        members = list(map(text, orbit.words))
        yield head + _ORBIT_JSON % (_MEMBER_SEP.join(members), _json_string(name), members[0], shape_json, len(members))
        head = ",\n"
    yield "[]\n" if shape is None else "\n]\n"


class DiagramNode(_Record):
    """One orbit of a genetic diagram.

    ``chiral_pair`` is None when no extended group is available, and
    ``structural_class`` when no structural group is.
    """

    __slots__ = ("name", "shape", "size", "representative", "chiral_pair", "structural_class")


class GeneticDiagram(_Record):
    """Orbit nodes with cover edges and non-cover one-step relations.

    Edges are (lower, upper) node-name pairs; an edge means the upper
    isomer turns into the lower one by a single irreducible substitution.
    extra_relations hold comparable pairs at adjacent shapes that are not
    covers (a reaction exists but passes through intermediate isomers).
    merges pair each structural class with its member nodes.
    """

    __slots__ = ("skeleton", "degree", "nodes", "edges", "extra_relations", "merges")

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
        return json_text(payload)


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
    poset = orbit_poset(group, shapes)
    spaces = [orbit_space(group, lam) for lam in shapes]
    names: dict[Orbit, str] = {}
    for space in spaces:
        names.update(orbit_names(space, spec.letters))

    chiral: dict[Orbit, bool] = {}
    if spec.extended is not None:
        for lam in shapes:
            report = classify_chiral(group, spec.extended, lam)
            for entry in report.entries:
                for fine in entry.fine_orbits:
                    chiral[fine] = entry.is_pair

    structural: dict[Orbit, str] = {}
    merges: list[tuple[str, tuple[str, ...]]] = []
    if spec.structural is not None:
        for space in spaces:
            coarse = orbit_space(spec.structural, space.shape)
            coarse_names = orbit_names(coarse, spec.structural_letters)
            for c, fines in refine(coarse, space).items():
                for f in fines:
                    structural[f] = coarse_names[c]
                if len(fines) > 1:
                    merges.append((coarse_names[c], tuple(names[f] for f in fines)))

    nodes = tuple(
        DiagramNode(
            name=names[orbit],
            shape=space.shape,
            size=orbit.size,
            representative=orbit.representative,
            chiral_pair=chiral.get(orbit),
            structural_class=structural.get(orbit),
        )
        for space in spaces
        for orbit in space.orbits
    )
    one_step = {(lam, mu) for lam in shapes for mu in shapes if raising_pair(lam, mu) is not None}
    edges = []
    extras = []
    for a, b, cover in poset:
        if cover:
            edges.append((names[a], names[b]))
        elif (a.shape, b.shape) in one_step:
            extras.append((names[a], names[b]))
    return GeneticDiagram(
        skeleton=spec.name,
        degree=spec.degree,
        nodes=nodes,
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
    for k, (shape_text, nodes) in enumerate(by_shape.items()):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f"    label={_quote(shape_text)};")
        for node in sorted(nodes, key=lambda n: n.name):
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
