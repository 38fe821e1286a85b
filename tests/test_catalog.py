import math

import pytest

from isomers.catalog import (
    BUILTIN_NAMES,
    DiagramNode,
    GeneticDiagram,
    SkeletonSpec,
    builtin,
    emit_dot,
    genetic_diagram,
    json_chunks,
    json_text,
    kauffmann_count,
    korner_relations,
    orbit_listing_json,
    orbit_names,
)
from isomers.counting import count_brute, count_scalar, count_types
from isomers.dissections import format_tabloid, parse_tabloid
from isomers.orbits import orbit_space
from isomers.partitions import all_partitions, parse_partition
from isomers.perms import generate, parse_cycles


class TestBuiltin:
    def test_names(self):
        for name in BUILTIN_NAMES:
            spec = builtin(name)
            assert spec.name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            builtin("methane")

    def test_benzene(self):
        spec = builtin("benzene")
        assert spec.degree == 6 and spec.group.order == 12
        listed = [
            "", "(123456)", "(135)(246)", "(14)(25)(36)", "(153)(264)", "(165432)",
            "(13)(46)", "(12)(36)(45)", "(26)(35)", "(16)(25)(34)", "(15)(24)", "(14)(23)(56)",
        ]
        assert set(spec.group.elements) == {parse_cycles(t, 6) for t in listed}
        assert spec.extended is None and spec.structural is None

    def test_ethene(self):
        spec = builtin("ethene")
        assert spec.degree == 4
        assert spec.group.order == 4
        assert spec.extended == spec.group
        assert spec.structural.order == 8
        listed = ["", "(12)(34)", "(13)(24)", "(14)(23)", "(13)", "(24)", "(1234)", "(1432)"]
        assert set(spec.structural.elements) == {parse_cycles(t, 4) for t in listed}

    def test_naphthalene(self):
        spec = builtin("naphthalene")
        assert spec.degree == 8 and spec.group.order == 4
        listed = ["", "(12)(34)(56)(78)", "(13)(24)(57)(68)", "(14)(23)(58)(67)"]
        assert set(spec.group.elements) == {parse_cycles(t, 8) for t in listed}


class TestKauffmann:
    def test_known_values(self):
        assert kauffmann_count(parse_partition("7,1", 8)) == 2
        assert kauffmann_count(parse_partition("6,2", 8)) == 10
        assert kauffmann_count(parse_partition("4,4", 8)) == 22

    def test_odd_part_closed_form(self):
        # with an odd part only the plain quarter-multinomial survives
        lam = parse_partition("5,2,1", 8)
        quarter = math.factorial(8) // (math.factorial(5) * 2)
        assert kauffmann_count(lam) == quarter // 4

    def test_matches_all_routes_every_shape(self):
        g = builtin("naphthalene").group
        for lam in all_partitions(8):
            k = kauffmann_count(lam)
            assert k == count_types(g, lam)
            assert k == count_scalar(g, None, lam)
            assert k == count_brute(g, lam)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            kauffmann_count(parse_partition("3,3", 6))


class TestKorner:
    def test_exact_relation_set(self):
        assert korner_relations() == [
            ("a_(3^2)", "a_(4,2)"),
            ("a_(3^2)", "b_(4,2)"),
            ("a_(3^2)", "c_(4,2)"),
            ("b_(3^2)", "b_(4,2)"),
            ("b_(3^2)", "c_(4,2)"),
            ("c_(3^2)", "c_(4,2)"),
        ]

    def test_absent_pair(self):
        assert ("c_(3^2)", "a_(4,2)") not in korner_relations()

    def test_count(self):
        assert len(korner_relations()) == 6


class TestOrbitNames:
    def test_pinned_letters_in_representative_order(self):
        spec = builtin("benzene")
        space = orbit_space(spec.group, parse_partition("4,2", 6))
        names = orbit_names(space, spec.letters)
        assert list(names) == list(space.orbits)
        assert names[space.orbit_of(parse_tabloid("{1,2,3,4}{5,6}", 6))] == "b_(4,2)"
        assert sorted(names.values()) == ["a_(4,2)", "b_(4,2)", "c_(4,2)"]

    def test_past_the_alphabet(self):
        # the trivial group leaves the 60 tabloids of 2,1^3 apart
        space = orbit_space(generate([], degree=5), parse_partition("2,1,1,1", 5))
        names = list(orbit_names(space, None).values())
        assert len(names) == 60
        assert names[:3] == ["a_(2,1^3)", "b_(2,1^3)", "c_(2,1^3)"]
        assert names[25:28] == ["z_(2,1^3)", "o26_(2,1^3)", "o27_(2,1^3)"]
        assert names[-1] == "o59_(2,1^3)"

    def test_names_need_no_json_escape(self):
        # the JSON listing quotes names itself: every builtin letter and every
        # generated name (past the alphabet too) is one JSON writes unescaped
        import json

        names = ["o26_(2,1^3)", "o59_(2,1^3)"]
        for name in BUILTIN_NAMES:
            spec = builtin(name)
            for group, letters in [(spec.group, spec.letters), (spec.structural, spec.structural_letters)]:
                names += [letter for pairs in (letters or {}).values() for letter, _ in pairs]
                if group is not None:
                    names += [n for lam in all_partitions(spec.degree) for n in orbit_names(orbit_space(group, lam), letters).values()]
        assert len(names) > 10_000
        assert [name for name in names if json.dumps(name) != '"' + name + '"'] == []

    def test_two_letters_on_one_orbit(self):
        spec = builtin("benzene")
        lam = parse_partition("4,2", 6)
        # {1,2,3,4}{5,6} and {2,3,4,5}{1,6} are one ortho orbit (b_(4,2)) under the hexagon
        letters = {lam: (("a", parse_tabloid("{1,2,3,4}{5,6}", 6)), ("b", parse_tabloid("{2,3,4,5}{1,6}", 6)))}
        with pytest.raises(ValueError, match="two letters pin the same orbit"):
            orbit_names(orbit_space(spec.group, lam), letters)

    def test_table_missing_an_orbit(self):
        spec = builtin("benzene")
        lam = parse_partition("4,2", 6)
        letters = {lam: spec.letters[lam][:2]}
        with pytest.raises(ValueError, match="does not cover every orbit"):
            orbit_names(orbit_space(spec.group, lam), letters)


ETHENE_PAPER_EDGES = {
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

ETHENE_EXTRA_RELATIONS = {
    ("a_(2,1^2)", "a_(3,1)"),
    ("b_(2,1^2)", "a_(3,1)"),
    ("c_(2,1^2)", "a_(3,1)"),
}


@pytest.fixture(scope="module")
def diagram():
    return genetic_diagram(builtin("ethene"))


class TestEtheneDiagram:

    def test_node_census(self, diagram):
        assert len(diagram.nodes) == 14
        by_shape = {}
        for n in diagram.nodes:
            by_shape.setdefault(str(n.shape), 0)
            by_shape[str(n.shape)] += 1
        assert by_shape == {"4": 1, "3,1": 1, "2^2": 3, "2,1^2": 3, "1^4": 6}

    def test_stated_edges_present(self, diagram):
        assert ETHENE_PAPER_EDGES <= set(diagram.edges)

    def test_extra_relations(self, diagram):
        assert set(diagram.extra_relations) == ETHENE_EXTRA_RELATIONS
        assert not ETHENE_EXTRA_RELATIONS & set(diagram.edges)

    def test_structural_merges(self, diagram):
        assert dict(diagram.merges) == {
            "u_(2^2)": ("a_(2^2)", "b_(2^2)"),
            "u_(2,1^2)": ("a_(2,1^2)", "b_(2,1^2)"),
            "u_(1^4)": ("a_(1^4)", "h_(1^4)"),
            "v_(1^4)": ("b_(1^4)", "c_(1^4)"),
            "w_(1^4)": ("e_(1^4)", "f_(1^4)"),
        }

    def test_no_chiral_pairs(self, diagram):
        assert all(node.chiral_pair is False for node in diagram.nodes)

    def test_edges_are_transitive_reduction(self, diagram):
        # definitional oracle over the node comparability relation
        from isomers.orbits import orbit_leq, orbit_space
        from isomers.partitions import Partition

        spec = builtin("ethene")
        spaces = {lam: orbit_space(spec.group, lam) for lam in all_partitions(4)}
        by_name = {}
        for node in diagram.nodes:
            space = spaces[node.shape]
            by_name[node.name] = space.orbit_of(node.representative)
        names = list(by_name)
        leq = {
            (x, y): (x == y or orbit_leq(by_name[x], by_name[y]))
            for x in names
            for y in names
        }
        reduction = set()
        for x in names:
            for y in names:
                if x == y or not leq[(x, y)]:
                    continue
                if not any(z != x and z != y and leq[(x, z)] and leq[(z, y)] for z in names):
                    reduction.add((x, y))
        assert set(diagram.edges) == reduction

    def test_extras_are_exactly_non_cover_one_step_pairs(self, diagram):
        from isomers.orbits import orbit_leq, orbit_space

        spec = builtin("ethene")
        lam = parse_partition("2,1^2", 4)
        mu = parse_partition("3,1", 4)
        lower = orbit_space(spec.group, lam)
        upper = orbit_space(spec.group, mu)
        comparable = sum(
            1 for a in lower for b in upper if orbit_leq(a, b)
        )
        assert comparable == len(ETHENE_EXTRA_RELATIONS)


class TestCatalogMemberLists:
    """The shipped orbit catalogs, member for member."""

    def _check(self, space, texts):
        from isomers.dissections import parse_tabloid

        d = space.shape.d
        listed = {parse_tabloid(t, d) for t in texts}
        orbit = space.orbit_of(next(iter(listed)))
        assert set(orbit.members) == listed

    def test_benzene_disub(self):
        from isomers.orbits import orbit_space

        space = orbit_space(builtin("benzene").group, parse_partition("4,2", 6))
        self._check(space, ["{2,3,5,6}{1,4}", "{1,3,4,6}{2,5}", "{1,2,4,5}{3,6}"])
        self._check(
            space,
            ["{1,2,3,4}{5,6}", "{2,3,4,5}{1,6}", "{3,4,5,6}{1,2}",
             "{1,4,5,6}{2,3}", "{1,2,5,6}{3,4}", "{1,2,3,6}{4,5}"],
        )
        self._check(
            space,
            ["{2,4,5,6}{1,3}", "{1,3,5,6}{2,4}", "{1,2,4,6}{3,5}",
             "{1,2,3,5}{4,6}", "{2,3,4,6}{1,5}", "{1,3,4,5}{2,6}"],
        )

    def test_benzene_trisub(self):
        from isomers.orbits import orbit_space

        space = orbit_space(builtin("benzene").group, parse_partition("3,3", 6))
        self._check(
            space,
            ["{1,2,4}{3,5,6}", "{2,3,5}{1,4,6}", "{3,4,6}{1,2,5}", "{1,4,5}{2,3,6}",
             "{2,5,6}{1,3,4}", "{1,3,6}{2,4,5}", "{2,3,6}{1,4,5}", "{1,2,5}{3,4,6}",
             "{1,4,6}{2,3,5}", "{3,5,6}{1,2,4}", "{2,4,5}{1,3,6}", "{1,3,4}{2,5,6}"],
        )
        self._check(space, ["{1,3,5}{2,4,6}", "{2,4,6}{1,3,5}"])

    def test_ethene_monosub_cosets(self):
        from isomers.orbits import orbit_space

        fine = orbit_space(builtin("ethene").group, parse_partition("1^4", 4))
        self._check(fine, ["{1}{2}{3}{4}", "{2}{1}{4}{3}", "{3}{4}{1}{2}", "{4}{3}{2}{1}"])
        self._check(fine, ["{3}{2}{1}{4}", "{4}{1}{2}{3}", "{1}{4}{3}{2}", "{2}{3}{4}{1}"])
        coarse = orbit_space(builtin("ethene").structural, parse_partition("1^4", 4))
        self._check(
            coarse,
            ["{1}{2}{3}{4}", "{2}{1}{4}{3}", "{3}{4}{1}{2}", "{4}{3}{2}{1}",
             "{3}{2}{1}{4}", "{4}{1}{2}{3}", "{1}{4}{3}{2}", "{2}{3}{4}{1}"],
        )


def listing_rows(group, shapes, letters=None):
    """(name, orbit) rows as ``orbits`` lists them."""
    rows = []
    for lam in shapes:
        rows.extend((name, orbit) for orbit, name in orbit_names(orbit_space(group, lam), letters).items())
    return rows


def listing_payload(rows):
    """The dict payload the orbit listing was written from before the row-word writer, through member objects."""
    return [
        {
            "name": name,
            "shape": str(orbit.shape),
            "size": orbit.size,
            "representative": str(orbit.representative),
            "members": list(map(format_tabloid, orbit.members)),
        }
        for name, orbit in rows
    ]


class TestOrbitListingJson:
    """orbit_listing_json writes byte for byte what json_text writes of the dict payload."""

    def check(self, rows):
        assert "".join(orbit_listing_json(rows)) == json_text(listing_payload(rows))

    @pytest.mark.parametrize("name", ["ethene", "benzene"])
    def test_builtin_shapes_alone_and_together(self, name):
        spec = builtin(name)
        shapes = all_partitions(spec.degree)
        for lam in shapes:
            self.check(listing_rows(spec.group, [lam], spec.letters))
        self.check(listing_rows(spec.group, shapes, spec.letters))

    @pytest.mark.parametrize("d,gens", [(1, []), (2, ["(12)"]), (2, [])], ids=["d1", "d2", "d2trivial"])
    def test_low_degree(self, d, gens):
        self.check(listing_rows(generate([parse_cycles(g, d) for g in gens], degree=d), all_partitions(d)))

    def test_two_digit_points(self):
        group = generate([parse_cycles("(1 2 3 4 5 6 7 8 9 10)", 10)], degree=10)
        self.check(listing_rows(group, [parse_partition(t, 10) for t in ("9,1", "8,2", "7,2,1")]))

    def test_string_leaves_escaped_as_ensure_ascii(self):
        rows = listing_rows(builtin("ethene").group, [parse_partition("3,1", 4)])
        self.check([('\u00e9"\\\n\u2603', orbit) for _, orbit in rows])

    def test_empty(self):
        self.check([])


@pytest.mark.parametrize(
    "items",
    [[], [{}], [{"b": [], "a": [1, "x\u00e9"]}, {"orbits": ["{1}{2}"], "kind": "pair", "flag": True}], [[1, [2, {}]], "s", None]],
)
def test_json_chunks_join_to_json_text(items):
    assert "".join(json_chunks(items)) == json_text(items)


class TestBenzeneDiagram:
    def test_korner_slice(self):
        spec = builtin("benzene")
        shapes = [parse_partition("3^2", 6), parse_partition("4,2", 6)]
        diagram = genetic_diagram(spec, shapes)
        assert len(diagram.nodes) == 6
        assert set(diagram.edges) == set(korner_relations())
        assert diagram.extra_relations == ()


class TestValueTypes:
    def test_skeleton_spec_call_forms(self):
        group = builtin("ethene").group
        spec = SkeletonSpec(name="g", degree=4, group=group)
        assert (spec.extended, spec.structural, spec.letters, spec.structural_letters) == (None,) * 4
        assert spec.notes == ""
        assert spec == SkeletonSpec("g", 4, group) and spec != SkeletonSpec("g", 4, group, notes="x")
        with pytest.raises(AttributeError):
            spec.notes = "x"
        for args, kwargs in [(("g", 4), {}), (("g", 4, group), {"nme": "h"}), (("g", 4, group), {"degree": 4})]:
            with pytest.raises(TypeError):
                SkeletonSpec(*args, **kwargs)
        with pytest.raises(TypeError):
            SkeletonSpec("g", 4, group, None, None, None, None, "", "extra")

    def test_diagrams_compare_by_value(self):
        a, b = genetic_diagram(builtin("ethene")), genetic_diagram(builtin("ethene"))
        assert a is not b and a == b and hash(a) == hash(b)
        node = a.nodes[0]
        fields = ("name", "shape", "size", "representative", "chiral_pair", "structural_class")
        assert node == DiagramNode(*(getattr(node, f) for f in fields)) == b.nodes[0]
        assert node != DiagramNode(**{**{f: getattr(node, f) for f in fields}, "size": node.size + 1})
        empty = GeneticDiagram("empty", 0, (), (), (), ())
        assert empty == GeneticDiagram(skeleton="empty", degree=0, nodes=(), edges=(), extra_relations=(), merges=())
        assert a != empty
        with pytest.raises(AttributeError):
            a.edges = ()
        with pytest.raises(AttributeError):
            node.name = "x"


class TestEmitDot:
    def test_empty(self):
        empty = GeneticDiagram("empty", 0, (), (), (), ())
        text = emit_dot(empty)
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_ethene_statements(self):
        diagram = genetic_diagram(builtin("ethene"))
        dot = emit_dot(diagram)
        # one node statement per orbit, bracketed labels
        assert sum(1 for line in dot.splitlines() if "[label=" in line and "->" not in line) == 14
        for lower, upper in diagram.edges:
            assert f'"{upper}" -> "{lower}";' in dot
        assert dot.count("style=dashed") == len(diagram.extra_relations)
        assert dot.count("dir=both") == len(diagram.merges)

    def test_balanced_braces_and_quotes(self):
        dot = emit_dot(genetic_diagram(builtin("ethene")))
        assert dot.count("{") == dot.count("}")
        assert dot.count('"') % 2 == 0

    def test_deterministic(self):
        a = emit_dot(genetic_diagram(builtin("ethene")))
        b = emit_dot(genetic_diagram(builtin("ethene")))
        assert a == b

    def test_json_deterministic(self):
        a = genetic_diagram(builtin("ethene")).to_json()
        b = genetic_diagram(builtin("ethene")).to_json()
        assert a == b
        import json

        payload = json.loads(a)
        assert len(payload["nodes"]) == 14
