"""The library's public surface: reprs, argument checks and what importing a module loads."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isomers.counting
from isomers.counting import (
    CountReport,
    PowerSumPoly,
    RootOfUnitySum,
    build_report,
    combinatorially_equivalent,
    count_brute,
    count_classes,
    count_ruch,
    cycle_index,
    scalar_product,
)
from isomers.dissections import (
    interval_dissections,
    is_cover_tabloid,
    leq_dissection,
    parse_tabloid,
    substitution_chain,
)
from isomers.orbits import classify_chiral, is_character_orbit, orbit_leq, orbit_space, refine, stabilizer
from isomers.partitions import Partition, adjacent_raising_chain, all_partitions, raising_op
from isomers.perms import PermGroup, generate, linear_characters, parse_cycles, relative_sign_character

SRC = str(Path(isomers.counting.__file__).resolve().parents[1])

P3, P4 = parse_cycles("(123)", 3), parse_cycles("(1234)", 4)
S3 = generate([P3, parse_cycles("(12)", 3)])
C3 = generate([P3])
S4 = generate([P4, parse_cycles("(12)", 4)])
SIGN3 = next(chi for chi in linear_characters(S3) if chi.order == 2)
L21, L3 = Partition((2, 1), 3), Partition((3,), 3)
A, B = parse_tabloid("{1,2}{3}{}"), parse_tabloid("{1,2,3}{}{}")  # A < B
A4 = parse_tabloid("{1,2}{3,4}{}{}")


C5 = generate([parse_cycles("(12345)", 5)])
EXACT = {
    "dissection": A,  # trailing empty components
    "partition": L21,
    "int sum": RootOfUnitySum.of(3),
    "fraction sum": RootOfUnitySum.of(Fraction(1, 3)),
    "irrational sum": RootOfUnitySum(5, {1: Fraction(1, 3), 2: 1}),
    "cycle index": cycle_index(C5, next(chi for chi in linear_characters(C5) if chi.order == 5)),
    "count report": build_report(S3, L21),
}


class TestRepr:
    @pytest.mark.parametrize("value", EXACT.values(), ids=EXACT)
    def test_repr_rebuilds_the_value(self, value):
        ns = {
            "parse_tabloid": parse_tabloid,
            "Partition": Partition,
            "RootOfUnitySum": RootOfUnitySum,
            "Fraction": Fraction,
            "PowerSumPoly": PowerSumPoly,
            "CountReport": CountReport,
        }
        rebuilt = eval(repr(value), ns)
        assert rebuilt == value
        if hasattr(value, "coeffs"):
            assert rebuilt.coeffs == value.coeffs

    def test_exact_texts(self):
        assert repr(A) == "parse_tabloid('{1,2}{3}{}')"
        assert repr(RootOfUnitySum.of(Fraction(1, 3))) == "RootOfUnitySum.of(Fraction(1, 3))"

    def test_descriptive_reprs(self):
        assert repr(orbit_space(S3, L21).orbits[0]) == "Orbit({1,2}{3}{}, size=3)"
        assert repr(S3) == "PermGroup(d=3, order=6)"
        assert repr(SIGN3) == "LinearCharacter(order=2, group=PermGroup(d=3, order=6))"


# each row: a call that misuses the library, and the exception it raises
# (or the value it returns, for a comparison with a str)
MISUSES = [
    # counting
    (lambda: cycle_index(S4, SIGN3), ValueError("character does not live on this group")),
    (lambda: scalar_product(cycle_index(S3), cycle_index(S4)), ValueError("degree mismatch")),
    (lambda: count_classes(S4, None, L21), ValueError("shape degree differs from group degree")),
    (lambda: count_ruch(S4, L21), ValueError("shape degree differs from group degree")),
    (lambda: count_brute(C3, L21, SIGN3), ValueError("chi is not a character of the orbit's group")),
    (lambda: combinatorially_equivalent(S3, S4), ValueError("degree mismatch")),
    # dissections
    (lambda: A.component_of(4), ValueError("point 4 outside [1,3]")),
    (lambda: A.acted_by(P4), ValueError("degree mismatch")),
    (lambda: parse_tabloid("1,2}{3}"), ValueError("malformed dissection text: '1,2}{3}'")),
    (lambda: leq_dissection(A, A4), ValueError("degree mismatch")),
    (lambda: substitution_chain(A, A4), ValueError("degree mismatch")),
    (lambda: interval_dissections(B, A), ValueError("a does not precede b")),
    (lambda: is_cover_tabloid(parse_tabloid("{1}{2,3}{}"), B), ValueError("both arguments must be tabloids")),
    # orbits
    (lambda: stabilizer(S3, A4), ValueError("degree mismatch")),
    (lambda: orbit_leq(orbit_space(S3, L21).orbits[0], orbit_space(C3, L21).orbits[0]), ValueError("orbits belong to different groups")),
    (lambda: is_character_orbit(orbit_space(C3, L21).orbits[0], SIGN3), ValueError("chi is not a character of the orbit's group")),
    (lambda: refine(orbit_space(C3, L21), orbit_space(S3, L21)), ValueError("fine group is not a subgroup of the coarse group")),
    (lambda: refine(orbit_space(S3, L21), orbit_space(C3, L3)), ValueError("orbit spaces have different shapes")),
    (lambda: classify_chiral(S3, C3, L21), ValueError("group is not a subgroup of the extended group")),
    # partitions
    (lambda: raising_op(0, 2, (1, 1)), ValueError("indices out of range: i=0, j=2, d=2")),
    (lambda: adjacent_raising_chain((2, -1, 1), (2, 0, 0)), ValueError("both compositions must be non-negative")),
    (lambda: all_partitions(0), ValueError("d must be positive")),
    # perms
    (lambda: P3(4), ValueError("point 4 outside [1,3]")),
    (lambda: P3 * P4, ValueError("degree mismatch")),
    (lambda: PermGroup(3, [P3], [P3]), ValueError("element list lacks the identity")),
    (lambda: generate([]), ValueError("degree required to build the trivial group")),
    (lambda: generate([P3, P4]), ValueError("generators have mixed degrees")),
    (lambda: relative_sign_character(C3, S3), ValueError("small is not a subgroup of big")),
    # immutability
    (lambda: setattr(A, "x", 1), AttributeError("Dissection is immutable")),
    (lambda: setattr(L21, "parts", ()), AttributeError("Partition is immutable")),
    (lambda: setattr(P3, "images", ()), AttributeError("Permutation is immutable")),
    # comparison with a str
    (lambda: RootOfUnitySum.of(1) == "1", False),
    (lambda: orbit_space(S3, L21) == "x", False),
    (lambda: cycle_index(S3) == "x", False),
]


@pytest.mark.parametrize("call,outcome", MISUSES, ids=[str(outcome) for _, outcome in MISUSES])
def test_misuse_is_refused(call, outcome):
    if not isinstance(outcome, Exception):
        assert call() is outcome
        return
    with pytest.raises(type(outcome)) as caught:
        call()
    assert str(caught.value) == str(outcome)


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("partitions", ["partitions"]),
        ("orbits", ["dissections", "orbits", "partitions", "perms"]),
    ],
)
def test_importing_a_module_loads_only_what_it_imports(module, loaded):
    # a bare interpreter (no site, so no site hook loads anything)
    probe = (
        "import sys; before = set(sys.modules); import isomers.%s; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'isomers'))" % module
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], env={"PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60)
    assert ast.literal_eval(done.stdout) == ["isomers", *(f"isomers.{name}" for name in loaded)]
