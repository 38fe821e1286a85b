import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import isomers.cli
from isomers.catalog import builtin
from isomers.cli import main
from isomers.partitions import parse_partition
from isomers.verify import VerifyResult

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_benzene_single_shape(self, capsys):
        code, out, err = run(capsys, "count", "--builtin", "benzene", "--shape", "4,2")
        assert code == 0 and err == ""
        assert "n=3" in out and "ok" in out

    def test_ethene_all_shapes(self, capsys):
        code, out, _ = run(capsys, "count", "--builtin", "ethene", "--all-shapes")
        assert code == 0
        values = [line.split("n=")[1].split()[0] for line in out.strip().splitlines()]
        assert values == ["1", "1", "3", "3", "6"]

    def test_naphthalene_json(self, capsys):
        code, out, _ = run(capsys, "count", "--builtin", "naphthalene", "--shape", "6,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {
                "shape": "6,2",
                "chi": "1",
                "theta": "1",
                "scalar": 10,
                "t527": 10,
                "t529": 10,
                "ruch": 10,
                "brute": 10,
                "agree": True,
            }
        ]

    def test_chi_index(self, capsys):
        code, out, _ = run(capsys, "count", "--builtin", "ethene", "--shape", "2^2", "--chi", "1")
        assert code == 0

    def test_chi_kernel(self, capsys):
        code, out, _ = run(
            capsys, "count", "--builtin", "ethene", "--shape", "2^2", "--chi", "kernel:(12)(34)", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["scalar"] == 1  # only the kernel-matched block orbit passes

    def test_theta_mask(self, capsys):
        code, out, _ = run(
            capsys, "count", "--builtin", "ethene", "--shape", "2^2", "--theta", "10", "--format", "json"
        )
        assert code == 0

    def test_bad_shape_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "--builtin", "benzene", "--shape", "4;2")
        assert code == 2
        assert err.startswith("error[usage]:")

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "count", "--builtin", "methane")
        assert code == 2 and err.startswith("error[usage]:")

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "count", "--shape", "4,2")
        assert code == 2 and err.startswith("error[usage]:")

    def test_dot_only_for_diagrams(self, capsys):
        code, _, err = run(capsys, "count", "--builtin", "benzene", "--shape", "4,2", "--format", "dot")
        assert code == 2 and err.startswith("error[usage]:")

    def test_wrong_degree_shape(self, capsys):
        code, _, err = run(capsys, "count", "--builtin", "benzene", "--shape", "4,3")
        assert code == 2 and err.startswith("error[usage]:")


class TestGroupFile:
    def test_count_from_file(self, capsys, tmp_path):
        path = tmp_path / "hexagon.grp"
        path.write_text("# hexagon rotations and a flip\ndegree 6\n(123456)\n(13)(46)\n")
        code, out, _ = run(capsys, "count", "--group-file", str(path), "--shape", "4,2")
        assert code == 0 and "n=3" in out

    def test_cap_exceeded(self, capsys, tmp_path):
        path = tmp_path / "big.grp"
        path.write_text("degree 7\n(12)\n(1234567)\n")
        code, _, err = run(capsys, "count", "--group-file", str(path), "--shape", "7", "--cap", "100")
        assert code == 3 and err.startswith("error[cap]:")

    def test_orbits_above_tabloid_cap(self, capsys, tmp_path):
        path = tmp_path / "c12.grp"
        path.write_text("degree 12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n")
        code, out, err = run(capsys, "orbits", "--group-file", str(path), "--shape", "1^12")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]:")

    def test_count_above_tabloid_cap(self, capsys, tmp_path):
        path = tmp_path / "c10.grp"
        path.write_text("degree 10\n(1 2 3 4 5 6 7 8 9 10)\n")
        code, out, err = run(capsys, "count", "--group-file", str(path), "--shape", "1^10")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]:")

    def test_count_one_tabloid_at_degree_twelve(self, capsys, tmp_path):
        path = tmp_path / "c12.grp"
        path.write_text("degree 12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n")
        code, out, _ = run(capsys, "count", "--group-file", str(path), "--shape", "12")
        assert code == 0 and "n=1" in out

    @pytest.mark.parametrize("extra", [("--chi", "0"), ("--theta", "1")])
    def test_count_one_tabloid_with_character_above_young_cap(self, capsys, tmp_path, extra):
        # the Young subgroup S_12 is far above the cap, but a character test never builds it;
        # the odd 12-cycle fixes the one tabloid, so the sign mask rejects it
        path = tmp_path / "c12.grp"
        path.write_text("degree 12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--group-file", str(path), "--shape", "12", *extra)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        expected = {"--chi": "1", "--theta": "0"}[extra[0]]
        routes = re.findall(r"(\w+)=(\d+)", out)
        assert routes[0] == ("n", expected) and {v for _, v in routes} == {expected}
        assert out.rstrip().endswith("ok")

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--shape", "2,1^7"),
            ("count", "--shape", "1^9"),
            ("count", "--all-shapes"),
            ("orbits",),
            ("verify",),
        ],
    )
    def test_degree_nine_refused_before_any_shape(self, capsys, tmp_path, argv):
        path = tmp_path / "c9.grp"
        path.write_text("degree 9\n(123456789)\n")
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--group-file", str(path), *argv[1:])
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        assert err.startswith("error[cap]: shape ") and "tabloid cap" in err

    def test_oversized_degree_refused_before_generators(self, capsys, tmp_path, monkeypatch):
        # every shape of degree 10^6 is past the tabloid cap, which the header line alone shows
        path = tmp_path / "big.grp"
        path.write_text("degree 1000000\n(12)\n")

        def parsed(*args, **kwargs):
            raise AssertionError("a generator was parsed or closed")

        monkeypatch.setattr(isomers.cli, "parse_cycles", parsed)
        monkeypatch.setattr(isomers.cli, "generate", parsed)
        start = time.perf_counter()
        for command in ("count", "orbits", "poset", "diagram", "verify"):
            code, out, err = run(capsys, command, "--group-file", str(path))
            assert (code, out) == (3, ""), (command, err)
            assert err == "error[cap]: shape 1^1000000 has more than 100000 tabloids, the tabloid cap\n"
        # a group file has no extended group, so chiral refuses it unread, whatever --shape says
        for extra in ((), ("--shape", "1000000")):
            code, out, err = run(capsys, "chiral", "--group-file", str(path), *extra)
            assert (code, out) == (2, ""), err
            assert "'big' has no stereoisomerism group" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("command", ["count", "orbits"])
    def test_named_shape_refused_before_generators(self, capsys, tmp_path, monkeypatch, command):
        # the one-tabloid shape passes the tabloid cap; count's scalar route is refused from the
        # degree line alone, and a shape past the tabloid cap for any command
        path = tmp_path / "big.grp"
        path.write_text("degree 1000000\n(12)\n")

        def parsed(*args, **kwargs):
            raise AssertionError("a generator was parsed or closed")

        monkeypatch.setattr(isomers.cli, "parse_cycles", parsed)
        monkeypatch.setattr(isomers.cli, "generate", parsed)
        shape, message = {
            "count": ("1000000", "shape 1000000 expands to more than 100000 power-sum terms, the scalar-route cap"),
            "orbits": ("999998,1^2", "shape 999998,1^2 has more than 100000 tabloids, the tabloid cap"),
        }[command]
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--group-file", str(path), "--shape", shape)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (3, "", f"error[cap]: {message}\n")
        tracemalloc.start()
        try:
            run(capsys, command, "--group-file", str(path), "--shape", shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20  # a few copies of the 10^6-part shape, no degree-10^6 permutation

    def test_kernel_closure_obeys_cap(self, capsys, tmp_path):
        path = tmp_path / "c4.grp"
        path.write_text("degree 4\n(1234)\n")
        kernel = "kernel:(12);(1234)"
        code, out, err = run(capsys, "count", "--group-file", str(path), "--shape", "2,2", "--chi", kernel, "--cap", "10")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]: closure exceeds cap of 10")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("(123)\n")
        code, _, err = run(capsys, "count", "--group-file", str(path), "--shape", "3")
        assert code == 2 and err.startswith("error[usage]:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "count", "--group-file", "/nonexistent.grp", "--shape", "3")
        assert code == 2 and err.startswith("error[usage]:")


class TestOrbits:
    def test_benzene_trisub(self, capsys):
        code, out, _ = run(capsys, "orbits", "--builtin", "benzene", "--shape", "3^2")
        assert code == 0
        assert "size=12" in out and "size=6" in out and "size=2" in out
        assert "a_(3^2)" in out and "c_(3^2)" in out

    def test_json_members(self, capsys):
        code, out, _ = run(capsys, "orbits", "--builtin", "ethene", "--shape", "2^2", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and len(payload) == 3
        assert all(len(entry["members"]) == 2 for entry in payload)


class TestLowDegree:
    """Degrees 1 and 2: one-index gathers return an item rather than a 1-tuple, so these are the edge."""

    @pytest.fixture(autouse=True)
    def files(self, tmp_path, monkeypatch):
        (tmp_path / "d1.grp").write_text("degree 1\n")
        (tmp_path / "d2.grp").write_text("degree 2\n(12)\n")
        (tmp_path / "d2trivial.grp").write_text("degree 2\n")
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("extra", [(), ("--chi", "0")])
    def test_count_all_shapes(self, capsys, extra):
        row = "[scalar={n} classes={n} types={n} ruch={n} brute={n}]  ok"
        assert run(capsys, "count", "--group-file", "d1.grp", "--all-shapes", *extra) == (
            0,
            f"           1  n=1  {row.format(n=1)}\n",
            "",
        )
        code, out, _ = run(capsys, "count", "--group-file", "d2trivial.grp", "--all-shapes", *extra)
        assert code == 0 and out == f"           2  n=1  {row.format(n=1)}\n         1^2  n=2  {row.format(n=2)}\n"

    def test_count_sign_character(self, capsys):
        code, out, _ = run(capsys, "count", "--group-file", "d2.grp", "--all-shapes", "--chi", "1")
        assert code == 0
        assert out == (
            "           2  n=0  [scalar=0 classes=0 brute=0]  ok\n"
            "         1^2  n=1  [scalar=1 classes=1 brute=1]  ok\n"
        )
        code, out, _ = run(capsys, "count", "--group-file", "d2.grp", "--shape", "1^2", "--theta", "11")
        assert code == 0 and out == "         1^2  n=1  [scalar=1 classes=1 brute=1]  ok\n"

    def test_orbits_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--group-file", "d1.grp", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"members": ["{1}"], "name": "a_(1)", "representative": "{1}", "shape": "1", "size": 1}
        ]
        code, out, _ = run(capsys, "orbits", "--group-file", "d2.grp", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"members": ["{1,2}{}"], "name": "a_(2)", "representative": "{1,2}{}", "shape": "2", "size": 1},
            {"members": ["{1}{2}", "{2}{1}"], "name": "a_(1^2)", "representative": "{1}{2}", "shape": "1^2", "size": 2},
        ]


class TestGoldenOutput:
    """stdout digests of outputs the benchmark harness does not check.

    The 1^8 and all-shape text listings were recorded before the gather
    enumerator, the all-shape JSON listing before the row-word writer.
    """

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ("orbits", "--builtin", "naphthalene", "--shape", "1^8", "--format", "json"),
                "bc13281ea0a9d2968cd9984234af71c3e31bbca63f8b1743b5b3b224b6bbff9b",
            ),
            (("orbits", "--builtin", "naphthalene"), "8f58ce83efb8bc120c9c11fe29aa6dff53220a2157033171714ad2f7080cb75c"),
            (
                ("orbits", "--builtin", "naphthalene", "--format", "json"),
                "075ee6ad1595ff1866e399f3345444ec1f3ddb318cada1628fdfa1e4d2de1e3d",
            ),
        ],
        ids=["1^8-json", "all-shapes-text", "all-shapes-json"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestNoMemberObjects:
    """Output formats row-words: listing orbits builds no member or representative Dissection."""

    @pytest.mark.parametrize(
        "name,shape,commands",
        [("naphthalene", "3,1^5", ["orbits"]), ("ethene", "2,1^2", ["orbits", "chiral"])],
    )
    def test_listing_leaves_orbits_bare(self, capsys, monkeypatch, name, shape, commands):
        specs = []
        monkeypatch.setattr(isomers.cli, "builtin", lambda n: specs.append(builtin(n)) or specs[-1])
        spaces = []
        for command in commands:
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, command, "--builtin", name, "--shape", shape, "--format", fmt)
                assert code == 0 and out
                lam = parse_partition(shape, specs[-1].degree)
                groups = [specs[-1].group] + ([specs[-1].extended] if command == "chiral" else [])
                spaces.extend(g._memo[("orbit_space", lam)] for g in groups)  # the memoized spaces the command read
        for space in spaces:
            for orbit in space:
                assert not hasattr(orbit, "_members") and not hasattr(orbit, "_representative")


class TestPoset:
    def test_korner_slice(self, capsys):
        code, out, _ = run(capsys, "poset", "--builtin", "benzene", "--shape", "3^2:4,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all("[cover]" in line for line in lines)
        assert "a_(3^2) < a_(4,2)  [cover]" in lines

    def test_full_ethene(self, capsys):
        code, out, _ = run(capsys, "poset", "--builtin", "ethene")
        assert code == 0
        assert "a_(2,1^2) < a_(3,1)  [comparable]" in out

    def test_bad_shape_is_usage_error(self, capsys):
        code, out, err = run(capsys, "poset", "--builtin", "benzene", "--shape", "9:1")
        assert code == 2 and out == ""
        assert err.startswith("error[usage]: bad shape")

    def test_full_naphthalene_is_capped(self, capsys):
        code, out, err = run(capsys, "poset", "--builtin", "naphthalene")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]:")


class TestDiagram:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "diagram", "--builtin", "ethene", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and out.count("{") == out.count("}")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "diagram", "--builtin", "ethene", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["skeleton"] == "ethene"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ethene.dot"
        code, out, _ = run(capsys, "diagram", "--builtin", "ethene", "--format", "dot", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph")

    def test_full_naphthalene_is_capped(self, capsys):
        code, out, err = run(capsys, "diagram", "--builtin", "naphthalene")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]:")


class TestChiral:
    def test_ethene_all_single(self, capsys):
        code, out, _ = run(capsys, "chiral", "--builtin", "ethene", "--shape", "2^2")
        assert code == 0
        assert out.count("single") == 3 and "pair" not in out

    def test_missing_extended_group(self, capsys):
        code, _, err = run(capsys, "chiral", "--builtin", "benzene", "--shape", "3^2")
        assert code == 2 and err.startswith("error[usage]:")


class TestVerify:
    def test_ethene(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "ethene")
        assert code == 0
        assert "FAIL" not in out and "ok " in out

    def test_symmetric_six_group_file(self, capsys, tmp_path):
        path = tmp_path / "s6.grp"
        path.write_text("degree 6\n(123456)\n(12)\n")
        code, out, _ = run(capsys, "verify", "--group-file", str(path))
        assert code == 0
        assert "FAIL" not in out and "ok " in out

    def test_result_counts_failures(self):
        first, second = VerifyResult(), VerifyResult()
        first.check("a", True)
        first.check("b", False)
        assert first.lines == ["ok   a", "FAIL b"] and first.failures == 1 and not first.ok
        assert second.lines == [] and second.ok
        assert not VerifyResult(lines=["FAIL c"], failures=1).ok


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--builtin", "benzene", "--all-shapes", "--format", "json"),
            ("orbits", "--builtin", "ethene", "--shape", "1^4", "--format", "json"),
            ("diagram", "--builtin", "ethene", "--format", "dot"),
            ("poset", "--builtin", "benzene", "--shape", "3^2:4,2"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second and first


class TestContract:
    def test_import_loads_no_dataclasses_inspect_or_json(self):
        # compared against the interpreter's start set, so a site hook that
        # loads one of these modules does not fail the test
        probe = (
            "import sys; before = set(sys.modules); import isomers.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json'} & (set(sys.modules) - before)))"
        )
        src = str(Path(isomers.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    FLAGS = {
        "count": {"--builtin", "--group-file", "--cap", "--out", "--shape", "--all-shapes", "--chi", "--theta", "--format"},
        "orbits": {"--builtin", "--group-file", "--cap", "--out", "--shape", "--format"},
        "chiral": {"--builtin", "--group-file", "--cap", "--out", "--shape", "--format"},
        "poset": {"--builtin", "--group-file", "--cap", "--out", "--shape"},
        "diagram": {"--builtin", "--group-file", "--cap", "--out", "--shape", "--format"},
        "verify": {"--builtin", "--group-file", "--cap", "--out"},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == self.FLAGS[command] | {"--help"}

    def test_internal_error_is_not_usage(self, capsys, monkeypatch):
        def broken(*_):
            raise RuntimeError("boom")

        monkeypatch.setattr(isomers.cli, "orbit_space", broken)
        code, out, err = run(capsys, "orbits", "--builtin", "ethene", "--shape", "4")
        assert code == 4 and out == ""
        assert err == "error[internal]: RuntimeError: boom\n"

    def test_cap_bounds_builtins(self, capsys):
        code, out, err = run(capsys, "count", "--builtin", "benzene", "--cap", "11")
        assert code == 3 and out == ""
        assert err.startswith("error[cap]: builtin benzene has a group of order 12")
        assert run(capsys, "count", "--builtin", "benzene", "--shape", "6", "--cap", "12")[0] == 0

    def test_one_shape_grammar(self, capsys):
        _, listed, _ = run(capsys, "count", "--builtin", "benzene", "--shape", "6:4,2:6")
        _, first, _ = run(capsys, "count", "--builtin", "benzene", "--shape", "6")
        _, second, _ = run(capsys, "count", "--builtin", "benzene", "--shape", "4,2")
        assert listed == first + second
        code, out, _ = run(capsys, "poset", "--builtin", "benzene", "--shape", "3^2:4,2:6")
        assert code == 0 and "a_(3^2) < a_(4,2)  [cover]" in out and "_(6)  [" in out

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "orbits", "--builtin", "ethene", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error[usage]: cannot write {target}")

    def test_readme_examples_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        examples = [shlex.split(line) for line in README.read_text().splitlines() if line.startswith("isomers ")]
        assert len(examples) >= 8
        for argv in examples:
            code, _, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)


GROUP_FILES = {
    "d0.grp": "degree 0\n",
    "d60.grp": "degree 60\n",
    "badcycle.grp": "degree 4\n(12\n",
    "repeated.grp": "degree 4\n(12)(23)\n",
    "header.grp": "order 4\n(12)\n",
    "d2000.grp": "degree 2000\n",
    "d1000000.grp": "degree 1000000\n",
    "d1000000badcycle.grp": "degree 1000000\n(12\n",
    "d1e6.grp": "degree 1e6\n",
    "d300.grp": "degree 300\n",
}

# (argv, exit code): the probes of malformed input, the flags a subcommand
# does not read, and inputs whose refusal must come before any enumeration.
CORPUS = [
    (("count", "--builtin", "ethene", "--shape", "2^2", "--theta", "12"), 2),
    (("count", "--builtin", "ethene", "--shape", "2^2", "--chi", "9"), 2),
    (("count", "--builtin", "benzene", "--shape", "4;2"), 2),
    (("count", "--builtin", "benzene", "--shape", "4,3"), 2),
    (("count", "--builtin", "benzene", "--shape", "2,4"), 2),
    (("poset", "--builtin", "benzene", "--shape", "9:1"), 2),
    (("count", "--group-file", "d0.grp"), 2),
    (("count", "--group-file", "badcycle.grp"), 2),
    (("count", "--group-file", "repeated.grp"), 2),
    (("count", "--group-file", "header.grp"), 2),
    (("count", "--builtin", "benzene", "--cap", "0"), 3),
    (("poset", "--builtin", "benzene", "--shape", "4,2:4,2"), 0),
    (("diagram", "--builtin", "ethene", "--shape", "4"), 0),
    (("orbits", "--builtin", "benzene", "--chi", "1"), 2),
    (("orbits", "--builtin", "benzene", "--theta", "1"), 2),
    (("poset", "--builtin", "benzene", "--chi", "1"), 2),
    (("poset", "--builtin", "benzene", "--theta", "1"), 2),
    (("poset", "--builtin", "benzene", "--format", "json"), 2),
    (("diagram", "--builtin", "ethene", "--chi", "1"), 2),
    (("diagram", "--builtin", "ethene", "--theta", "1"), 2),
    (("chiral", "--builtin", "ethene", "--chi", "1"), 2),
    (("chiral", "--builtin", "ethene", "--theta", "1"), 2),
    (("verify", "--builtin", "ethene", "--chi", "1"), 2),
    (("verify", "--builtin", "ethene", "--theta", "1"), 2),
    (("verify", "--builtin", "ethene", "--shape", "4"), 2),
    (("verify", "--builtin", "ethene", "--format", "json"), 2),
    (("diagram", "--builtin", "ethene", "--format", "text"), 2),
    (("count", "--builtin", "benzene", "--all-shapes", "--shape", "4,2"), 2),
    (("count", "--builtin", "benzene", "--shape", "1^9999999"), 2),
    (("count", "--group-file", "d60.grp"), 3),
    (("verify", "--group-file", "d60.grp"), 3),
    (("poset", "--group-file", "d60.grp"), 3),
    (("diagram", "--group-file", "d60.grp"), 3),
    (("orbits", "--group-file", "d60.grp"), 3),
    (("count", "--group-file", "d2000.grp"), 3),
    (("verify", "--group-file", "d2000.grp"), 3),
    (("count", "--group-file", "d60.grp", "--shape", "60"), 3),
    (("count", "--group-file", "d60.grp", "--shape", "60", "--chi", "0"), 3),
    (("count", "--group-file", "d60.grp", "--shape", "60", "--theta", "1"), 3),
    (("count", "--group-file", "d1000000.grp"), 3),
    (("count", "--group-file", "d1000000.grp", "--shape", "1000000"), 3),
    (("verify", "--group-file", "d1000000.grp"), 3),
    (("orbits", "--group-file", "d1000000.grp"), 3),
    (("poset", "--group-file", "d1000000.grp"), 3),
    # malformed and oversized: a bad header exits 2; past it the requested
    # shapes are refused from the degree alone, before any generator is
    # read: the degree for every shape, the tabloid cap and (for count) the
    # scalar-route cap for named ones; a bad generator is found only after
    (("count", "--group-file", "d1e6.grp"), 2),
    (("count", "--group-file", "d1000000badcycle.grp"), 3),
    (("count", "--group-file", "d1000000badcycle.grp", "--shape", "1000000"), 3),
    (("orbits", "--group-file", "d1000000badcycle.grp", "--shape", "1000000"), 2),
    (("count", "--group-file", "binary.grp"), 2),
    # degree 300 with few tabloids: the dominance interval and the prefix
    # masks cost what the shapes hold, not what all of degree 300 would
    (("poset", "--group-file", "d300.grp", "--shape", "299,1:300"), 0),
    (("diagram", "--group-file", "d300.grp", "--shape", "299,1:300"), 0),
    (("chiral", "--group-file", "d60.grp"), 2),
    (("chiral", "--group-file", "d60.grp", "--shape", "60"), 2),
    (("orbits", "--builtin", "ethene", "--out", "missing/x"), 2),
]


@pytest.mark.parametrize("argv,expected", CORPUS, ids=[" ".join(argv) for argv, _ in CORPUS])
def test_robustness_corpus(capsys, monkeypatch, tmp_path, argv, expected):
    for name, text in GROUP_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "binary.grp").write_bytes(b"degree 4\n\xe7\xff\n")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert code == expected and code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code:
        assert err.startswith("error[") and out == ""
