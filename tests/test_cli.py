import ast
import errno
import hashlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import isomers.cli
import isomers.orbits
from isomers.catalog import builtin
from isomers.cli import main
from isomers.dissections import Dissection
from isomers.perms import generate, linear_characters, parse_cycles
from isomers.verify import VerifyResult

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(isomers.cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter on args, importing from src, its stdout block-buffered (PYTHONUNBUFFERED unset)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *args], env={**env, "PYTHONPATH": SRC}, capture_output=True, timeout=120)


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

    def test_shape_exponent_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "--builtin", "benzene", "--shape", "6,2^-1")
        assert (code, out) == (2, "")
        assert err == "error[usage]: bad shape '6,2^-1': exponent below 1 in partition '6,2^-1'\n"

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

    def test_kernel_match_builds_no_permutation_per_element(self):
        s8 = generate([parse_cycles("(12345678)", 8), parse_cycles("(12)", 8)])
        spec = "kernel:(123);(2345678)"  # generates A8
        args = isomers.cli.parse_args(["count", "--all-shapes", "--group-file", "s8.grp", "--chi", spec])
        chi, label = isomers.cli.resolve_chi(args, s8)
        assert (chi.key(), label) == (linear_characters(s8)[1].key(), spec)
        assert "elements" not in s8.__dict__

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("(123)\n")
        code, _, err = run(capsys, "count", "--group-file", str(path), "--shape", "3")
        assert code == 2 and err.startswith("error[usage]:")

    def test_empty_cycle_on_a_generator_line(self, capsys, tmp_path):
        # "()" adds no cycle, so (12)() generates what (12) does
        outs = []
        for line in ("(12)()", "(12)"):
            path = tmp_path / "g.grp"
            path.write_text(f"degree 4\n{line}\n")
            outs.append(run(capsys, "count", "--group-file", str(path), "--all-shapes"))
        assert outs[0] == outs[1] and outs[0][0] == 0 and "2,1^2  n=7" in outs[0][1]

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
    """Output formats row-words: listing orbits wraps no member or representative Dissection."""

    @pytest.mark.parametrize(
        "name,shape,commands",
        [("naphthalene", "3,1^5", ["orbits"]), ("ethene", "2,1^2", ["orbits", "chiral"])],
    )
    def test_listing_leaves_orbits_bare(self, capsys, monkeypatch, name, shape, commands):
        spec = builtin(name)  # its pinned letters are parsed Dissections; they are read, not built, below
        monkeypatch.setattr(isomers.cli, "builtin", lambda n: spec)
        built = []
        init, trusted = Dissection.__init__, Dissection._trusted.__func__
        monkeypatch.setattr(Dissection, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        monkeypatch.setattr(Dissection, "_trusted", classmethod(lambda cls, w: built.append(w) or trusted(cls, w)))
        for command in commands:
            for fmt in ("json", "text"):
                code, out, _ = run(capsys, command, "--builtin", name, "--shape", shape, "--format", fmt)
                assert code == 0 and out
        assert built == []
        assert Dissection.parse("{1}{2}") == Dissection._trusted((1, 2)) and len(built) == 2  # the hooks count


class TestProcessEntry:
    """``run()``, the process entry, ends the process with ``os._exit``: what a normal exit gives, it must still give.

    Each request is a fresh interpreter with block-buffered stdout, so
    output left in a buffer at the exit would be lost.
    """

    LISTING = ("orbits", "--builtin", "naphthalene", "--shape", "2,1^6", "--format", "json")

    def test_listing_past_the_pipe_buffer_as_in_process(self, capsys, tmp_path):
        _, out, _ = run(capsys, *self.LISTING)
        assert len(out) > 1_000_000
        piped = spawn("-m", "isomers.cli", *self.LISTING)
        assert (piped.returncode, piped.stdout, piped.stderr) == (0, out.encode(), b"")
        target = tmp_path / "listing.json"
        written = spawn("-m", "isomers.cli", *self.LISTING, "--out", str(target))
        assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize(
        "argv,planted,expected",
        [
            (("count", "--builtin", "benzene", "--shape", "4,2"), False, 0),
            (("verify", "--builtin", "ethene"), True, 1),
            (("count", "--builtin", "bogus"), False, 2),
            (("count", "--builtin", "benzene", "--cap", "11"), False, 3),
            (("count", "--help"), False, 0),
        ],
        ids=["ok", "verify-failure", "usage", "cap", "help"],
    )
    def test_exit_code_and_streams_as_in_process(self, capsys, monkeypatch, argv, planted, expected):
        plant = "isomers.cli.verify_skeleton = lambda spec: VerifyResult(['FAIL planted'], 1)"
        entry = f"import isomers.cli; from isomers.verify import VerifyResult; {plant if planted else 'pass'}; isomers.cli.run()"
        done = spawn("-c", entry, *argv)
        if planted:
            monkeypatch.setattr(isomers.cli, "verify_skeleton", lambda spec: VerifyResult(["FAIL planted"], 1))
        try:
            code = main(list(argv))
        except SystemExit as stop:  # --help
            code = stop.code
        out, err = capsys.readouterr()
        assert code == expected
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (code, out, err)

    def test_system_exit_message_as_sys_exit(self):
        done = spawn("-c", "import sys, isomers.cli; isomers.cli.main = lambda: sys.exit('stopped'); isomers.cli.run()")
        assert (done.returncode, done.stdout, done.stderr) == (1, b"", b"stopped\n")

    def test_profiler_still_reports(self, capsys):
        _, out, _ = run(capsys, "poset", "--builtin", "ethene")
        done = spawn("-m", "cProfile", "-m", "isomers.cli", "poset", "--builtin", "ethene")
        assert done.returncode == 0 and done.stdout.startswith(out.encode())
        assert b" function calls " in done.stdout and b"Ordered by: " in done.stdout

    def test_exit_handler_runs_with_collection_off(self):
        entry = "import atexit, gc, isomers.cli; atexit.register(lambda: print('handler, gc on:', gc.isenabled())); isomers.cli.run()"
        done = spawn("-c", entry, "poset", "--builtin", "ethene", "--shape", "4")
        assert (done.returncode, done.stdout, done.stderr) == (0, b"handler, gc on: False\n", b"")

    def test_main_keeps_collection_on(self):
        entry = "import gc, sys, isomers.cli; code = isomers.cli.main(sys.argv[1:]); print(gc.isenabled(), code)"
        done = spawn("-c", entry, "poset", "--builtin", "ethene", "--shape", "4")
        assert (done.returncode, done.stdout, done.stderr) == (0, b"True 0\n", b"")


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

    def test_benzene_references(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "benzene")
        assert code == 0 and "FAIL" not in out
        assert out.endswith(
            "ok   the six genetic relations, exactly\n"
            "ok   di-substitution orbit sizes 3,6,6\n"
            "ok   tri-substitution orbit sizes 2,6,12\n"
        )

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
    def test_import_loads_no_dataclasses_inspect_or_json(self, tmp_path):
        # a bare interpreter (no site, so no site hook loads anything) imports
        # the CLI, then runs the argv through main; stderr's last line is the
        # modules the import added and whether fractions is loaded at exit
        probe = (
            "import sys; before = set(sys.modules); import isomers.cli; added = sorted(set(sys.modules) - before); "
            "code = isomers.cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print((code, added, 'fractions' in sys.modules, 'json' in sys.modules), file=sys.stderr)"
        )
        env = {**os.environ, "PYTHONPATH": SRC}

        def request(*argv):
            done = subprocess.run([sys.executable, "-S", "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=60)
            return ast.literal_eval(done.stderr.splitlines()[-1])

        code, added, fractions, json_loaded = request()
        unused = {"argparse", "gettext", "locale", "fractions", "decimal", "numbers", "json", "dataclasses", "inspect", "pathlib"}
        unused.add("typing")  # annotation names come from collections.abc
        assert code == 0 and unused.isdisjoint(added) and not fractions and not json_loaded
        probed = {"catalog", "cli", "counting", "dissections", "orbits", "perms", "verify"}  # perfbench's spans
        assert {f"isomers.{name}" for name in probed} <= set(added)
        assert request("poset", "--builtin", "ethene") == (0, added, False, False)
        # the counting routes divide once, in integers, so counting loads no fractions either
        assert request("count", "--builtin", "ethene", "--shape", "2,2") == (0, added, False, False)
        assert request("verify", "--builtin", "ethene") == (0, added, False, False)
        cyclic = tmp_path / "c12.grp"
        cyclic.write_text("degree 7\n(1234)(567)\n")  # character 5 has order 12
        assert request("count", "--group-file", str(cyclic), "--all-shapes", "--chi", "5") == (0, added, False, False)
        # a JSON orbit listing quotes its names and shape texts itself
        assert request("orbits", "--builtin", "ethene", "--format", "json") == (0, added, False, False)

    def test_every_all_name_resolves(self):
        # a name left in __all__ after its definition is gone would otherwise
        # break only ``from isomers.<module> import *``, at run time
        with_all = []
        for info in pkgutil.iter_modules(isomers.__path__):
            module = importlib.import_module(f"isomers.{info.name}")
            if hasattr(module, "__all__"):
                with_all.append(info.name)
                assert [name for name in module.__all__ if not hasattr(module, name)] == [], info.name
        assert {"catalog", "counting", "dissections", "orbits", "partitions", "perms"} <= set(with_all)

    def test_every_traced_name_resolves(self):
        # perfbench wraps these names by (module, attribute); a deleted or
        # renamed one would otherwise fail only the traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        probes = [entry[:2] for entry in spans.SPANNED + spans.COUNTED]
        missing = []
        for module, attr in probes:
            obj = importlib.import_module(f"isomers.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append((module, attr))
        assert len(probes) > 20 and missing == []

    def test_every_module_level_import_is_read(self):
        # an import nothing reads costs start-up time and misstates what a
        # module depends on; __all__ and the package's re-exports count as reads
        root = Path(__file__).resolve().parents[1]
        unread = []
        for path in sorted([*(root / "src" / "isomers").glob("*.py"), *(root / "tests").glob("*.py")]):
            tree = ast.parse(path.read_text(), str(path))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    read.update(ast.literal_eval(node.value))
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and path.name != "__init__.py":
                        unread.append(f"{path.relative_to(root)}: {name}")
        assert unread == []

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

    def test_unwritable_out(self, capsys, monkeypatch, tmp_path):
        # refused before the skeleton is read: no orbit space is built and no file is made or truncated
        built = []
        for module in (isomers.cli, isomers.orbits):
            monkeypatch.setattr(module, "orbit_space", lambda group, lam: built.append(lam))
        (tmp_path / "file").write_text("kept")
        for target in (tmp_path / "missing" / "x", tmp_path / "file" / "x", tmp_path, tmp_path / "file"):
            if target == tmp_path / "file":  # unwritable by os.access, not by mode bits, which root passes
                monkeypatch.setattr(os, "access", lambda path, mode: False)
            code, out, err = run(capsys, "orbits", "--builtin", "ethene", "--out", str(target))
            assert (code, out, built) == (2, "", [])
            assert err.startswith(f"error[usage]: cannot write {target}: [Errno ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"] and (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("argv", [("count", "--builtin", "benzene", "--shape", "4,2"), ("count", "--help")])
    def test_closed_stdout_is_usage(self, capsys, monkeypatch, argv):
        # a process started with stdout closed has sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (2, "error[usage]: cannot write <stdout>: stdout is closed\n")

    @pytest.mark.parametrize(
        "argv,chunks",
        [
            (("orbits", "--builtin", "benzene"), 144),  # one line per orbit
            (("orbits", "--builtin", "benzene", "--format", "json"), 145),  # one object per orbit, then the close
            (("chiral", "--builtin", "ethene"), 14),  # one line per coarse orbit
            (("chiral", "--builtin", "ethene", "--format", "json"), 1),  # 14 rows, written whole
        ],
    )
    def test_listings_stream(self, capsys, monkeypatch, argv, chunks):
        # each orbit's text is written as it is made (chiral JSON in one write), and the chunks are the whole output
        whole = run(capsys, *argv)[1]
        writes = []

        class Recorder:
            write = writes.append

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Recorder())
        assert main(list(argv)) == 0
        assert len(writes) == chunks and "".join(writes) == whole

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [("count", "--builtin", "benzene", "--shape", "4,2"), ("count", "--help")])
    def test_failed_stdout_is_usage(self, capsys, monkeypatch, argv, failing):
        # a full disk on stdout is reported like one under --out, not as a bug
        class FullStdout:
            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return len(text)

            def flush(self):
                if failing == "flush":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (2, "error[usage]: cannot write <stdout>: [Errno 28] No space left on device\n")

    def test_readme_examples_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        examples = [shlex.split(line) for line in README.read_text().splitlines() if line.startswith("isomers ")]
        assert len(examples) >= 8
        for argv in examples:
            code, _, err = run(capsys, *argv[1:])
            assert code == 0, (argv, err)


# Recorded from the argparse parser the table-driven one replaced: the values
# of each command given no flags, then argv with the values that differ from
# those, or the exit code.  Long flags take a unique prefix and ``=value``, the
# last of a repeated flag wins and a negative number is a value.
PARSE_SOURCE = {"builtin": None, "group_file": None, "cap": 100000, "out": None}
PARSE_DEFAULTS = {
    "count": {
        "command": "count",
        **PARSE_SOURCE,
        "format": "text",
        "shape": None,
        "all_shapes": False,
        "chi": None,
        "theta": None,
    },
    "orbits": {"command": "orbits", **PARSE_SOURCE, "shape": None, "format": "text"},
    "poset": {"command": "poset", **PARSE_SOURCE, "shape": None},
    "diagram": {"command": "diagram", **PARSE_SOURCE, "shape": None, "format": "dot"},
    "chiral": {"command": "chiral", **PARSE_SOURCE, "shape": None, "format": "text"},
    "verify": {"command": "verify", **PARSE_SOURCE},
}
PARSE_TABLE = [
    # accepted: the values that differ from PARSE_DEFAULTS
    (("count", "--builtin", "benzene"), {"builtin": "benzene"}),
    (("count", "--builtin=benzene", "--shape=4,2"), {"builtin": "benzene", "shape": "4,2"}),
    (
        ("count", "--bui", "benzene", "--sh", "4,2", "--fo", "json"),
        {"builtin": "benzene", "format": "json", "shape": "4,2"},
    ),
    (
        ("count", "--bui=benzene", "--gr=g.grp", "--ca=7", "--o=x"),
        {"builtin": "benzene", "group_file": "g.grp", "cap": 7, "out": "x"},
    ),
    (("count", "--builtin", "benzene", "--builtin", "ethene"), {"builtin": "ethene"}),
    (("count", "--builtin", "ethene", "--shape", "4", "--shape", "2,2"), {"builtin": "ethene", "shape": "2,2"}),
    (("count", "--builtin", "ethene", "--all-shapes", "--all-shapes"), {"builtin": "ethene", "all_shapes": True}),
    (("count", "--builtin", "ethene", "--al"), {"builtin": "ethene", "all_shapes": True}),
    (("count", "--builtin", "ethene", "--format", "json", "--format", "text"), {"builtin": "ethene"}),
    (("count", "--group-file", "g.grp", "--cap", "-5"), {"group_file": "g.grp", "cap": -5}),
    (("count", "--builtin", "ethene", "--chi", "-1"), {"builtin": "ethene", "chi": "-1"}),
    (("count", "--builtin", "ethene", "--chi", "-.5"), {"builtin": "ethene", "chi": "-.5"}),
    (("count", "--builtin", "ethene", "--chi", "-2.5"), {"builtin": "ethene", "chi": "-2.5"}),
    (("count", "--builtin", "ethene", "--chi", "-a b"), {"builtin": "ethene", "chi": "-a b"}),
    (("count", "--builtin", "-"), {"builtin": "-"}),
    (("count", "--builtin="), {"builtin": ""}),
    (("count", "--shape=--x"), {"shape": "--x"}),
    (("count", "--shape=4=2"), {"shape": "4=2"}),
    (("count", "--cap", " 7 "), {"cap": 7}),
    (("count", "--cap", "1_0"), {"cap": 10}),
    (("count", "--cap", "+3"), {"cap": 3}),
    (("count", "--cap=-12"), {"cap": -12}),
    (
        ("count", "--builtin", "ethene", "--theta", "10", "--chi", "kernel:(12)(34)", "--out", "x.txt"),
        {"builtin": "ethene", "out": "x.txt", "chi": "kernel:(12)(34)", "theta": "10"},
    ),
    (("count",), {}),
    (("orbits", "--builtin", "ethene", "--format", "json"), {"builtin": "ethene", "format": "json"}),
    (("orbits", "--builtin", "ethene", "--s", "2^2"), {"builtin": "ethene", "shape": "2^2"}),
    (("poset", "--builtin", "ethene", "--shape", "2^2:3,1"), {"builtin": "ethene", "shape": "2^2:3,1"}),
    (("diagram", "--builtin", "ethene"), {"builtin": "ethene"}),
    (("diagram", "--builtin", "ethene", "--form=json"), {"builtin": "ethene", "format": "json"}),
    (("chiral", "--builtin", "ethene", "--f", "text"), {"builtin": "ethene"}),
    (("verify", "--builtin", "ethene", "--cap", "0"), {"builtin": "ethene", "cap": 0}),
    (("verify", "--g", "x.grp", "--o", "out", "--c", "9"), {"group_file": "x.grp", "cap": 9, "out": "out"}),
    # refused: exit 2 with error[usage]
    ((), 2),
    (("bogus",), 2),
    (("cou",), 2),
    (("--builtin", "ethene", "count"), 2),
    (("count", "extra"), 2),
    (("orbits", "--builtin", "ethene", "--chi", "1"), 2),
    (("verify", "--builtin", "ethene", "--shape", "4"), 2),
    (("poset", "--builtin", "ethene", "--format", "json"), 2),
    (("count", "--builtin"), 2),
    (("count", "--builtin", "--shape", "4"), 2),
    (("count", "--format", "xml"), 2),
    (("count", "--format", "JSON"), 2),
    (("diagram", "--format", "text"), 2),
    (("count", "--cap", "abc"), 2),
    (("count", "--cap", "1.5"), 2),
    (("count", "--cap", ""), 2),
    (("count", "--cap", "-0x1"), 2),
    (("count", "--chi", "-1e5"), 2),
    (("count", "--shape", "4", "--all-shapes"), 2),
    (("count", "--all-shapes", "--shape", "4"), 2),
    (("count", "--c", "5"), 2),
    (("count", "--all-shapes=yes"), 2),
    (("count", "--all-shapes="), 2),
    (("count", "-x"), 2),
    (("count", "-b", "ethene"), 2),
    (("count", "--builtin", "ethene", "--"), 2),
    (("count", "--", "--builtin", "ethene"), 2),
    (("count", "--builtin", "--", "ethene"), 2),
    (("--", "count"), 2),
    (("count", "--help=x"), 2),
    (("count", "-h=x"), 2),
    (("count", "--shape", "4", "--all-shapes", "-h"), 2),
    (("count", "--cap", "x", "-h"), 2),
    (("count", "--builtin", "-h"), 2),
    (("count", "-h", "--c", "5"), 2),
    (("bogus", "-h"), 2),
    (("--bogus", "count"), 2),
    # help: exit 0, whatever follows the help flag; a usage error before it still wins
    (("-h",), 0),
    (("--help",), 0),
    (("--he",), 0),
    (("-h", "count"), 0),
    (("-h", "bogus"), 0),
    (("count", "-h"), 0),
    (("count", "--h"), 0),
    (("verify", "--he"), 0),
    (("count", "--builtin", "ethene", "-h"), 0),
    (("count", "--bogus", "-h"), 0),
    (("count", "-h", "--shape", "4", "--all-shapes"), 0),
    (("count", "-h", "--cap", "x"), 0),
]


class TestParser:
    @pytest.mark.parametrize("argv,expected", PARSE_TABLE, ids=[" ".join(argv) or "(none)" for argv, _ in PARSE_TABLE])
    def test_parses_as_argparse_did(self, capsys, argv, expected):
        if isinstance(expected, dict):
            assert vars(isomers.cli.parse_args(list(argv))) == {**PARSE_DEFAULTS[argv[0]], **expected}
        elif expected == 0:
            with pytest.raises(SystemExit) as stop:
                main(list(argv))
            assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: isomers")
        else:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith("error[usage]:")


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
    "d250.grp": "degree 250\n",
    "d447.grp": "degree 447\n",
    "d1000.grp": "degree 1000\n",
}

# (argv, exit code): the probes of malformed input, the flags a subcommand
# does not read, and inputs whose refusal must come before any enumeration.
CORPUS = [
    (("count", "--builtin", "ethene", "--shape", "2^2", "--theta", "12"), 2),
    (("count", "--builtin", "ethene", "--shape", "2^2", "--chi", "9"), 2),
    (("count", "--builtin", "ethene", "--shape", "2^2", "--chi", "kernel:(19)"), 2),  # bad kernel spec
    (("count", "--builtin", "ethene", "--shape", "2^2", "--chi", "kernel:(12)"), 2),  # no linear character has it
    (("count", "--builtin", "ethene", "--shape", "2^2", "--chi", "x"), 2),  # neither an index nor a kernel
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
    # degree 300 with few tabloids: the dominance interval and the order
    # tests cost what the shapes hold, not what all of degree 300 would
    (("poset", "--group-file", "d300.grp", "--shape", "299,1:300"), 0),
    (("diagram", "--group-file", "d300.grp", "--shape", "299,1:300"), 0),
    (("chiral", "--group-file", "d60.grp"), 2),
    (("chiral", "--group-file", "d60.grp", "--shape", "60"), 2),
    (("orbits", "--builtin", "ethene", "--out", "missing/x"), 2),
    # two-part shapes near the degree pass the tabloid cap, but their cells
    # (tabloids times degree) pass the cell cap; 999,1:1000 is 10^6 cells
    (("poset", "--group-file", "d447.grp", "--shape", "445,2:447"), 3),
    (("orbits", "--group-file", "d447.grp", "--shape", "445,2"), 3),
    (("orbits", "--group-file", "d447.grp", "--shape", "445,2", "--format", "json"), 3),
    (("orbits", "--group-file", "d250.grp", "--shape", "248,2"), 3),
    (("poset", "--group-file", "d1000.grp", "--shape", "999,1:1000"), 0),
    # no partition of 10^6: the message prints the shape given, not its padding
    (("count", "--group-file", "d1000000.grp", "--shape", "5,2"), 2),
    (("count", "--group-file", "d1000000.grp", "--shape", "1^999999"), 2),
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
    assert len(err) <= len(" ".join(argv)) + 200  # a message prints the input given, never more
    if code:
        assert err.startswith("error[") and out == ""
