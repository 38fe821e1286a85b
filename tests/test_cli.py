import json
import time

import pytest

from isomers.cli import main


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
        path = tmp_path / "c12.grp"
        path.write_text("degree 12\n(1 2 3 4 5 6 7 8 9 10 11 12)\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--group-file", str(path), "--shape", "12", *extra)
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        assert err.startswith("error[cap]: Young subgroup")

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
