"""Tests of the benchmark's own parts; they start no CLI process.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import hashlib
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ETHENE_COUNT = "\n".join(
    f"{lam:>12}  n={n}  [scalar={n} classes={n} types={n} ruch={n} brute={n}]  ok"
    for lam, n in (("4", 1), ("3,1", 1), ("2^2", 3), ("2,1^2", 3), ("1^4", 6))
) + "\n"


def no_kauffmann(_):
    raise AssertionError("only naphthalene counts consult the closed form")


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_argv_and_group_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / "work"

            def snapshot(workload, seed):
                shutil.rmtree(work, ignore_errors=True)
                mix = workloads.build(workload, seed, work)
                files = {f.name: f.read_text() for f in (work / "groups").glob("*")}
                return mix.requests, mix.pass_order(0), mix.pass_order(1), files

            for workload in workloads.WORKLOADS:
                self.assertEqual(snapshot(workload, 7), snapshot(workload, 7))
            self.assertNotEqual(snapshot("groups", 7)[3], snapshot("groups", 8)[3])
            self.assertNotEqual(snapshot("order", 7)[1], snapshot("order", 8)[1])

    def test_groups_have_their_stratum_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            workloads.build("groups", 3, Path(tmp))
            from isomers.cli import load_group_file

            files = sorted((Path(tmp) / "groups").iterdir(), key=lambda f: int(f.name.split("_")[0][1:]))
            for f, (d, count, order) in zip(files, workloads.GROUP_STRATA):
                group = load_group_file(str(f), 10**5)
                self.assertEqual((group.degree, len(group.generators), group.order), (d, count, order))

    def test_order_pairs_are_the_eligible_dominance_covers(self):
        from isomers.catalog import builtin
        from isomers.counting import count_types
        from isomers.partitions import all_partitions, is_cover_partition

        group = builtin("naphthalene").group
        shapes = all_partitions(8)
        orbits = {lam: count_types(group, lam) for lam in shapes}
        eligible = {
            f"{workloads.shape_text(lo.trimmed())}:{workloads.shape_text(hi.trimmed())}"
            for lo in shapes
            for hi in shapes
            if is_cover_partition(lo, hi) and orbits[lo] * orbits[hi] <= workloads.ORDER_MAX_PRODUCT
        }
        self.assertEqual(eligible, set(workloads.ORDER_PAIRS))

    def test_benzene_pairs_are_its_dominance_covers(self):
        from isomers.partitions import all_partitions, is_cover_partition

        shapes = all_partitions(6)
        covers = {
            f"{workloads.shape_text(lo.trimmed())}:{workloads.shape_text(hi.trimmed())}"
            for lo in shapes
            for hi in shapes
            if is_cover_partition(lo, hi)
        }
        self.assertEqual(covers, set(workloads.BENZENE_PAIRS))

    def test_every_builtin_request_has_a_digest(self):
        self.assertEqual(set(checks.load_digests()), {checks.request_key(r) for r in checks.builtin_universe()})

    def test_tail_percentile_leaves_ten_requests_beyond(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in workloads.WORKLOADS:
                n = len(workloads.build(workload, 0, Path(tmp)).requests)
                pct = run.tail_percentile(n)
                values = list(range(run.MIN_PASSES * n))
                self.assertGreaterEqual(sum(v > run.nearest_rank(values, pct) for v in values), 10)
                self.assertLess(sum(v > run.nearest_rank(values, pct + 1) for v in values), 10)


class Reference(unittest.TestCase):
    def test_checksum(self):
        self.assertEqual(reference.work(), reference.CHECKSUM)

    def test_relabel_conjugates(self):
        perm, sigma = (1, 2, 0, 4, 3), [3, 0, 4, 1, 2]
        image = workloads.relabel(perm, sigma)
        for i in range(5):
            self.assertEqual(image[sigma[i]], sigma[perm[i]])
        self.assertEqual(workloads.cycle_text(image).count("("), workloads.cycle_text(perm).count("("))


class Statistics(unittest.TestCase):
    def test_tail_mean_averages_the_values_beyond_the_percentile(self):
        values = list(range(100))
        self.assertEqual(run.nearest_rank(values, 90), 89)
        self.assertEqual(run.tail_mean(values, 90), 94.5)
        self.assertEqual(run.tail_mean([3.0], 90), 3.0)


class Checker(unittest.TestCase):
    argv = ("count", "--builtin", "ethene", "--all-shapes")

    def digests(self, text):
        return {checks.request_key(self.argv): hashlib.sha256(text.encode()).hexdigest()}

    def test_accepts_recorded_output(self):
        self.assertIsNone(checks.check(self.argv, 0, ETHENE_COUNT.encode(), self.digests(ETHENE_COUNT), no_kauffmann))

    def test_rejects_non_zero_exit(self):
        reason = checks.check(self.argv, 1, ETHENE_COUNT.encode(), self.digests(ETHENE_COUNT), no_kauffmann)
        self.assertIn("exit code 1", reason)

    def test_rejects_changed_digest(self):
        changed = ETHENE_COUNT.replace("n=6", "n=7")
        reason = checks.check(self.argv, 0, changed.encode(), self.digests(ETHENE_COUNT), no_kauffmann)
        self.assertIn("digest", reason)

    def test_rejects_mismatch_line(self):
        with tempfile.TemporaryDirectory() as tmp:
            group_file = Path(tmp) / "g.txt"
            group_file.write_text("degree 4\n(1234)\n")
            argv = ("count", "--group-file", str(group_file), "--all-shapes")
            self.assertIsNone(checks.check(argv, 0, ETHENE_COUNT.encode(), {}, no_kauffmann))
            bad = ETHENE_COUNT.replace("brute=3]  ok", "brute=4]  MISMATCH", 1)
            self.assertIn("disagree", checks.check(argv, 0, bad.encode(), {}, no_kauffmann))
            missing = "\n".join(ETHENE_COUNT.splitlines()[:-1]) + "\n"
            self.assertIn("count lines", checks.check(argv, 0, missing.encode(), {}, no_kauffmann))

    def test_rejects_fail_line(self):
        argv = ("verify", "--builtin", "benzene")
        self.assertIsNone(checks.check(argv, 0, b"ok   a\nok   b\n", {}, no_kauffmann))
        self.assertIn("FAIL", checks.check(argv, 0, b"ok   a\nFAIL b\n", {}, no_kauffmann))

    def test_naphthalene_count_meets_closed_form(self):
        argv = ("count", "--builtin", "naphthalene", "--shape", "2,2,2,2")
        text = "         2^4  n=660  [scalar=660 classes=660 types=660 ruch=660 brute=660]  ok\n"
        digests = {checks.request_key(argv): hashlib.sha256(text.encode()).hexdigest()}
        self.assertIsNone(checks.check(argv, 0, text.encode(), digests, lambda lam: 660))
        self.assertIn("closed form", checks.check(argv, 0, text.encode(), digests, lambda lam: 661))

    def test_orbit_sizes_must_sum_to_the_multinomial(self):
        argv = ("orbits", "--builtin", "ethene", "--shape", "3,1", "--format", "json")
        good = [{"name": "a_(3,1)", "size": 4, "representative": "{1,2,3}{4}{}{}",
                 "members": ["{1,2,3}{4}{}{}", "{1,2,4}{3}{}{}", "{1,3,4}{2}{}{}", "{2,3,4}{1}{}{}"]}]
        self.assertIsNone(checks._check_orbits(argv, json.dumps(good)))
        short = [dict(good[0], size=3, members=good[0]["members"][:3])]
        self.assertIn("sum to 3", checks._check_orbits(argv, json.dumps(short)))


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            (0, 0.0, 10.0, -1),  # root: children cover [1, 6] and [7, 8]
            (1, 1.0, 4.0, 0),  # covers [2, 3] through its child
            (1, 2.0, 3.0, 1),
            (2, 3.5, 6.0, 0),  # overlaps its sibling on [3.5, 4]
            (2, 7.0, 8.0, 0),
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 1.0, 2.5, 1.0])

    def test_layer_totals_sum_self_time_by_name(self):
        totals = spans.LayerTotals()
        trace = {
            "names": ["cli.main", "orbits.orbit_space"],
            "spans": [(0, 0.0, 5.0, -1), (1, 1.0, 3.0, 0), (1, 3.0, 4.0, 0)],
            "counters": {"orbits.orbit_space.calls": 2, "orbits.orbit_space.memo_hits": 1},
            "import_s": 0.1,
        }
        totals.add(trace, 10)
        totals.add(trace, 5)
        m = totals.metrics()
        self.assertEqual(m["cli.main.self_s"], 4.0)
        self.assertEqual(m["orbits.orbit_space.self_s"], 6.0)
        self.assertEqual(m["orbits.orbit_space.memo_hit_ratio"], 0.5)
        self.assertEqual(m["cli.stdout_bytes"], 15)
        self.assertEqual(set(m), {name for name, _ in spans.PER_LAYER} - {"trace.overhead_ratio"})


class BenchmarkSpec(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(spans.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)


if __name__ == "__main__":
    unittest.main()
