#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

The tail rule and the digest check run in pure Python; the op-sequence,
hit-rate and end-to-end digest tests build and run hdidx_perfbench the way
run.py does (into $CARGO_TARGET_DIR, default .bench_build).
"""

import contextlib
import io
import json
import pathlib
import subprocess
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402


def raw_result(digest, failed=0):
    return {"failed": failed, "failures": [], "digest": digest,
            "digest_ops": 4}


class TailRuleTest(unittest.TestCase):
    def test_pinned_points(self):
        self.assertEqual(run.tail_rank(40), 0.75)
        self.assertEqual(run.tail_rank(2000), 0.995)
        self.assertEqual(run.tail_label(run.tail_rank(2000)), "p99.5")

    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_rank(39), 0.5)
        self.assertEqual(run.tail_rank(100), 0.9)
        self.assertEqual(run.tail_rank(1999), 0.99)
        self.assertEqual(run.tail_rank(10000), 0.999)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(run.percentile([7], 0.995), 7)


class DigestCheckTest(unittest.TestCase):
    GOLDEN = {"digests": {"ooc-build": "0x00000000000000aa"}}

    def test_pinned_digest_passes(self):
        failed, notes = run.check_outputs(
            raw_result("0x00000000000000aa"), "ooc-build", run.DEFAULT_SEED,
            self.GOLDEN)
        self.assertEqual((failed, notes), (0, []))

    def test_corrupted_digest_is_counted(self):
        failed, notes = run.check_outputs(
            raw_result("0x00000000000000ab", failed=2), "ooc-build",
            run.DEFAULT_SEED, self.GOLDEN)
        self.assertEqual(failed, 3)
        self.assertIn("differs from the pinned", notes[-1])

    def test_other_seeds_check_self_consistency_only(self):
        failed, _ = run.check_outputs(
            raw_result("0x00000000000000ab"), "ooc-build", run.HELD_OUT_SEED,
            self.GOLDEN)
        self.assertEqual(failed, 0)

    def test_command_fails_on_a_corrupted_digest(self):
        golden = run.load_golden()
        golden["digests"]["ooc-build"] = "0x0123456789abcdef"
        original = run.load_golden
        run.load_golden = lambda: golden
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "ooc-build", "--seconds", "1",
                                 "--seed", str(run.DEFAULT_SEED)])
        finally:
            run.load_golden = original
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class WorkloadBinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with contextlib.redirect_stdout(sys.stderr):
            cls.binary = str(run.build())

    def dump_ops(self, seed):
        return subprocess.run(
            [self.binary, "--dump-ops", "500", "--seed", str(seed)],
            check=True, capture_output=True, text=True).stdout

    def binary_run(self, workload, seed):
        code, out = run.run_child(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "0"])
        self.assertEqual(code, 0)
        return json.loads(out.strip().splitlines()[-1])

    def test_one_seed_one_op_sequence(self):
        first = self.dump_ops(5)
        self.assertEqual(first, self.dump_ops(5))
        self.assertNotEqual(first, self.dump_ops(6))
        self.assertEqual(len(first.splitlines()), 500)

    def test_one_seed_one_hit_rate(self):
        a = self.binary_run("mixed-d16", 5)
        b = self.binary_run("mixed-d16", 5)
        self.assertEqual(a["attempted"], 300)
        self.assertEqual(a["failed"], 0)
        self.assertEqual(a["counters"], b["counters"])
        self.assertEqual(a["digest"], b["digest"])
        self.assertGreater(a["counters"]["service.result_hit_rate"], 0.8)

    def test_peak_rss_is_the_workload_process(self):
        # cold-d60 holds four 24 MB datasets; ooc-build one 9.6 MB dataset.
        # A peak inherited from an earlier process, or from the set-up
        # repeated before the timed loop, would break these ranges.
        cold = self.binary_run("cold-d60", 5)["peak_rss_kb"] / 1024
        build = self.binary_run("ooc-build", 5)["peak_rss_kb"] / 1024
        self.assertGreater(cold, 96)
        self.assertLess(cold, 300)
        self.assertGreater(build, 9.6)
        self.assertLess(build, cold / 2)


if __name__ == "__main__":
    unittest.main()
