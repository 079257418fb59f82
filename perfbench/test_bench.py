"""Unit tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import hashlib
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(corpus.corpus(7, 300).encode(), corpus.corpus(7, 300).encode())

    def test_seed_changes_corpus(self):
        self.assertNotEqual(corpus.corpus(7, 40), corpus.corpus(8, 40))

    def test_pinned_bytes(self):
        # a change to the generator changes every baseline measured with it
        self.assertEqual(
            corpus.corpus(1, 1),
            '{"id":0,"einsum":"C[t,x] += X[t,n] * W[n,x]","extents":"t=4,x=4,n=9"}\n')
        digest = hashlib.sha256(corpus.corpus(1, 100).encode()).hexdigest()
        self.assertEqual(digest,
                         "cca1c3d4ce79951ac5dd4f7c1085f7704e1012d45674ded0e5e2dbb18dc99151")

    def test_class_shares_are_exact_per_block(self):
        stream = corpus.requests(3)
        counts = {}
        for _ in range(5 * len(corpus.BLOCK)):
            cls, _, _ = next(stream)
            counts[cls] = counts.get(cls, 0) + 1
        self.assertEqual(counts, {"in_envelope": 60, "small_spatial": 25, "beyond": 15})

    def test_class_shapes(self):
        stream = corpus.requests(11)
        for _ in range(400):
            cls, req, (m, n, k) = next(stream)
            if cls == "in_envelope":
                self.assertTrue(m == n == 4 and 1 <= k <= 16, req)
            elif cls == "small_spatial":
                self.assertTrue(min(m, n) <= 3 and max(m, n) <= 4 and 1 <= k <= 16, req)
            else:
                self.assertTrue(17 <= k <= 64 or 5 <= max(m, n) <= 8, req)

    def test_ids_count_up_and_names_are_distinct(self):
        stream = corpus.requests(5)
        for i in range(100):
            _, req, _ = next(stream)
            self.assertEqual(req["id"], i)
            names = [kv.split("=")[0] for kv in req["extents"].split(",")]
            self.assertEqual(len(set(names)), 3)


class GcStatsTest(unittest.TestCase):
    SAMPLE = (
        "serve: shutdown after 11 responses (4 errors)\n"
        "allocated_words: 99017765\n"
        "minor_words: 98954396\n"
        "top_heap_words: 1013957\n"
        "mean_space_overhead: 38.601246\n")

    def test_parses_exit_statistics(self):
        gc = stats.parse_gc_stats(self.SAMPLE)
        self.assertEqual(gc["minor_words"], 98954396)
        self.assertEqual(gc["top_heap_words"], 1013957)
        self.assertAlmostEqual(gc["mean_space_overhead"], 38.601246)
        self.assertNotIn("serve", gc)

    def test_last_value_wins_and_noise_is_skipped(self):
        gc = stats.parse_gc_stats("minor_words: 1\nerror: bad thing: 3\nminor_words: 2\n")
        self.assertEqual(gc, {"minor_words": 2})

    def test_ocamlrunparam_is_appended(self):
        self.assertEqual(stats.with_gc_stats({})["OCAMLRUNPARAM"], "v=0x400")
        self.assertEqual(stats.with_gc_stats({"OCAMLRUNPARAM": "s=4M"})["OCAMLRUNPARAM"],
                         "s=4M,v=0x400")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        values = list(range(200, 0, -1))
        self.assertEqual(stats.percentile(values, 0.95), (190, 10))
        self.assertEqual(stats.percentile(values, 0.50), (100, 100))
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 0.5), (2.0, 1))
        self.assertEqual(stats.percentile([5.0], 0.95), (5.0, 0))

    def test_min_samples_gives_ten_beyond(self):
        n = stats.min_samples(0.95)
        self.assertEqual(n, 200)
        self.assertEqual(stats.percentile(list(range(n)), 0.95)[1], 10)
        self.assertLess(stats.percentile(list(range(n - 1)), 0.95)[1], 10)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class ReplyCheckTest(unittest.TestCase):
    REQ = {"id": 5}
    REJECTED = ('{"id": 5, "ok": false, "error": "no dataflow of C compiles onto the MNK-SST '
                'target; 19 candidates rejected (IJK-MMS: dataflow class mismatch)"}')

    def test_verified_answer(self):
        text = '{"id": 5, "ok": true, "verified": true, "macs": 48, "program": {}}'
        self.assertTrue(run.check_reply(text, "in_envelope", self.REQ, (4, 4, 3)))

    def test_compile_rejection_outside_the_envelope(self):
        self.assertFalse(run.check_reply(self.REJECTED, "beyond", self.REQ, (4, 4, 40)))

    def test_in_envelope_must_be_answered(self):
        with self.assertRaises(run.CheckFailed):
            run.check_reply(self.REJECTED, "in_envelope", self.REQ, (4, 4, 3))

    def test_failed_verification_is_not_a_rejection(self):
        text = ('{"id": 5, "ok": false, '
                '"error": "golden verification of the programmed run failed"}')
        with self.assertRaises(run.CheckFailed):
            run.check_reply(text, "beyond", self.REQ, (4, 4, 40))

    def test_wrong_macs_and_id(self):
        with self.assertRaises(run.CheckFailed):
            run.check_reply('{"id": 5, "ok": true, "verified": true, "macs": 47, "program": {}}',
                            "in_envelope", self.REQ, (4, 4, 3))
        with self.assertRaises(run.CheckFailed):
            run.check_reply(self.REJECTED.replace('"id": 5', '"id": 6'), "beyond",
                            self.REQ, (4, 4, 40))


class BudgetTest(unittest.TestCase):
    def setUp(self):
        self.start = run.START
        run.START = run.time.perf_counter()

    def tearDown(self):
        run.START = self.start

    def test_stops_after_seconds_and_samples(self):
        self.assertTrue(run.measuring(1.0, 10, 2, 5.0, 1.0, 10.0, "w"))
        self.assertFalse(run.measuring(6.0, 10, 2, 5.0, 1.0, 10.0, "w"))
        self.assertTrue(run.measuring(6.0, 1, 2, 5.0, 1.0, 10.0, "w"))

    def test_short_budget_ends_early_or_times_out(self):
        reserve = run.RUN_BUDGET_S
        self.assertFalse(run.measuring(1.0, 2, 2, 5.0, 1.0, reserve, "w"))
        with self.assertRaises(run.Timeout):
            run.measuring(1.0, 1, 2, 5.0, 1.0, reserve, "w")


if __name__ == "__main__":
    unittest.main()
