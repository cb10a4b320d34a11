"""Self-tests of the benchmark's statistics, spans and repeat check.

Run with ``python3 -m pytest perfbench/test_stats.py`` (or
``python3 perfbench/test_stats.py``) from the repository root.
"""

import os
import random
import tempfile
import unittest
from unittest import mock

import run
from spans import Tracer
from stats import MIN_RECORD_N, TAIL_BEYOND, RecordTooSmall, spread, summarize


class SummarizeTest(unittest.TestCase):
    def test_tail_and_p50_come_from_one_sample(self):
        summary = summarize([float(v) for v in range(1, 41)])
        self.assertEqual(summary.n, 40)
        self.assertEqual(summary.p50, 20.5)
        self.assertEqual(summary.tail, 30.0)
        self.assertEqual(summary.tail_pct, 75.0)

    def test_tail_leaves_ten_samples_beyond_it(self):
        rng = random.Random(7)
        for n in range(21, 200):
            sample = [rng.lognormvariate(0.0, 1.0) for _ in range(n)]
            summary = summarize(sample)
            self.assertEqual(sum(v > summary.tail for v in sample), TAIL_BEYOND)

    def test_tail_is_never_below_p50(self):
        rng = random.Random(11)
        for n in range(MIN_RECORD_N, 300):
            sample = [rng.expovariate(1.0) for _ in range(n)]
            summary = summarize(sample)
            if summary.tail is not None:
                self.assertGreaterEqual(summary.tail, summary.p50)

    def test_tail_omitted_when_too_few_samples_lie_beyond(self):
        summary = summarize([float(v) for v in range(20)])
        self.assertIsNone(summary.tail)
        self.assertIsNone(summary.tail_pct)
        self.assertIsNotNone(summarize([float(v) for v in range(21)]).tail)

    def test_record_below_twenty_ops_is_refused(self):
        with self.assertRaises(RecordTooSmall):
            summarize([1.0] * 19)
        # The defect this guards against: with 11 ops a "10 beyond"
        # tail would sit under the median.
        with self.assertRaises(RecordTooSmall):
            summarize([2392.0] + [2759.0] * 10)

    def test_spread_is_iqr_over_median(self):
        self.assertEqual(spread([5.0] * 10), 0.0)
        self.assertAlmostEqual(spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


class TracerTest(unittest.TestCase):
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.span("io.decode", 0):
            pass
        self.assertEqual(tracer.spans, [])
        self.assertIsNone(tracer.median_ms("io.decode"))

    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer()
        tracer.enabled = True
        for op in range(3):
            parent = tracer.record("algorithms.solve", op, 0.010)
            tracer.record("decomposed.solve", op, 0.007, parent=parent)
        self.assertAlmostEqual(tracer.median_ms("algorithms.solve"), 10.0)
        self.assertAlmostEqual(
            tracer.median_ms("algorithms.solve", self_time=True), 3.0
        )
        self.assertAlmostEqual(tracer.median_ms("decomposed.solve"), 7.0)

    def test_nested_spans_link_to_their_parent(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("op", 4):
            with tracer.span("io.decode", 4):
                pass
        (name, start, end, parent, op), child = tracer.spans
        self.assertEqual((name, parent, op), ("op", -1, 4))
        self.assertEqual((child[0], child[3], child[4]), ("io.decode", 0, 4))
        self.assertLessEqual(start, child[1])
        self.assertLessEqual(child[2], end)


class RepeatCheckTest(unittest.TestCase):
    def test_utility_sum_must_repeat_for_same_code_and_seed(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as out:
            with mock.patch.object(run, "OUT", out):
                self.assertIsNone(run._check_repeatable("w", 1, 30, 12.5))
                self.assertIsNone(run._check_repeatable("w", 1, 30, 12.5))
                self.assertIsNone(run._check_repeatable("w", 2, 30, 99.0))
                self.assertIn(
                    "differs", run._check_repeatable("w", 1, 30, 12.500001)
                )


if __name__ == "__main__":
    unittest.main()
