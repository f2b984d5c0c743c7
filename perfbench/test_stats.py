"""Self-tests for the benchmark's own arithmetic.

Run from the repository root:  python3 -m unittest perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def span(id_, start, end, parent=-1, name="x"):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "owner": ""}


class TailRule(unittest.TestCase):
    def test_eleven_samples_give_the_smallest_with_ten_beyond(self):
        value, pct, beyond, n = stats.tail(list(range(11, 0, -1)))
        self.assertEqual((value, beyond, n), (1, 10, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_hundred_samples_give_p90(self):
        value, pct, beyond, n = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, beyond, n), (90.0, 90.0, 10, 100))

    def test_ten_or_fewer_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0, 3))
        self.assertEqual(stats.tail(list(range(10)))[2], 0)

    def test_every_sample_beyond_the_tail_is_larger_or_equal(self):
        values = [5, 1, 9, 9, 2, 7, 3, 8, 6, 4, 9, 0, 11, 12, 13]
        value, _, beyond, _ = stats.tail(values)
        self.assertGreaterEqual(sum(1 for v in values if v >= value), beyond)
        self.assertEqual(beyond, 10)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class GeometricMean(unittest.TestCase):
    def test_geometric_mean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)

    def test_needs_positive_samples(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class FailureCounting(unittest.TestCase):
    def test_counts_not_ok_records(self):
        ops = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
        self.assertEqual(stats.count_failures(ops), (4, 2))
        self.assertEqual(stats.failed_frac(4, 2), 0.5)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(0, 0)


class SelfTime(unittest.TestCase):
    def test_parent_minus_the_union_of_its_children(self):
        spans = [span(0, 0.0, 10.0),
                 span(1, 1.0, 4.0, parent=0),
                 span(2, 3.0, 5.0, parent=0),   # overlaps child 1
                 span(3, 7.0, 8.0, parent=0),
                 span(4, 1.5, 2.0, parent=1)]   # grandchild: not the parent's
        own = stats.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 4.0 - 1.0)
        self.assertAlmostEqual(own[1], 3.0 - 0.5)
        self.assertAlmostEqual(own[4], 0.5)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 2.0, 4.0), span(1, 1.0, 3.0, parent=0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.0)

    def test_duration_only_children_are_subtracted(self):
        spans = [span(0, 0.0, 5.0), span(1, -1.0, 1.5, parent=0),
                 span(2, -1.0, 0.5, parent=0), span(3, 4.0, 4.5, parent=0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 5.0 - 2.0 - 0.5)
        self.assertAlmostEqual(stats.duration(spans[1]), 1.5)


class Coverage(unittest.TestCase):
    def test_union_of_top_level_spans_over_the_segments(self):
        spans = [span(0, 0.0, 4.0), span(1, 3.0, 6.0),
                 span(2, 0.0, 9.0, parent=0),      # children do not count
                 span(3, 8.0, 12.0)]
        # Segments [0, 10) and [11, 12): wall 11, covered 6 + 2 + 1.
        self.assertAlmostEqual(stats.coverage(spans, [(0.0, 10.0), (11.0, 12.0)]),
                               9.0 / 11.0)

    def test_empty_wall_time_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.coverage([], [])


class Overhead(unittest.TestCase):
    def test_relative_extra_time(self):
        self.assertAlmostEqual(stats.overhead(10.5, 10.0), 0.05)
        self.assertAlmostEqual(stats.overhead(9.0, 10.0), -0.1)

    def test_untraced_time_must_be_positive(self):
        with self.assertRaises(ValueError):
            stats.overhead(1.0, 0.0)


if __name__ == "__main__":
    unittest.main()
