"""Self-tests of the benchmark's arithmetic (metrics.py). run.py runs them
before every workload; `python3 perfbench/metrics_test.py` runs them alone.
The edge counting itself is checked by the harness's selftest mode on the
4-gate deck; the shares those counts turn into are checked here."""
import unittest

import metrics


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_above(self):
        # 1000 samples: rank 990 leaves exactly 10 above -> p99.
        pct, value = metrics.tail_percentile(list(range(1, 1001)))
        self.assertEqual(pct, 99.0)
        self.assertEqual(value, 990)

    def test_999_samples_fall_back_to_p90(self):
        # rank ceil(0.99 * 999) = 990 leaves 9 above: not enough.
        pct, value = metrics.tail_percentile(list(range(1, 1000)))
        self.assertEqual(pct, 90.0)
        self.assertEqual(value, 900)

    def test_large_sets_reach_deeper_tails(self):
        self.assertEqual(metrics.tail_percentile(range(100000))[0], 99.99)
        self.assertEqual(metrics.tail_percentile(range(99999))[0], 99.9)

    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail_percentile(list(range(19))))
        self.assertEqual(metrics.tail_percentile(list(range(20)))[0], 50.0)

    def test_order_does_not_matter(self):
        data = [5, 3, 9, 1] * 300
        self.assertEqual(metrics.tail_percentile(data),
                         metrics.tail_percentile(sorted(data)))


class OutcomeShares(unittest.TestCase):
    def test_four_gate_deck(self):
        # inv, inv, nor2, nand2 with the late input on pin b: 4 outputs,
        # 8 edges; the nor2 fall and nand2 rise arrivals are missing.
        ans, nom, failed, degraded = metrics.outcome_shares(8, 6, 6)
        self.assertEqual((ans, nom), (0.75, 0.75))
        self.assertEqual((failed, degraded), (0.25, 0.0))
        # Pins swapped: every edge is timed.
        self.assertEqual(metrics.outcome_shares(8, 8, 8), (1.0, 1.0, 0.0, 0.0))

    def test_grid_seed7_shares(self):
        # 3769 nominal + 668 degraded of 20000 edges.
        ans, nom, failed, degraded = metrics.outcome_shares(20000, 4437, 3769)
        self.assertAlmostEqual(failed, 0.77815)
        self.assertAlmostEqual(degraded, 0.0334)
        self.assertAlmostEqual(ans + failed, 1.0)
        self.assertAlmostEqual(nom + degraded + failed, 1.0)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            metrics.outcome_shares(0, 0, 0)


# A hand-made trace: two iterations. Rows: name, start, end, parent, req.
SPANS = [
    ("setup", 0, 50, -1, -1),              # 0: not an iteration tree
    ("device.characterize", 0, 20, 0, -1),  # 1
    ("iteration", 100, 200, -1, -1),        # 2: wall 100
    ("sta.run", 110, 150, 2, -1),           # 3: 40, contains a child
    ("qwm.path", 120, 130, 3, -1),          # 4: 10
    ("whatif", 160, 190, 2, -1),            # 5: 30
    ("sta.update", 160, 170, 5, 7),         # 6: 10
    ("sta.critpath", 170, 180, 5, 7),       # 7: 10
    ("iteration", 300, 360, -1, -1),        # 8: wall 60
    ("sta.run", 300, 360, 8, -1),           # 9: 60, covers it all
]


class SelfTime(unittest.TestCase):
    def test_self_times(self):
        st = metrics.self_times(SPANS)
        self.assertEqual(st["setup"], 30)
        self.assertEqual(st["sta.run"], 30 + 60)
        self.assertEqual(st["qwm.path"], 10)
        self.assertEqual(st["whatif"], 10)
        self.assertEqual(st["iteration"], (100 - 40 - 30) + 0)

    def test_overlapping_children_count_once(self):
        # Children [10, 30) and [20, 40) cover the union [10, 40).
        spans = [("whatif", 0, 50, -1, -1), ("sta.update", 10, 30, 0, -1),
                 ("sta.critpath", 20, 40, 0, -1)]
        self.assertEqual(metrics.self_times(spans)["whatif"], 20)

    def test_children_clipped_to_parent(self):
        spans = [("iteration", 0, 10, -1, -1), ("sta.run", 5, 15, 0, -1)]
        self.assertEqual(metrics.self_times(spans)["iteration"], 5)

    def test_iteration_split_adds_up(self):
        split, wall_ms, other_share = metrics.iteration_split(SPANS)
        self.assertAlmostEqual(wall_ms, 80e-6)  # (100 + 60) / 2 ns
        self.assertAlmostEqual(sum(split.values()), wall_ms)
        self.assertAlmostEqual(split["other"], 15e-6)
        self.assertAlmostEqual(other_share, 30 / 160)
        self.assertNotIn("device.characterize", split)

    def test_no_iterations(self):
        self.assertEqual(metrics.iteration_split(SPANS[:2]), ({}, 0.0, 0.0))


if __name__ == "__main__":
    unittest.main()
