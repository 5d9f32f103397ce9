"""Unit tests of the attribution arithmetic on synthetic spans and counts.

    python3 racbench/test_attribution.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import attribution  # noqa: E402


def span(id_, parent, name, start, end):
    return {"id": id_, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(attribution.self_times([span(1, 0, "a", 10, 35)]),
                         {1: 25})

    def test_children_are_subtracted(self):
        spans = [span(1, 0, "rep", 0, 100),
                 span(2, 1, "setup", 0, 10),
                 span(3, 1, "run", 20, 90),
                 span(4, 3, "slice", 20, 50)]
        own = attribution.self_times(spans)
        self.assertEqual(own, {1: 20, 2: 10, 3: 40, 4: 30})

    def test_overlapping_children_count_once(self):
        # Concurrent node threads under one mesh span.
        spans = [span(1, 0, "mesh", 0, 100),
                 span(2, 1, "node", 10, 60),
                 span(3, 1, "node", 40, 80),
                 span(4, 1, "node", 50, 70)]
        self.assertEqual(attribution.self_times(spans)[1], 100 - 70)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, "p", 10, 20), span(2, 1, "c", 5, 15)]
        self.assertEqual(attribution.self_times(spans)[1], 5)

    def test_by_name_sums_in_seconds(self):
        spans = [span(1, 0, "run", 0, 2_000_000_000),
                 span(2, 0, "run", 0, 1_000_000_000)]
        self.assertAlmostEqual(attribution.self_time_by_name(spans)["run"], 3.0)


class Shares(unittest.TestCase):
    TERMS = [
        {"metric": "overlay.est_share", "count": 1000, "unit_ns": 100.0},
        {"metric": "overlay.est_share", "count": 4000, "unit_ns": 25.0},
        {"metric": "rac.fingerprint_est_share", "count": 500, "unit_ns": 400.0},
        {"metric": "crypto.est_share", "count": 10, "unit_ns": 1000.0},
    ]

    def test_est_shares_sum_terms_over_basis(self):
        shares = attribution.est_shares(self.TERMS, 1_000_000)
        self.assertAlmostEqual(shares["overlay.est_share"], 0.2)
        self.assertAlmostEqual(shares["rac.fingerprint_est_share"], 0.2)
        self.assertAlmostEqual(shares["crypto.est_share"], 0.01)
        self.assertEqual(shares["net.est_share"], 0.0)

    def test_residual(self):
        shares = attribution.est_shares(self.TERMS, 1_000_000)
        self.assertAlmostEqual(attribution.unattributed_share(shares), 0.59)

    def test_residual_goes_negative_when_shares_overestimate(self):
        terms = [{"metric": "crypto.est_share", "count": 3, "unit_ns": 1.0}]
        shares = attribution.est_shares(terms, 2)
        self.assertAlmostEqual(attribution.unattributed_share(shares), -0.5)

    def test_zero_basis_is_an_error(self):
        with self.assertRaises(ValueError):
            attribution.est_shares(self.TERMS, 0)

    def test_overhead_on_host_time(self):
        a = {"overhead_basis": "host_time", "basis_ns": 110.0,
             "untraced_basis_ns": 100.0}
        self.assertAlmostEqual(attribution.overhead_share(a), 0.1)

    def test_overhead_on_goodput(self):
        a = {"overhead_basis": "goodput", "traced_goodput": 900.0,
             "untraced_goodput": 1000.0}
        self.assertAlmostEqual(attribution.overhead_share(a), 0.1)

    def test_layer_metrics_has_every_share_and_the_residual(self):
        a = {"overhead_basis": "host_time", "basis_ns": 1_000_000,
             "untraced_basis_ns": 1_000_000, "terms": self.TERMS}
        m = attribution.layer_metrics(a)
        for name in attribution.EST_SHARE_METRICS:
            self.assertIn(name, m)
        self.assertAlmostEqual(m["host.unattributed_share"], 0.59)
        self.assertAlmostEqual(m["telemetry.overhead_share"], 0.0)


if __name__ == "__main__":
    unittest.main()
