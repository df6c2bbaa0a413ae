"""Self-tests of compare.py: run with `python3 -m unittest scalbench/test_compare.py`."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "faults_per_s", "unit": "faults/s", "better": "higher", "bound": 0.2},
        {"name": "campaign_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ]
}


def rec(workload, fps, p50, threads=2, width=8, collapse=True, rev="a"):
    return {
        "workload": workload,
        "geometry": {
            "nproc": 2,
            "threads": threads,
            "word_width": width,
            "fault_collapse": collapse,
            "git_rev": rev,
        },
        "metrics": {
            "faults_per_s": {"value": fps, "unit": "faults/s"},
            "campaign_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


class CompareTest(unittest.TestCase):
    def test_same_geometry_within_bounds_passes(self):
        _, status = compare.compare([rec("w", 100, 10)], [rec("w", 95, 10.5, rev="b")], SPEC)
        self.assertEqual(status, 0)

    def test_regression_beyond_bound_is_reported(self):
        lines, status = compare.compare([rec("w", 100, 10)], [rec("w", 70, 10)], SPEC)
        self.assertEqual(status, 1)
        self.assertTrue(any("REGRESSION" in l for l in lines))

    def test_different_geometry_is_incomparable_not_a_regression(self):
        lines, status = compare.compare([rec("w", 100, 10, threads=1)], [rec("w", 50, 30)], SPEC)
        self.assertEqual(status, 3)
        self.assertTrue(lines[0].startswith("w: incomparable"))
        _, status = compare.compare([rec("w", 100, 10, width=4)], [rec("w", 100, 10)], SPEC)
        self.assertEqual(status, 3)
        _, status = compare.compare([rec("w", 100, 10)], [rec("w", 60, 10, collapse=False)], SPEC)
        self.assertEqual(status, 3)


if __name__ == "__main__":
    unittest.main()
