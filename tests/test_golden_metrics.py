"""Differential test: the evaluator reproduces the pinned golden reports.

``golden_metrics.npz`` holds every ``MetricsReport`` field of 960
evaluations (see ``make_golden_metrics.py``).  Every field must match
exactly: the counts are integers and the ratios are computed from them.
"""

import numpy as np
import pytest

from make_golden import GOLDEN_PATH
from make_golden_metrics import IOU_THRESHOLDS, METRICS_PATH, REPORT_FIELDS, golden_reports


@pytest.fixture(scope="module")
def pinned():
    with np.load(GOLDEN_PATH) as tracker, np.load(METRICS_PATH) as reports:
        return {key: tracker[key] for key in tracker.files}, {key: reports[key] for key in reports.files}


def test_evaluator_reproduces_golden_reports(pinned):
    golden, expected = pinned
    count = 0
    for k, (label, thresh, report) in enumerate(golden_reports(golden)):
        assert (expected["labels"][k], expected["iou_match_thresh"][k]) == (label, thresh)
        for name in REPORT_FIELDS:
            assert getattr(report, name) == expected[name][k], f"{label} @ {thresh}: {name}"
        count += 1
    assert count == len(expected["labels"]) == 4 * 20 * 4 * len(IOU_THRESHOLDS)
