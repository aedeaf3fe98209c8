"""Golden evaluator reports for the differential test in ``test_golden_metrics.py``.

Takes every builtin-scenario run pinned in ``golden_tracker.npz`` (320 runs:
4 scenarios x seeds 1-20 x the four component arms), scores its pinned
outputs against the scenario's own ground truth at IoU thresholds 0.3, 0.5
and 0.7, and stores every field of each ``MetricsReport`` in
``golden_metrics.npz`` next to this file.  The scored inputs come from the
pinned file, not from a fresh tracker run, so the file pins the evaluator
alone: regenerate it only when a change to the scores is intended, and say
so in the change.

From the repository root:

    PYTHONPATH=src python tests/make_golden_metrics.py
"""

from __future__ import annotations

from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from make_golden import GOLDEN_PATH, scenario_runs
from sctrack.geometry import BoundingBox
from sctrack.metrics import MetricsReport, evaluate

METRICS_PATH = Path(__file__).with_name("golden_metrics.npz")
IOU_THRESHOLDS = (0.3, 0.5, 0.7)
REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport))


def pinned_results(golden, label: str) -> dict:
    """The pinned outputs of one run, as the frame -> ``(id, box)`` map ``evaluate`` takes."""
    rows = golden["run"] == list(golden["labels"]).index(label)
    results: dict = {}
    for frame, track_id, box in zip(golden["frame"][rows], golden["track_id"][rows], golden["box"][rows]):
        results.setdefault(int(frame), []).append((int(track_id), BoundingBox(*map(float, box))))
    return results


def golden_reports(golden):
    """Yield ``(label, IoU threshold, MetricsReport)`` for every pinned evaluation."""
    for label, gt, _, _ in scenario_runs():
        results = pinned_results(golden, label)
        for thresh in IOU_THRESHOLDS:
            yield label, thresh, evaluate(gt, results, iou_match_thresh=thresh)


def main() -> None:
    with np.load(GOLDEN_PATH) as data:
        golden = {key: data[key] for key in data.files}
    labels, thresholds, reports = [], [], []
    for label, thresh, report in golden_reports(golden):
        labels.append(label)
        thresholds.append(thresh)
        reports.append(astuple(report))
    columns = list(zip(*reports))
    np.savez_compressed(
        METRICS_PATH,
        labels=np.array(labels),
        iou_match_thresh=np.array(thresholds, dtype=np.float64),
        **{
            name: np.array(column, dtype=np.float64 if name in ("mota", "idf1") else np.int64)
            for name, column in zip(REPORT_FIELDS, columns)
        },
    )
    print(f"wrote {len(labels)} reports to {METRICS_PATH}")


if __name__ == "__main__":
    main()
