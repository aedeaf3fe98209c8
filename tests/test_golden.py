"""Differential test: the tracker reproduces the pinned golden outputs.

``golden_tracker.npz`` holds every output of 321 runs (see ``make_golden.py``).
Frame indices, track ids and scores must match exactly; boxes may differ
only by floating-point rounding.
"""

import numpy as np
import pytest

from sctrack import tracker

from make_golden import GOLDEN_PATH, golden_runs, track_outputs

BOX_TOL = 1e-9


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


def test_golden_covers_every_run(golden):
    labels = [label for label, *_ in golden_runs()]
    assert list(golden["labels"]) == labels
    assert len(labels) == 4 * 20 * 4 + 1


def assert_reproduces(golden):
    worst = 0.0
    for i, (label, detections, config) in enumerate(golden_runs()):
        rows = golden["run"] == i
        out = track_outputs(detections, config)
        assert out["frames_stepped"] == golden["frames_stepped"][i], label
        assert np.array_equal(out["frame"], golden["frame"][rows]), label
        assert np.array_equal(out["track_id"], golden["track_id"][rows]), label
        assert np.array_equal(out["score"], golden["score"][rows]), label
        if rows.any():
            err = float(np.max(np.abs(out["box"] - golden["box"][rows])))
            assert err <= BOX_TOL, f"{label}: box error {err:.3e}"
            worst = max(worst, err)
    return worst


def test_tracker_reproduces_golden_outputs(golden):
    worst = assert_reproduces(golden)
    print(f"\n321 golden runs reproduced; worst box difference {worst:.2e}")


def test_sparse_association_reproduces_golden_outputs(golden, monkeypatch):
    # every frame, whatever its size, takes its candidates from the overlap
    # sweep (every pinned run keeps its gates below 1, where the sweep is used)
    monkeypatch.setattr(tracker, "SPARSE_MIN_CELLS", 0)
    assert_reproduces(golden)
