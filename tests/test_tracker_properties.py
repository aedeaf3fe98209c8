"""Tracker invariants over generated detection streams and the builtin scenarios.

* track ids are unique within each frame, and an id is never given to a
  second track: once its track is gone it never appears again;
* a frame's outputs are exactly the tracks matched in that frame, or on
  the tracker's first frame the tracks born in it, each output carrying its
  track's filtered box and a detection score of the frame;
* ``run_sequence`` is deterministic, and gives the same results from
  ``(n, 5)`` blocks as from ``Detection`` lists;
* the order of the detections within a frame does not change any metric.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctrack.ablation import COMPONENT_ARMS, arm_config, evaluate_run
from sctrack.frames import detection_block
from sctrack.geometry import BoundingBox, Detection
from sctrack.synth import builtin_scenario, builtin_scenarios, generate
from sctrack.tracker import SCTracker, TrackerConfig, TrackStatus, run_sequence

# boxes on a small canvas, so that tracks overlap, cross and compete
detections = st.builds(
    lambda x, y, a, h, s: Detection(BoundingBox(x, y, a, h), s),
    st.floats(0, 200),
    st.floats(0, 100),
    st.floats(0.2, 2.0),
    st.floats(10, 80),
    st.floats(0, 1),
)
streams = st.dictionaries(st.integers(1, 25), st.lists(detections, max_size=6), max_size=20)


@settings(max_examples=150, deadline=None)
@given(stream=streams)
def test_ids_are_unique_per_frame_and_never_reused(stream):
    tracker = SCTracker()
    before: set[int] = set()  # ids live after the previous step
    issued = 0  # the largest id live after any earlier step
    gone: set[int] = set()
    frames = sorted(stream)
    for frame in range(frames[0], frames[-1] + 1) if frames else ():
        result = tracker.step(frame, stream.get(frame, []))
        ids = result.boxes.ids.tolist()
        assert ids == sorted(set(ids)), "ids repeat or are out of order within a frame"
        live = {t.track_id: t for t in tracker.tracks}
        assert len(live) == len(tracker.tracks)
        for track_id, track in live.items():
            # a track keeps its id, and a new track takes an id above every
            # earlier one; a tentative track is always a birth of this step
            kept = track_id in before and track.status is not TrackStatus.TENTATIVE
            assert kept or track_id > issued, f"id {track_id} given to a second track"
        issued = max([issued, *live])
        gone |= before - set(live)
        assert not gone & set(live), "a retired id is live again"
        assert not gone & set(ids), "a retired id is output again"
        assert set(ids) <= set(live)
        before = set(live)


@settings(max_examples=150, deadline=None)
@given(stream=streams)
def test_outputs_come_from_matched_or_first_frame_tracks(stream):
    tracker = SCTracker()
    before: set[int] = set()  # ids live after the previous step
    frames = sorted(stream)
    for frame in range(frames[0], frames[-1] + 1) if frames else ():
        detections = stream.get(frame, [])
        result = tracker.step(frame, detections)
        live = {t.track_id: (row, t) for row, t in enumerate(tracker.tracks)}
        if frame == frames[0]:
            expected = set(live)  # every track is a birth of this frame
        else:
            # a track live before the step whose update count restarted was matched
            expected = {i for i, (_, t) in live.items() if i in before and t.frames_since_update == 0}
        ids = result.boxes.ids.tolist()
        assert set(ids) == expected
        scores = {d.score for d in detections}
        for track_id, xyah, score in zip(ids, result.boxes.xyah.tolist(), result.boxes.scores.tolist()):
            row, track = live[track_id]
            assert track.status is TrackStatus.CONFIRMED
            assert xyah == tracker.means[row, :4].tolist()
            assert score in scores
        before = set(live)


@settings(max_examples=100, deadline=None)
@given(stream=streams)
def test_run_sequence_is_deterministic_and_form_independent(stream):
    first = run_sequence(stream)
    assert run_sequence(stream) == first
    assert run_sequence({f: detection_block(d) for f, d in stream.items()}) == first


@pytest.mark.parametrize("scenario", [spec.name for spec in builtin_scenarios()])
def test_detection_order_within_a_frame_does_not_change_metrics(scenario):
    rng = np.random.default_rng(0)
    for seed in range(1, 11):
        gt, dets = generate(builtin_scenario(scenario, seed=seed))
        shuffled = {f: [d[i] for i in rng.permutation(len(d))] for f, d in dets.items()}
        for arm in COMPONENT_ARMS:
            config = arm_config(TrackerConfig(), arm)
            assert evaluate_run(gt, shuffled, config) == evaluate_run(gt, dets, config), (seed, arm.label)
