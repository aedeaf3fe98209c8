from dataclasses import replace

import numpy as np
import pytest

from sctrack.geometry import BoundingBox, Detection
from sctrack.tracker import (
    CONFIG_SCHEMA,
    FrameResult,
    SCTracker,
    Track,
    TrackerConfig,
    TrackStatus,
    run_sequence,
)


def det(x, y, w, h, score):
    return Detection(BoundingBox.from_tlwh(x, y, w, h), score)


def status_of(tracker, track_id):
    for t in tracker.tracks:
        if t.track_id == track_id:
            return t.status
    return None  # no live track holds the id: it was removed


class TestFirstFrame:
    def test_first_frame_births_are_confirmed_and_emitted(self):
        tracker = SCTracker()
        result = tracker.step(1, [det(100, 100, 50, 100, 0.9), det(600, 100, 50, 100, 0.95)])
        assert len(result.outputs) == 2
        assert {t.status for t in tracker.tracks} == {TrackStatus.CONFIRMED}

    def test_births_after_the_first_frame_are_tentative(self):
        # an *empty* tracker that has already seen a frame: new detections
        # seed tentative tracks and nothing is emitted yet
        tracker = SCTracker()
        tracker.step(1, [])
        result = tracker.step(2, [det(100, 100, 50, 100, 0.9), det(600, 100, 50, 100, 0.95)])
        assert result.outputs == []
        assert len(tracker.tracks) == 2
        assert {t.status for t in tracker.tracks} == {TrackStatus.TENTATIVE}

    def test_tentative_track_confirms_on_second_match(self):
        tracker = SCTracker()
        tracker.step(1, [])
        tracker.step(2, [det(100, 100, 50, 100, 0.9)])
        result = tracker.step(3, [det(102, 100, 50, 100, 0.9)])
        assert len(result.outputs) == 1
        assert tracker.tracks[0].status is TrackStatus.CONFIRMED


class TestStep:
    def test_exact_overlap_match(self):
        tracker = SCTracker()
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        result = tracker.step(2, [det(100, 100, 50, 100, 0.95)])
        assert [o.track_id for o in result.outputs] == [track_id]
        out = result.outputs[0]
        assert out.box.to_tlwh() == pytest.approx((100, 100, 50, 100), abs=1e-6)

    def test_distance_above_all_gates_loses_track_and_spawns_new_id(self):
        # same-overlap different-shape detection: distance ~0.92 beats the
        # 0.9 stage-1 gate, so the track misses and the detection starts fresh
        tracker = SCTracker()
        tracker.step(1, [det(0, 0, 40, 40, 0.95)])
        first_id = tracker.tracks[0].track_id
        result = tracker.step(2, [det(20, 0, 20, 80, 0.95)])
        assert result.outputs == []
        assert status_of(tracker, first_id) is TrackStatus.LOST
        new_ids = [t.track_id for t in tracker.tracks if t.track_id != first_id]
        assert len(new_ids) == 1 and new_ids[0] != first_id
        assert status_of(tracker, new_ids[0]) is TrackStatus.TENTATIVE

    def test_same_detection_matches_when_shape_terms_disabled(self):
        # identical geometry to the test above: with plain IoU the distance
        # is ~0.67, inside the stage-1 gate, so the track survives
        tracker = SCTracker(TrackerConfig(use_height_term=False, use_area_term=False))
        tracker.step(1, [det(0, 0, 40, 40, 0.95)])
        first_id = tracker.tracks[0].track_id
        result = tracker.step(2, [det(20, 0, 20, 80, 0.95)])
        assert [o.track_id for o in result.outputs] == [first_id]

    def test_rejects_non_increasing_frame_index(self):
        tracker = SCTracker()
        tracker.step(5, [])
        with pytest.raises(ValueError):
            tracker.step(5, [])
        with pytest.raises(ValueError):
            tracker.step(4, [])

    def test_rejects_malformed_detections(self):
        tracker = SCTracker()
        with pytest.raises(TypeError):
            tracker.step(1, [(100, 100, 50, 100, 0.9)])

    def test_detections_below_low_thresh_are_discarded(self):
        tracker = SCTracker()
        result = tracker.step(1, [det(100, 100, 50, 100, 0.05)])
        assert result.outputs == []
        assert tracker.tracks == []

    def test_low_confidence_never_spawns_tracks(self):
        tracker = SCTracker()
        tracker.step(1, [])
        tracker.step(2, [det(100, 100, 50, 100, 0.4)])
        assert tracker.tracks == []

    def test_high_detection_beats_low_for_the_same_track(self):
        # stage ordering: the high-confidence candidate is associated first
        # even though the low-confidence one overlaps equally well
        tracker = SCTracker()
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        result = tracker.step(
            2, [det(101, 100, 50, 100, 0.3), det(99, 100, 50, 100, 0.95)]
        )
        assert [o.track_id for o in result.outputs] == [track_id]
        assert result.outputs[0].score == 0.95

    def test_low_detection_sustains_track_in_second_stage(self):
        tracker = SCTracker()
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        result = tracker.step(2, [det(100, 100, 50, 100, 0.3)])
        assert [o.track_id for o in result.outputs] == [track_id]
        assert status_of(tracker, track_id) is TrackStatus.CONFIRMED

    def test_at_most_one_output_per_track_per_frame(self):
        tracker = SCTracker()
        tracker.step(1, [det(100, 100, 50, 100, 0.9), det(400, 100, 50, 100, 0.9)])
        result = tracker.step(
            2,
            [
                det(100, 100, 50, 100, 0.9),
                det(103, 100, 50, 100, 0.8),
                det(400, 100, 50, 100, 0.9),
            ],
        )
        ids = [o.track_id for o in result.outputs]
        assert len(ids) == len(set(ids))


class TestLifecycle:
    def test_lost_track_is_removed_after_budget(self):
        config = TrackerConfig(max_lost_frames=3)
        tracker = SCTracker(config)
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        for frame in range(2, 5):  # misses at frames 2, 3, 4 -> lost budget spent
            tracker.step(frame, [])
            assert status_of(tracker, track_id) is TrackStatus.LOST
        tracker.step(5, [])
        assert status_of(tracker, track_id) is None

    def test_lost_track_resumes_with_original_id_within_budget(self):
        config = TrackerConfig(max_lost_frames=5)
        tracker = SCTracker(config)
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        tracker.step(2, [])
        tracker.step(3, [])
        result = tracker.step(4, [det(100, 100, 50, 100, 0.95)])
        assert [o.track_id for o in result.outputs] == [track_id]
        assert status_of(tracker, track_id) is TrackStatus.CONFIRMED

    def test_track_lost_exactly_budget_cannot_resume(self):
        config = TrackerConfig(max_lost_frames=2)
        tracker = SCTracker(config)
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        track_id = tracker.tracks[0].track_id
        tracker.step(2, [])
        tracker.step(3, [])  # lost for exactly two frames now
        result = tracker.step(4, [det(100, 100, 50, 100, 0.95)])
        # the old id was retired before association; the detection seeds a new track
        assert status_of(tracker, track_id) is None
        assert all(o.track_id != track_id for o in result.outputs)

    def test_unmatched_tentative_track_is_removed_immediately(self):
        tracker = SCTracker()
        tracker.step(1, [])
        tracker.step(2, [det(100, 100, 50, 100, 0.9)])
        assert tracker.tracks[0].status is TrackStatus.TENTATIVE
        tracker.step(3, [])
        assert tracker.tracks == []

    def test_removed_ids_never_reappear(self):
        config = TrackerConfig(max_lost_frames=2)
        tracker = SCTracker(config)
        tracker.step(1, [det(100, 100, 50, 100, 0.95)])
        retired = tracker.tracks[0].track_id
        for frame in range(2, 6):
            tracker.step(frame, [])
        seen = set()
        for frame in range(6, 30):
            result = tracker.step(frame, [det(100, 100, 50, 100, 0.95)])
            seen.update(o.track_id for o in result.outputs)
        assert retired not in seen

    def test_ids_are_unique_and_never_reused(self):
        tracker = SCTracker(TrackerConfig(max_lost_frames=1))
        issued = []
        rng = np.random.default_rng(0)
        for frame in range(1, 40):
            if frame % 3 == 0:
                dets = []
            else:
                x = float(rng.uniform(0, 1500))
                dets = [det(x, 200, 60, 120, 0.95)]
            tracker.step(frame, dets)
            issued.extend(t.track_id for t in tracker.tracks)
        # a given id always refers to one birth: ids grow monotonically
        assert sorted(set(issued)) == list(range(1, max(issued) + 1))


class TestTrackTable:
    def test_tracks_are_views_of_the_lifecycle_arrays(self):
        tracker = SCTracker()
        tracker.step(1, [det(0, 0, 40, 100, 0.95), det(500, 0, 40, 100, 0.95)])
        # track 1 is matched, track 2 missed, and a third box seeds track 3
        tracker.step(2, [det(0, 0, 40, 100, 0.95), det(900, 0, 40, 100, 0.95)])
        assert tracker.ids.tolist() == [1, 2, 3]
        assert tracker.misses.tolist() == [0, 1, -1]
        assert tracker.tracks == [
            Track(1, TrackStatus.CONFIRMED, 0), Track(2, TrackStatus.LOST, 1), Track(3, TrackStatus.TENTATIVE, 0)
        ]
        with pytest.raises(AttributeError):
            tracker.tracks = []

    def test_degenerate_state_is_dropped_without_disturbing_other_rows(self):
        # track 1 shrinks from h=100 to h=20 over frames 1-5 and then goes
        # undetected; coasting on its shrink rate, its predicted height
        # reaches ~1.5 at frame 6 and turns negative at frame 7
        def frame_dets(frame, shrinking=True):
            dets = [det(500, 0, 40, 100, 0.95)]
            if shrinking and frame <= 5:
                h = 100 - 20 * (frame - 1)
                dets.insert(0, det(0, 0, 0.4 * h, h, 0.95))
            return dets

        tracker = SCTracker()
        reference = SCTracker()  # sees the fixed box alone
        for frame in range(1, 10):
            result = tracker.step(frame, frame_dets(frame))
            reference.step(frame, frame_dets(frame, shrinking=False))
            assert len(tracker.means) == len(tracker.covariances) == len(tracker.tracks)
            if frame == 6:
                assert [t.track_id for t in tracker.tracks] == [1, 2]
                assert tracker.tracks[0].status is TrackStatus.LOST
                assert 1.0 < tracker.means[0, 3] < 2.0
            if frame >= 7:
                assert [t.track_id for t in tracker.tracks] == [2]
            fixed = len(tracker.tracks) - 1  # the fixed box's row
            assert tracker.tracks[fixed].status is TrackStatus.CONFIRMED
            assert np.allclose(tracker.means[fixed], reference.means[0], rtol=0, atol=1e-12)
            assert np.allclose(tracker.covariances[fixed], reference.covariances[0], rtol=0, atol=1e-12)
            assert [o.track_id for o in result.outputs][-1] == 2
            assert result.outputs[-1].box.h == pytest.approx(100.0, abs=1e-6)


class TestRunSequence:
    def test_empty_input(self):
        assert run_sequence({}) == []

    def test_single_object_keeps_one_id(self):
        frames = {
            f: [det(100 + 5 * (f - 1), 200, 60, 120, 0.95)] for f in range(1, 51)
        }
        results = run_sequence(frames)
        assert len(results) == 50
        ids = {o.track_id for r in results for o in r.outputs}
        assert len(ids) == 1
        assert all(len(r.outputs) == 1 for r in results)

    def test_gap_frames_are_stepped(self):
        frames = {
            1: [det(100, 200, 60, 120, 0.95)],
            2: [det(105, 200, 60, 120, 0.95)],
            5: [det(120, 200, 60, 120, 0.95)],
        }
        results = run_sequence(frames)
        assert [r.frame_index for r in results] == [1, 2, 3, 4, 5]
        assert results[4].outputs and results[4].outputs[0].track_id == 1

    def test_error_carries_frame_context(self):
        frames = {1: [det(0, 0, 10, 10, 0.9)], 2: [object()]}
        with pytest.raises(RuntimeError, match="frame 2"):
            run_sequence(frames)

    def test_deterministic(self):
        frames = {
            f: [det(100 + 5 * f, 200, 60, 120, 0.95), det(800 - 5 * f, 210, 60, 120, 0.8)]
            for f in range(1, 30)
        }
        a = run_sequence(frames)
        b = run_sequence(frames)
        assert a == b


class TestConfigValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            TrackerConfig(high_thresh=0.3, low_thresh=0.5)
        with pytest.raises(ValueError):
            TrackerConfig(high_thresh=1.2)

    def test_gate_and_budget_bounds(self):
        with pytest.raises(ValueError):
            TrackerConfig(match_gate_stage1=-0.1)
        with pytest.raises(ValueError):
            TrackerConfig(max_lost_frames=0)

    @pytest.mark.parametrize("gate", ["match_gate_stage1", "match_gate_stage2", "match_gate_unconfirmed"])
    def test_nan_gate_is_rejected_by_name(self, gate):
        with pytest.raises(ValueError, match=f"^{gate} must be non-negative$"):
            TrackerConfig(**{gate: float("nan")})


# schema key -> a valid non-default value
NON_DEFAULT = {
    "high_thresh": 0.8,
    "low_thresh": 0.2,
    "new_track_thresh": 0.5,
    "match_gate_stage1": 0.3,
    "match_gate_stage2": 0.4,
    "match_gate_unconfirmed": 0.6,
    "max_lost_frames": 12,
    "use_height_term": False,
    "use_area_term": False,
    "use_confidence": False,
}


class TestWithValues:
    """A configuration built with flat key values, through the constructor or
    ``dataclasses.replace``, both of which run the same checks."""

    def test_schema_keys_order_and_types(self):
        assert list(CONFIG_SCHEMA.items()) == [
            ("high_thresh", float), ("low_thresh", float), ("new_track_thresh", float),
            ("match_gate_stage1", float), ("match_gate_stage2", float),
            ("match_gate_unconfirmed", float), ("max_lost_frames", int),
            ("use_height_term", bool), ("use_area_term", bool),
            ("use_confidence", bool),
        ]

    @pytest.mark.parametrize("key", list(CONFIG_SCHEMA))
    def test_value_lands_in_declaring_object(self, key):
        value = NON_DEFAULT[key]
        config = replace(TrackerConfig(), **{key: value})
        assert config != TrackerConfig() and getattr(config, key) == value
        assert config == TrackerConfig(**{key: value})

    @pytest.mark.parametrize("key", list(CONFIG_SCHEMA))
    def test_value_of_the_wrong_type_is_named(self, key):
        kind = CONFIG_SCHEMA[key]
        wrong = {bool: ["no", 1, 0.0, None], int: [True, 3.0, 2.5, "3", None], float: [False, "0.5", None]}[kind]
        for value in wrong:
            with pytest.raises(ValueError, match=f"{key}.*{kind.__name__}"):
                TrackerConfig(**{key: value})
            with pytest.raises(ValueError, match=f"{key}.*{kind.__name__}"):
                replace(TrackerConfig(), **{key: value})

    def test_float_key_takes_an_int(self):
        assert replace(TrackerConfig(), match_gate_stage1=1) == TrackerConfig(match_gate_stage1=1.0)

    def test_unknown_key_is_named(self):
        with pytest.raises(TypeError, match="frobnicate"):
            TrackerConfig(high_thresh=0.7, frobnicate=1)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"low_thresh": 0.6}, "low_thresh"),
            ({"low_thresh": 0.7, "high_thresh": 0.7}, "low_thresh"),
            ({"new_track_thresh": 1.5}, "new_track_thresh"),
            ({"match_gate_stage2": -0.1}, "match_gate_stage2"),
            ({"max_lost_frames": 0}, "max_lost_frames"),
        ],
    )
    def test_validation_still_applies(self, values, message):
        with pytest.raises(ValueError, match=message):
            replace(TrackerConfig(), **values)
