"""The frame-block form, and the block paths against the object paths.

Detections travel as ``(n, 5)`` blocks and boxes with ids as ``FrameBoxes``.
The differential tests feed the tracker and the evaluator both forms over
every pinned golden run and require identical outputs, bit for bit.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from make_golden import GOLDEN_PATH, golden_runs, scenario_runs
from make_golden_metrics import IOU_THRESHOLDS, METRICS_PATH, REPORT_FIELDS, pinned_results
from sctrack.ablation import results_to_map
from sctrack.frames import NO_BOXES, FrameBoxes, detection_block, frame_boxes, repeated, split
from sctrack.geometry import BoundingBox, Detection
from sctrack.metrics import evaluate
from sctrack.motio import write_ground_truth
from sctrack.tracker import FrameResult, SCTracker, TrackOutput, run_sequence


def det(x, y, a, h, score):
    return Detection(BoundingBox(x, y, a, h), score)


def same_bits(a, b) -> bool:
    """Two arrays, or two ``FrameBoxes`` column by column, with equal dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        a, b = [a], [b]
    return all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))


# object fields as the objects accept them: floats (signed zeros, huge and
# tiny values) and ints, some beyond 2**53, where float64 rounds
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70))
sizes = st.one_of(st.floats(5e-324, 1e300), st.integers(1, 2**70))
scores = st.one_of(st.floats(0, 1), st.integers(0, 1), st.booleans())


class TestDetectionBlock:
    def test_list_and_block_give_the_same_rows(self):
        dets = [det(1.5, 2.0, 0.5, 10.0, 0.9), det(-3.0, 4.25, 2.0, 7.0, 1)]
        block = detection_block(dets)
        assert block.dtype == np.float64
        assert block.tolist() == [[1.5, 2.0, 0.5, 10.0, 0.9], [-3.0, 4.25, 2.0, 7.0, 1.0]]
        assert detection_block(block) is block
        assert detection_block([]).shape == (0, 5)
        assert detection_block(np.zeros((0, 5))).shape == (0, 5)

    def test_non_detection_item_is_a_type_error(self):
        for wrap in (list, iter):
            with pytest.raises(TypeError, match="expected Detection, got tuple"):
                detection_block(wrap([det(0, 0, 1, 1, 0.5), (0, 0, 1, 1, 0.5)]))

    @settings(max_examples=200)
    @given(rows=st.lists(st.tuples(st.builds(BoundingBox, *[numbers] * 2, *[sizes] * 2), scores), max_size=6))
    def test_objects_give_the_array_of_their_fields_bit_for_bit(self, rows):
        expected = np.array([(b.x, b.y, b.a, b.h, s) for b, s in rows], dtype=np.float64).reshape(-1, 5)
        dets = [Detection(b, s) for b, s in rows]
        ids = list(range(len(rows)))
        for wrap in (list, iter):
            assert same_bits(detection_block(wrap(dets)), expected)
            block = FrameBoxes.of(ids, wrap([b for b, _ in rows]))
            assert same_bits(block.xyah, np.ascontiguousarray(expected[:, :4]))

    @pytest.mark.parametrize("shape", [(5,), (2, 4), (1, 6), (1, 5, 1)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValueError, match=r"shape \(n, 5\)"):
            detection_block(np.ones(shape))

    @pytest.mark.parametrize(
        "row",
        [
            [np.nan, 0.0, 1.0, 1.0, 0.5],
            [0.0, np.inf, 1.0, 1.0, 0.5],
            [0.0, 0.0, 0.0, 1.0, 0.5],
            [0.0, 0.0, 1.0, -2.0, 0.5],
            [0.0, 0.0, np.inf, 1.0, 0.5],
            [0.0, 0.0, 1.0, 1.0, 1.5],
            [0.0, 0.0, 1.0, 1.0, -0.1],
            [0.0, 0.0, 1.0, 1.0, np.nan],
        ],
    )
    def test_bad_row_raises_what_the_objects_raise(self, row):
        with pytest.raises(ValueError) as expected:
            det(*row)
        block = np.array([[5.0, 5.0, 1.0, 2.0, 0.5], row, [0.0, 0.0, -1.0, 1.0, 2.0]])
        with pytest.raises(ValueError) as got:
            detection_block(block)
        assert str(got.value) == str(expected.value)

    def test_tracker_rejects_a_bad_block_and_leaves_a_good_one_untouched(self):
        tracker = SCTracker()
        block = np.array([[100.0, 100.0, 0.5, 100.0, 0.9]])
        kept = block.copy()
        tracker.step(1, block)
        tracker.step(2, block)
        assert block.tobytes() == kept.tobytes()
        with pytest.raises(ValueError, match=r"score must lie in \[0, 1\]"):
            tracker.step(3, np.array([[100.0, 100.0, 0.5, 100.0, 1.2]]))


class TestFrameResult:
    def test_outputs_round_trip_through_the_block(self):
        outputs = [
            TrackOutput(2, BoundingBox(1.0, 2.0, 0.5, 40.0), 0.75),
            TrackOutput(5, BoundingBox(-1.0, 0.5, 2.0, 3.0), 1.0),
        ]
        boxes = FrameBoxes.of([o.track_id for o in outputs], [o.box for o in outputs], [o.score for o in outputs])
        result = FrameResult(3, boxes)
        assert result.outputs == outputs
        assert result.boxes.ids.dtype == np.int64
        assert result.boxes.xyah.tolist() == [[1.0, 2.0, 0.5, 40.0], [-1.0, 0.5, 2.0, 3.0]]
        assert result == FrameResult(3, boxes.select([0, 1]))
        assert result != FrameResult(4, boxes)
        assert result != FrameResult(3, boxes.select([0]))

    def test_default_is_empty(self):
        assert FrameResult(1).outputs == []
        assert FrameResult(1) == FrameResult(1, FrameBoxes.of([], []))
        one = FrameResult(2, FrameBoxes.of([1], [BoundingBox(0, 0, 1, 1)]))
        assert results_to_map([FrameResult(1), one]) == {2: one.boxes}


def test_step_on_blocks_matches_step_on_detection_lists():
    """Every golden run, tracked from blocks and from Detection lists."""
    runs = 0
    for label, detections, config in golden_runs():
        from_lists = run_sequence(detections, config)
        from_blocks = run_sequence({f: detection_block(d) for f, d in detections.items()}, config)
        assert [r.frame_index for r in from_blocks] == [r.frame_index for r in from_lists], label
        for a, b in zip(from_lists, from_blocks):
            assert same_bits(a.boxes, b.boxes), f"{label} frame {a.frame_index}"
        runs += 1
    assert runs == 321


@pytest.fixture(scope="module")
def pinned():
    with np.load(GOLDEN_PATH) as tracker, np.load(METRICS_PATH) as reports:
        return {key: tracker[key] for key in tracker.files}, {key: reports[key] for key in reports.files}


def test_evaluate_on_blocks_matches_evaluate_on_maps(pinned):
    """Every pinned evaluation, scored from blocks.

    ``test_golden_metrics.py`` holds ``evaluate`` on ``(id, box)`` maps to
    the same pinned fields, exactly.
    """
    golden, expected = pinned
    k = 0
    for label, gt, _, _ in scenario_runs():
        gt_blocks = {frame: frame_boxes(rows) for frame, rows in gt.items()}
        result_blocks = {frame: frame_boxes(rows) for frame, rows in pinned_results(golden, label).items()}
        for thresh in IOU_THRESHOLDS:
            report = evaluate(gt_blocks, result_blocks, thresh)
            assert (expected["labels"][k], expected["iou_match_thresh"][k]) == (label, thresh)
            assert all(getattr(report, name) == expected[name][k] for name in REPORT_FIELDS), label
            k += 1
    assert k == 960


@pytest.mark.parametrize("source,args", [("ground truth", 0), ("results", 1)])
def test_repeated_id_in_a_block_names_the_first_frame(source, args):
    box = BoundingBox(0.0, 0.0, 1.0, 10.0)
    clean = {1: [(1, box), (2, box)], 2: [(1, box)]}
    dup = {
        1: FrameBoxes.of([1, 2], [box, box]),
        3: FrameBoxes.of([4, 7, 5, 7, 4], [box] * 5),
        2: FrameBoxes.of([3, 3], [box, box]),
    }
    inputs = [clean, clean]
    inputs[args] = dup
    with pytest.raises(ValueError, match=f"^{source} frame 3 repeats id 7$"):
        evaluate(*inputs)


def test_empty_frames_and_missing_boxes():
    box = BoundingBox(0.0, 0.0, 1.0, 10.0)
    gt = {1: FrameBoxes.of([1], [box]), 2: NO_BOXES, 3: []}
    report = evaluate(gt, {1: NO_BOXES, 2: [(9, box)]})
    assert (report.fn, report.fp, report.gt_count, report.idf1) == (1, 1, 1, 0.0)


def ragged(ids, boxes):
    """A block whose columns differ in length: scores follow the ids."""
    return FrameBoxes(np.array(ids), np.array([[0.0, 0.0, 1.0, 10.0]] * boxes), np.ones(len(ids)))


@pytest.mark.parametrize("source,args", [("ground truth", 0), ("results", 1)])
def test_columns_of_unequal_length_are_refused_by_the_evaluator(source, args):
    # stacked as they are, the rows of frame 2 would shift into frame 1; the
    # map scored against itself would read MOTA 100%
    shifted = {2: ragged([3], 2), 1: ragged([1, 2], 1)}
    box = BoundingBox(0.0, 0.0, 1.0, 10.0)
    for ragged_map, message in [
        (shifted, "frame 1: ids, boxes and scores have lengths 2, 1, 2"),
        ({2: ragged([1, 2], 1)}, "frame 2: ids, boxes and scores have lengths 2, 1, 2"),
        ({1: [(1, box)], 4: ragged([], 1)}, "frame 4: ids, boxes and scores have lengths 0, 1, 0"),
    ]:
        inputs = [{1: [(1, box)]}, {1: [(1, box)]}]
        inputs[args] = ragged_map
        with pytest.raises(ValueError, match=f"^{source} {message}$"):
            evaluate(*inputs)


def test_columns_of_unequal_length_are_refused_by_the_writer(tmp_path):
    path = tmp_path / "gt.txt"
    with pytest.raises(ValueError, match=r"frame 2: ids, boxes and scores have lengths 1, 2, 1$"):
        write_ground_truth(path, {1: ragged([1, 2], 2), 2: ragged([3], 2)})
    assert not path.exists()


@pytest.mark.parametrize(
    "ids,boxes,scores,lengths",
    [([1, 2], 1, None, "2, 1, 2"), ([1], 2, None, "1, 2, 1"), ([1, 2], 2, [0.5], "2, 2, 1"), ([], 1, [], "0, 1, 0")],
)
def test_of_refuses_columns_of_unequal_length(ids, boxes, scores, lengths):
    with pytest.raises(ValueError, match=f"^ids, boxes and scores have lengths {lengths}$"):
        FrameBoxes.of(ids, [BoundingBox(0.0, 0.0, 1.0, 10.0)] * boxes, scores)


def test_ids_that_are_not_integers_are_refused():
    box = BoundingBox(0.0, 0.0, 1.0, 10.0)
    # truncated, 1.5 and 1.7 would be one object, switching from 7 to 8
    with pytest.raises(ValueError, match=r"^ids must be integers, got 1\.5$"):
        evaluate({1: [(1.5, box)], 2: [(1.7, box)]}, {1: [(7, box)], 2: [(8, box)]})
    for ids, bad in [([2, 2.5], "2.5"), ([float("nan")], "nan"), ([float("inf")], "inf"), ([1e300], "1e+300")]:
        with pytest.raises(ValueError, match=f"^ids must be integers, got {re.escape(bad)}$"):
            FrameBoxes.of(ids, [box] * len(ids))
    for ids in ([1, 2], [1.0, 2.0], np.array([1, 2], np.int32), np.array([1, 2], np.uint8)):
        block = FrameBoxes.of(ids, [box, box])
        assert block.ids.dtype == np.int64 and block.ids.tolist() == [1, 2]
    assert FrameBoxes.of([], []).ids.dtype == np.int64


keys = st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=30)


@given(pairs=keys)
def test_repeated_marks_every_later_occurrence(pairs):
    seen, expected = set(), []
    for pair in pairs:
        expected.append(pair in seen)
        seen.add(pair)
    major = np.array([p[0] for p in pairs], dtype=np.float64)
    minor = np.array([p[1] for p in pairs], dtype=np.int64)
    assert repeated(major, minor).tolist() == expected


@settings(max_examples=50)
@given(sizes=st.lists(st.integers(0, 4), max_size=8))
def test_split_cuts_like_np_split(sizes):
    rows = np.arange(sum(sizes) * 2).reshape(-1, 2)
    pieces = split(rows, sizes)
    assert [len(p) for p in pieces] == sizes
    reference = np.split(rows, np.cumsum(sizes)[:-1]) if sizes else []
    assert all(np.array_equal(a, b) for a, b in zip(pieces, reference))
    assert split(rows.tolist(), sizes) == [p.tolist() for p in pieces]
