import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctrack.cli import load_config
from sctrack.frames import NO_BOXES, FrameBoxes, detection_block
from sctrack.geometry import BoundingBox, Detection, pairwise_iou, pairwise_shape_iou_distance, xyah_to_corners
from sctrack.motio import (
    GroundTruthEntry,
    MotRecord,
    ParseError,
    format_record,
    iter_records,
    read_detections,
    read_ground_truth,
    read_ground_truth_blocks,
    read_results,
    scan_detections,
    write_detections,
    write_ground_truth,
    write_records,
    write_results,
)
from sctrack.tracker import FrameResult


def write_lines(path, lines):
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


class TestDetectionReading:
    def test_round_trip_single_record(self, tmp_path):
        path = tmp_path / "det.txt"
        record = MotRecord(1, -1, 10.25, 20.50, 30.00, 40.75, 0.8765)
        write_records(path, [record])
        read_back = [r for _, r in iter_records(path)]
        assert read_back == [record]

    def test_rejects_bad_height_row_but_continues(self, tmp_path):
        path = tmp_path / "det.txt"
        write_lines(
            path,
            [
                "1,-1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "1,-1,10.00,20.00,30.00,-5.00,0.9000,-1,-1,-1",
                "2,-1,11.00,21.00,30.00,40.00,0.8000,-1,-1,-1",
            ],
        )
        by_frame, stats = scan_detections(path)
        assert stats.rejected_rows == 1
        assert len(by_frame[1]) == 1 and len(by_frame[2]) == 1

    def test_conf_clamped_with_counter(self, tmp_path):
        path = tmp_path / "det.txt"
        write_lines(
            path,
            [
                "1,-1,10.00,20.00,30.00,40.00,1.5000,-1,-1,-1",
                "1,-1,50.00,20.00,30.00,40.00,-0.2000,-1,-1,-1",
            ],
        )
        by_frame, stats = scan_detections(path)
        assert stats.clamped_scores == 2
        assert by_frame[1][:, 4].tolist() == [1.0, 0.0]

    def test_out_of_order_frames_sorted(self, tmp_path):
        path = tmp_path / "det.txt"
        write_lines(
            path,
            [
                "3,-1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "1,-1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "2,-1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "1,-1,90.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
            ],
        )
        by_frame = read_detections(path)
        assert list(by_frame) == [1, 2, 3]
        assert len(by_frame[1]) == 2

    def test_empty_file_yields_empty_map(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("")
        assert read_detections(path) == {}

    def test_malformed_row_raises_with_line_number(self, tmp_path):
        path = tmp_path / "det.txt"
        write_lines(
            path,
            [
                "1,-1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "not,a,valid,row",
            ],
        )
        with pytest.raises(ParseError, match="2"):
            read_detections(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            read_detections(tmp_path / "nope.txt")

    def test_fuzzed_bytes_never_escape_parse_error(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "fuzz.txt"
        for _ in range(50):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 400)))
            path.write_bytes(blob)
            try:
                read_detections(path)
            except ParseError:
                pass

    def test_id_column_is_ignored(self, tmp_path):
        path = tmp_path / "det.txt"
        write_lines(path, ["1,7,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1"])
        by_frame = read_detections(path)
        assert by_frame[1].tolist() == [[10.0, 20.0, 0.75, 40.0, 0.9]]


class TestGroundTruthReading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gt.txt"
        gt = {
            1: [(1, BoundingBox.from_tlwh(10, 20, 30, 40)), (2, BoundingBox.from_tlwh(60, 20, 30, 40))],
            2: [(1, BoundingBox.from_tlwh(12, 20, 30, 40))],
        }
        write_ground_truth(path, gt)
        read_back = read_ground_truth(path)
        assert list(read_back) == [1, 2]
        assert read_back[1][0] == GroundTruthEntry(1, BoundingBox.from_tlwh(10, 20, 30, 40), True)

    def test_rejects_negative_id(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_lines(path, ["1,-1,10.00,20.00,30.00,40.00,1.0000,-1,-1,-1"])
        with pytest.raises(ParseError, match="id"):
            read_ground_truth(path)

    def test_rejects_duplicate_frame_id_pair(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_lines(
            path,
            [
                "1,5,10.00,20.00,30.00,40.00,1.0000,-1,-1,-1",
                "1,5,50.00,20.00,30.00,40.00,1.0000,-1,-1,-1",
            ],
        )
        with pytest.raises(ParseError, match=r"\(1, 5\)"):
            read_ground_truth(path)

    def test_consider_flag_marks_non_evaluable_rows(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_lines(
            path,
            [
                "1,1,10.00,20.00,30.00,40.00,1.0000,-1,-1,-1",
                "1,2,60.00,20.00,30.00,40.00,0.0000,-1,-1,-1",
            ],
        )
        rows = read_ground_truth(path)[1]
        assert [e.evaluable for e in rows] == [True, False]


class TestResultReading:
    def test_keeps_ids_and_skips_empty_boxes(self, tmp_path):
        path = tmp_path / "res.txt"
        write_lines(
            path,
            [
                "2,7,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",
                "1,7,10.00,20.00,0.00,40.00,0.9000,-1,-1,-1",
                "1,3,50.00,20.00,30.00,40.00,0.5000,-1,-1,-1",
            ],
        )
        by_frame = read_results(path)
        assert list(by_frame) == [1, 2]
        assert by_frame[1].ids.dtype == np.int64
        assert {f: (b.ids.tolist(), b.xyah.tolist(), b.scores.tolist()) for f, b in by_frame.items()} == {
            1: ([3], [[50.0, 20.0, 0.75, 40.0]], [0.5]),
            2: ([7], [[10.0, 20.0, 0.75, 40.0]], [0.9]),
        }

    def test_repeated_id_in_a_frame_is_a_parse_error(self, tmp_path):
        path = tmp_path / "res.txt"
        write_lines(path, ["1,7,0,0,50,100,1,-1,-1,-1", "1,7,300,0,50,100,1,-1,-1,-1"])
        with pytest.raises(ParseError, match=r"res\.txt:2: frame 1 repeats id 7"):
            read_results(path)

    def test_non_finite_row_is_a_parse_error(self, tmp_path):
        path = tmp_path / "res.txt"
        write_lines(path, ["1,1,0,0,50,100,1,-1,-1,-1", "1,2,0,inf,50,100,1,-1,-1,-1"])
        with pytest.raises(ParseError, match=r"res\.txt:2:"):
            read_results(path)


class TestZeroAreaBoxes:
    """Rows of positive width and height whose corner form has no area in
    float64, or whose width, height or area has a square that overflows: at
    x = 10, w = 1e-30 gives x + w == x, at the origin 1e-200 * 1e-200
    underflows to 0, a 1e300 x 1e10 box has area 1e310 = inf, and 1e160 x
    1e-10 has a finite area but an infinite squared width.  No overlap or
    shape distance with such a box is defined."""

    GOOD = "1,2,40,10,5,5,1.0,-1,-1,-1"
    ROWS = [
        "1,1,10,10,1e-30,1e-30,1.0,-1,-1,-1",
        "1,1,0,0,1e-200,1e-200,1.0,-1,-1,-1",
        "1,1,1,1,1e300,1e10,1.0,-1,-1,-1",
        "1,1,1,1,1e160,1e-10,1.0,-1,-1,-1",
        "1,1,1,1,1e-10,1e160,1.0,-1,-1,-1",
    ]
    IDS = ["x_plus_w_is_x", "area_underflows", "area_overflows", "width_square_overflows", "height_square_overflows"]

    @pytest.mark.parametrize("row", ROWS, ids=IDS)
    def test_detections_reject_and_count_the_row(self, tmp_path, row):
        path = tmp_path / "det.txt"
        write_lines(path, [self.GOOD, row])
        by_frame, stats = scan_detections(path)
        assert stats.rejected_rows == 1
        assert by_frame[1].tolist() == [[40.0, 10.0, 1.0, 5.0, 1.0]]

    @pytest.mark.parametrize("row", ROWS, ids=IDS)
    def test_ground_truth_row_is_a_parse_error(self, tmp_path, row):
        path = tmp_path / "gt.txt"
        write_lines(path, [self.GOOD, row])
        with pytest.raises(ParseError, match=r"gt\.txt:2: ground-truth row has invalid frame or box geometry$"):
            read_ground_truth_blocks(path)

    @pytest.mark.parametrize("row", ROWS, ids=IDS)
    def test_results_skip_the_row(self, tmp_path, row):
        path = tmp_path / "res.txt"
        write_lines(path, [self.GOOD, row])
        assert read_results(path)[1].ids.tolist() == [2]


# tlwh fields from everyday pixel values to log-uniform magnitudes from
# 1e-300 to 1e200, where squares and products overflow
magnitudes = st.floats(-300.0, 200.0).map(lambda exponent: 10.0**exponent)
coordinates = st.one_of(st.floats(-1e3, 1e3), magnitudes, magnitudes.map(lambda v: -v))
sizes = st.one_of(st.floats(0.5, 500.0), magnitudes)
tlwh_rows = st.lists(st.tuples(coordinates, coordinates, sizes, sizes), min_size=1, max_size=4)


@pytest.fixture(scope="module")
def box_file(tmp_path_factory):
    return tmp_path_factory.mktemp("boxes") / "boxes.txt"


@settings(max_examples=150, deadline=None)
@given(rows=tlwh_rows)
def test_accepted_boxes_have_finite_overlap_and_shape_distance(box_file, rows):
    # one frame, one id per row, each field written exactly
    write_lines(box_file, [f"1,{i + 1},{x!r},{y!r},{w!r},{h!r},1.0,-1,-1,-1" for i, (x, y, w, h) in enumerate(rows)])
    accepted = [
        read_results(box_file).get(1, NO_BOXES).xyah,
        read_detections(box_file).get(1, np.zeros((0, 5)))[:, :4],
    ]
    for xyah in accepted:
        corners = xyah_to_corners(xyah)
        overlap = pairwise_iou(corners, corners)
        # the enclosing-rectangle normalizers of two far-apart accepted boxes
        # may overflow to inf, which sends their terms to 0
        with np.errstate(over="ignore"):
            distance = pairwise_shape_iou_distance(corners, corners)
        for values in (overlap, distance):
            assert np.isfinite(values).all() and (values >= 0).all()
        assert (overlap <= 1).all()


class TestExactKeys:
    """Frames and ids are read as int64, and only while float64 holds them exactly."""

    def test_ids_below_2_53_are_read_exactly(self, tmp_path):
        path = tmp_path / "res.txt"
        write_lines(path, ["1,9007199254740991,0,0,50,100,1,-1,-1,-1", "1,7,300,0,50,100,1,-1,-1,-1"])
        for read in (read_results, read_ground_truth_blocks):
            ids = read(path)[1].ids
            assert ids.dtype == np.int64 and ids.tolist() == [9007199254740991, 7]
        assert [e.track_id for e in read_ground_truth(path)[1]] == [9007199254740991, 7]

    READERS = {
        "scan_detections": scan_detections,
        "read_ground_truth_blocks": read_ground_truth_blocks,
        "read_results": read_results,
        "iter_records": lambda path: list(iter_records(path)),
    }

    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize(
        "row, fields",
        [
            ("1,9007199254740992,0,0,50,100,1,-1,-1,-1", "'1', '9007199254740992'"),
            ("-9007199254740993,1,0,0,50,100,1,-1,-1,-1", "'-9007199254740993', '1'"),
        ],
        ids=["id", "frame"],
    )
    def test_frame_or_id_from_2_53_is_a_parse_error(self, tmp_path, reader, row, fields):
        path = tmp_path / "mot.txt"
        write_lines(path, ["1,1,0,0,50,100,1,-1,-1,-1", row, "1,9007199254740993,300,0,50,100,1,-1,-1,-1"])
        message = rf"mot\.txt:2: frame and id must lie below 2\*\*53 in magnitude, got {fields}$"
        with pytest.raises(ParseError, match=message):
            self.READERS[reader](path)


class TestWriting:
    def make_results(self):
        return [
            FrameResult(1, FrameBoxes.of([1], [BoundingBox.from_tlwh(10.123, 20.456, 30.5, 40.25)], [0.9])),
            FrameResult(2, FrameBoxes.of([1], [BoundingBox.from_tlwh(11.0, 21.0, 30.5, 40.25)], [0.85])),
        ]

    def test_empty_results_give_empty_file(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results(path, [])
        assert path.read_text() == ""

    def test_one_line_per_output(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results(path, self.make_results())
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(line.split(",")[1] == "1" for line in lines)

    def test_frames_written_ascending(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results(path, list(reversed(self.make_results())))
        frames = [int(line.split(",")[0]) for line in path.read_text().strip().splitlines()]
        assert frames == sorted(frames)

    def test_read_back_within_fixed_point_tolerance(self, tmp_path):
        path = tmp_path / "res.txt"
        results = self.make_results()
        write_results(path, results)
        parsed = list(iter_records(path))
        for (_, record), frame_result in zip(parsed, results):
            x, y, w, h = frame_result.outputs[0].box.to_tlwh()
            assert abs(record.bb_left - x) <= 0.005 + 1e-9
            assert abs(record.bb_top - y) <= 0.005 + 1e-9
            assert abs(record.bb_width - w) <= 0.005 + 1e-9
            assert abs(record.bb_height - h) <= 0.005 + 1e-9

    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        records = [
            MotRecord(
                int(rng.integers(1, 500)),
                int(rng.integers(-1, 50)),
                float(rng.uniform(-10, 1900)),
                float(rng.uniform(-10, 1000)),
                float(rng.uniform(0.5, 400)),
                float(rng.uniform(0.5, 400)),
                float(rng.uniform(0, 1)),
            )
            for _ in range(200)
        ]
        write_records(first, records)
        parsed = [r for _, r in iter_records(first)]
        write_records(second, parsed)
        assert first.read_bytes() == second.read_bytes()

    def test_detection_file_round_trip(self, tmp_path):
        path = tmp_path / "det.txt"
        rng = np.random.default_rng(2)
        detections = {
            f: [
                Detection(
                    BoundingBox.from_tlwh(
                        round(float(rng.uniform(0, 1000)), 2),
                        round(float(rng.uniform(0, 700)), 2),
                        round(float(rng.uniform(1, 300)), 2),
                        round(float(rng.uniform(1, 300)), 2),
                    ),
                    round(float(rng.uniform(0, 1)), 4),
                )
                for _ in range(3)
            ]
            for f in range(1, 6)
        }
        write_detections(path, detections)
        read_back = read_detections(path)
        assert list(read_back) == list(detections)
        assert all(read_back[f].tolist() == detection_block(d).tolist() for f, d in detections.items())


class TestConfigFiles:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text(
            "# association\n"
            "high_thresh = 0.7\n"
            "max_lost_frames = 12\n"
            "use_height_term = false\n"
            "match_gate_stage2 = 0.4  # second pass\n"
        )
        values = load_config(path)
        assert values == {
            "high_thresh": 0.7,
            "max_lost_frames": 12,
            "use_height_term": False,
            "match_gate_stage2": 0.4,
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("frobnicate = 1\n")
        with pytest.raises(ParseError, match="frobnicate"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("use_unconfirmed_stage", "false"),
            ("epsilon", "1e-7"),
            ("std_weight_position", "0.05"),
            ("std_weight_velocity", "0.00625"),
        ],
    )
    def test_removed_key_rejected_with_line(self, tmp_path, key, value):
        path = tmp_path / "conf.cfg"
        path.write_text(f"high_thresh = 0.7\n{key} = {value}\n")
        with pytest.raises(ParseError, match=rf"conf\.cfg:2: unknown config key '{key}'$"):
            load_config(path)

    def test_repeated_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("high_thresh = 0.7\nlow_thresh = 0.2\nhigh_thresh = 0.8\n")
        with pytest.raises(ParseError, match=r"conf\.cfg:3: .*high_thresh"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "conf.cfg"
        path.write_text("high_thresh = banana\n")
        with pytest.raises(ParseError, match="banana"):
            load_config(path)


class TestFormat:
    def test_canonical_line(self):
        record = MotRecord(3, 7, 1.0, 2.0, 3.0, 4.0, 0.5)
        assert format_record(record) == "3,7,1.00,2.00,3.00,4.00,0.5000,-1,-1,-1"
