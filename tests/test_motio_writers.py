"""The block writers against the per-record line format they replaced.

Every writer formats whole blocks through one ``%`` format.  The output must
be byte-identical to joining ``format_record_ref`` lines, the per-record
f-string the writers used before, built from per-box objects.  Chunk sizes
1, 2, 3 and the default are drawn, so rows that straddle a chunk boundary
are compared too.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sctrack import motio
from sctrack.frames import FrameBoxes, detection_block
from sctrack.geometry import BoundingBox, Detection
from sctrack.motio import MotRecord, write_detections, write_ground_truth, write_results
from sctrack.synth import builtin_scenario, generate
from sctrack.tracker import FrameResult, run_sequence

from _oracles import format_record_ref

# values that round, carry, go negative, are signed zeros, are huge or tiny
coordinates = st.one_of(
    st.floats(-1e4, 1e4, allow_nan=False),
    st.sampled_from([-0.0, 0.005, 0.015, 0.125, -0.125, 2.675, 1e15, -1e15, 5e-324, 999.995]),
)
aspects = st.one_of(st.floats(1e-2, 1e2), st.sampled_from([0.5, 1.0 / 3.0, 2.675]))
heights = st.one_of(st.floats(1e-3, 1e4), st.sampled_from([0.005, 0.015, 2.675, 1e12]))
confidences = st.one_of(st.floats(0, 1), st.sampled_from([0.00005, 0.99995, 0.12345]))
# the seven written fields of a line: frame, id, tlwh, confidence
rows_written = st.tuples(
    st.integers(-10, 10**12),
    st.integers(-(10**12), 10**12),
    coordinates,
    coordinates,
    coordinates,
    coordinates,
    st.one_of(confidences, coordinates, st.sampled_from([float("nan"), float("inf"), -float("inf")])),
)
chunks = st.sampled_from([1, 2, 3, motio.CHUNK_LINES])


def written(tmp_path, write, *args) -> str:
    path = tmp_path / "out.txt"
    write(path, *args)
    return path.read_text(encoding="utf-8")


def lines(rows) -> str:
    return "".join(format_record_ref(MotRecord(*row)) + "\n" for row in rows)


def examples(count):
    return settings(max_examples=count, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@examples(300)
@given(rows=st.lists(rows_written, max_size=12), chunk=chunks)
def test_written_lines_match_format_record_ref(tmp_path, rows, chunk):
    # the line format every writer shares, on values no box can hold
    with mock.patch.object(motio, "CHUNK_LINES", chunk):
        text = written(tmp_path, motio._write_rows, rows)
    assert text == lines(rows)


boxes = st.builds(BoundingBox, coordinates, coordinates, aspects, heights)
frames = st.dictionaries(
    st.integers(1, 10**6),
    st.lists(st.tuples(st.integers(-5, 10**9), boxes, confidences), max_size=5),
    max_size=5,
)


@examples(150)
@given(by_frame=frames, chunk=chunks)
def test_box_writers_match_per_object_lines(tmp_path, by_frame, chunk):
    order = sorted(by_frame)
    columns = {f: list(zip(*rows)) or [(), (), ()] for f, rows in by_frame.items()}
    results = [FrameResult(f, FrameBoxes.of(*columns[f])) for f in reversed(order)]
    detections = {f: [Detection(b, s) for _, b, s in by_frame[f]] for f in by_frame}
    gt = {f: [(i, b) for i, b, _ in by_frame[f]] for f in by_frame}
    expected_results = lines((f, i, *b.to_tlwh(), s) for f in order for i, b, s in by_frame[f])
    expected_detections = lines((f, -1, *b.to_tlwh(), s) for f in order for _, b, s in by_frame[f])
    expected_gt = lines((f, i, *b.to_tlwh(), 1.0) for f in order for i, b, _ in by_frame[f])
    out = tmp_path
    with mock.patch.object(motio, "CHUNK_LINES", chunk):
        assert written(out, write_results, results) == expected_results
        assert written(out, write_detections, detections) == expected_detections
        assert written(out, write_detections, {f: detection_block(d) for f, d in detections.items()}) == (
            expected_detections
        )
        assert written(out, write_ground_truth, gt) == expected_gt
        gt_blocks = {f: FrameBoxes.of([i for i, _ in rows], [b for _, b in rows]) for f, rows in gt.items()}
        assert written(out, write_ground_truth, gt_blocks) == expected_gt


def test_ground_truth_blocks_keep_their_consider_flag(tmp_path):
    box = BoundingBox(1.0, 2.0, 0.5, 10.0)
    block = FrameBoxes.of([3, 4], [box, box], [1.0, 0.0])
    text = written(tmp_path, write_ground_truth, {2: block})
    assert text == "2,3,1.00,2.00,5.00,10.00,1.0000,-1,-1,-1\n2,4,1.00,2.00,5.00,10.00,0.0000,-1,-1,-1\n"
    assert motio.read_ground_truth_blocks(tmp_path / "out.txt")[2].scores.tolist() == [1.0, 0.0]


def test_results_file_does_not_depend_on_the_chunk_size(tmp_path):
    # a tracked sequence: many frames, whose rows straddle chunks of three
    _, detections = generate(builtin_scenario("occlusion_lowconf", seed=2))
    results = run_sequence(detections)
    expected = written(tmp_path, write_results, results)
    assert len(results) > 1 and expected.count("\n") > 100
    with mock.patch.object(motio, "CHUNK_LINES", 3):
        assert written(tmp_path, write_results, results) == expected
