"""The chunked MOT readers against the line-at-a-time readers they replaced.

Generated files mix valid rows with every irregularity the readers check:
blank lines, CRLF and CR endings, wrong field counts, non-numeric fields,
non-finite values in any column, non-integral or huge frame/id values,
non-positive sizes or corner-form areas, repeated (frame, id) pairs and out-of-range confidences.
Some field texts are read differently by ``float`` and by numpy's C parser,
which the readers try first on each chunk, so both parse paths are compared.
Each file is read with a chunk size drawn from a few small values and the
default, so rows, checks and errors that straddle chunk boundaries are
compared too.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sctrack import motio, synth
from sctrack.motio import FIELD_COUNT, ParseError
from sctrack.tracker import run_sequence

from _oracles import iter_records_ref, read_ground_truth_ref, read_results_ref, scan_detections_ref

# replacement texts per column: non-integral, huge, non-finite, non-numeric,
# non-positive, out-of-range and extreme values; frame and id also get the
# integers on either side of 2**53
KEY_FAULTS = ["1.5", "-0.5", "1e20", "-1e20", "-0", "0", "-1", " 2 ", "2.0", "nan", "inf",
              "9007199254740991", "9007199254740992", "-9007199254740993"]
# texts in every column that tell numpy's C parser from ``float``: non-ASCII
# digits (only ``float`` reads them), an ASCII separator (only the C parser
# skips it), a NUL, Unicode whitespace, overflow, a comment mark and quotes
PARSER_FAULTS = ["\u0661", "1\x00", "\xa01", "1e400", "10#x", '"1"', "1\x1c"]
FAULTS = [
    column + PARSER_FAULTS
    for column in [
        KEY_FAULTS,  # frame
        KEY_FAULTS,  # id
        ["nan", "inf", "-inf", "1e300", "-1e300", "abc"],  # bb_left
        ["nan", "inf", "-inf", "1e300", "-1e300", ""],  # bb_top
        ["0", "-0", "-5.00", "nan", "inf", "1e300", "1e-300", "1_0"],  # bb_width
        ["0", "-0", "-5.00", "nan", "inf", "1e300", "1e-300", "1_0"],  # bb_height
        ["-0.2", "1.5", "-0.0", "0", "nan", "inf", "-inf"],  # conf
        ["nan", "inf", "0"],
        ["nan", "inf", "0"],
        ["nan", "inf", "x"],
    ]
]

# valid rows; small frame/id ranges make repeated pairs likely
valid_fields = st.tuples(
    st.integers(1, 3).map(str),
    st.integers(1, 3).map(str),
    st.floats(-50, 500).map("{:.2f}".format),
    st.floats(-50, 500).map("{:.2f}".format),
    st.floats(0.5, 300).map("{:.2f}".format),
    st.floats(0.5, 300).map("{:.2f}".format),
    st.one_of(st.floats(0, 1).map("{:.4f}".format), st.sampled_from(["-0.2", "1.5"])),
    st.just("-1"), st.just("-1"), st.just("-1"),
).map(list)


@st.composite
def faulty_rows(draw):
    fields = draw(valid_fields)
    for _ in range(draw(st.integers(1, 2))):
        column = draw(st.integers(0, FIELD_COUNT - 1))
        fields[column] = draw(st.sampled_from(FAULTS[column]))
    shape = draw(st.sampled_from(["ok"] * 12 + ["short", "long", "extreme", "form feed"]))
    if shape == "short":
        fields = fields[: draw(st.integers(1, FIELD_COUNT - 1))]
    elif shape == "long":
        fields.append("-1")
    elif shape == "extreme":  # finite positive sizes whose aspect over- or underflows
        fields[4:6] = draw(st.permutations(["1e-300", draw(st.sampled_from(["1e300", "1e20"]))]))
    elif shape == "form feed":  # whitespace that ends no line
        fields[-1] += "\x0c"
    return draw(st.sampled_from(["", " ", "\t"])) + ",".join(fields)


lines = st.one_of(
    valid_fields.map(",".join),
    valid_fields.map(",".join),
    faulty_rows(),
    faulty_rows(),
    st.sampled_from(["", "   ", "\t"]),
)


@st.composite
def mot_files(draw):
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    body = ending.join(draw(st.lists(lines, max_size=14)))
    if draw(st.booleans()):
        body += ending
    return body.encode("utf-8"), draw(st.sampled_from([1, 2, 3, 5, motio.CHUNK_LINES]))


def plain(value):
    """Arrays as their dtype and nested lists, inside tuples and lists, so
    ``repr`` shows every bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, (tuple, list)):
        return [plain(item) for item in value]
    return value


def outcome(read, path):
    """A reader's output, or the type and text of the error it raised."""
    try:
        result = read(path)
    except ValueError as exc:  # ParseError, or a box the row cannot form
        return type(exc), str(exc)
    return plain(list(result.items()))


def detection_outcome(read, path):
    """:func:`outcome` with the counts ``(rejected rows, clamped scores)``: the
    reference returns them, the reader logs them in one warning when either
    is non-zero."""
    with mock.patch.object(motio.logger, "warning") as warning:
        try:
            result = read(path)
        except ValueError as exc:
            return type(exc), str(exc)
    if isinstance(result, tuple):
        by_frame, counts = result
    else:
        by_frame, counts = result, (0, 0)
        if warning.called:
            (call,) = warning.call_args_list
            counts = call.args[2:]
    return plain(list(by_frame.items())), counts


def records(iterate, path):
    """The records before the first failure, plus that failure's text."""
    rows = []
    try:
        for row in iterate(path):
            rows.append(row)
    except ParseError as exc:
        return rows, str(exc)
    return rows, None


READERS = [
    (motio.read_detections, scan_detections_ref, detection_outcome),
    (motio.read_ground_truth, read_ground_truth_ref, outcome),
    (motio.read_results, read_results_ref, outcome),
    (motio.iter_records, iter_records_ref, records),
]


def assert_same(read, reference, collect, path):
    # repr compares floats exactly, tells -0.0 from 0.0 and equates NaN with NaN
    assert repr(collect(read, path)) == repr(collect(reference, path)), read.__name__


ROW = "1,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1"

# one file per check, so every check is exercised whatever the generator
# draws; the offending row sits on lines 2 and 4, so a reader that reported
# its last offending line instead of its first would differ
CHECKED = [
    "1,1,10.00,20.00,30.00",  # field count
    "1,1,10.00,abc,30.00,40.00,0.9000,-1,-1,-1",  # non-numeric
    "1.5,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # non-integral frame
    "1,nan,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # NaN id
    "inf,1,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # infinite frame
    "1,9007199254740993,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # id not exact in float64
    "2,0,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # ground-truth id
    "1,1,50.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # repeated (frame, id)
    "1,1,50.00,20.00,0.00,40.00,0.9000,-1,-1,-1",  # repeated, and zero width
    "0,2,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1",  # frame < 1
    "2,2,inf,20.00,30.00,40.00,0.9000,-1,-1,-1",  # non-finite box
    "2,2,10.00,20.00,30.00,40.00,nan,-1,-1,-1",  # non-finite conf
    "2,2,10.00,20.00,0.00,40.00,0.9000,-1,-1,-1",  # zero width
    "2,2,10.00,20.00,30.00,-5.00,0.9000,-1,-1,-1",  # negative height
    "2,2,10.00,20.00,-3.00,0.00,0.9000,-1,-1,-1",  # both sizes non-positive
    "2,2,10.00,20.00,30.00,40.00,-0.2000,-1,-1,-1",  # conf below 0
    "2,2,10.00,20.00,30.00,40.00,1.5000,-1,-1,-1",  # conf above 1
    "2,2,10.00,20.00,1e-300,1e300,0.9000,-1,-1,-1",  # aspect underflows
    "2,2,10.00,0.00,1e10,1e-300,0.9000,-1,-1,-1",  # aspect overflows, corner area positive
    "2,2,10.00,20.00,1e-30,1e-30,0.9000,-1,-1,-1",  # positive sizes, zero corner area
]


def _check_examples(test):
    for row in CHECKED:
        for chunk in (1, motio.CHUNK_LINES):
            body = "\n".join([ROW, row, "3,3,10.00,20.00,30.00,40.00,0.9000,-1,-1,-1", row]) + "\n"
            test = example(drawn=(body.encode(), chunk))(test)
    return test


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=mot_files())
@_check_examples
def test_readers_match_line_readers(tmp_path, drawn):
    body, chunk = drawn
    path = tmp_path / "mot.txt"
    path.write_bytes(body)
    with mock.patch.object(motio, "CHUNK_LINES", chunk):
        for read, reference, collect in READERS:
            assert_same(read, reference, collect, path)


@pytest.mark.parametrize("read,reference,collect", READERS)
def test_missing_file_matches_line_reader(tmp_path, read, reference, collect):
    assert_same(read, reference, collect, tmp_path / "absent.txt")


def test_written_results_take_the_c_parser(tmp_path):
    """A clean file never reaches the ``float`` path, whatever its chunking."""
    _, detections = synth.generate(synth.builtin_scenario("crossing_distinct_shape"))
    path = tmp_path / "result.txt"
    motio.write_results(path, run_sequence(detections))
    expected = [outcome(read_results_ref, path), records(iter_records_ref, path)]
    assert expected[1][0] and expected[1][1] is None
    refused = mock.Mock(side_effect=AssertionError("float path taken"))
    for chunk in (7, motio.CHUNK_LINES):
        with mock.patch.object(motio, "_float_block", refused), mock.patch.object(motio, "CHUNK_LINES", chunk):
            assert repr([outcome(motio.read_results, path), records(motio.iter_records, path)]) == repr(expected)


def test_underscored_digits_still_read(tmp_path):
    path = tmp_path / "mot.txt"
    path.write_text(f"{ROW}\n1,2,10.00,20.00,1_0,40.00,0.9000,-1,-1,-1\n{ROW}\n")
    (_, first), (_, second), _ = motio.iter_records(path)
    assert second.bb_width == 10.0 and first.bb_width == 30.0


def test_blank_chunks_raise_no_warning(tmp_path):
    path = tmp_path / "mot.txt"
    path.write_text("\n\n  \n" + f"{ROW}\n\n\n\t\n" + ROW.replace("1,1", "2,1", 1) + "\n\n\n")
    with warnings.catch_warnings(), mock.patch.object(motio, "CHUNK_LINES", 1):
        warnings.simplefilter("error")
        for read, reference, collect in READERS:
            assert_same(read, reference, collect, path)
