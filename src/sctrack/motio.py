"""MOTChallenge-format file I/O.

Wire format: 10 comma-separated fields per line,
``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z``.
Detection files carry ``id = -1`` and leave the last three fields at ``-1``;
ground-truth files reuse the ``conf`` slot as the standard consider flag
(0 marks a row that should not be evaluated).  Coordinates are written
fixed-point with two decimals, confidences with four, so written files
re-parse to the same values and re-serialize byte-identically.
"""

from __future__ import annotations

import logging
from itertools import chain, islice, repeat
from typing import Iterable, NamedTuple

import numpy as np

from .frames import FrameBoxes, detection_block, frame_boxes, repeated, split
from .geometry import BoundingBox, xyah_to_corners

logger = logging.getLogger(__name__)

FIELD_COUNT = 10

# lines parsed per chunk: bounds the text, field strings and rows held at once
CHUNK_LINES = 4096


class ParseError(ValueError):
    """A structurally malformed row; carries the path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class MotRecord(NamedTuple):
    frame: int
    track_id: int
    bb_left: float
    bb_top: float
    bb_width: float
    bb_height: float
    conf: float
    x: float = -1.0
    y: float = -1.0
    z: float = -1.0


class GroundTruthEntry(NamedTuple):
    track_id: int
    box: BoundingBox
    evaluable: bool


# the written line: coordinates fixed-point with two decimals, confidence with
# four, and x, y, z left at -1
LINE_FORMAT = "%d,%d,%.2f,%.2f,%.2f,%.2f,%.4f,-1,-1,-1"


def _first(mask) -> int:
    """Index of the first true entry of a boolean mask, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _parse_rows(path, line_nos, lines: list[str]):
    """Parse stripped non-blank lines into an ``(n, 10)`` float64 block, one
    ``float`` per field.

    Returns the block of the rows before the first line with another field
    count or a non-numeric field, and the ParseError for that line, or None
    when every line parses.
    """
    counts = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines))
    n = _first(counts != FIELD_COUNT - 1)
    error = None
    if n < len(lines):
        error = ParseError(path, int(line_nos[n]), f"expected {FIELD_COUNT} comma-separated fields, got {counts[n] + 1}")
    try:
        block = _float_block(lines[:n])
    except ValueError:
        n = next(i for i, line in enumerate(lines) if not _numeric(line))
        error = ParseError(path, int(line_nos[n]), f"non-numeric field in row: {lines[n]!r}")
        block = _float_block(lines[:n])
    return block, error


def _float_block(lines: list[str]) -> np.ndarray:
    """One ``float`` pass over the joined fields of lines that hold ten each."""
    if not lines:
        return np.zeros((0, FIELD_COUNT))
    fields = ",".join(lines).split(",")
    return np.fromiter(map(float, fields), np.float64, len(fields)).reshape(-1, FIELD_COUNT)


def _numeric(line: str) -> bool:
    try:
        for field in line.split(","):
            float(field)
    except ValueError:
        return False
    return True


# ASCII separators that numpy's number parser skips as whitespace and float() refuses
_FLOAT_REFUSED = "\x1c\x1d\x1e\x1f"


def _loadtxt_block(chunk: list[str]):
    """numpy's C parse of raw lines as an ``(n, 10)`` float64 block, or None
    unless every line is ten numeric fields that ``float`` reads the same.

    Chunks with another field count or a field only ``float`` accepts
    (``1_0``, non-ASCII digits) go to :func:`_parse_rows`, and so do chunks
    with an empty line, which the parser would skip (warning when no row is
    left) after parsing the rest for nothing.
    """
    if "\n" in chunk:
        return None
    try:
        block = np.loadtxt(chunk, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(chunk), FIELD_COUNT) or any(map("".join(chunk).__contains__, _FLOAT_REFUSED)):
        return None
    return block


def _checked_keys(path, line_nos, lines: list[str], block: np.ndarray):
    """The rows of a block before the first whose frame or id is not an
    integer of magnitude below 2**53 (so exact in float64), and the ParseError
    for that row, or None; the error quotes the fields of its stripped line."""
    keys = block[:, :2]
    integral = (np.isfinite(keys) & (np.floor(keys) == keys)).all(axis=1)
    # from 2**53 on, neighbouring integers parse to the same float64
    exact = (np.abs(keys) < 2**53).all(axis=1)
    if (integral & exact).all():
        return block, None
    n = _first(~(integral & exact))
    fields = lines[n].strip().split(",")
    rule = "be integral" if not integral[n] else "lie below 2**53 in magnitude"
    return block[:n], ParseError(
        path, int(line_nos[n]), f"frame and id must {rule}, got {fields[0]!r}, {fields[1]!r}"
    )


def _read_rows(path):
    """Yield ``(line_nos, block)`` for the non-blank lines of a file, in chunks.

    ``block`` is an ``(n, 10)`` float64 array whose frame and id columns
    hold integers of magnitude below 2**53 (so each is exact); ``line_nos``
    holds the 1-based line number of each row.  Each chunk goes through
    numpy's C parser, and through :func:`_parse_rows` when that declines it.
    At the first malformed line the rows before it are yielded and then
    ParseError is raised (never a bare decode/conversion error), so arbitrary
    bytes are tolerated up to that point.  At most :data:`CHUNK_LINES` lines
    are held at once.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            read = 0
            while chunk := list(islice(fh, CHUNK_LINES)):
                block = _loadtxt_block(chunk)
                if block is None:
                    stripped = list(map(str.strip, chunk))
                    line_nos = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped))) + read + 1
                    lines = list(filter(None, stripped))
                    block, error = _parse_rows(path, line_nos, lines)
                else:
                    line_nos, lines, error = np.arange(read + 1, read + len(chunk) + 1), chunk, None
                read += len(chunk)
                block, key_error = _checked_keys(path, line_nos, lines, block)
                error = key_error or error  # a key error lies before any structural one
                if len(block):
                    yield line_nos[: len(block)], block
                if error is not None:
                    raise error
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _read_block(path):
    """Every row of a file as one ``(n, 10)`` block, its line numbers, and the
    ParseError that ended the read early (None when the whole file parsed)."""
    blocks, line_nos, error = [], [], None
    try:
        for nos, block in _read_rows(path):
            line_nos.append(nos)
            blocks.append(block)
    except ParseError as exc:
        error = exc
    if not blocks:
        return np.zeros((0, FIELD_COUNT)), np.zeros(0, np.intp), error
    return np.concatenate(blocks), np.concatenate(line_nos), error


def iter_records(path):
    """Yield ``(line_no, MotRecord)`` for every non-blank line of a file.

    Raises ParseError (never a bare decode/conversion error) for malformed
    rows; arbitrary bytes in the file are tolerated up to the point where a
    row fails to parse.
    """
    for line_nos, block in _read_rows(path):
        for line_no, row in zip(line_nos.tolist(), block.tolist()):
            yield line_no, MotRecord(int(row[0]), int(row[1]), *row[2:])


def _finite(block: np.ndarray) -> np.ndarray:
    """Rows whose box and confidence fields are finite."""
    return np.isfinite(block[:, 2:7]).all(axis=1)


def _usable(block: np.ndarray, xyah: np.ndarray) -> np.ndarray:
    """Rows whose box and confidence fields are finite, whose box has positive
    size, and whose corner form (:func:`~sctrack.geometry.xyah_to_corners`)
    has positive area and a width, height and area with finite squares, so
    the overlap and shape distance of the box with any other are defined."""
    with np.errstate(all="ignore"):
        x1, y1, x2, y2 = xyah_to_corners(xyah).T
        sides = np.array([x2 - x1, y2 - y1, (x2 - x1) * (y2 - y1)])  # width, height, area
        squares_finite = np.isfinite(np.square(sides)).all(axis=0)
    return _finite(block) & (block[:, 4] > 0) & (block[:, 5] > 0) & (sides[2] > 0) & squares_finite


def _xyah(block: np.ndarray) -> np.ndarray:
    """``(n, 4)`` rows ``[x, y, w / h, h]`` of the tlwh columns."""
    with np.errstate(all="ignore"):  # rows that cannot form a box are masked by the caller
        return np.column_stack((block[:, 2], block[:, 3], block[:, 4] / block[:, 5], block[:, 5]))


def _unformed(xyah: np.ndarray) -> np.ndarray:
    """Rows of finite positive size whose aspect ratio over- or underflows."""
    aspect = xyah[:, 2]
    return ~(np.isfinite(aspect) & (aspect > 0))


def _raise_first(path, line_nos, checks, xyah, error) -> None:
    """Raise for the first row, in file order, that fails a check, else ``error``.

    ``checks`` is a list of ``(mask, message of row i)`` in precedence order;
    its last mask marks rows whose box cannot form, and for those the
    ValueError of building the :class:`BoundingBox` is raised, as the object
    readers always have.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        n = int(bad.argmax())
        message = next(message for mask, message in checks if mask[n])
        if message is None:
            BoundingBox(*xyah[n].tolist())  # raises, naming the fields
        raise ParseError(path, int(line_nos[n]), message(n))
    if error is not None:
        raise error


def _by_frame(frames: np.ndarray, *columns) -> dict:
    """frame -> tuple of the column slices of its rows, frames ascending and
    rows in file order within a frame."""
    order = np.argsort(frames, kind="stable")
    keys, sizes = np.unique(frames[order], return_counts=True)
    parts = [split(column[order], sizes) for column in columns]
    return dict(zip(map(int, keys.tolist()), zip(*parts)))


def read_detections(path) -> dict[int, np.ndarray]:
    """Read a detection file as frame -> ``(n, 5)`` block ``[x, y, a, h, score]``.

    Rows with non-positive box sizes or corner-form areas, non-finite values
    or a frame below 1 are rejected; confidences outside [0, 1] are clamped.
    One warning is logged with both counts when either is non-zero.  The id
    column is ignored.  Frames are returned in ascending order, rows in file
    order.
    """
    block, line_nos, error = _read_block(path)
    xyah = _xyah(block)
    keep = _usable(block, xyah) & (block[:, 0] >= 1)
    _raise_first(path, line_nos, [(keep & _unformed(xyah), None)], xyah, error)
    conf = block[keep, 6]
    low, high = conf < 0.0, conf > 1.0
    rejected, clamped = len(keep) - len(conf), int(np.count_nonzero(low | high))
    if rejected or clamped:
        logger.warning("%s: rejected %d row(s), clamped %d confidence value(s)", path, rejected, clamped)
    conf = np.where(low, 0.0, np.where(high, 1.0, conf))
    rows = np.column_stack((xyah[keep], conf))
    return {frame: part for frame, (part,) in _by_frame(block[keep, 0], rows).items()}


def read_ground_truth_blocks(path) -> dict[int, FrameBoxes]:
    """Read a ground-truth file as frame -> :class:`FrameBoxes`.

    Ids must be >= 1 and unique per frame.  ``scores`` holds the consider
    flag (the ``conf`` column in the shared layout): 0 marks a row that
    should not take part in evaluation.
    """
    block, line_nos, error = _read_block(path)
    frames, ids = block[:, 0], block[:, 1].astype(np.int64)
    xyah = _xyah(block)
    geometry_ok = _usable(block, xyah) & (frames >= 1)
    _raise_first(
        path,
        line_nos,
        [
            (ids < 1, lambda n: f"ground-truth id must be >= 1, got {int(ids[n])}"),
            (repeated(frames, ids), lambda n: f"duplicate (frame, id) pair {(int(frames[n]), int(ids[n]))}"),
            (~geometry_ok, lambda n: "ground-truth row has invalid frame or box geometry"),
            (_unformed(xyah), None),
        ],
        xyah,
        error,
    )
    return {
        frame: FrameBoxes(*parts)
        for frame, parts in _by_frame(frames, ids, xyah, block[:, 6]).items()
    }


def read_ground_truth(path) -> dict[int, list[GroundTruthEntry]]:
    """:func:`read_ground_truth_blocks` with each row as a :class:`GroundTruthEntry`;
    rows whose consider flag is 0 have ``evaluable=False``."""
    return {
        frame: list(
            map(GroundTruthEntry, ids.tolist(), map(BoundingBox, *xyah.T.tolist()), (scores != 0).tolist())
        )
        for frame, (ids, xyah, scores) in read_ground_truth_blocks(path).items()
    }


def read_results(path) -> dict[int, FrameBoxes]:
    """Read a tracker result file as frame -> :class:`FrameBoxes`.

    Rows with a non-positive width, height or corner-form area are skipped;
    a row with a non-finite field, or one that repeats an id within its
    frame, raises ParseError.  Frames are returned in ascending order.
    """
    block, line_nos, error = _read_block(path)
    frames, ids = block[:, 0], block[:, 1].astype(np.int64)
    xyah = _xyah(block)
    kept = _usable(block, xyah)
    repeats = np.zeros(len(block), bool)
    repeats[kept] = repeated(frames[kept], ids[kept])
    _raise_first(
        path,
        line_nos,
        [
            (~_finite(block), lambda n: "result row has a non-finite box or confidence field"),
            (repeats, lambda n: f"frame {int(frames[n])} repeats id {int(ids[n])}"),
            (kept & _unformed(xyah), None),
        ],
        xyah,
        error,
    )
    return {
        frame: FrameBoxes(*parts)
        for frame, parts in _by_frame(frames[kept], ids[kept], xyah[kept], block[kept, 6]).items()
    }


def _write_rows(path, rows: Iterable[tuple]) -> None:
    """Write ``(frame, id, left, top, width, height, conf)`` rows in
    :data:`LINE_FORMAT`, one line each, in order.

    Each run of :data:`CHUNK_LINES` rows is formatted by one ``%`` call.
    """
    rows = iter(rows)
    line = LINE_FORMAT + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            while chunk := list(islice(rows, CHUNK_LINES)):
                fh.write((line * len(chunk)) % tuple(chain.from_iterable(chunk)))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_blocks(path, frames: list, blocks: list[FrameBoxes]) -> None:
    """Write per-frame blocks as lines ``frame, id, tlwh, score, -1, -1, -1``."""
    _write_rows(path, _block_rows(frames, blocks))


def _block_rows(frames: list, blocks: list[FrameBoxes]):
    """Yield the rows of :func:`_write_rows` of per-frame blocks, converting
    :data:`CHUNK_LINES` rows at a time to Python values."""
    if not blocks:
        return
    ids, xyah, scores = (np.concatenate(column) for column in zip(*blocks))
    x, y, a, h = xyah.T
    frame = chain.from_iterable(map(repeat, frames, [len(b.ids) for b in blocks]))
    columns = (ids, x, y, a * h, h, scores)
    for start in range(0, len(ids), CHUNK_LINES):
        chunk = [column[start : start + CHUNK_LINES].tolist() for column in columns]
        yield from zip(islice(frame, len(chunk[0])), *chunk)


def write_results(path, results: Iterable) -> None:
    """Write tracker outputs (:class:`~sctrack.tracker.FrameResult`) as a
    MOTChallenge result file, frames ascending."""
    results = sorted(results, key=lambda r: r.frame_index)
    _write_blocks(path, [r.frame_index for r in results], [r.boxes for r in results])


def write_detections(path, detections_by_frame) -> None:
    """Write per-frame detections (``(n, 5)`` blocks or :class:`Detection`
    lists) as a MOTChallenge det file (id column -1)."""
    frames = sorted(detections_by_frame)
    blocks = [detection_block(detections_by_frame[frame]) for frame in frames]
    _write_blocks(path, frames, [FrameBoxes(np.full(len(b), -1), b[:, :4], b[:, 4]) for b in blocks])


def write_ground_truth(path, gt_by_frame) -> None:
    """Write per-frame ground truth: ``(id, box)`` pairs with the consider
    flag set, or :class:`FrameBoxes` whose scores are the flag."""
    frames = sorted(gt_by_frame)
    _write_blocks(path, frames, [frame_boxes(gt_by_frame[frame]) for frame in frames])
