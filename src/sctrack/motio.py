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
from dataclasses import dataclass
from itertools import islice, repeat
from operator import truediv
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .geometry import BoundingBox, Detection
from .tracker import FrameResult

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


@dataclass
class ParseStats:
    """Counters for tolerated irregularities encountered while reading."""

    rejected_rows: int = 0
    clamped_scores: int = 0


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


def format_record(record: MotRecord) -> str:
    """One canonical CSV line (no newline) for a record."""
    return (
        f"{record.frame},{record.track_id},"
        f"{record.bb_left:.2f},{record.bb_top:.2f},"
        f"{record.bb_width:.2f},{record.bb_height:.2f},"
        f"{record.conf:.4f},{record.x:.0f},{record.y:.0f},{record.z:.0f}"
    )


def _first(mask) -> int:
    """Index of the first true entry of a boolean mask, or its length."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _parse_rows(path, line_nos, lines: list[str]):
    """Parse stripped non-blank lines into an ``(n, 10)`` float64 block.

    Returns the block of the rows before the first malformed line and the
    ParseError for that line, or None when every line parses.
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
    keys = block[:, :2]
    integral = (np.isfinite(keys) & (np.floor(keys) == keys)).all(axis=1)
    if not integral.all():
        n = _first(~integral)
        fields = lines[n].split(",")
        error = ParseError(
            path, int(line_nos[n]), f"frame and id must be integral, got {fields[0]!r}, {fields[1]!r}"
        )
        block = block[:n]
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


def _read_rows(path):
    """Yield ``(line_nos, block)`` for the non-blank lines of a file, in chunks.

    ``block`` is an ``(n, 10)`` float64 array whose frame and id columns are
    finite and integral; ``line_nos`` holds the 1-based line number of each
    row.  At the first malformed line the rows before it are yielded and then
    ParseError is raised (never a bare decode/conversion error), so arbitrary
    bytes are tolerated up to that point.  At most :data:`CHUNK_LINES` lines
    are held at once.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            read = 0
            while chunk := list(islice(fh, CHUNK_LINES)):
                stripped = list(map(str.strip, chunk))
                line_nos = np.flatnonzero(np.fromiter(map(bool, stripped), bool, len(stripped))) + read + 1
                read += len(chunk)
                block, error = _parse_rows(path, line_nos, list(filter(None, stripped)))
                if len(block):
                    yield line_nos[: len(block)], block
                if error is not None:
                    raise error
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _ints(column: np.ndarray) -> list[int]:
    return list(map(int, column.tolist()))


def _boxes(block: np.ndarray) -> Iterator[BoundingBox]:
    """Boxes from the tlwh columns in row order, as :meth:`BoundingBox.from_tlwh` builds them."""
    x, y, w, h = block[:, 2:6].T.tolist()
    return map(BoundingBox, x, y, map(truediv, w, h), h)


def _finite(block: np.ndarray) -> np.ndarray:
    """Rows whose box and confidence fields are finite."""
    return np.isfinite(block[:, 2:7]).all(axis=1)


def _usable(block: np.ndarray) -> np.ndarray:
    """Rows whose box and confidence fields are finite and whose box has positive size."""
    return _finite(block) & (block[:, 4] > 0) & (block[:, 5] > 0)


def _repeats(keys, seen: set) -> np.ndarray:
    """Mask of keys already in ``seen`` or earlier in ``keys``; adds them to ``seen``."""
    return np.fromiter((key in seen or seen.add(key) for key in keys), bool, len(keys))


def iter_records(path):
    """Yield ``(line_no, MotRecord)`` for every non-blank line of a file.

    Raises ParseError (never a bare decode/conversion error) for malformed
    rows; arbitrary bytes in the file are tolerated up to the point where a
    row fails to parse.
    """
    for line_nos, block in _read_rows(path):
        for line_no, row in zip(line_nos.tolist(), block.tolist()):
            yield line_no, MotRecord(int(row[0]), int(row[1]), *row[2:])


def scan_detections(path) -> tuple[dict[int, list[Detection]], ParseStats]:
    """Read a detection file, returning per-frame detections plus counters.

    Rows with non-positive box sizes or non-finite values are rejected and
    counted; confidences outside [0, 1] are clamped and counted.  The id
    column is ignored.  Frames are returned in ascending order.
    """
    by_frame: dict[int, list[Detection]] = {}
    stats = ParseStats()
    for _, block in _read_rows(path):
        keep = _usable(block) & (block[:, 0] >= 1)
        block = block[keep]
        stats.rejected_rows += len(keep) - len(block)
        conf = block[:, 6]
        low, high = conf < 0.0, conf > 1.0
        stats.clamped_scores += int(np.count_nonzero(low | high))
        conf = np.where(low, 0.0, np.where(high, 1.0, conf))
        for frame, box, score in zip(_ints(block[:, 0]), _boxes(block), conf.tolist()):
            by_frame.setdefault(frame, []).append(Detection(box=box, score=score))
    if stats.rejected_rows or stats.clamped_scores:
        logger.warning(
            "%s: rejected %d row(s), clamped %d confidence value(s)",
            path, stats.rejected_rows, stats.clamped_scores,
        )
    return dict(sorted(by_frame.items())), stats


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a MOTChallenge detection file grouped by frame."""
    return scan_detections(path)[0]


def read_ground_truth(path) -> dict[int, list[GroundTruthEntry]]:
    """Read a ground-truth file; ids must be >= 1 and unique per frame.

    The consider flag (the ``conf`` column in the shared layout) marks rows
    that should not take part in evaluation; they are returned with
    ``evaluable=False`` so the caller can exclude them.
    """
    by_frame: dict[int, list[GroundTruthEntry]] = {}
    seen: set[tuple[int, int]] = set()
    for line_nos, block in _read_rows(path):
        frames, ids = _ints(block[:, 0]), _ints(block[:, 1])
        bad_id = block[:, 1] < 1
        repeated = _repeats(list(zip(frames, ids)), seen)
        bad_geometry = ~(_usable(block) & (block[:, 0] >= 1))
        n = _first(bad_id | repeated | bad_geometry)
        rows = zip(frames[:n], ids[:n], _boxes(block[:n]), (block[:n, 6] != 0).tolist())
        for frame, track_id, box, evaluable in rows:
            by_frame.setdefault(frame, []).append(GroundTruthEntry(track_id, box, evaluable))
        if n == len(block):
            continue
        if bad_id[n]:
            message = f"ground-truth id must be >= 1, got {ids[n]}"
        elif repeated[n]:
            message = f"duplicate (frame, id) pair {(frames[n], ids[n])}"
        else:
            message = "ground-truth row has invalid frame or box geometry"
        raise ParseError(path, int(line_nos[n]), message)
    return dict(sorted(by_frame.items()))


def read_results(path) -> dict[int, list[tuple[int, BoundingBox]]]:
    """Read a tracker result file as frame -> ``(track id, box)`` pairs.

    Rows with a non-positive width or height are skipped; a row with a
    non-finite field, or one that repeats an id within its frame, raises
    ParseError.  Frames are returned in ascending order.
    """
    by_frame: dict[int, list[tuple[int, BoundingBox]]] = {}
    seen: set[tuple[int, int]] = set()
    for line_nos, block in _read_rows(path):
        finite = _finite(block)
        kept = np.flatnonzero(_usable(block))
        frames, ids = _ints(block[kept, 0]), _ints(block[kept, 1])
        repeated = np.zeros(len(block), bool)
        repeated[kept] = _repeats(list(zip(frames, ids)), seen)
        n = _first(~finite | repeated)
        k = int(np.searchsorted(kept, n))
        for frame, track_id, box in zip(frames[:k], ids[:k], _boxes(block[kept[:k]])):
            by_frame.setdefault(frame, []).append((track_id, box))
        if n == len(block):
            continue
        if not finite[n]:
            message = "result row has a non-finite box or confidence field"
        else:
            message = f"frame {frames[k]} repeats id {ids[k]}"
        raise ParseError(path, int(line_nos[n]), message)
    return dict(sorted(by_frame.items()))


def write_records(path, records: Iterable[MotRecord]) -> None:
    """Write records in the canonical line format, in the given order."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(format_record(record) + "\n" for record in records))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_results(path, results: Iterable[FrameResult]) -> None:
    """Write tracker outputs as a MOTChallenge result file, frames ascending."""
    records = []
    for frame_result in sorted(results, key=lambda r: r.frame_index):
        for out in frame_result.outputs:
            x, y, w, h = out.box.to_tlwh()
            records.append(
                MotRecord(frame_result.frame_index, out.track_id, x, y, w, h, out.score)
            )
    write_records(path, records)


def write_detections(path, detections_by_frame: dict[int, list[Detection]]) -> None:
    """Write per-frame detections as a MOTChallenge det file (id column -1)."""
    records = []
    for frame in sorted(detections_by_frame):
        for det in detections_by_frame[frame]:
            x, y, w, h = det.box.to_tlwh()
            records.append(MotRecord(frame, -1, x, y, w, h, det.score))
    write_records(path, records)


def write_ground_truth(path, gt_by_frame) -> None:
    """Write per-frame ``(id, box)`` ground truth with the consider flag set."""
    records = []
    for frame in sorted(gt_by_frame):
        for track_id, box in gt_by_frame[frame]:
            x, y, w, h = box.to_tlwh()
            records.append(MotRecord(frame, int(track_id), x, y, w, h, 1.0))
    write_records(path, records)
