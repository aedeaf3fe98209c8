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
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .geometry import BoundingBox, Detection
from .tracker import FrameResult

logger = logging.getLogger(__name__)

FIELD_COUNT = 10


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


def _parse_line(path, line_no: int, line: str) -> MotRecord:
    fields = line.split(",")
    if len(fields) != FIELD_COUNT:
        raise ParseError(path, line_no, f"expected {FIELD_COUNT} comma-separated fields, got {len(fields)}")
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ParseError(path, line_no, f"non-numeric field in row: {line!r}") from None
    try:
        frame = int(values[0])
        track_id = int(values[1])
    except (ValueError, OverflowError):
        raise ParseError(path, line_no, f"frame and id must be integral, got {fields[0]!r}, {fields[1]!r}") from None
    if frame != values[0] or track_id != values[1]:
        raise ParseError(path, line_no, f"frame and id must be integral, got {fields[0]!r}, {fields[1]!r}")
    return MotRecord(frame, track_id, *values[2:])


def iter_records(path):
    """Yield ``(line_no, MotRecord)`` for every non-blank line of a file.

    Raises ParseError (never a bare decode/conversion error) for malformed
    rows; arbitrary bytes in the file are tolerated up to the point where a
    row fails to parse.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                yield line_no, _parse_line(path, line_no, line)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _finite_box_fields(record: MotRecord) -> bool:
    return all(
        math.isfinite(v)
        for v in (record.bb_left, record.bb_top, record.bb_width, record.bb_height, record.conf)
    )


def scan_detections(path) -> tuple[dict[int, list[Detection]], ParseStats]:
    """Read a detection file, returning per-frame detections plus counters.

    Rows with non-positive box sizes or non-finite values are rejected and
    counted; confidences outside [0, 1] are clamped and counted.  The id
    column is ignored.  Frames are returned in ascending order.
    """
    by_frame: dict[int, list[Detection]] = {}
    stats = ParseStats()
    for line_no, record in iter_records(path):
        if not _finite_box_fields(record) or record.bb_width <= 0 or record.bb_height <= 0 or record.frame < 1:
            stats.rejected_rows += 1
            continue
        conf = record.conf
        if conf < 0.0 or conf > 1.0:
            conf = min(max(conf, 0.0), 1.0)
            stats.clamped_scores += 1
        box = BoundingBox.from_tlwh(record.bb_left, record.bb_top, record.bb_width, record.bb_height)
        by_frame.setdefault(record.frame, []).append(Detection(box=box, score=conf))
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
    for line_no, record in iter_records(path):
        if record.track_id < 1:
            raise ParseError(path, line_no, f"ground-truth id must be >= 1, got {record.track_id}")
        key = (record.frame, record.track_id)
        if key in seen:
            raise ParseError(path, line_no, f"duplicate (frame, id) pair {key}")
        seen.add(key)
        if not _finite_box_fields(record) or record.bb_width <= 0 or record.bb_height <= 0 or record.frame < 1:
            raise ParseError(path, line_no, "ground-truth row has invalid frame or box geometry")
        box = BoundingBox.from_tlwh(record.bb_left, record.bb_top, record.bb_width, record.bb_height)
        by_frame.setdefault(record.frame, []).append(
            GroundTruthEntry(track_id=record.track_id, box=box, evaluable=record.conf != 0)
        )
    return dict(sorted(by_frame.items()))


def read_results(path) -> dict[int, list[tuple[int, BoundingBox]]]:
    """Read a tracker result file as frame -> ``(track id, box)`` pairs.

    Rows with a non-positive width or height are skipped; a row with a
    non-finite field, or one that repeats an id within its frame, raises
    ParseError.  Frames are returned in ascending order.
    """
    by_frame: dict[int, list[tuple[int, BoundingBox]]] = {}
    seen: set[tuple[int, int]] = set()
    for line_no, record in iter_records(path):
        if not _finite_box_fields(record):
            raise ParseError(path, line_no, "result row has a non-finite box or confidence field")
        if record.bb_width <= 0 or record.bb_height <= 0:
            continue
        key = (record.frame, record.track_id)
        if key in seen:
            raise ParseError(path, line_no, f"frame {record.frame} repeats id {record.track_id}")
        seen.add(key)
        box = BoundingBox.from_tlwh(record.bb_left, record.bb_top, record.bb_width, record.bb_height)
        by_frame.setdefault(record.frame, []).append((record.track_id, box))
    return dict(sorted(by_frame.items()))


def write_records(path, records: Iterable[MotRecord]) -> None:
    """Write records in the canonical line format, in the given order."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(format_record(record) + "\n")
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
