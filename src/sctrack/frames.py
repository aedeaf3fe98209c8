"""The array form of one frame, shared by the readers, the tracker, the
evaluator and the writers.

Detections are an ``(n, 5)`` float64 block of rows ``[x, y, a, h, score]``.
Boxes with ids (tracker outputs, ground truth, results) are a
:class:`FrameBoxes`: ``ids`` ``(k,)``, ``xyah`` ``(k, 4)`` and ``scores``
``(k,)``.  The per-box objects of :mod:`sctrack.geometry` stay the public
building blocks; the blocks are what travels from a file to a score.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import BoundingBox, Detection

DETECTION_COLUMNS = 5


def _fields_block(rows: list, columns: int) -> np.ndarray:
    """An ``(n, columns)`` float64 block of ``n`` rows of numbers, filled by
    one ``np.fromiter`` over their flattened fields (bitwise what
    ``np.array(rows, np.float64)`` gives, without its per-row parse)."""
    return np.fromiter(chain.from_iterable(rows), np.float64, columns * len(rows)).reshape(-1, columns)


class FrameBoxes(NamedTuple):
    """One frame's boxes with ids, one row per box.

    ``ids`` holds int64 ids, whether a reader, the tracker or :meth:`of`
    built the block.  ``xyah`` holds float64 rows ``[x, y, a, h]``;
    ``scores`` holds the confidence, or for ground truth the consider flag.
    """

    ids: np.ndarray
    xyah: np.ndarray
    scores: np.ndarray

    @classmethod
    def of(cls, ids, boxes, scores=None) -> FrameBoxes:
        """A block from sequences of ids and :class:`BoundingBox` objects;
        scores default to 1."""
        ids = np.array(ids, dtype=np.int64)
        xyah = _fields_block([(b.x, b.y, b.a, b.h) for b in boxes], 4)
        scores = np.ones(len(ids)) if scores is None else np.array(scores, dtype=np.float64)
        return cls(ids, xyah, scores)

    def select(self, mask) -> FrameBoxes:
        """The rows a boolean mask (or index array) picks."""
        return FrameBoxes(self.ids[mask], self.xyah[mask], self.scores[mask])


NO_BOXES = FrameBoxes(np.zeros(0, np.int64), np.zeros((0, 4)), np.zeros(0))


def frame_boxes(rows) -> FrameBoxes:
    """A :class:`FrameBoxes` as it is, or one built from ``(id, BoundingBox)``
    entries (extra trailing elements are ignored; scores are 1)."""
    if isinstance(rows, FrameBoxes):
        return rows
    rows = list(rows)
    return FrameBoxes.of([row[0] for row in rows], [row[1] for row in rows])


def detection_block(detections) -> np.ndarray:
    """Detections as one checked ``(n, 5)`` float64 block ``[x, y, a, h, score]``.

    Takes such a block, or an iterable of :class:`Detection` (any other item
    raises TypeError).  A block is checked as a whole first: the first row
    that a ``Detection`` could not hold (non-finite field, ``a <= 0``,
    ``h <= 0``, score outside [0, 1]) raises the ValueError building one raises.
    """
    if isinstance(detections, np.ndarray):
        block = np.asarray(detections, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != DETECTION_COLUMNS:
            raise ValueError(f"detection block must have shape (n, {DETECTION_COLUMNS}), got {block.shape}")
        score = block[:, 4]
        if len(block) and not (
            np.isfinite(block).all() and block[:, 2:4].min() > 0 and score.min() >= 0 and score.max() <= 1
        ):
            ok = np.isfinite(block).all(axis=1) & (block[:, 2:4] > 0).all(axis=1) & (score >= 0) & (score <= 1)
            x, y, a, h, s = block[int(np.argmin(ok))].tolist()
            Detection(BoundingBox(x, y, a, h), s)  # raises, naming the fields
        return block
    detections = list(detections)
    for det in detections:
        if not isinstance(det, Detection):
            raise TypeError(f"expected Detection, got {type(det).__name__}")
    rows = [(d.box.x, d.box.y, d.box.a, d.box.h, d.score) for d in detections]
    return _fields_block(rows, DETECTION_COLUMNS)


def split(rows, sizes) -> list:
    """Consecutive slices of an array or list with the given lengths
    (``np.split`` without its per-piece overhead)."""
    ends = np.cumsum(sizes).tolist()
    return [rows[start:end] for start, end in zip([0, *ends], ends)]


def repeated(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Mask of the rows whose ``(major, minor)`` key equals an earlier row's."""
    order = np.lexsort((np.arange(len(major)), minor, major))
    major, minor = major[order], minor[order]
    same = (major[1:] == major[:-1]) & (minor[1:] == minor[:-1])
    mask = np.zeros(len(order), bool)
    mask[order[1:][same]] = True
    return mask
