"""Axis-aligned bounding boxes and overlap-based association distances.

Boxes are stored the way the motion filter consumes them: top-left corner
``(x, y)``, aspect ratio ``a = w / h`` and height ``h``.  All overlap math
converts to corner form ``(x1, y1, x2, y2)`` internally; the conversions are
exact up to floating-point rounding.

The association distance is an IoU distance augmented with two shape
penalties: a squared height difference and a squared area difference, each
normalized by the corresponding dimension of the minimum enclosing rectangle
of the two boxes.  Two boxes with identical overlap but different shapes get
different distances, which is what keeps a track from latching onto a
similarly-placed but differently-shaped detection.

Both terms are non-negative, so two boxes that do not overlap are at least 1
apart, and a gate below 1 admits only overlapping pairs.
:func:`overlapping_pairs` finds those without the ``(M, N)`` matrix, and
:func:`paired_shape_iou_distance` and :func:`paired_iou` cost them with the
same formulas as :func:`pairwise_shape_iou_distance` and :func:`pairwise_iou`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# stabilizes the shape-penalty denominators
DEFAULT_EPSILON = 1e-7


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box: top-left corner, aspect ratio (w/h) and height.

    Width is derived as ``w = a * h``.  Both ``a`` and ``h`` must be
    strictly positive, so every valid box has positive area.
    """

    x: float
    y: float
    a: float
    h: float

    def __post_init__(self):
        if not (
            math.isfinite(self.x) and math.isfinite(self.y)
            and math.isfinite(self.a) and math.isfinite(self.h)
        ):
            raise ValueError(f"box fields must be finite, got {self!r}")
        if self.a <= 0 or self.h <= 0:
            raise ValueError(f"box requires a > 0 and h > 0, got a={self.a}, h={self.h}")

    @classmethod
    def from_tlwh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        """Build a box from top-left corner plus width and height."""
        if not (w > 0 and h > 0):
            raise ValueError(f"box requires w > 0 and h > 0, got w={w}, h={h}")
        return cls(float(x), float(y), float(w) / float(h), float(h))

    @property
    def w(self) -> float:
        return self.a * self.h

    def to_tlwh(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    def to_corners(self) -> tuple[float, float, float, float]:
        """Corner form ``(x1, y1, x2, y2)`` with ``x2 = x + w``, ``y2 = y + h``."""
        return (self.x, self.y, self.x + self.w, self.y + self.h)


@dataclass(frozen=True, slots=True)
class Detection:
    """A detector output: bounding box plus confidence score in [0, 1]."""

    box: BoundingBox
    score: float

    def __post_init__(self):
        if not (isinstance(self.score, (int, float)) and 0.0 <= self.score <= 1.0):
            raise ValueError(f"detection score must lie in [0, 1], got {self.score!r}")


def boxes_to_corners(boxes) -> np.ndarray:
    """Stack boxes into an ``(N, 4)`` float64 corner array."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.array([b.to_corners() for b in boxes], dtype=np.float64)


def xyah_to_corners(rows: np.ndarray) -> np.ndarray:
    """``(N, 4)`` rows of ``[x, y, a, h]`` to corner form, as :meth:`BoundingBox.to_corners`.

    Rows are not validated; a row with ``a <= 0`` or ``h <= 0`` gives a
    degenerate or inverted box.
    """
    corners = np.array(rows, dtype=np.float64).reshape(-1, 4)
    corners[:, 2] = corners[:, 0] + corners[:, 2] * corners[:, 3]
    corners[:, 3] += corners[:, 1]
    return corners


def _overlap(a, b):
    """IoU of two corner operands whose leading axes broadcast together, plus
    the intermediates the shape terms reuse: the heights and the areas.

    Every quantity reads ``[..., k]``, so one formula serves row-aligned
    ``(k, 4)`` pairs and the pairwise ``(M, 1, 4)`` / ``(1, N, 4)`` views, and
    gives the same bits for a pair either way.
    """
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    h_a = a[..., 3] - a[..., 1]
    h_b = b[..., 3] - b[..., 1]
    area_a = (a[..., 2] - a[..., 0]) * h_a
    area_b = (b[..., 2] - b[..., 0]) * h_b
    # valid boxes have positive area, so the union is always positive
    return inter / (area_a + area_b - inter), h_a, h_b, area_a, area_b


def _shape_distance(a, b, use_height_term: bool, use_area_term: bool):
    """The shape-aware IoU distance of two corner operands, as :func:`_overlap` takes them."""
    overlap, h_a, h_b, area_a, area_b = _overlap(a, b)
    dist = 1.0 - overlap
    if use_height_term or use_area_term:
        # each difference is divided by its normalizer before it is squared:
        # what is squared is a ratio of at most 1, which cannot overflow
        enclosing_h = np.maximum(a[..., 3], b[..., 3]) - np.minimum(a[..., 1], b[..., 1])
        if use_height_term:
            dist = dist + ((h_a - h_b) / (enclosing_h + DEFAULT_EPSILON)) ** 2
        if use_area_term:
            enclosing_w = np.maximum(a[..., 2], b[..., 2]) - np.minimum(a[..., 0], b[..., 0])
            # far-apart extents can overflow the enclosing area to inf, where
            # the term takes its limit 0
            with np.errstate(over="ignore"):
                enclosing_area = enclosing_w * enclosing_h
            dist = dist + ((area_a - area_b) / (enclosing_area + DEFAULT_EPSILON)) ** 2
    return dist


def _pairwise(corners_a, corners_b):
    """The ``(M, 1, 4)`` and ``(1, N, 4)`` views that pair every row of two corner arrays."""
    a = np.asarray(corners_a, dtype=np.float64)
    b = np.asarray(corners_b, dtype=np.float64)
    return a[:, None, :], b[None, :, :]


def pairwise_iou(corners_a: np.ndarray, corners_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two corner arrays, shape ``(M, N)``.

    Boxes that only touch along an edge or corner have intersection area zero
    and therefore IoU zero.
    """
    m, n = len(corners_a), len(corners_b)
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.float64)
    return _overlap(*_pairwise(corners_a, corners_b))[0]


def pairwise_shape_iou_distance(
    corners_a: np.ndarray,
    corners_b: np.ndarray,
    *,
    use_height_term: bool = True,
    use_area_term: bool = True,
) -> np.ndarray:
    """Pairwise shape-aware IoU distance, shape ``(M, N)``.

    Each entry is ``1 - IoU`` plus, when enabled, the squared height and area
    differences of the pair normalized by the height / area of their minimum
    enclosing rectangle (stabilized by :data:`DEFAULT_EPSILON`).  With both
    terms off the distance reduces exactly to ``1 - IoU``.
    """
    m, n = len(corners_a), len(corners_b)
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.float64)
    return _shape_distance(*_pairwise(corners_a, corners_b), use_height_term, use_area_term)


def paired_shape_iou_distance(
    corners_a: np.ndarray,
    corners_b: np.ndarray,
    *,
    use_height_term: bool = True,
    use_area_term: bool = True,
) -> np.ndarray:
    """Shape-aware IoU distance of row-aligned corner arrays, shape ``(k,)``.

    Entry ``k`` is the distance of ``corners_a[k]`` and ``corners_b[k]``,
    bitwise the entry :func:`pairwise_shape_iou_distance` gives that pair.
    """
    return _shape_distance(
        np.asarray(corners_a, dtype=np.float64), np.asarray(corners_b, dtype=np.float64),
        use_height_term, use_area_term,
    )


def paired_iou(corners_a: np.ndarray, corners_b: np.ndarray) -> np.ndarray:
    """IoU of row-aligned corner arrays, shape ``(k,)``: entry ``k`` is bitwise
    the entry :func:`pairwise_iou` gives ``corners_a[k]`` and ``corners_b[k]``."""
    return _overlap(np.asarray(corners_a, dtype=np.float64), np.asarray(corners_b, dtype=np.float64))[0]


def overlapping_pairs(corners_a: np.ndarray, corners_b: np.ndarray, keys_a=None, keys_b=None):
    """Index arrays ``(rows, cols)`` of the pairs of a row of ``corners_a`` and
    a row of ``corners_b`` that may overlap: a superset of the pairs with
    positive IoU, found without forming the ``(M, N)`` matrix.

    A sort-and-sweep on x, then a y test: with ``b`` sorted by ``x1``, box
    ``a[i]`` can only overlap the ``b`` whose ``x1`` lies in
    ``[a.x1 - W, a.x2)``, ``W`` being the widest box of ``b`` (widened by one
    ulp, so that rounding cannot push an overlapping box out of the window);
    of those, the pairs whose y extents overlap are kept.  ``rows`` ascends.

    With integer row keys ``keys_a`` and ``keys_b`` (say, frame numbers), only
    pairs of equal keys are listed, the pairs each key's rows give on their
    own: ``b`` is sorted by ``(key, x1)``, ``W`` is the widest ``b`` of the
    key, and each window is searched within the rows of its own key,
    comparing the coordinates as they are.
    """
    a = np.asarray(corners_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(corners_b, dtype=np.float64).reshape(-1, 4)
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    if keys_a is None:
        widest = np.nextafter((b[:, 2] - b[:, 0]).max(), np.inf)
        order = np.argsort(b[:, 0], kind="stable")
        x1 = b[order, 0]
        lo = np.searchsorted(x1, a[:, 0] - widest, side="left")
        hi = np.searchsorted(x1, a[:, 2], side="left")
    else:
        # the widest box of each key; a row of a key that no b holds finds
        # no b whatever width it takes
        key_values, key_of_b = np.unique(keys_b, return_inverse=True)
        widest = np.full(len(key_values), -np.inf)
        np.maximum.at(widest, key_of_b, b[:, 2] - b[:, 0])
        key_of_a = np.minimum(np.searchsorted(key_values, keys_a), len(key_values) - 1)
        lo_x = a[:, 0] - np.nextafter(widest, np.inf)[key_of_a]
        order, lo, hi = _keyed_windows(keys_a, keys_b, lo_x, a[:, 2], b[:, 0])
    counts = hi - lo
    rows = np.repeat(np.arange(len(a)), counts)
    # the k-th candidate of row i sits at sorted position lo[i] + k
    starts = np.cumsum(counts) - counts
    cols = order[np.arange(len(rows)) + np.repeat(lo - starts, counts)]
    # keep the pairs whose y extents overlap too
    hit = (a[rows, 1] < b[cols, 3]) & (b[cols, 1] < a[rows, 3])
    return rows[hit], cols[hit]


def _keyed_windows(keys_a, keys_b, lo_x, hi_x, x1):
    """The order that sorts ``b`` by ``(key, x1)``, and for each row of ``a``
    the number of ``b`` rows below ``(key, lo_x)`` and below ``(key, hi_x)``
    in that order.

    The ``b`` rows and both bounds of every ``a`` row are sorted together by
    ``(key, x)``.  A bound's count is that of the ``b`` rows before the first
    entry equal to it, so that it holds whatever order the sort leaves ties in.
    """
    n_b, n_a = len(x1), len(lo_x)
    keys = np.concatenate([keys_b, keys_a, keys_a])
    values = np.concatenate([x1, lo_x, hi_x])
    by_value = np.argsort(values)
    merged = by_value[np.argsort(keys[by_value], kind="stable")]
    keys, values = keys[merged], values[merged]
    is_b = merged < n_b
    first = np.ones(len(merged), bool)
    first[1:] = (keys[1:] != keys[:-1]) | (values[1:] != values[:-1])
    run_start = np.maximum.accumulate(np.where(first, np.arange(len(merged)), 0))
    below = np.empty(len(merged), np.intp)
    below[merged] = (np.cumsum(is_b) - is_b)[run_start]
    return merged[is_b], below[n_b:n_b + n_a], below[n_b + n_a:]


def iou(b1: BoundingBox, b2: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    return float(pairwise_iou(boxes_to_corners([b1]), boxes_to_corners([b2]))[0, 0])


def shape_iou_distance(
    b1: BoundingBox, b2: BoundingBox, *, use_height_term: bool = True, use_area_term: bool = True
) -> float:
    """Shape-aware IoU distance between two boxes, in [0, 3]."""
    return float(
        pairwise_shape_iou_distance(
            boxes_to_corners([b1]), boxes_to_corners([b2]),
            use_height_term=use_height_term, use_area_term=use_area_term,
        )[0, 0]
    )


def cost_matrix(tracks, detections, *, use_height_term: bool = True, use_area_term: bool = True) -> np.ndarray:
    """Pairwise distance matrix between track boxes (rows) and detection boxes (cols).

    Either list may be empty; the result always has shape
    ``(len(tracks), len(detections))``.  Entries agree bitwise with
    :func:`shape_iou_distance` evaluated pairwise.
    """
    return pairwise_shape_iou_distance(
        boxes_to_corners(list(tracks)), boxes_to_corners(list(detections)),
        use_height_term=use_height_term, use_area_term=use_area_term,
    )
