"""Multi-object tracking evaluation: event counts, MOTA and identity-F1.

Per-frame correspondence between ground truth and hypotheses uses an IoU
threshold with match persistence: a pair matched in the previous frame is
kept while its IoU stays at or above the threshold, and only the remainder
is re-matched by minimum-cost assignment on ``1 - IoU``.  False positives
are unmatched hypotheses, false negatives unmatched ground-truth boxes, and
an identity switch is counted whenever a matched ground-truth object changes
hypothesis id relative to its last matched id.

``MOTA = 1 - (FN + FP + IDSW) / GT`` (can be negative).  IDF1 comes from a
single global bipartite matching between ground-truth and predicted ids that
maximizes the number of frame-wise overlapping (IoU above threshold)
box pairs: ``IDF1 = 2 * IDTP / (2 * IDTP + IDFP + IDFN)``.

One call does its geometry once for all frames.  Each input becomes one
table of rows (frame, id, corners); one candidate sweep keyed by frame
(:func:`~sctrack.geometry.overlapping_pairs`) lists the box pairs that can
overlap, and their IoU is computed row by row.  These pairs feed both the
event counts and the identity overlap counts.  A pair alone in its
ground-truth row and its hypothesis row is matched whatever the history, so
the persistence rule is replayed only in frames that hold a contested pair,
and only on those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assignment
from .frames import frame_boxes, repeated
from .geometry import overlapping_pairs, paired_iou, xyah_to_corners
# no longer called here, but kept importable from this module, where
# instrumentation that wraps the evaluator's overlap kernel looks it up
from .geometry import pairwise_iou  # noqa: F401

DEFAULT_IOU_MATCH_THRESH = 0.5


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation summary; ``mota`` and ``idf1`` are ratios (1.0 = 100%)."""

    mota: float
    idf1: float
    idsw: int
    fp: int
    fn: int
    gt_count: int
    matches: int

    CSV_HEADER = "mota,idf1,idsw,fp,fn,gt_count,matches"

    def to_text(self) -> str:
        """Human-readable key-value block, percentages for the ratio fields."""
        lines = [
            f"MOTA      {self.mota * 100:.2f}%",
            f"IDF1      {self.idf1 * 100:.2f}%",
            f"IDSW      {self.idsw}",
            f"FP        {self.fp}",
            f"FN        {self.fn}",
            f"GT        {self.gt_count}",
            f"Matches   {self.matches}",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Header plus one data line, machine-readable."""
        return (
            f"{self.CSV_HEADER}\n{self.mota:.6f},{self.idf1:.6f},{self.idsw},{self.fp},"
            f"{self.fn},{self.gt_count},{self.matches}"
        )


# ground-truth rows per block of whole frames in the candidate sweep, which
# bounds the size of its arrays on long sequences
_BLOCK_ROWS = 4096


def _frames(by_frame, source: str):
    """``(frames, sizes, ids, corners)`` over the frames of a map that hold
    boxes, frames ascending.

    Every frame is converted once; one vectorised test finds the first
    frame, in the map's order, that repeats an id, and one whole-table test
    the first box, in frame order, that is not finite with ``a, h > 0``.
    """
    frames, blocks = [], []
    for frame, rows in by_frame.items():
        block = frame_boxes(rows)
        if len(block.ids):
            frames.append(frame)
            blocks.append(block)
    if not blocks:
        return [], [], np.zeros(0, np.int64), np.zeros((0, 4))
    order = sorted(range(len(frames)), key=frames.__getitem__)
    frames, blocks = [frames[k] for k in order], [blocks[k] for k in order]
    sizes = [len(block.ids) for block in blocks]
    ids = np.concatenate([block.ids for block in blocks])
    frame_no = np.repeat(np.arange(len(blocks)), sizes)
    repeats = repeated(frame_no, ids)
    if repeats.any():
        n = min(np.flatnonzero(repeats).tolist(), key=lambda n: order[frame_no[n]])
        raise ValueError(f"{source} frame {frames[frame_no[n]]} repeats id {int(ids[n])}")
    xyah = np.concatenate([block.xyah for block in blocks])
    if not (np.isfinite(xyah).all() and xyah[:, 2:].min() > 0):
        n = int(np.argmin(np.isfinite(xyah).all(axis=1) & (xyah[:, 2:] > 0).all(axis=1)))
        raise ValueError(
            f"{source} frame {frames[frame_no[n]]} id {int(ids[n])}: box [x, y, a, h] = {xyah[n].tolist()} "
            "needs finite fields, a > 0 and h > 0"
        )
    return frames, sizes, ids, xyah_to_corners(xyah)


def evaluate(gt, results, iou_match_thresh: float = DEFAULT_IOU_MATCH_THRESH) -> MetricsReport:
    """Score tracking results against ground truth.

    A box pair is feasible when its boxes overlap and ``1 - IoU <= 1 -
    iou_match_thresh`` (the gate :func:`~sctrack.assignment.solve` applies);
    a pair matched in the previous frame is kept when ``IoU >=
    iou_match_thresh``.  The rest of a frame is matched for maximum
    cardinality, then minimum total ``1 - IoU``, by
    :func:`~sctrack.assignment.solve_pairs`.  Where two such matchings tie,
    the one taken may differ from a dense solve of the frame's matrix, and
    through persistence so may later frames' events; whenever each frame's
    optimum is unique, the report is that of a dense per-frame solve.

    Args:
        gt: map frame -> :class:`~sctrack.frames.FrameBoxes`, or iterable of
            ``(id, BoundingBox)`` (extra trailing tuple elements are ignored,
            so ground-truth file entries can be passed after filtering to the
            evaluable rows).
        results: map frame -> ``FrameBoxes`` or iterable of ``(id, BoundingBox)``.
        iou_match_thresh: minimum IoU for a gt/hypothesis correspondence, in (0, 1].

    Raises:
        ValueError: if ``iou_match_thresh`` is NaN or outside (0, 1], if the
            ground truth contains no boxes (the accuracy denominator would be
            undefined), if either input repeats an id within a frame (the
            correspondence would be ambiguous; the message names both), if
            a box has a non-finite field or ``a <= 0`` or ``h <= 0`` (the
            message names the side, frame and id), or if the IoU of two
            overlapping boxes is not a number.
    """
    if not 0.0 < iou_match_thresh <= 1.0:
        raise ValueError(f"iou_match_thresh must lie in (0, 1], got {iou_match_thresh}")
    gate = 1.0 - iou_match_thresh
    gt_ids, hyp_ids, frame, rows, cols, iou = _pairs(gt, results, gate)
    gt_count, hyp_count = len(gt_ids), len(hyp_ids)
    hit = iou >= iou_match_thresh
    # each id's rank among the distinct ids of its side
    g = np.unique(gt_ids, return_inverse=True)[1][rows]
    h = np.unique(hyp_ids, return_inverse=True)[1][cols]
    matched = _matched(frame, g * (hyp_count + 1) + h, hit, rows, cols, iou, gate)

    tp = int(np.count_nonzero(matched))
    fp, fn = hyp_count - tp, gt_count - tp
    # a switch is a change of hyp id between two consecutive matches of a gt;
    # pairs come in frame order, which the stable sort keeps within each gt
    g_seq, h_seq = g[matched], h[matched]
    by_gt = np.argsort(g_seq, kind="stable")
    g_seq, h_seq = g_seq[by_gt], h_seq[by_gt]
    idsw = int(np.count_nonzero((g_seq[1:] == g_seq[:-1]) & (h_seq[1:] != h_seq[:-1])))
    mota = 1.0 - (fn + fp + idsw) / gt_count
    idf1 = _identity_f1(g[hit], h[hit], gt_count + hyp_count)
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, fp=fp, fn=fn, gt_count=gt_count, matches=tp
    )


def _pairs(gt, results, gate):
    """``(gt ids, hyp ids, frame rank, gt row, hyp row, IoU)`` of every
    feasible pair of :func:`_feasible_pairs`, frame ranks ascending.

    Both sides' corner tables and frame ranks live only for the sweep.
    """
    gt_frames, gt_sizes, gt_ids, gt_corners = _frames(gt, "ground truth")
    hyp_frames, hyp_sizes, hyp_ids, hyp_corners = _frames(results, "results")
    if len(gt_ids) == 0:
        raise ValueError("ground truth is empty; tracking accuracy is undefined")
    union = sorted(set(gt_frames) | set(hyp_frames))
    rank = {frame: r for r, frame in enumerate(union)}
    gt_rank = np.repeat(np.array([rank[frame] for frame in gt_frames], np.int64), gt_sizes)
    hyp_rank = np.repeat(np.array([rank[frame] for frame in hyp_frames], np.int64), hyp_sizes)
    rows, cols, iou = _feasible_pairs(gt_rank, gt_corners, hyp_rank, hyp_corners, gate, union)
    return gt_ids, hyp_ids, gt_rank[rows], rows, cols, iou


def _feasible_pairs(gt_rank, gt_corners, hyp_rank, hyp_corners, gate, frames):
    """``(gt row, hyp row, IoU)`` of every same-frame pair of overlapping boxes
    with ``1 - IoU <= gate``, gt rows ascending.

    The sweep is keyed by frame rank and runs over blocks of whole frames of
    about ``_BLOCK_ROWS`` ground-truth rows.  ``frames`` names each rank.
    """
    parts = []
    start = 0
    while start < len(gt_rank):
        last = gt_rank[min(start + _BLOCK_ROWS, len(gt_rank)) - 1]
        end = int(np.searchsorted(gt_rank, last, "right"))
        lo = int(np.searchsorted(hyp_rank, gt_rank[start], "left"))
        hi = int(np.searchsorted(hyp_rank, last, "right"))
        rows, cols = overlapping_pairs(
            gt_corners[start:end], hyp_corners[lo:hi], gt_rank[start:end], hyp_rank[lo:hi]
        )
        rows, cols = rows + start, cols + lo
        iou = paired_iou(gt_corners[rows], hyp_corners[cols])
        undefined = np.isnan(iou)
        if undefined.any():
            frame = frames[gt_rank[rows[undefined.argmax()]]]
            raise ValueError(f"frame {frame}: the IoU of two boxes is not a number")
        feasible = (1.0 - iou <= gate) & (iou > 0.0)
        parts.append((rows[feasible], cols[feasible], iou[feasible]))
        start = end
    return tuple(np.concatenate(part) for part in zip(*parts))


def _matched(frame, id_pair, hit, rows, cols, iou, gate):
    """Mask of the feasible pairs (in frame order) that the per-frame rule
    with match persistence matches; ``id_pair`` numbers each (gt id, hyp id).

    A pair alone in its gt row and its hyp row is matched whatever the
    history.  In a frame with contested pairs, the contested ones that are
    hits and were matched in the previous frame of the union are kept, and
    the rest of them go to the pair solver.
    """
    matched = assignment.lone_pairs(rows, cols)
    contested = ~matched
    # the hyp row matched to each gt row of a contested frame, and the hyp
    # rows taken; a row lies in one frame, so no entry is ever reset
    partner = np.full(rows.max(initial=-1) + 1, -1)
    taken = np.zeros(cols.max(initial=-1) + 1, bool)
    # the distinct frame ranks (ascending, >= 0) of the contested pairs; a
    # plain np.unique would import numpy.ma to test the array for a mask
    at = frame[contested]
    at = at[np.diff(at, prepend=-1) != 0]
    # each such frame's pairs are [start, end), the previous frame's [before, start)
    befores = np.searchsorted(frame, at - 1).tolist()
    starts = np.searchsorted(frame, at).tolist()
    ends = np.searchsorted(frame, at, "right").tolist()
    for before, start, end in zip(befores, starts, ends):
        pairs = start + np.flatnonzero(contested[start:end])
        active = set(id_pair[before:start][matched[before:start]].tolist())
        if active:
            keep = [
                is_hit and pair in active
                for is_hit, pair in zip(hit[pairs].tolist(), id_pair[pairs].tolist())
            ]
            kept = pairs[np.array(keep, bool)]
            matched[kept] = True
            partner[rows[kept]], taken[cols[kept]] = cols[kept], True
            pairs = pairs[(partner[rows[pairs]] < 0) & ~taken[cols[pairs]]]
        if len(pairs):
            # numbered from 0: the solver sizes its counts by the largest index
            r0, c0 = rows[pairs].min(), cols[pairs].min()
            solved = assignment.solve_pairs(rows[pairs] - r0, cols[pairs] - c0, 1.0 - iou[pairs], gate)
            partner[solved[0] + r0] = solved[1] + c0
            matched[pairs[partner[rows[pairs]] == cols[pairs]]] = True
    return matched


def _identity_f1(hit_gt, hit_hyp, total: int) -> float:
    """Global id-to-id matching score from the (gt, hyp) id index pair of
    every box pair that overlaps enough, and the number of boxes.

    IDTP is the largest sum of ``shared`` hit counts over a one-to-one
    matching of ids.  An id pair alone in its row and column of ``shared`` is
    in every such matching; the others are solved as one compact matrix.
    """
    span = int(hit_hyp.max(initial=0)) + 1
    pairs, shared = np.unique(hit_gt * span + hit_hyp, return_counts=True)
    g, h = pairs // span, pairs % span
    alone = assignment.lone_pairs(g, h)
    idtp = int(shared[alone].sum())
    if not alone.all():
        g_ids, r = np.unique(g[~alone], return_inverse=True)
        h_ids, c = np.unique(h[~alone], return_inverse=True)
        weights = np.zeros((len(g_ids), len(h_ids)))
        weights[r, c] = shared[~alone]
        idtp += int(weights[assignment.linear_sum_assignment(weights, maximize=True)].sum())
    return 2.0 * idtp / total
