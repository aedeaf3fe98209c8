"""Multi-object tracking evaluation: event counts, MOTA and identity-F1.

Per-frame correspondence between ground truth and hypotheses uses an IoU
threshold with match persistence: a pair matched in the previous frame is
kept while its IoU stays above the threshold, and only the remainder is
re-matched by minimum-cost assignment on ``1 - IoU``.  False positives are
unmatched hypotheses, false negatives unmatched ground-truth boxes, and an
identity switch is counted whenever a matched ground-truth object changes
hypothesis id relative to its last matched id.

``MOTA = 1 - (FN + FP + IDSW) / GT`` (can be negative).  IDF1 comes from a
single global bipartite matching between ground-truth and predicted ids that
maximizes the number of frame-wise overlapping (IoU above threshold)
box pairs: ``IDF1 = 2 * IDTP / (2 * IDTP + IDFP + IDFN)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import assignment
from .frames import frame_boxes, repeated, split
from .geometry import pairwise_iou, xyah_to_corners

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
        return f"{self.CSV_HEADER}\n{self.to_csv_line()}"

    def to_csv_line(self) -> str:
        return (
            f"{self.mota:.6f},{self.idf1:.6f},{self.idsw},{self.fp},"
            f"{self.fn},{self.gt_count},{self.matches}"
        )

    @classmethod
    def from_csv(cls, text: str) -> "MetricsReport":
        """Parse the output of :meth:`to_csv` (header optional)."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty report text")
        if lines[0].strip() == cls.CSV_HEADER:
            lines = lines[1:]
        if len(lines) != 1:
            raise ValueError(f"expected one data line, got {len(lines)}")
        parts = lines[0].split(",")
        if len(parts) != 7:
            raise ValueError(f"expected 7 fields, got {len(parts)}")
        return cls(
            mota=float(parts[0]),
            idf1=float(parts[1]),
            idsw=int(parts[2]),
            fp=int(parts[3]),
            fn=int(parts[4]),
            gt_count=int(parts[5]),
            matches=int(parts[6]),
        )


def _frames(by_frame, source: str):
    """``(frame -> (offset, ids, corners), all ids)`` over the frames that hold
    boxes; a frame's rows start at ``offset`` in the array of all ids.

    Every frame is converted once; one vectorised test finds the first
    frame, in the map's order, that repeats an id.
    """
    frames, blocks = [], []
    for frame, rows in by_frame.items():
        block = frame_boxes(rows)
        if len(block.ids):
            frames.append(frame)
            blocks.append(block)
    if not blocks:
        return {}, np.zeros(0, np.int64)
    sizes = [len(block.ids) for block in blocks]
    ids = np.concatenate([block.ids for block in blocks])
    frame_no = np.repeat(np.arange(len(blocks)), sizes)
    repeats = repeated(frame_no, ids)
    if repeats.any():
        n = int(repeats.argmax())
        raise ValueError(f"{source} frame {frames[frame_no[n]]} repeats id {int(ids[n])}")
    offsets = np.cumsum([0, *sizes[:-1]]).tolist()
    id_lists = split(ids.tolist(), sizes)
    corners = split(xyah_to_corners(np.concatenate([block.xyah for block in blocks])), sizes)
    return dict(zip(frames, zip(offsets, id_lists, corners))), ids


def evaluate(gt, results, iou_match_thresh: float = DEFAULT_IOU_MATCH_THRESH) -> MetricsReport:
    """Score tracking results against ground truth.

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
            undefined), or if either input repeats an id within a frame (the
            correspondence would be ambiguous; the message names both).
    """
    if not 0.0 < iou_match_thresh <= 1.0:
        raise ValueError(f"iou_match_thresh must lie in (0, 1], got {iou_match_thresh}")
    gt, all_gt = _frames(gt, "ground truth")
    results, all_hyp = _frames(results, "results")
    gt_count = len(all_gt)
    if gt_count == 0:
        raise ValueError("ground truth is empty; tracking accuracy is undefined")

    fp = fn = idsw = tp = 0
    active_pairs: dict[int, int] = {}
    last_matched: dict[int, int] = {}
    # every box pair whose IoU reaches the threshold, as row and column
    # positions per frame plus the frame's offsets into the arrays of all
    # ids, for IDF1
    hit_rows, hit_cols, hit_offsets = [], [], []
    none = (0, [], np.zeros((0, 4)))

    for frame in sorted(set(gt) | set(results)):
        gt_offset, gt_ids, gt_corners = gt.get(frame, none)
        hyp_offset, hyp_ids, hyp_corners = results.get(frame, none)
        iou_matrix = pairwise_iou(gt_corners, hyp_corners)
        hits = iou_matrix >= iou_match_thresh
        rows, cols = np.nonzero(hits)
        hit_rows.append(rows)
        hit_cols.append(cols)
        hit_offsets.append((gt_offset, hyp_offset, len(rows)))

        gt_index = {g: i for i, g in enumerate(gt_ids)}
        hyp_index = {h: j for j, h in enumerate(hyp_ids)}

        # keep last frame's pairs that still overlap well enough
        kept: list[tuple[int, int]] = []
        for g, h in active_pairs.items():
            i, j = gt_index.get(g), hyp_index.get(h)
            if i is not None and j is not None and hits[i, j]:
                kept.append((g, h))
        kept_gt = {g for g, _ in kept}
        kept_hyp = {h for _, h in kept}

        free_gt = [i for i, g in enumerate(gt_ids) if g not in kept_gt]
        free_hyp = [j for j, h in enumerate(hyp_ids) if h not in kept_hyp]
        costs = 1.0 - iou_matrix.take(free_gt, 0).take(free_hyp, 1)
        solved = assignment.solve(costs, gate=1.0 - iou_match_thresh)
        fresh = [(gt_ids[free_gt[r]], hyp_ids[free_hyp[c]]) for r, c in solved.matches]

        pairs = kept + fresh
        tp += len(pairs)
        fp += len(hyp_ids) - len(pairs)
        fn += len(gt_ids) - len(pairs)
        for g, h in fresh:
            if g in last_matched and last_matched[g] != h:
                idsw += 1
        for g, h in pairs:
            last_matched[g] = h
        active_pairs = dict(pairs)

    mota = 1.0 - (fn + fp + idsw) / gt_count
    gt_offsets, hyp_offsets, counts = np.array(hit_offsets).reshape(-1, 3).T
    hit_gt = all_gt[np.concatenate(hit_rows) + np.repeat(gt_offsets, counts)]
    hit_hyp = all_hyp[np.concatenate(hit_cols) + np.repeat(hyp_offsets, counts)]
    idf1 = _identity_f1(all_gt, all_hyp, hit_gt, hit_hyp)
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, fp=fp, fn=fn, gt_count=gt_count, matches=tp
    )


def _identity_f1(gt_ids, hyp_ids, hit_gt, hit_hyp) -> float:
    """Global id-to-id matching score from every box's id and the id pair of
    every box pair that overlaps enough."""
    if not len(hyp_ids):
        return 0.0
    total = len(gt_ids) + len(hyp_ids)
    g, len_g = np.unique(gt_ids, return_counts=True)
    h, len_h = np.unique(hyp_ids, return_counts=True)
    len_g, len_h = len_g.astype(np.float64), len_h.astype(np.float64)
    n_g, n_h = len(len_g), len(len_h)
    shared = np.zeros((n_g, n_h))
    np.add.at(shared, (np.searchsorted(g, hit_gt), np.searchsorted(h, hit_hyp)), 1.0)

    costs = np.full((n_g + n_h, n_h + n_g), float(total) * 10.0 + 10.0)
    # frames where a pair disagrees: id-level FN plus FP
    costs[:n_g, :n_h] = len_g[:, None] + len_h[None, :] - 2.0 * shared
    np.fill_diagonal(costs[:n_g, n_h:], len_g)
    np.fill_diagonal(costs[n_g:, :n_h], len_h)
    costs[n_g:, n_h:] = 0.0

    rows, cols = linear_sum_assignment(costs)
    disagreement = float(costs[rows, cols].sum())
    idtp = (total - disagreement) / 2.0
    return 2.0 * idtp / total
