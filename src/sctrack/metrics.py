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

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import assignment
from .geometry import BoundingBox, boxes_to_corners, pairwise_iou

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


def _normalize(frame_entries, source: str, frame) -> list[tuple[int, BoundingBox]]:
    """``(id, box)`` pairs of one frame; an id may appear at most once."""
    out = [(int(entry[0]), entry[1]) for entry in frame_entries]
    seen: set[int] = set()
    for track_id, _ in out:
        if track_id in seen:
            raise ValueError(f"{source} frame {frame} repeats id {track_id}")
        seen.add(track_id)
    return out


def evaluate(gt, results, iou_match_thresh: float = DEFAULT_IOU_MATCH_THRESH) -> MetricsReport:
    """Score tracking results against ground truth.

    Args:
        gt: map frame -> iterable of ``(id, BoundingBox)`` (extra trailing
            tuple elements are ignored, so ground-truth file entries can be
            passed after filtering to the evaluable rows).
        results: map frame -> iterable of ``(id, BoundingBox)``.
        iou_match_thresh: minimum IoU for a gt/hypothesis correspondence, in (0, 1].

    Raises:
        ValueError: if ``iou_match_thresh`` is NaN or outside (0, 1], if the
            ground truth contains no boxes (the accuracy denominator would be
            undefined), or if either input repeats an id within a frame (the
            correspondence would be ambiguous; the message names both).
    """
    if not 0.0 < iou_match_thresh <= 1.0:
        raise ValueError(f"iou_match_thresh must lie in (0, 1], got {iou_match_thresh}")
    gt = {frame: _normalize(rows, "ground truth", frame) for frame, rows in gt.items() if rows}
    results = {frame: _normalize(rows, "results", frame) for frame, rows in results.items() if rows}
    gt_count = sum(len(rows) for rows in gt.values())
    if gt_count == 0:
        raise ValueError("ground truth is empty; tracking accuracy is undefined")

    fp = fn = idsw = tp = 0
    active_pairs: dict[int, int] = {}
    last_matched: dict[int, int] = {}
    # identity counts for IDF1: frames per id, and frames per (gt id, hyp id)
    # pair whose IoU reaches the threshold
    gt_len: Counter = Counter()
    hyp_len: Counter = Counter()
    overlap: Counter = Counter()

    for frame in sorted(set(gt) | set(results)):
        gt_rows = gt.get(frame, [])
        hyp_rows = results.get(frame, [])
        gt_ids = [g for g, _ in gt_rows]
        hyp_ids = [h for h, _ in hyp_rows]
        iou_matrix = pairwise_iou(
            boxes_to_corners([b for _, b in gt_rows]),
            boxes_to_corners([b for _, b in hyp_rows]),
        )
        hits = iou_matrix >= iou_match_thresh
        gt_len.update(gt_ids)
        hyp_len.update(hyp_ids)
        rows, cols = np.nonzero(hits)
        overlap.update((gt_ids[i], hyp_ids[j]) for i, j in zip(rows.tolist(), cols.tolist()))

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
        costs = 1.0 - iou_matrix[np.ix_(free_gt, free_hyp)]
        solved = assignment.solve(costs, gate=1.0 - iou_match_thresh)
        fresh = [(gt_ids[free_gt[r]], hyp_ids[free_hyp[c]]) for r, c in solved.matches]

        pairs = kept + fresh
        tp += len(pairs)
        fp += len(hyp_rows) - len(pairs)
        fn += len(gt_rows) - len(pairs)
        for g, h in fresh:
            if g in last_matched and last_matched[g] != h:
                idsw += 1
        for g, h in pairs:
            last_matched[g] = h
        active_pairs = dict(pairs)

    mota = 1.0 - (fn + fp + idsw) / gt_count
    idf1 = _identity_f1(gt_len, hyp_len, overlap)
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, fp=fp, fn=fn, gt_count=gt_count, matches=tp
    )


def _identity_f1(gt_len: Counter, hyp_len: Counter, overlap: Counter) -> float:
    """Global id-to-id matching score from per-id and per-pair frame counts."""
    if not hyp_len:
        return 0.0
    total = sum(gt_len.values()) + sum(hyp_len.values())
    len_g = np.array(list(gt_len.values()), dtype=np.float64)
    len_h = np.array(list(hyp_len.values()), dtype=np.float64)
    n_g, n_h = len(len_g), len(len_h)
    row = {g: i for i, g in enumerate(gt_len)}
    col = {h: j for j, h in enumerate(hyp_len)}
    shared = np.zeros((n_g, n_h))
    shared[[row[g] for g, _ in overlap], [col[h] for _, h in overlap]] = list(overlap.values())

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
