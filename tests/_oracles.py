"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written against the definitions, not against
the library code: scalar arithmetic instead of vectorized numpy, exhaustive
search instead of the Hungarian method, the frame association with one dense
matrix per stage, a plain per-frame event counter for the tracking metrics,
the per-frame dense evaluator, line-at-a-time MOT file readers and the Kalman
filter in its textbook dense 8x8 matrix form.  Slow but obviously correct.
The block filter update with stacked outputs is kept as it stood, to pin the
kernel's bits.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from sctrack import assignment, kalman
from sctrack.frames import FrameBoxes, frame_boxes, repeated, split
from sctrack.geometry import BoundingBox, Detection, pairwise_iou, pairwise_shape_iou_distance, xyah_to_corners
from sctrack.kalman import (
    _ASPECT_MEASUREMENT_STD,
    _ASPECT_STD,
    _ASPECT_VELOCITY_STD,
    _WP,
    _WV,
    MEASUREMENT_DIM,
    STATE_DIM,
)
from sctrack.metrics import MetricsReport
from sctrack.motio import FIELD_COUNT, GroundTruthEntry, MotRecord, ParseError
from sctrack.tracker import TENTATIVE


# --- box overlap, scalar arithmetic ------------------------------------------

def box_iou_ref(tlwh_a, tlwh_b) -> float:
    ax, ay, aw, ah = tlwh_a
    bx, by, bw, bh = tlwh_b
    ix = min(ax + aw, bx + bw) - max(ax, bx)
    iy = min(ay + ah, by + bh) - max(ay, by)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter)


def shape_distance_ref(tlwh_a, tlwh_b, epsilon=1e-7, height_term=True, area_term=True) -> float:
    """Direct evaluation: 1 - IoU plus normalized squared height/area gaps."""
    ax, ay, aw, ah = tlwh_a
    bx, by, bw, bh = tlwh_b
    d = 1.0 - box_iou_ref(tlwh_a, tlwh_b)
    enclosing_h = max(ay + ah, by + bh) - min(ay, by)
    enclosing_w = max(ax + aw, bx + bw) - min(ax, bx)
    if height_term:
        d += ((ah - bh) ** 2) / ((enclosing_h + epsilon) ** 2)
    if area_term:
        d += ((aw * ah - bw * bh) ** 2) / ((enclosing_w * enclosing_h + epsilon) ** 2)
    return d


# --- gated assignment, exhaustive search --------------------------------------

def best_matching_ref(costs, gate):
    """Exhaustive optimum over all gate-respecting partial matchings.

    Maximizes cardinality first, then minimizes total cost among the
    maximum-cardinality matchings.  Returns ``(count, total_cost)``.
    Searches the full state space of (row, free-column-set) pairs, so it is
    exact for the small matrices the tests use.
    """
    m = len(costs)
    n = len(costs[0]) if m else 0

    @lru_cache(maxsize=None)
    def best(row: int, used_cols: int):
        if row == m:
            return (0, 0.0)
        # leave this row unmatched
        count, total = best(row + 1, used_cols)
        for col in range(n):
            bit = 1 << col
            if used_cols & bit:
                continue
            cost = costs[row][col]
            if cost > gate:
                continue
            sub_count, sub_total = best(row + 1, used_cols | bit)
            cand = (sub_count + 1, sub_total + cost)
            # more pairs wins; equal pairs -> cheaper total wins
            if cand[0] > count or (cand[0] == count and cand[1] < total):
                count, total = cand
        return (count, total)

    result = best(0, 0)
    best.cache_clear()
    return result


def enumerate_matching_ref(costs, gate):
    """Same optimum by literal enumeration of every injective pairing.

    Only usable for tiny matrices; exists to cross-check the search above.
    """
    m = len(costs)
    n = len(costs[0]) if m else 0
    best = (0, 0.0)
    rows = range(m)
    for k in range(0, min(m, n) + 1):
        for row_subset in itertools.combinations(rows, k):
            for col_perm in itertools.permutations(range(n), k):
                pairs = list(zip(row_subset, col_perm))
                if any(costs[r][c] > gate for r, c in pairs):
                    continue
                total = sum(costs[r][c] for r, c in pairs)
                if k > best[0] or (k == best[0] and total < best[1]):
                    best = (k, total)
    return best


# --- frame association, one dense matrix per stage ---------------------------
# The tracker's association before every stage ran on candidate pairs: each
# stage costs and solves the dense matrix of its rows and columns.

def dense_associate_ref(track_corners, misses, det_corners, scores, config):
    """One frame's three association stages, each on its dense matrix.

    Arguments and return value as :func:`sctrack.tracker.associate`.
    """
    cfg = config
    scores = scores.tolist()
    high = [j for j, s in enumerate(scores) if s >= cfg.high_thresh]
    low = [j for j, s in enumerate(scores) if cfg.low_thresh <= s < cfg.high_thresh]

    def stage(rows, cols, gate):
        """Solve one stage; returns (matched row/col pairs, unmatched rows, unmatched cols)."""
        if not rows or not cols:
            return [], rows, cols
        result = assignment.solve(
            pairwise_shape_iou_distance(
                track_corners if len(rows) == len(track_corners) else track_corners.take(rows, 0),
                det_corners if len(cols) == len(det_corners) else det_corners.take(cols, 0),
                use_height_term=cfg.use_height_term, use_area_term=cfg.use_area_term,
            ),
            gate,
        )
        return (
            [(rows[r], cols[c]) for r, c in result.matches],
            [rows[r] for r in result.unmatched_rows],
            [cols[c] for c in result.unmatched_cols],
        )

    # stage 1: confirmed + lost tracks vs high-confidence detections
    pool = [i for i, m in enumerate(misses) if m != TENTATIVE]
    matched, remainder, high_left = stage(pool, high, cfg.match_gate_stage1)
    # stage 2: leftover tracks vs low-confidence detections
    matched += stage(remainder, low, cfg.match_gate_stage2)[0]
    # stage 3: tentative tracks vs the high detections nobody claimed
    pool = [i for i, m in enumerate(misses) if m == TENTATIVE]
    matched3, _, high_left = stage(pool, high_left, cfg.match_gate_unconfirmed)
    matched = sorted(matched + matched3)
    return (
        [r for r, _ in matched], [c for _, c in matched],
        [j for j in high_left if scores[j] >= cfg.new_track_thresh],
    )


def _frame_matching(gt_rows, hyp_rows, kept_pairs, thresh):
    """Max-cardinality, min-(1 - IoU) matching of the not-yet-kept boxes,
    found by exhaustive search over feasible pairings."""
    kept_gt = {g for g, _ in kept_pairs}
    kept_hyp = {h for _, h in kept_pairs}
    free_gt = [(g, box) for g, box in gt_rows if g not in kept_gt]
    free_hyp = [(h, box) for h, box in hyp_rows if h not in kept_hyp]

    feasible = {}
    for i, (g, gbox) in enumerate(free_gt):
        for j, (h, hbox) in enumerate(free_hyp):
            overlap = box_iou_ref(gbox, hbox)
            if overlap >= thresh:
                feasible[(i, j)] = 1.0 - overlap

    best_pairs: list = []
    best_key = (0, 0.0)

    def search(i, used, pairs, total):
        nonlocal best_pairs, best_key
        if i == len(free_gt):
            key = (len(pairs), total)
            if key[0] > best_key[0] or (key[0] == best_key[0] and key[1] < best_key[1]):
                best_key = key
                best_pairs = list(pairs)
            return
        search(i + 1, used, pairs, total)
        for j in range(len(free_hyp)):
            if j in used or (i, j) not in feasible:
                continue
            pairs.append((free_gt[i][0], free_hyp[j][0]))
            search(i + 1, used | {j}, pairs, total + feasible[(i, j)])
            pairs.pop()

    search(0, frozenset(), [], 0.0)
    return best_pairs


def clear_events_ref(gt, results, thresh=0.5):
    """Per-frame CLEAR event counting with match persistence.

    ``gt`` and ``results`` map frame -> list of ``(id, tlwh)``.  Returns a
    dict with fp, fn, idsw, matches, gt_count.
    """
    fp = fn = idsw = tp = 0
    gt_count = sum(len(v) for v in gt.values())
    active: dict = {}
    last: dict = {}
    for frame in sorted(set(gt) | set(results)):
        gt_rows = list(gt.get(frame, []))
        hyp_rows = list(results.get(frame, []))
        gt_boxes = dict(gt_rows)
        hyp_boxes = dict(hyp_rows)

        kept = [
            (g, h)
            for g, h in active.items()
            if g in gt_boxes and h in hyp_boxes and box_iou_ref(gt_boxes[g], hyp_boxes[h]) >= thresh
        ]
        fresh = _frame_matching(gt_rows, hyp_rows, kept, thresh)
        pairs = kept + fresh
        tp += len(pairs)
        fp += len(hyp_rows) - len(pairs)
        fn += len(gt_rows) - len(pairs)
        for g, h in fresh:
            if g in last and last[g] != h:
                idsw += 1
        for g, h in pairs:
            last[g] = h
        active = dict(pairs)
    return {"fp": fp, "fn": fn, "idsw": idsw, "matches": tp, "gt_count": gt_count}


def identity_f1_ref(gt, results, thresh=0.5):
    """IDF1 by enumerating every one-to-one assignment of gt ids to hyp ids.

    ``gt`` and ``results`` map frame -> list of ``(id, tlwh)``.  A matched
    pair earns one identity true positive for each frame in which both ids
    appear with IoU at least ``thresh``; the best assignment maximizes that
    total.  Exponential in the id counts, so only for a handful of ids.
    """
    gt_ids = sorted({g for rows in gt.values() for g, _ in rows})
    hyp_ids = sorted({h for rows in results.values() for h, _ in rows})

    def shared_frames(g, h):
        count = 0
        for frame, rows in gt.items():
            gt_box = dict(rows).get(g)
            hyp_box = dict(results.get(frame, [])).get(h)
            if gt_box is not None and hyp_box is not None and box_iou_ref(gt_box, hyp_box) >= thresh:
                count += 1
        return count

    best = 0
    for k in range(min(len(gt_ids), len(hyp_ids)) + 1):
        for gt_subset in itertools.combinations(gt_ids, k):
            for hyp_perm in itertools.permutations(hyp_ids, k):
                best = max(best, sum(shared_frames(g, h) for g, h in zip(gt_subset, hyp_perm)))
    total = sum(len(rows) for rows in gt.values()) + sum(len(rows) for rows in results.values())
    return 2 * best / total


# --- the per-frame evaluator ---------------------------------------------------
# The evaluator the candidate-pair one replaced, kept as it was: one dense IoU
# matrix per frame, the persistence rule on every frame, a dense
# ``assignment.solve`` of the rest, and IDF1 from the ``(G + H)^2`` matrix.

def _dense_frames(by_frame, source: str):
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


def dense_evaluate_ref(gt, results, iou_match_thresh: float = 0.5) -> MetricsReport:
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
    gt, all_gt = _dense_frames(gt, "ground truth")
    results, all_hyp = _dense_frames(results, "results")
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
    idf1 = _dense_identity_f1(all_gt, all_hyp, hit_gt, hit_hyp)
    return MetricsReport(
        mota=mota, idf1=idf1, idsw=idsw, fp=fp, fn=fn, gt_count=gt_count, matches=tp
    )


def _dense_identity_f1(gt_ids, hyp_ids, hit_gt, hit_hyp) -> float:
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


# --- MOT line format, one f-string per record ---------------------------------

def format_record_ref(record) -> str:
    """The canonical line as the per-record writer built it."""
    return (
        f"{record.frame},{record.track_id},"
        f"{record.bb_left:.2f},{record.bb_top:.2f},"
        f"{record.bb_width:.2f},{record.bb_height:.2f},"
        f"{record.conf:.4f},{record.x:.0f},{record.y:.0f},{record.z:.0f}"
    )


# --- MOT file readers, one line at a time -------------------------------------
#
# The per-line readers the chunked ones in ``sctrack.motio`` replaced: each
# row is parsed, checked and converted on its own, and the first failing row
# raises.  Each returns the form its library reader returns: records, ground
# truth entries, or per-frame blocks built from the accepted rows at the end.

def _parse_line_ref(path, line_no, line):
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
    if abs(frame) >= 2**53 or abs(track_id) >= 2**53:
        raise ParseError(
            path, line_no, f"frame and id must lie below 2**53 in magnitude, got {fields[0]!r}, {fields[1]!r}"
        )
    return MotRecord(frame, track_id, *values[2:])


def iter_records_ref(path):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                yield line_no, _parse_line_ref(path, line_no, line)
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc


def _finite_box_fields_ref(record):
    return all(
        math.isfinite(v)
        for v in (record.bb_left, record.bb_top, record.bb_width, record.bb_height, record.conf)
    )


def _sized_ref(record):
    """Positive width and height, and positive area once converted to corner
    form the way the library converts: ``a = w / h``, ``x2 = x + a * h``,
    ``y2 = y + h``; the squares of that width, height and area are finite."""
    if record.bb_width <= 0 or record.bb_height <= 0:
        return False
    x2 = record.bb_left + record.bb_width / record.bb_height * record.bb_height
    y2 = record.bb_top + record.bb_height
    width, height = x2 - record.bb_left, y2 - record.bb_top
    area = width * height
    return area > 0 and all(math.isfinite(v * v) for v in (width, height, area))


def _box_ref(record):
    return BoundingBox.from_tlwh(record.bb_left, record.bb_top, record.bb_width, record.bb_height)


def scan_detections_ref(path):
    """Detection blocks by frame, and the counts ``(rejected rows, clamped scores)``."""
    by_frame = {}
    rejected = clamped = 0
    for _, record in iter_records_ref(path):
        if not _finite_box_fields_ref(record) or not _sized_ref(record) or record.frame < 1:
            rejected += 1
            continue
        conf = record.conf
        if conf < 0.0 or conf > 1.0:
            conf = min(max(conf, 0.0), 1.0)
            clamped += 1
        by_frame.setdefault(record.frame, []).append(Detection(box=_box_ref(record), score=conf))
    blocks = {
        frame: np.array([(d.box.x, d.box.y, d.box.a, d.box.h, d.score) for d in detections])
        for frame, detections in sorted(by_frame.items())
    }
    return blocks, (rejected, clamped)


def read_ground_truth_ref(path):
    by_frame = {}
    seen = set()
    for line_no, record in iter_records_ref(path):
        if record.track_id < 1:
            raise ParseError(path, line_no, f"ground-truth id must be >= 1, got {record.track_id}")
        key = (record.frame, record.track_id)
        if key in seen:
            raise ParseError(path, line_no, f"duplicate (frame, id) pair {key}")
        seen.add(key)
        if not _finite_box_fields_ref(record) or not _sized_ref(record) or record.frame < 1:
            raise ParseError(path, line_no, "ground-truth row has invalid frame or box geometry")
        by_frame.setdefault(record.frame, []).append(
            GroundTruthEntry(track_id=record.track_id, box=_box_ref(record), evaluable=record.conf != 0)
        )
    return dict(sorted(by_frame.items()))


def read_results_ref(path):
    by_frame = {}
    seen = set()
    for line_no, record in iter_records_ref(path):
        if not _finite_box_fields_ref(record):
            raise ParseError(path, line_no, "result row has a non-finite box or confidence field")
        if not _sized_ref(record):
            continue
        key = (record.frame, record.track_id)
        if key in seen:
            raise ParseError(path, line_no, f"frame {record.frame} repeats id {record.track_id}")
        seen.add(key)
        by_frame.setdefault(record.frame, []).append((record.track_id, _box_ref(record), record.conf))
    return {
        frame: FrameBoxes(
            np.array([track_id for track_id, _, _ in rows], dtype=np.int64),
            np.array([(box.x, box.y, box.a, box.h) for _, box, _ in rows]),
            np.array([conf for _, _, conf in rows]),
        )
        for frame, rows in sorted(by_frame.items())
    }


# --- Kalman filter update, per-axis blocks with stacked outputs ---------------
# The block update as it stood before it wrote into preallocated outputs: the
# covariance rows are stacked and the mean halves concatenated.  The kernel
# must give the same bits, so it is compared with array_equal, not a tolerance.
# Both oracle updates switch the two parts of the confidence weighting apart
# (the kernel's ``use_confidence`` sets both), so a test can isolate each.

def stacked_update_ref(
    mean: np.ndarray, covariance: np.ndarray, measurements: np.ndarray, scores: np.ndarray,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
):
    """Arguments and return value as :func:`sctrack.kalman.batch_update`,
    with its one switch split in two."""
    scores = np.asarray(scores, dtype=np.float64)
    noise = kalman._measurement_variances(mean[:, 3], scores, use_confidence_noise)
    pos_var, cross, rate_var = covariance.transpose(1, 0, 2).copy()

    innovation_var = pos_var + noise
    pos_gain = pos_var / innovation_var
    rate_gain = cross / innovation_var
    innovation = measurements - mean[:, :MEASUREMENT_DIM]
    position = mean[:, :MEASUREMENT_DIM] + pos_gain * innovation
    rate = mean[:, MEASUREMENT_DIM:] + rate_gain * innovation
    if use_velocity_blend:
        weight = scores[:, None]
        rate = weight * rate + (1.0 - weight) * mean[:, MEASUREMENT_DIM:]

    pos_keep, pos_gain_noise = 1.0 - pos_gain, pos_gain * noise
    new_covariance = np.stack((
        pos_keep * pos_keep * pos_var + pos_gain * pos_gain_noise,
        pos_keep * (cross - rate_gain * pos_var) + rate_gain * pos_gain_noise,
        rate_var - 2.0 * rate_gain * cross + rate_gain * rate_gain * innovation_var,
    ), axis=1)
    return np.concatenate([position, rate], axis=1), new_covariance


# --- Kalman filter, dense 8x8 matrices ----------------------------------------
# The stacked-matrix kernels the per-axis block kernels replaced, kept as they
# were: full transition matmuls, one 4x4 solve per row for the gain, and the
# Joseph form with 8x8 matrices.  Means are (N, 8), covariances (N, 8, 8).

def dense_covariance_ref(blocks) -> np.ndarray:
    """The ``(..., 8, 8)`` covariances of the library's ``(..., 3, 4)`` block
    rows: for coordinate i, rows 0, 1 and 2 hold var(state i),
    cov(state i, state i + 4) and var(state i + 4); every other entry is 0."""
    blocks = np.asarray(blocks, dtype=np.float64)
    dense = np.zeros(blocks.shape[:-2] + (STATE_DIM, STATE_DIM))
    for i in range(MEASUREMENT_DIM):
        rate = MEASUREMENT_DIM + i
        dense[..., i, i] = blocks[..., 0, i]
        dense[..., i, rate] = dense[..., rate, i] = blocks[..., 1, i]
        dense[..., rate, rate] = blocks[..., 2, i]
    return dense


# dt = 1 constant-velocity transition: position components pick up their rates
_TRANSITION = np.eye(STATE_DIM)
for _i in range(MEASUREMENT_DIM):
    _TRANSITION[_i, MEASUREMENT_DIM + _i] = 1.0
_IDENTITY = np.eye(STATE_DIM)

# Each kernel's noise standard deviations are ``h * weight + constant`` per
# state component, ``h`` being the box height: ``(weights, constants)`` rows.
_STD_ROWS = {
    "initiate": (
        np.array([2 * _WP, 2 * _WP, 0, 2 * _WP, 10 * _WV, 10 * _WV, 0, 10 * _WV]),
        np.array([0, 0, _ASPECT_STD, 0, 0, 0, _ASPECT_VELOCITY_STD, 0]),
    ),
    "predict": (
        np.array([_WP, _WP, 0, _WP, _WV, _WV, 0, _WV]),
        np.array([0, 0, _ASPECT_STD, 0, 0, 0, _ASPECT_VELOCITY_STD, 0]),
    ),
    "measure": (np.array([_WP, _WP, 0, _WP]), np.array([0, 0, _ASPECT_MEASUREMENT_STD, 0])),
}


def _variances(kernel: str, h: np.ndarray) -> np.ndarray:
    """Diagonal noise variances of one kernel, one row per height in ``h``."""
    weights, constants = _STD_ROWS[kernel]
    return np.square(h[:, None] * weights + constants)


def _add_diagonal(matrices: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows[i]`` to the diagonal of ``matrices[i]`` in place (C-contiguous stack)."""
    n, d, _ = matrices.shape
    matrices.reshape(n, d * d)[:, :: d + 1] += rows


def _symmetrized(matrices: np.ndarray) -> np.ndarray:
    return 0.5 * (matrices + matrices.transpose(0, 2, 1))


def dense_initiate_ref(measurements: np.ndarray):
    """Start one state per ``[x, y, a, h]`` row, all with zero velocity.

    Returns ``(mean, covariance)`` of shapes ``(N, 8)`` and ``(N, 8, 8)``.
    """
    measurements = np.asarray(measurements, dtype=np.float64).reshape(-1, MEASUREMENT_DIM)
    n = len(measurements)
    mean = np.zeros((n, STATE_DIM))
    mean[:, :MEASUREMENT_DIM] = measurements
    covariance = np.zeros((n, STATE_DIM, STATE_DIM))
    _add_diagonal(covariance, _variances("initiate", measurements[:, 3]))
    return mean, covariance


def dense_predict_ref(mean: np.ndarray, covariance: np.ndarray):
    """Advance every row by one frame under the constant-velocity model.

    Process noise scales with each row's height before the step.  The inputs
    are left untouched; fresh ``(mean, covariance)`` arrays are returned.
    """
    variances = _variances("predict", mean[:, 3])
    new_mean = mean @ _TRANSITION.T
    new_covariance = _TRANSITION @ covariance @ _TRANSITION.T
    _add_diagonal(new_covariance, variances)
    return new_mean, _symmetrized(new_covariance)


def _measurement_variances(h: np.ndarray, scores: np.ndarray, use_confidence_noise: bool) -> np.ndarray:
    """Diagonal measurement variances ``(N, 4)``, confidence-scaled when enabled."""
    variances = _variances("measure", h)
    if use_confidence_noise:
        variances = variances * (1.0 - scores**2)[:, None]
    return variances


def dense_update_ref(
    mean: np.ndarray, covariance: np.ndarray, measurements: np.ndarray, scores: np.ndarray,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
):
    """Fold row ``i`` of ``measurements`` (``[x, y, a, h]``) at ``scores[i]`` into row ``i``.

    The switches turn the two parts of the confidence weighting on or off.
    One stacked 4x4 solve gives every gain; the posterior
    covariance uses the Joseph form, which keeps it symmetric PSD even when
    the confidence-scaled noise degenerates to zero at score 1.  The inputs
    are left untouched.
    """
    scores = np.asarray(scores, dtype=np.float64)
    noise = _measurement_variances(mean[:, 3], scores, use_confidence_noise)

    projected = covariance[:, :MEASUREMENT_DIM, :MEASUREMENT_DIM].copy()
    _add_diagonal(projected, noise)
    gain = np.linalg.solve(projected, covariance[:, :MEASUREMENT_DIM, :]).transpose(0, 2, 1)
    innovation = measurements - mean[:, :MEASUREMENT_DIM]
    new_mean = mean + (gain @ innovation[:, :, None])[:, :, 0]

    identity_kh = np.repeat(_IDENTITY[None], len(mean), axis=0)
    identity_kh[:, :, :MEASUREMENT_DIM] -= gain
    new_covariance = identity_kh @ covariance @ identity_kh.transpose(0, 2, 1) + (
        gain * noise[:, None, :]
    ) @ gain.transpose(0, 2, 1)

    if use_velocity_blend:
        weight = scores[:, None]
        new_mean[:, MEASUREMENT_DIM:] = (
            weight * new_mean[:, MEASUREMENT_DIM:] + (1.0 - weight) * mean[:, MEASUREMENT_DIM:]
        )
    return new_mean, _symmetrized(new_covariance)
