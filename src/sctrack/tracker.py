"""Two-stage detection-to-track association with track lifecycle management.

Per frame the tracker:

1. splits detections into high- and low-confidence bands (anything below the
   low threshold is discarded);
2. advances every live track with the motion filter;
3. associates confirmed and lost tracks with high-confidence detections;
4. gives the tracks left unmatched by step 3 a second chance against the
   low-confidence detections;
5. associates still-unconfirmed (tentative) tracks with the remaining
   high-confidence detections;
6. updates matched tracks with confidence-aware filter updates and marks
   them confirmed; unmatched tracks go lost (tentative ones are removed
   immediately) and tracks lost beyond the budget are retired for good;
7. seeds new tentative tracks from leftover high-confidence detections.

All association stages use the shape-aware IoU distance.  Track ids are
assigned once and never reused; a removed id never reappears.

A tracker instance must be stepped sequentially; independent instances
(e.g. one per video sequence) can run concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import assignment, geometry, kalman
from .frames import NO_BOXES, FrameBoxes, detection_block
from .geometry import BoundingBox


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"


class Track(NamedTuple):
    """One live track's lifecycle, as :attr:`SCTracker.tracks` reports it.

    Its motion state is the row of the tracker's track table at the track's
    position in :attr:`SCTracker.tracks`.
    """

    track_id: int
    status: TrackStatus
    frames_since_update: int = 0


@dataclass(frozen=True)
class TrackerConfig:
    """Thresholds, gates and the switches of the two mechanisms.

    The defaults follow the usual two-stage association conventions; the
    stage gates are expressed on the shape-aware distance, whose range
    extends beyond [0, 1] when the shape terms are enabled.  The last three
    fields switch the two shape terms of the distance and the confidence
    weighting of the filter update.

    The constructor checks each field's type (an int is accepted for a
    float, and a bool only for a bool), then the ranges; both raise
    ValueError naming the field.
    """

    high_thresh: float = 0.6
    low_thresh: float = 0.1
    new_track_thresh: float = 0.7
    match_gate_stage1: float = 0.9
    match_gate_stage2: float = 0.5
    match_gate_unconfirmed: float = 0.7
    max_lost_frames: int = 30
    use_height_term: bool = True
    use_area_term: bool = True
    use_confidence: bool = True

    def __post_init__(self):
        for key, kind in CONFIG_SCHEMA.items():
            value = getattr(self, key)
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
                raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
        if not (0.0 <= self.low_thresh < self.high_thresh <= 1.0):
            raise ValueError(
                f"need 0 <= low_thresh < high_thresh <= 1, got "
                f"low={self.low_thresh}, high={self.high_thresh}"
            )
        if not (0.0 <= self.new_track_thresh <= 1.0):
            raise ValueError(f"new_track_thresh must lie in [0, 1], got {self.new_track_thresh}")
        for name in ("match_gate_stage1", "match_gate_stage2", "match_gate_unconfirmed"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative")
        if self.max_lost_frames < 1:
            raise ValueError(f"max_lost_frames must be >= 1, got {self.max_lost_frames}")


# every field of the tracker configuration, typed by its default
CONFIG_SCHEMA = {f.name: type(f.default) for f in fields(TrackerConfig)}


@dataclass(frozen=True, slots=True)
class TrackOutput:
    track_id: int
    box: BoundingBox
    score: float


@dataclass(frozen=True, eq=False, slots=True)
class FrameResult:
    """Confirmed tracks updated in one frame, at most one entry per id.

    ``boxes`` holds them as one :class:`FrameBoxes` block (the tracker emits
    ids ascending).  ``outputs`` builds the per-track objects from the block
    on each access.
    """

    frame_index: int
    boxes: FrameBoxes = NO_BOXES

    @property
    def outputs(self) -> list[TrackOutput]:
        ids, xyah, scores = self.boxes
        return [
            TrackOutput(track_id, BoundingBox(*box), score)
            for track_id, box, score in zip(ids.tolist(), xyah.tolist(), scores.tolist())
        ]

    def __eq__(self, other):
        if not isinstance(other, FrameResult):
            return NotImplemented
        return self.frame_index == other.frame_index and all(map(np.array_equal, self.boxes, other.boxes))


# the ``misses`` entry of a tentative track; a confirmed track holds 0 and a
# lost one the number of frames it has gone unmatched
TENTATIVE = -1

# a track's status by ``min(misses, 1)``
_STATUS = {TENTATIVE: TrackStatus.TENTATIVE, 0: TrackStatus.CONFIRMED, 1: TrackStatus.LOST}

# live tracks x usable detections from which a frame's candidate pairs come
# from the overlap sweep rather than being all pairs: the sweep has the
# higher fixed cost.  Timing `associate` on a 2-vCPU host (pedestrian-sized
# boxes, tracks 3 px off their detections), the sweep cost 1.1-1.35x all
# pairs up to ~200 cells, drew level at ~400-500 (crowded boxes: 1.04x at
# 484; boxes spread over 1920x1080: 0.99x) and won from ~600 (0.96x and
# 0.91x at 625, 0.72x and 0.58x at 2,025).  The ablation's frames (at most
# 18 cells) stay on all pairs, the 50- and 100-object streams on the sweep.
SPARSE_MIN_CELLS = 600


class SCTracker:
    """Stateful per-sequence tracker; call :meth:`step` once per frame.

    The live tracks form one table, one row per track in ascending id order:
    ``ids`` ``(N,)`` int64, ``misses`` ``(N,)`` (:data:`TENTATIVE`, 0 for
    confirmed, ``k > 0`` for lost ``k`` frames), and the filter state
    ``means`` ``(N, 8)`` and ``covariances`` ``(N, 3, 4)``, the four
    (position, rate) covariance blocks of :mod:`~sctrack.kalman`.  Each frame
    runs the batched filter kernels once over the whole table, and retires
    and drops tracks with masks.
    """

    def __init__(self, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.ids = np.zeros(0, np.int64)
        self.misses = np.zeros(0, np.int64)
        self.means, self.covariances = kalman.batch_initiate(np.zeros((0, kalman.MEASUREMENT_DIM)))
        self._next_id = 1
        self._last_frame: int | None = None

    @property
    def tracks(self) -> list[Track]:
        """The live tracks, row by row, built from ``ids`` and ``misses`` on each access."""
        return [
            Track(track_id, _STATUS[min(misses, 1)], max(misses, 0))
            for track_id, misses in zip(self.ids.tolist(), self.misses.tolist())
        ]

    def _select(self, keep):
        """Keep the table rows a mask selects."""
        self.ids, self.misses = self.ids[keep], self.misses[keep]
        self.means, self.covariances = self.means[keep], self.covariances[keep]

    def step(self, frame_index: int, detections) -> FrameResult:
        """Process one frame of detections and return the confirmed outputs.

        ``detections`` is an ``(n, 5)`` block ``[x, y, a, h, score]`` or an
        iterable of :class:`~sctrack.geometry.Detection` (see
        :func:`~sctrack.frames.detection_block`).  Frame indices must be
        strictly increasing across calls.  Tracks seeded on the tracker's
        very first frame are confirmed immediately (there is no earlier
        frame that could have confirmed them); later births start tentative
        and confirm on their first association.
        """
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise ValueError(
                f"frame index must be strictly increasing, got {frame_index} "
                f"after {self._last_frame}"
            )
        table = detection_block(detections)
        first_frame = self._last_frame is None
        self._last_frame = frame_index
        cfg = self.config

        # advance every live track; before association, retire tracks that
        # have exhausted the lost budget and drop tracks whose state degenerated
        # (the checks of whole masks go through lists: on the few rows of a
        # small frame that is cheaper than a numpy reduction)
        self.means, self.covariances = kalman.batch_predict(self.means, self.covariances)
        corners, valid = kalman.batch_project(self.means)
        misses = self.misses.tolist()
        if misses and (False in valid.tolist() or max(misses) >= cfg.max_lost_frames):
            keep = valid & (self.misses < cfg.max_lost_frames)
            self._select(keep)
            corners = corners[keep]
            misses = self.misses.tolist()

        measured = table[:, : kalman.MEASUREMENT_DIM]
        scores = table[:, 4]
        n_tracks = len(self.ids)
        rows, cols, born = associate(corners, self.misses, geometry.xyah_to_corners(measured), scores, cfg)

        # outputs come from matches, except on the first frame (no tracks to
        # match yet), where they are the births; rows ascend, and so do their ids
        outputs = NO_BOXES
        dropped = np.zeros(0, np.intp)  # rows whose update left a state that is no box
        if len(rows):
            matched_scores = scores.take(cols)
            everyone = len(rows) == n_tracks  # every row matched, in order
            means, covariances = kalman.batch_update(
                self.means if everyone else self.means.take(rows, 0),
                self.covariances if everyone else self.covariances.take(rows, 0),
                measured.take(cols, 0), matched_scores, use_confidence=cfg.use_confidence,
            )
            # the update's fresh arrays become the table, or are copied into it;
            # no array a step returns is written later (each step predicts anew)
            if everyone:
                self.means, self.covariances = means, covariances
                ids = self.ids
            else:
                self.means[rows], self.covariances[rows] = means, covariances
                ids = self.ids.take(rows)
            ok = kalman.valid_rows(means)
            if False in ok.tolist():
                dropped = rows[~ok]
                ids, means, matched_scores = ids[ok], means[ok], matched_scores[ok]
            outputs = FrameBoxes(ids, means[:, : kalman.MEASUREMENT_DIM], matched_scores)

        # matched rows are confirmed; unmatched ones go lost, or are dropped if
        # tentative, as are the rows whose update failed
        if len(rows) < n_tracks or len(dropped):
            updated = self.misses + (self.misses != TENTATIVE)
            updated[rows] = 0
            updated[dropped] = TENTATIVE
            self.misses = updated
            if TENTATIVE in misses or len(dropped):
                self._select(updated != TENTATIVE)
        elif len(rows):
            self.misses.fill(0)

        # seed new tracks from confident leftovers
        if len(born):
            born_xyah = measured.take(born, 0)
            means, covariances = kalman.batch_initiate(born_xyah)
            self.means = np.concatenate([self.means, means])
            self.covariances = np.concatenate([self.covariances, covariances])
            self.ids = np.concatenate([self.ids, range(self._next_id, self._next_id + len(born))])
            self.misses = np.concatenate([self.misses, [0 if first_frame else TENTATIVE] * len(born)])
            self._next_id += len(born)
            if first_frame:
                outputs = FrameBoxes(self.ids, born_xyah, scores.take(born))

        return FrameResult(frame_index, outputs)


def associate(track_corners, misses, det_corners, scores, config: TrackerConfig):
    """One frame's three association stages.

    Takes the live tracks' predicted corner boxes ``(N, 4)`` with their
    ``misses``, one int per track (:data:`TENTATIVE` marks a tentative
    track), and the detections' corner boxes ``(n, 4)`` with their scores
    ``(n,)``.  Returns ``(rows, cols, born)``: the matched track rows and
    detection columns, sorted by row, and the unclaimed high-confidence
    detections confident enough to seed a track.

    The candidate (track, usable detection) pairs are listed and costed
    once (ValueError unless every cost is finite and non-negative).  When
    live tracks x usable detections reach :data:`SPARSE_MIN_CELLS` and every
    gate is below 1, the candidates are the pairs
    :func:`~sctrack.geometry.overlapping_pairs` finds (a pair that does not
    overlap costs at least 1, so no gate below 1 admits it); otherwise they
    are all pairs.  One pass keeps each pair within its stage's gate and
    matches every kept pair that shares neither its track nor its detection
    with another; the stages solve the rest with
    :func:`~sctrack.assignment.solve_pairs`, which on exact cost ties may
    take another optimal matching than a dense solve.
    """
    cfg = config
    usable = (scores >= cfg.low_thresh).nonzero()[0]
    n_tracks, n_usable = len(track_corners), len(usable)
    if (
        n_tracks * n_usable >= SPARSE_MIN_CELLS
        and max(cfg.match_gate_stage1, cfg.match_gate_stage2, cfg.match_gate_unconfirmed) < 1.0
    ):
        rows, cols = geometry.overlapping_pairs(track_corners, det_corners.take(usable, 0))
    else:
        rows, cols = np.divmod(np.arange(n_tracks * n_usable), n_usable)
    cols = usable.take(cols)
    costs = geometry.paired_shape_iou_distance(
        track_corners.take(rows, 0), det_corners.take(cols, 0),
        use_height_term=cfg.use_height_term, use_area_term=cfg.use_area_term,
    )
    if not (costs.min(initial=0.0) >= 0.0 and costs.max(initial=0.0) < np.inf):
        raise ValueError("pair costs must be finite and non-negative")
    # a pair's stage is 2 * tentative + low band: 0-2 are stages 1-3, and the
    # gate of 3 (tentative x low, in no stage) admits no cost
    stage = (2 * (np.asarray(misses) == TENTATIVE)).take(rows) + (scores < cfg.high_thresh).take(cols)
    gates = np.array([cfg.match_gate_stage1, cfg.match_gate_stage2, cfg.match_gate_unconfirmed, -1.0])
    kept = (costs <= gates.take(stage)).nonzero()[0]
    match = np.full(n_tracks, -1)  # detection matched to each row
    claimed = np.zeros(len(scores), bool)
    # a lone kept pair is alone in its stage, and no other stage touches its
    # track or detection, so its stage would match it as it is
    kept_rows, kept_cols = rows.take(kept), cols.take(kept)
    lone = assignment.lone_pairs(kept_rows, kept_cols)
    if not lone.all():
        contested = kept[~lone]
        rows, cols, costs, stage = (part.take(contested) for part in (rows, cols, costs, stage))

        def solve(pairs, gate):
            if pairs.any():
                r, c = assignment.solve_pairs(rows[pairs], cols[pairs], costs[pairs], gate)
                match[r] = c
                claimed[c] = True

        # stage 1: confirmed + lost tracks vs high; stage 2: their leftovers
        # vs low; stage 3: tentative tracks vs the high detections stage 1 left
        solve(stage == 0, cfg.match_gate_stage1)
        solve((stage == 1) & (match.take(rows) < 0), cfg.match_gate_stage2)
        solve((stage == 2) & ~claimed.take(cols), cfg.match_gate_unconfirmed)
        kept_rows, kept_cols = kept_rows[lone], kept_cols[lone]
    match[kept_rows], claimed[kept_cols] = kept_cols, True
    matched = (match >= 0).nonzero()[0]
    seeds = (scores >= max(cfg.high_thresh, cfg.new_track_thresh)) & ~claimed
    return matched, match.take(matched), seeds.nonzero()[0]


def run_sequence(detections_by_frame, config: TrackerConfig = TrackerConfig()) -> list[FrameResult]:
    """Track a whole sequence with a fresh tracker.

    Steps every frame from the smallest to the largest key (missing frames
    count as empty) so lost tracks keep coasting through detection gaps.
    Deterministic for identical inputs.
    """
    if not detections_by_frame:
        return []
    frames = sorted(detections_by_frame)
    tracker = SCTracker(config)
    results = []
    for frame in range(frames[0], frames[-1] + 1):
        try:
            results.append(tracker.step(frame, detections_by_frame.get(frame, [])))
        except (ValueError, TypeError) as exc:
            raise RuntimeError(f"tracking failed at frame {frame}: {exc}") from exc
    return results
