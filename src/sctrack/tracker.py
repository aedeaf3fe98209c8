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

import numpy as np

from . import assignment, geometry, kalman
from .frames import NO_BOXES, FrameBoxes, detection_block
from .geometry import BoundingBox


class TrackStatus(enum.Enum):
    TENTATIVE = "tentative"
    CONFIRMED = "confirmed"
    LOST = "lost"
    REMOVED = "removed"


@dataclass
class Track:
    """One tracked identity's lifecycle bookkeeping.

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
    extends beyond [0, 1] when the shape terms are enabled.  The last four
    fields switch the shape terms of the distance and the confidence
    mechanisms of the filter update.

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
    use_confidence_noise: bool = True
    use_velocity_blend: bool = True

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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_lost_frames < 1:
            raise ValueError(f"max_lost_frames must be >= 1, got {self.max_lost_frames}")


# every field of the tracker configuration, typed by its default
CONFIG_SCHEMA = {f.name: type(f.default) for f in fields(TrackerConfig)}


@dataclass(frozen=True)
class TrackOutput:
    track_id: int
    box: BoundingBox
    score: float


@dataclass(frozen=True, eq=False)
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


class SCTracker:
    """Stateful per-sequence tracker; call :meth:`step` once per frame.

    The live tracks form one table: ``tracks[i]`` holds the lifecycle of the
    track whose filter state is row ``i`` of ``means`` ``(N, 8)`` and
    ``covariances`` ``(N, 8, 8)``.  Each frame runs the batched filter
    kernels once over the whole table.
    """

    def __init__(self, config: TrackerConfig = TrackerConfig()):
        self.config = config
        self.tracks: list[Track] = []
        self.means = np.zeros((0, kalman.STATE_DIM))
        self.covariances = np.zeros((0, kalman.STATE_DIM, kalman.STATE_DIM))
        self._next_id = 1
        self._last_frame: int | None = None

    def _drop_removed(self):
        """Drop removed tracks and their table rows; returns the keep mask, or
        None when nothing was removed."""
        keep = [t.status is not TrackStatus.REMOVED for t in self.tracks]
        if all(keep):
            return None
        self.tracks = [t for t, k in zip(self.tracks, keep) if k]
        self.means = self.means[keep]
        self.covariances = self.covariances[keep]
        return keep

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
        self.means, self.covariances = kalman.batch_predict(self.means, self.covariances)
        corners, valid = kalman.batch_project(self.means)
        for track, ok in zip(self.tracks, valid.tolist()):
            if not ok or (
                track.status is TrackStatus.LOST
                and track.frames_since_update >= cfg.max_lost_frames
            ):
                track.status = TrackStatus.REMOVED
        keep = self._drop_removed()
        if keep is not None:
            corners = corners[keep]

        # index sets are Python lists, as the assignment results are
        measured = table[:, : kalman.MEASUREMENT_DIM]
        det_corners = geometry.xyah_to_corners(measured)
        scores = table[:, 4].tolist()
        high = [j for j, s in enumerate(scores) if s >= cfg.high_thresh]
        low = [j for j, s in enumerate(scores) if cfg.low_thresh <= s < cfg.high_thresh]

        def associate(rows, cols, gate):
            """Solve one stage; returns (matched row/col pairs, unmatched rows, unmatched cols)."""
            if not rows or not cols:
                return [], rows, cols
            result = assignment.solve(
                geometry.pairwise_shape_iou_distance(
                    corners.take(rows, 0), det_corners.take(cols, 0),
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
        pool = [i for i, t in enumerate(self.tracks) if t.status is not TrackStatus.TENTATIVE]
        matched, remainder, high_left = associate(pool, high, cfg.match_gate_stage1)

        # stage 2: leftover tracks vs low-confidence detections
        matched2, missed, _ = associate(remainder, low, cfg.match_gate_stage2)
        matched += matched2

        # stage 3: tentative tracks vs the high detections nobody claimed
        tentative = [i for i, t in enumerate(self.tracks) if t.status is TrackStatus.TENTATIVE]
        matched3, missed_tentative, high_left = associate(tentative, high_left, cfg.match_gate_unconfirmed)
        matched += matched3

        # outputs come from matches, except on the first frame (no tracks to
        # match yet), where they are the births
        outputs = NO_BOXES
        if matched:
            rows = [r for r, _ in matched]
            cols = [c for _, c in matched]
            # ``take`` rather than list indexing: the same rows at less call cost
            matched_scores = table[:, 4].take(cols)
            means, covariances = kalman.batch_update(
                self.means.take(rows, 0), self.covariances.take(rows, 0),
                measured.take(cols, 0), matched_scores,
                use_confidence_noise=cfg.use_confidence_noise, use_velocity_blend=cfg.use_velocity_blend,
            )
            self.means[rows], self.covariances[rows] = means, covariances
            valid = kalman.valid_rows(means).tolist()
            emitted = {}  # position in ``matched`` -> track id
            for k, (row, ok) in enumerate(zip(rows, valid)):
                track = self.tracks[row]
                track.frames_since_update = 0
                if ok:
                    track.status = TrackStatus.CONFIRMED
                    emitted[k] = track.track_id
                else:
                    track.status = TrackStatus.REMOVED
            order = sorted(emitted, key=emitted.__getitem__)
            ids = np.array([emitted[k] for k in order], dtype=np.int64)
            if order != list(range(len(matched))):  # a match dropped, or ids out of order
                means, matched_scores = means.take(order, 0), matched_scores.take(order)
            outputs = FrameBoxes(ids, means[:, : kalman.MEASUREMENT_DIM], matched_scores)

        for row in missed:
            track = self.tracks[row]
            track.frames_since_update += 1
            track.status = TrackStatus.LOST
        for row in missed_tentative:
            self.tracks[row].status = TrackStatus.REMOVED
        self._drop_removed()

        # seed new tracks from confident leftovers
        born = [j for j in high_left if scores[j] >= cfg.new_track_thresh]
        if born:
            born_xyah = measured.take(born, 0)
            means, covariances = kalman.batch_initiate(born_xyah)
            self.means = np.concatenate([self.means, means])
            self.covariances = np.concatenate([self.covariances, covariances])
            status = TrackStatus.CONFIRMED if first_frame else TrackStatus.TENTATIVE
            ids = np.arange(self._next_id, self._next_id + len(born), dtype=np.int64)
            self.tracks += [Track(track_id=i, status=status) for i in ids.tolist()]
            self._next_id += len(born)
            if first_frame:
                outputs = FrameBoxes(ids, born_xyah, table[:, 4].take(born))

        return FrameResult(frame_index, outputs)


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
