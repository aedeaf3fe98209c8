"""Deterministic synthetic tracking scenarios.

A scenario is a handful of constant-velocity objects on a fixed 1920x1080
canvas plus a detector-degradation model: corner jitter, random dropout,
Poisson clutter, and an occlusion-driven confidence/box-distortion model.
Objects listed later occlude objects listed earlier; an occluded object's
detection gets a confidence dip proportional to the hidden fraction and its
box is truncated to roughly the visible part, the way real detectors behave
when a target is partially blocked.

Everything is a pure function of ``(spec, rng_seed)``: the same spec always
produces bit-identical ground truth and detections.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import motio
from .geometry import BoundingBox, Detection

IMAGE_WIDTH = 1920.0
IMAGE_HEIGHT = 1080.0

MIN_BOX_SIDE = 1.0

# occlusion-driven confidence: base score minus a slope times the hidden
# fraction, minus folded Gaussian jitter, clamped to [0, 1]
CONFIDENCE_BASE = 0.99
CONFIDENCE_OCCLUSION_SLOPE = 1.2
CONFIDENCE_JITTER_STD = 0.05

CONFIDENCE_MODELS = ("clean", "occlusion")

# most clutter clusters near real targets (detector ghosting and double
# fires around occlusions) at a flanking offset; the rest is spread over
# the canvas
GHOST_CLUTTER_FRACTION = 0.8
GHOST_CLUTTER_OFFSET_MIN_PX = 60.0
GHOST_CLUTTER_OFFSET_MAX_PX = 160.0


@dataclass(frozen=True)
class ObjectSpec:
    """One object: initial top-left/width/height box and per-frame velocity.

    :class:`ScenarioSpec` checks both, naming the object's index."""

    tlwh: tuple[float, float, float, float]
    velocity: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    frames: int
    objects: tuple[ObjectSpec, ...]
    noise_std_px: float = 0.0
    dropout_prob: float = 0.0
    false_positive_rate: float = 0.0
    confidence_model: str = "clean"
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("frames", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError(f"dropout_prob must lie in [0, 1], got {self.dropout_prob}")
        for name in ("noise_std_px", "false_positive_rate"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.confidence_model not in CONFIDENCE_MODELS:
            raise ValueError(
                f"unknown confidence model {self.confidence_model!r}; "
                f"choose from {CONFIDENCE_MODELS}"
            )
        objects = tuple(
            o if isinstance(o, ObjectSpec) else ObjectSpec(tuple(o[0]), tuple(o[1]))
            for o in self.objects
        )
        for i, obj in enumerate(objects):
            for name, values, size in (("tlwh", obj.tlwh, 4), ("velocity", obj.velocity, 2)):
                if len(values) != size or not all(map(math.isfinite, values)):
                    raise ValueError(f"object {i}: {name} must be {size} finite numbers, got {values}")
            if not min(obj.tlwh[2:]) >= MIN_BOX_SIDE:
                raise ValueError(f"object {i}: tlwh width and height must be >= {MIN_BOX_SIDE}, got {obj.tlwh}")
        object.__setattr__(self, "objects", objects)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`.  An absent field takes its default; a
        key that names no field raises ValueError."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown scenario key {unknown[0]!r}")
        objects = tuple(ObjectSpec(**{k: tuple(v) for k, v in o.items()}) for o in data["objects"])
        return cls(**{**data, "objects": objects})


def _clip_corners(x1, y1, x2, y2):
    """Clip a corner box to the canvas; None if (almost) nothing remains."""
    x1, y1 = max(x1, 0.0), max(y1, 0.0)
    x2, y2 = min(x2, IMAGE_WIDTH), min(y2, IMAGE_HEIGHT)
    if x2 - x1 < MIN_BOX_SIDE or y2 - y1 < MIN_BOX_SIDE:
        return None
    return (x1, y1, x2, y2)


def _corners_to_box(corners) -> BoundingBox:
    x1, y1, x2, y2 = corners
    return BoundingBox.from_tlwh(x1, y1, x2 - x1, y2 - y1)


def _intersection(a, b):
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    if x2 <= x1 or y2 <= y1:
        return None
    return (x1, y1, x2, y2)


def _occluded_fraction(corners, occluders) -> float:
    """Hidden-area fraction, summing per-occluder overlap (capped at 1)."""
    area = (corners[2] - corners[0]) * (corners[3] - corners[1])
    hidden = 0.0
    for occ in occluders:
        inter = _intersection(corners, occ)
        if inter is not None:
            hidden += (inter[2] - inter[0]) * (inter[3] - inter[1])
    return min(hidden / area, 1.0)


def _truncate_to_visible(corners, occluders):
    """Cut away the hidden side of a box, emulating a detector that only
    fires on the visible part of a blocked target."""
    x1, y1, x2, y2 = corners
    for occ in occluders:
        inter = _intersection((x1, y1, x2, y2), occ)
        if inter is None:
            continue
        ix1, iy1, ix2, iy2 = inter
        spans_height = (iy2 - iy1) >= 0.6 * (y2 - y1)
        spans_width = (ix2 - ix1) >= 0.6 * (x2 - x1)
        if spans_height and ix2 >= x2 and ix1 > x1:
            x2 = ix1  # hidden on the right
        elif spans_height and ix1 <= x1 and ix2 < x2:
            x1 = ix2  # hidden on the left
        elif spans_width and iy2 >= y2 and iy1 > y1:
            y2 = iy1  # hidden at the bottom
        elif spans_width and iy1 <= y1 and iy2 < y2:
            y1 = iy2  # hidden at the top
    if x2 - x1 < MIN_BOX_SIDE:
        x2 = x1 + MIN_BOX_SIDE
    if y2 - y1 < MIN_BOX_SIDE:
        y2 = y1 + MIN_BOX_SIDE
    return (x1, y1, x2, y2)


def generate(spec: ScenarioSpec):
    """Materialize a scenario.

    Returns:
        ``(gt, detections)`` where gt maps frame -> list of
        ``(track_id, BoundingBox)`` and detections maps frame ->
        list of Detection.  Frames without content are omitted.

    Raises:
        ValueError: if any object starts (partly) outside the canvas.
    """
    for i, obj in enumerate(spec.objects):
        x, y, w, h = obj.tlwh
        if x < 0 or y < 0 or x + w > IMAGE_WIDTH or y + h > IMAGE_HEIGHT:
            raise ValueError(
                f"object {i} starts outside the {IMAGE_WIDTH:.0f}x{IMAGE_HEIGHT:.0f} canvas: {obj.tlwh}"
            )

    rng = np.random.default_rng(spec.rng_seed)
    gt: dict[int, list[tuple[int, BoundingBox]]] = {}
    detections: dict[int, list[Detection]] = {}

    for frame in range(1, spec.frames + 1):
        t = frame - 1
        corner_rows: list = []
        gt_rows: list[tuple[int, BoundingBox]] = []
        for i, obj in enumerate(spec.objects):
            x, y, w, h = obj.tlwh
            vx, vy = obj.velocity
            corners = _clip_corners(x + vx * t, y + vy * t, x + vx * t + w, y + vy * t + h)
            corner_rows.append(corners)
            if corners is not None:
                gt_rows.append((i + 1, _corners_to_box(corners)))
        if gt_rows:
            gt[frame] = gt_rows

        det_rows: list[Detection] = []
        for i, corners in enumerate(corner_rows):
            if corners is None:
                continue
            occluders = [c for c in corner_rows[i + 1 :] if c is not None]
            occ = _occluded_fraction(corners, occluders)

            if spec.confidence_model == "clean":
                conf = 1.0
            else:
                jitter = abs(rng.normal(0.0, CONFIDENCE_JITTER_STD))
                conf = min(max(CONFIDENCE_BASE - CONFIDENCE_OCCLUSION_SLOPE * occ - jitter, 0.0), 1.0)

            box = corners if occ <= 0 else _truncate_to_visible(corners, occluders)
            if spec.noise_std_px > 0:
                dx1, dy1, dx2, dy2 = rng.normal(0.0, spec.noise_std_px, size=4)
                x1, y1, x2, y2 = box[0] + dx1, box[1] + dy1, box[2] + dx2, box[3] + dy2
                if x2 - x1 < MIN_BOX_SIDE:
                    x2 = x1 + MIN_BOX_SIDE
                if y2 - y1 < MIN_BOX_SIDE:
                    y2 = y1 + MIN_BOX_SIDE
                box = (x1, y1, x2, y2)
            if spec.dropout_prob > 0 and rng.random() < spec.dropout_prob:
                continue
            det_rows.append(Detection(box=_corners_to_box(box), score=conf))

        if spec.false_positive_rate > 0:
            live = [c for c in corner_rows if c is not None]
            for _ in range(int(rng.poisson(spec.false_positive_rate))):
                w = float(rng.uniform(25.0, 140.0))
                h = float(rng.uniform(40.0, 200.0))
                if live and rng.random() < GHOST_CLUTTER_FRACTION:
                    anchor = live[int(rng.integers(len(live)))]
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    radius = rng.uniform(GHOST_CLUTTER_OFFSET_MIN_PX, GHOST_CLUTTER_OFFSET_MAX_PX)
                    x = anchor[0] + float(radius * np.cos(angle))
                    y = anchor[1] + float(radius * np.sin(angle))
                else:
                    x = float(rng.uniform(0.0, IMAGE_WIDTH - w))
                    y = float(rng.uniform(0.0, IMAGE_HEIGHT - h))
                x = min(max(x, 0.0), IMAGE_WIDTH - w)
                y = min(max(y, 0.0), IMAGE_HEIGHT - h)
                conf = float(rng.uniform(0.1, 0.7))
                det_rows.append(Detection(box=BoundingBox.from_tlwh(x, y, w, h), score=conf))

        if det_rows:
            detections[frame] = det_rows

    return gt, detections


def builtin_scenarios() -> list[ScenarioSpec]:
    """The bundled scenarios used by the tests and the ablation harness."""
    return [
        ScenarioSpec(
            name="straight_clean",
            frames=50,
            objects=(
                ObjectSpec(tlwh=(200.0, 300.0, 70.0, 140.0), velocity=(9.0, 0.0)),
                ObjectSpec(tlwh=(200.0, 650.0, 80.0, 160.0), velocity=(9.0, 0.0)),
            ),
            confidence_model="clean",
            rng_seed=7,
        ),
        ScenarioSpec(
            name="crossing_same_shape",
            frames=70,
            objects=(
                ObjectSpec(tlwh=(300.0, 440.0, 70.0, 140.0), velocity=(10.0, 0.0)),
                ObjectSpec(tlwh=(1100.0, 440.0, 70.0, 140.0), velocity=(-10.0, 0.0)),
            ),
            noise_std_px=1.5,
            dropout_prob=0.02,
            false_positive_rate=0.8,
            confidence_model="occlusion",
            rng_seed=11,
        ),
        ScenarioSpec(
            name="crossing_distinct_shape",
            frames=70,
            objects=(
                ObjectSpec(tlwh=(300.0, 450.0, 120.0, 60.0), velocity=(10.0, 0.0)),
                ObjectSpec(tlwh=(1100.0, 420.0, 60.0, 120.0), velocity=(-10.0, 0.0)),
            ),
            noise_std_px=1.5,
            dropout_prob=0.02,
            false_positive_rate=1.0,
            confidence_model="occlusion",
            rng_seed=12,
        ),
        ScenarioSpec(
            name="occlusion_lowconf",
            frames=70,
            objects=(
                ObjectSpec(tlwh=(460.0, 400.0, 70.0, 150.0), velocity=(11.0, 0.0)),
                ObjectSpec(tlwh=(850.0, 380.0, 180.0, 190.0), velocity=(0.0, 0.0)),
            ),
            noise_std_px=1.5,
            false_positive_rate=1.0,
            confidence_model="occlusion",
            rng_seed=2,
        ),
    ]


def builtin_scenario(name: str, seed: int | None = None) -> ScenarioSpec:
    """Look up a bundled scenario by name, optionally re-seeded."""
    for spec in builtin_scenarios():
        if spec.name == name:
            return spec if seed is None else replace(spec, rng_seed=seed)
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")


def save_scenario(spec: ScenarioSpec, out_dir) -> dict:
    """Write ``gt.txt``, ``det.txt`` and ``scenario.json`` into a directory.

    Returns the paths that were written.  The JSON sidecar records the full
    spec (including the seed) so a run can be reproduced exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    gt, detections = generate(spec)
    paths = {
        "gt": os.path.join(out_dir, "gt.txt"),
        "det": os.path.join(out_dir, "det.txt"),
        "meta": os.path.join(out_dir, "scenario.json"),
    }
    motio.write_ground_truth(paths["gt"], gt)
    motio.write_detections(paths["det"], detections)
    with open(paths["meta"], "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
