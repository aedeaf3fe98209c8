"""Seeded crowd stream: a fixed set of pedestrian-sized boxes, all in every frame.

The generator is the benchmark's own, vectorised over objects with numpy, so
building the stream stays cheap next to tracking it (the per-frame occlusion
model in ``sctrack.synth`` is O(N^2) Python and would dominate set-up for a
crowd).  It hands the program only ``Detection`` and ``BoundingBox`` values.

Objects move at constant velocity and bounce off the canvas edges, so the
crowd stays in view.  A box whose bottom edge is lower in the image is nearer
the camera and hides the boxes it overlaps; the hidden fraction lowers the
detection confidence, as in ``sctrack.synth``, and widens the corner jitter,
so low-confidence boxes also carry distorted geometry.  About one clutter box
per ten objects is added per frame, mostly flanking real targets.
"""

from __future__ import annotations

import numpy as np

from sctrack.geometry import BoundingBox, Detection

IMAGE_WIDTH = 1920.0
IMAGE_HEIGHT = 1080.0

CONFIDENCE_BASE = 0.99
CONFIDENCE_OCCLUSION_SLOPE = 1.2
CONFIDENCE_JITTER_STD = 0.05
CORNER_JITTER_PX = 1.5
OCCLUDED_JITTER_SHARE = 0.15  # extra corner jitter per unit hidden fraction, as a share of h
DROPOUT_PROB = 0.02
CLUTTER_PER_OBJECT = 0.10


def _bounce(start, velocity, t, span):
    """Positions of points moving at constant velocity between walls 0 and span."""
    p = np.mod(start + velocity * t, 2.0 * span)
    return np.where(p <= span, p, 2.0 * span - p)


def _hidden_fraction(x1, y1, x2, y2):
    """Share of each box covered by the boxes in front of it, capped at 1."""
    iw = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ih = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    in_front = y2[None, :] > y2[:, None]
    hidden = (inter * in_front).sum(axis=1)
    return np.minimum(hidden / ((x2 - x1) * (y2 - y1)), 1.0)


def make_crowd(seed: int, objects: int = 100, frames: int = 300):
    """Build ``(gt, detections)`` in the shapes ``sctrack.metrics.evaluate`` and
    ``SCTracker.step`` take: frame -> [(id, BoundingBox)] and frame -> [Detection].

    The same arguments always give the same stream.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(60.0, 160.0, objects)
    w = h * rng.uniform(0.35, 0.45, objects)
    x0 = rng.uniform(0.0, IMAGE_WIDTH - w)
    y0 = rng.uniform(0.0, IMAGE_HEIGHT - h)
    vx = rng.normal(0.0, 3.0, objects)
    vy = rng.normal(0.0, 1.0, objects)
    t = np.arange(frames, dtype=np.float64)[:, None]
    xs = _bounce(x0, vx, t, IMAGE_WIDTH - w)
    ys = _bounce(y0, vy, t, IMAGE_HEIGHT - h)

    gt, detections = {}, {}
    n_clutter = rng.poisson(CLUTTER_PER_OBJECT * objects, frames)
    for f in range(frames):
        x1, y1 = xs[f], ys[f]
        x2, y2 = x1 + w, y1 + h
        occ = _hidden_fraction(x1, y1, x2, y2)
        conf = np.clip(
            CONFIDENCE_BASE
            - CONFIDENCE_OCCLUSION_SLOPE * occ
            - np.abs(rng.normal(0.0, CONFIDENCE_JITTER_STD, objects)),
            0.0,
            1.0,
        )
        jitter = rng.normal(0.0, 1.0, (objects, 4)) * (
            CORNER_JITTER_PX + OCCLUDED_JITTER_SHARE * occ * h
        )[:, None]
        dx1, dy1 = x1 + jitter[:, 0], y1 + jitter[:, 1]
        dw = np.maximum(x2 + jitter[:, 2] - dx1, 1.0)
        dh = np.maximum(y2 + jitter[:, 3] - dy1, 1.0)
        kept = rng.random(objects) >= DROPOUT_PROB

        k = int(n_clutter[f])
        anchor = rng.integers(objects, size=k)
        angle = rng.uniform(0.0, 2.0 * np.pi, k)
        radius = rng.uniform(60.0, 160.0, k)
        ch = rng.uniform(40.0, 200.0, k)
        cw = ch * rng.uniform(0.3, 0.6, k)
        cx = np.clip(x1[anchor] + radius * np.cos(angle), 0.0, IMAGE_WIDTH - cw)
        cy = np.clip(y1[anchor] + radius * np.sin(angle), 0.0, IMAGE_HEIGHT - ch)
        cconf = rng.uniform(0.1, 0.7, k)

        frame = f + 1
        gt[frame] = [
            (i + 1, BoundingBox.from_tlwh(*row))
            for i, row in enumerate(zip(x1.tolist(), y1.tolist(), w.tolist(), h.tolist()))
        ]
        detections[frame] = [
            Detection(BoundingBox.from_tlwh(a, b, c, d), s)
            for a, b, c, d, s in zip(
                dx1[kept].tolist(), dy1[kept].tolist(), dw[kept].tolist(),
                dh[kept].tolist(), conf[kept].tolist(),
            )
        ] + [
            Detection(BoundingBox.from_tlwh(a, b, c, d), s)
            for a, b, c, d, s in zip(cx.tolist(), cy.tolist(), cw.tolist(), ch.tolist(), cconf.tolist())
        ]
    return gt, detections
