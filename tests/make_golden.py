"""Golden tracker outputs for the differential test in ``test_golden.py``.

Runs every builtin scenario for seeds 1-20 under each of the four component
ablation arms, plus the 50-object stream of acceptance criterion 10, and
stores every emitted output (frame, track id, score, box) in
``golden_tracker.npz`` next to this file.  The file pins the tracker's
behaviour: regenerate it only when a change to the tracking output is
intended, and say so in the change.

From the repository root:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from sctrack.ablation import COMPONENT_ARMS, arm_config
from sctrack.geometry import BoundingBox, Detection
from sctrack.synth import builtin_scenario, builtin_scenarios, generate
from sctrack.tracker import TrackerConfig, run_sequence

GOLDEN_PATH = Path(__file__).with_name("golden_tracker.npz")
SEEDS = range(1, 21)


def criterion10_stream() -> dict:
    """The 50-object, 120-frame detection stream of acceptance criterion 10."""
    rng = np.random.default_rng(110)
    centers = rng.uniform([100, 100], [1800, 900], size=(50, 2))
    sizes = rng.uniform([40, 80], [100, 200], size=(50, 2))
    velocities = rng.uniform(-4, 4, size=(50, 2))
    jitter = rng.normal(0, 1.5, size=(120, 50, 2))
    stream = {}
    for t in range(1, 121):
        frame = []
        for i in range(50):
            x, y = centers[i] + velocities[i] * t + jitter[t - 1, i]
            w, h = sizes[i]
            frame.append(
                Detection(
                    BoundingBox.from_tlwh(float(x), float(y), float(w), float(h)),
                    float(0.8 + 0.19 * np.sin(i + t)),
                )
            )
        stream[t] = frame
    return stream


def scenario_runs():
    """Yield ``(label, ground truth, detections by frame, tracker config)`` for
    every builtin scenario, seed and component arm."""
    for spec in builtin_scenarios():
        for seed in SEEDS:
            gt, detections = generate(builtin_scenario(spec.name, seed=seed))
            for arm in COMPONENT_ARMS:
                yield f"{spec.name}/seed={seed}/{arm.label}", gt, detections, arm_config(TrackerConfig(), arm)


def golden_runs():
    """Yield ``(label, detections by frame, tracker config)`` for every pinned run."""
    for label, _, detections, config in scenario_runs():
        yield label, detections, config
    yield "criterion10", criterion10_stream(), TrackerConfig()


def track_outputs(detections, config) -> dict:
    """One run's outputs as flat arrays, in emission order."""
    results = run_sequence(detections, config)
    rows = [(fr.frame_index, o.track_id, o.score, o.box) for fr in results for o in fr.outputs]
    return {
        "frames_stepped": len(results),
        "frame": np.array([r[0] for r in rows], dtype=np.int32),
        "track_id": np.array([r[1] for r in rows], dtype=np.int32),
        "score": np.array([r[2] for r in rows], dtype=np.float64),
        "box": np.array([(b.x, b.y, b.a, b.h) for *_, b in rows], dtype=np.float64).reshape(-1, 4),
    }


def main() -> None:
    labels, stepped, parts = [], [], []
    for label, detections, config in golden_runs():
        out = track_outputs(detections, config)
        labels.append(label)
        stepped.append(out["frames_stepped"])
        parts.append(out)
    run = np.concatenate([np.full(len(p["frame"]), i, dtype=np.int16) for i, p in enumerate(parts)])
    np.savez_compressed(
        GOLDEN_PATH,
        labels=np.array(labels),
        frames_stepped=np.array(stepped, dtype=np.int32),
        run=run,
        **{key: np.concatenate([p[key] for p in parts]) for key in ("frame", "track_id", "score", "box")},
    )
    print(f"wrote {len(labels)} runs, {len(run)} outputs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
