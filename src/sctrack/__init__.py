"""Detector-agnostic multi-object tracking.

Association uses a shape-aware IoU distance (height and area penalties on
top of the usual overlap distance) over a two-stage high/low-confidence
matching scheme, and track states are maintained by a constant-velocity
Kalman filter whose update is weighted by detection confidence.  The
package also ships MOTChallenge-format I/O, CLEAR/IDF1 evaluation, a
deterministic synthetic-scenario generator and an ablation harness.
"""

from .assignment import AssignmentResult, solve
from .frames import FrameBoxes
from .geometry import (
    BoundingBox,
    Detection,
    cost_matrix,
    iou,
    shape_iou_distance,
)
from .kalman import InvalidStateError, KalmanState
from .metrics import MetricsReport, evaluate
from .synth import ObjectSpec, ScenarioSpec, builtin_scenario, builtin_scenarios, generate
from .tracker import (
    FrameResult,
    SCTracker,
    Track,
    TrackerConfig,
    TrackOutput,
    TrackStatus,
    run_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentResult",
    "BoundingBox",
    "Detection",
    "FrameBoxes",
    "FrameResult",
    "InvalidStateError",
    "KalmanState",
    "MetricsReport",
    "ObjectSpec",
    "SCTracker",
    "ScenarioSpec",
    "Track",
    "TrackOutput",
    "TrackStatus",
    "TrackerConfig",
    "builtin_scenario",
    "builtin_scenarios",
    "cost_matrix",
    "evaluate",
    "generate",
    "iou",
    "run_sequence",
    "shape_iou_distance",
    "solve",
    "__version__",
]
