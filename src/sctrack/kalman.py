"""Constant-velocity Kalman filtering of bounding-box states.

The state is the 8-vector ``[x, y, a, h, vx, vy, va, vh]``: top-left corner,
aspect ratio, height, and their per-frame rates of change.  Process and
measurement noise follow the usual box-tracking convention of standard
deviations proportional to the current box height, so the filter behaves the
same at any image resolution.

Two confidence mechanisms hook into the update:

* the measurement noise is scaled by ``(1 - score**2)``, so confident
  detections are trusted more (a score of exactly 1 removes measurement
  noise entirely and the posterior snaps to the measurement);
* the velocity components of the posterior are blended as
  ``score * posterior + (1 - score) * prior``, so a low-quality box cannot
  yank the motion estimate around.

The noise is diagonal and the measurement is the position half of the
state, so the 8x8 covariance is four 2x2 (position, rate) blocks, one per
coordinate, and every other entry stays exactly 0.  Each operation is one
elementwise kernel over a table: row ``i`` of an ``(N, 8)`` mean and an
``(N, 3, 4)`` covariance array (rows ``var(pos)``, ``cov(pos, rate)``,
``var(rate)`` of x, y, a, h) is one filter.  The tracker calls the
``batch_*`` kernels on its whole track table once per frame; the one-row
:func:`initiate`, :func:`predict`, :func:`update` and :func:`project` take a
:class:`KalmanState` with the full 8x8 covariance (:func:`to_blocks` and
:func:`to_dense` convert).  Callers never observe partial updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, Detection, xyah_to_corners

STATE_DIM = 8
MEASUREMENT_DIM = 4

# block row k of axis i is entry (_BLOCK_ROWS[k, i], _BLOCK_COLS[k, i]) of the 8x8 matrix
_BLOCK_ROWS = np.arange(MEASUREMENT_DIM) + np.array([[0], [0], [MEASUREMENT_DIM]])
_BLOCK_COLS = np.arange(MEASUREMENT_DIM) + np.array([[0], [MEASUREMENT_DIM], [MEASUREMENT_DIM]])

# dt = 1 constant-velocity step: each position picks up its rate, so a block
# [var(pos), cov, var(rate)] = [P, C, V] becomes [P + 2C + V, C + V, V]
_TRANSITION = np.eye(STATE_DIM) + np.eye(STATE_DIM, k=MEASUREMENT_DIM)
_BLOCK_TRANSITION = np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])

# position and velocity noise standard deviations per unit of box height, the
# weights of the usual box-tracking filter
_WP = 1.0 / 20
_WV = 1.0 / 160

# aspect ratio is dimensionless; its noise does not scale with box height
_ASPECT_STD = 1e-2
_ASPECT_VELOCITY_STD = 1e-5
_ASPECT_MEASUREMENT_STD = 1e-1


class InvalidStateError(ValueError):
    """The filtered state no longer describes a valid box (h or a <= 0)."""


@dataclass(frozen=True)
class KalmanState:
    """Filter snapshot: 8-vector mean and 8x8 covariance; treated as immutable."""

    mean: np.ndarray
    covariance: np.ndarray


# noise standard deviations are ``h * weight + constant``, h the box height:
# (weights, constants) as block rows (cov row 0) or, for the measurement, per axis
_PROCESS_WEIGHTS = np.array([[_WP, _WP, 0, _WP], [0, 0, 0, 0], [_WV, _WV, 0, _WV]])
_PROCESS_CONSTANTS = np.array([[0, 0, _ASPECT_STD, 0], [0, 0, 0, 0], [0, 0, _ASPECT_VELOCITY_STD, 0]])
_STD_ROWS = {
    "initiate": (np.array([[2.0], [0.0], [10.0]]) * _PROCESS_WEIGHTS, _PROCESS_CONSTANTS),
    "predict": (_PROCESS_WEIGHTS, _PROCESS_CONSTANTS),
    "measure": (_PROCESS_WEIGHTS[0], np.array([0, 0, _ASPECT_MEASUREMENT_STD, 0])),
}


def _variances(kernel: str, h: np.ndarray) -> np.ndarray:
    """Noise variances of one kernel, one row set per height in ``h``."""
    weights, constants = _STD_ROWS[kernel]
    return np.square(np.multiply.outer(h, weights) + constants)


def batch_initiate(measurements: np.ndarray):
    """Start one state per ``[x, y, a, h]`` row, all with zero velocity.

    Returns ``(mean, covariance)`` of shapes ``(N, 8)`` and ``(N, 3, 4)``.
    """
    measurements = np.asarray(measurements, dtype=np.float64).reshape(-1, MEASUREMENT_DIM)
    mean = np.zeros((len(measurements), STATE_DIM))
    mean[:, :MEASUREMENT_DIM] = measurements
    return mean, _variances("initiate", measurements[:, 3])


def batch_predict(mean: np.ndarray, covariance: np.ndarray):
    """Advance every row by one frame under the constant-velocity model.

    Process noise scales with each row's height before the step.  The inputs
    are left untouched; fresh ``(mean, covariance)`` arrays are returned.
    """
    return mean @ _TRANSITION.T, _BLOCK_TRANSITION @ covariance + _variances("predict", mean[:, 3])


def _measurement_variances(h: np.ndarray, scores: np.ndarray, use_confidence_noise: bool) -> np.ndarray:
    """Diagonal measurement variances ``(N, 4)``, confidence-scaled when enabled."""
    variances = _variances("measure", h)
    if use_confidence_noise:
        variances = variances * (1.0 - scores**2)[:, None]
    return variances


def batch_update(
    mean: np.ndarray, covariance: np.ndarray, measurements: np.ndarray, scores: np.ndarray,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
):
    """Fold row ``i`` of ``measurements`` (``[x, y, a, h]``) at ``scores[i]`` into row ``i``.

    The switches turn the two confidence mechanisms of the module docstring
    on or off.  Each axis's gains are its position and cross covariances over
    its innovation variance; the posterior uses the Joseph form, which keeps
    it PSD even when the confidence-scaled noise is zero at score 1.  The
    inputs are left untouched.
    """
    scores = np.asarray(scores, dtype=np.float64)
    noise = _measurement_variances(mean[:, 3], scores, use_confidence_noise)
    pos_var, cross, rate_var = covariance.transpose(1, 0, 2).copy()  # contiguous: faster ufuncs

    innovation_var = pos_var + noise
    pos_gain = pos_var / innovation_var
    rate_gain = cross / innovation_var
    innovation = measurements - mean[:, :MEASUREMENT_DIM]
    position = mean[:, :MEASUREMENT_DIM] + pos_gain * innovation
    rate = mean[:, MEASUREMENT_DIM:] + rate_gain * innovation
    if use_velocity_blend:
        weight = scores[:, None]
        rate = weight * rate + (1.0 - weight) * mean[:, MEASUREMENT_DIM:]

    # Joseph form per axis: (I - KH) S (I - KH)' + K R K', I - KH = [[1 - pos_gain, 0], [-rate_gain, 1]]
    pos_keep, pos_gain_noise = 1.0 - pos_gain, pos_gain * noise
    new_covariance = np.stack((
        pos_keep * pos_keep * pos_var + pos_gain * pos_gain_noise,
        pos_keep * (cross - rate_gain * pos_var) + rate_gain * pos_gain_noise,
        rate_var - 2.0 * rate_gain * cross + rate_gain * rate_gain * innovation_var,
    ), axis=1)
    return np.concatenate([position, rate], axis=1), new_covariance


def valid_rows(mean: np.ndarray) -> np.ndarray:
    """Mask of the rows whose box is finite with positive height and aspect ratio."""
    box = mean[:, :MEASUREMENT_DIM]
    return (box[:, 2] > 0) & (box[:, 3] > 0) & np.isfinite(box).all(axis=1)


def batch_project(mean: np.ndarray):
    """Corner boxes ``(N, 4)`` of the rows and their :func:`valid_rows` mask.

    The corners of an invalid row are meaningless.
    """
    return xyah_to_corners(mean[:, :MEASUREMENT_DIM]), valid_rows(mean)


def _box_row(box: BoundingBox) -> np.ndarray:
    return np.array([[box.x, box.y, box.a, box.h]])


def to_blocks(covariance: np.ndarray) -> np.ndarray:
    """The ``(..., 3, 4)`` block rows of ``(..., 8, 8)`` covariances; ValueError
    for a matrix they cannot hold (asymmetric, or non-zero off the blocks)."""
    covariance = np.asarray(covariance, dtype=np.float64)
    if covariance.shape[-2:] != (STATE_DIM, STATE_DIM):
        raise ValueError(f"covariance must be 8x8, got shape {covariance.shape}")
    blocks = covariance[..., _BLOCK_ROWS, _BLOCK_COLS]
    if not np.array_equal(to_dense(blocks), covariance, equal_nan=True):
        raise ValueError("covariance must be symmetric with zeros outside the four (position, rate) blocks")
    return blocks


def to_dense(blocks: np.ndarray) -> np.ndarray:
    """The ``(..., 8, 8)`` covariances of ``(..., 3, 4)`` block rows."""
    dense = np.zeros(blocks.shape[:-2] + (STATE_DIM, STATE_DIM))
    dense[..., _BLOCK_ROWS, _BLOCK_COLS] = dense[..., _BLOCK_COLS, _BLOCK_ROWS] = blocks
    return dense


def initiate(measurement: BoundingBox) -> KalmanState:
    """Start a new state from an observed box with zero initial velocity."""
    mean, covariance = batch_initiate(_box_row(measurement))
    return KalmanState(mean=mean[0], covariance=to_dense(covariance[0]))


def predict(state: KalmanState) -> KalmanState:
    """Advance the state by one frame under the constant-velocity model."""
    mean, covariance = batch_predict(state.mean[None], to_blocks(state.covariance)[None])
    return KalmanState(mean=mean[0], covariance=to_dense(covariance[0]))


def measurement_noise(state: KalmanState, score: float, *, use_confidence_noise: bool = True) -> np.ndarray:
    """Measurement covariance for the update, confidence-scaled when enabled."""
    return np.diag(_measurement_variances(state.mean[None, 3], np.array([score]), use_confidence_noise)[0])


def update(
    state: KalmanState, detection: Detection,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
) -> KalmanState:
    """Fold one detection (its score lies in [0, 1]) into a predicted state."""
    mean, covariance = batch_update(
        state.mean[None], to_blocks(state.covariance)[None], _box_row(detection.box), [detection.score],
        use_confidence_noise=use_confidence_noise, use_velocity_blend=use_velocity_blend,
    )
    return KalmanState(mean=mean[0], covariance=to_dense(covariance[0]))


def project(state: KalmanState) -> BoundingBox:
    """Read the box described by the first four state components.

    Raises InvalidStateError when the state has degenerated (non-positive
    height or aspect ratio); such a track can no longer be associated and
    should be dropped by the caller.
    """
    x, y, a, h = (float(v) for v in state.mean[:MEASUREMENT_DIM])
    if not valid_rows(state.mean[None])[0]:
        raise InvalidStateError(f"state does not describe a valid box: a={a}, h={h}")
    return BoundingBox(x, y, a, h)
