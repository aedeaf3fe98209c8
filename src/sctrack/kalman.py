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

Each operation has one implementation, a batched kernel over a table of
states: row ``i`` of an ``(N, 8)`` mean array and an ``(N, 8, 8)``
covariance array is one filter.  The tracker calls the ``batch_*`` kernels
on its whole track table once per frame; :func:`initiate`, :func:`predict`,
:func:`update` and :func:`project` are one-row calls into them for a single
:class:`KalmanState`.  All operations are value-in/value-out; callers never
observe partial updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import BoundingBox, Detection, xyah_to_corners

STATE_DIM = 8
MEASUREMENT_DIM = 4

# dt = 1 constant-velocity transition: position components pick up their rates
_TRANSITION = np.eye(STATE_DIM)
for _i in range(MEASUREMENT_DIM):
    _TRANSITION[_i, MEASUREMENT_DIM + _i] = 1.0
_IDENTITY = np.eye(STATE_DIM)

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
    """Filter snapshot: 8-vector mean and 8x8 covariance.

    Treated as immutable; operations hand back fresh arrays.
    """

    mean: np.ndarray
    covariance: np.ndarray


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


def batch_initiate(measurements: np.ndarray):
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


def batch_predict(mean: np.ndarray, covariance: np.ndarray):
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


def batch_update(
    mean: np.ndarray, covariance: np.ndarray, measurements: np.ndarray, scores: np.ndarray,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
):
    """Fold row ``i`` of ``measurements`` (``[x, y, a, h]``) at ``scores[i]`` into row ``i``.

    The switches turn the two confidence mechanisms of the module docstring
    on or off.  One stacked 4x4 solve gives every gain; the posterior
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


def initiate(measurement: BoundingBox) -> KalmanState:
    """Start a new state from an observed box with zero initial velocity."""
    mean, covariance = batch_initiate(_box_row(measurement))
    return KalmanState(mean=mean[0], covariance=covariance[0])


def predict(state: KalmanState) -> KalmanState:
    """Advance the state by one frame under the constant-velocity model."""
    mean, covariance = batch_predict(state.mean[None], state.covariance[None])
    return KalmanState(mean=mean[0], covariance=covariance[0])


def measurement_noise(state: KalmanState, score: float, *, use_confidence_noise: bool = True) -> np.ndarray:
    """Measurement covariance for the update, confidence-scaled when enabled."""
    return np.diag(_measurement_variances(state.mean[None, 3], np.array([score]), use_confidence_noise)[0])


def update(
    state: KalmanState, detection: Detection,
    *, use_confidence_noise: bool = True, use_velocity_blend: bool = True,
) -> KalmanState:
    """Fold one detection (its score lies in [0, 1]) into a predicted state."""
    mean, covariance = batch_update(
        state.mean[None], state.covariance[None], _box_row(detection.box), [detection.score],
        use_confidence_noise=use_confidence_noise, use_velocity_blend=use_velocity_blend,
    )
    return KalmanState(mean=mean[0], covariance=covariance[0])


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
