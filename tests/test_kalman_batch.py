"""Property tests of the batched filter kernels against one-row calls.

An N-row kernel call must agree with N calls of the scalar functions, the
covariance must stay symmetric PSD for any confidence score in [0, 1], and the
projection's validity mask must be False exactly where the scalar ``project``
raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctrack.geometry import BoundingBox, Detection
from sctrack.kalman import (
    InvalidStateError,
    KalmanState,
    batch_initiate,
    batch_predict,
    batch_project,
    batch_update,
    initiate,
    predict,
    project,
    update,
)

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

boxes = st.builds(
    BoundingBox.from_tlwh,
    st.floats(-200.0, 2000.0),
    st.floats(-200.0, 1200.0),
    st.floats(2.0, 400.0),
    st.floats(4.0, 500.0),
)
scores = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
# the confidence switches of the filter update, as keyword arguments
switch_sets = st.fixed_dictionaries({"use_confidence_noise": st.booleans(), "use_velocity_blend": st.booleans()})


def rows_of(box_list):
    return np.array([[b.x, b.y, b.a, b.h] for b in box_list]).reshape(-1, 4)


def assert_close(batched, singles):
    singles = np.array(singles).reshape(batched.shape)
    assert np.all(np.abs(batched - singles) <= TOL * np.maximum(1.0, np.abs(singles)))


def tracked_states(box_list, steps, switches):
    """States that went through initiate, then ``steps`` predict/update cycles."""
    states = [initiate(b) for b in box_list]
    for k in range(steps):
        states = [predict(s) for s in states]
        states = [
            update(s, Detection(BoundingBox.from_tlwh(b.x + 3 * (k + 1), b.y, b.w, b.h), 0.8), **switches)
            for s, b in zip(states, box_list)
        ]
    return states


def stack(states):
    mean = np.array([s.mean for s in states]).reshape(-1, 8)
    covariance = np.array([s.covariance for s in states]).reshape(-1, 8, 8)
    return mean, covariance


@PROPERTY_SETTINGS
@given(st.lists(boxes, max_size=12))
def test_batch_initiate_matches_one_row_calls(box_list):
    mean, covariance = batch_initiate(rows_of(box_list))
    singles = [initiate(b) for b in box_list]
    assert_close(mean, [s.mean for s in singles])
    assert_close(covariance, [s.covariance for s in singles])


@PROPERTY_SETTINGS
@given(st.lists(boxes, max_size=12), st.integers(0, 3), switch_sets)
def test_batch_predict_matches_one_row_calls(box_list, steps, switches):
    states = tracked_states(box_list, steps, switches)
    mean, covariance = stack(states)
    new_mean, new_covariance = batch_predict(mean, covariance)
    singles = [predict(s) for s in states]
    assert_close(new_mean, [s.mean for s in singles])
    assert_close(new_covariance, [s.covariance for s in singles])


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(boxes, boxes, scores), max_size=12), st.integers(0, 3), switch_sets)
def test_batch_update_matches_one_row_calls(rows, steps, switches):
    states = [predict(s) for s in tracked_states([r[0] for r in rows], steps, switches)]
    detections = [Detection(measured, score) for _, measured, score in rows]
    mean, covariance = stack(states)
    new_mean, new_covariance = batch_update(
        mean, covariance, rows_of([d.box for d in detections]), [d.score for d in detections], **switches
    )
    singles = [update(s, d, **switches) for s, d in zip(states, detections)]
    assert_close(new_mean, [s.mean for s in singles])
    assert_close(new_covariance, [s.covariance for s in singles])


@PROPERTY_SETTINGS
@given(st.lists(st.lists(scores, min_size=1, max_size=30), min_size=1, max_size=6), boxes, switch_sets)
def test_covariance_stays_symmetric_psd_for_any_scores(score_rows, box, switches):
    # one table row per score sequence, all updated together each frame
    length = max(len(r) for r in score_rows)
    padded = np.array([r + [r[-1]] * (length - len(r)) for r in score_rows])
    mean, covariance = batch_initiate(rows_of([box] * len(padded)))
    for frame in range(length):
        mean, covariance = batch_predict(mean, covariance)
        measured = mean[:, :4] + np.array([2.0, -1.0, 0.0, 0.5])
        mean, covariance = batch_update(mean, covariance, measured, padded[:, frame], **switches)
        assert np.array_equal(covariance, covariance.transpose(0, 2, 1))
        eigenvalues = np.linalg.eigvalsh(covariance)
        scale = np.maximum(1.0, np.abs(eigenvalues).max(axis=1))
        assert np.all(eigenvalues.min(axis=1) >= -1e-9 * scale)


components = st.one_of(
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]),
)


def box_accepts(row) -> bool:
    try:
        BoundingBox(*(float(v) for v in row))
    except ValueError:
        return False
    return True


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(components, components, components, components), max_size=12))
def test_validity_mask_is_false_exactly_where_project_raises(rows):
    mean = np.zeros((len(rows), 8))
    mean[:, :4] = np.array(rows, dtype=np.float64).reshape(-1, 4)
    with np.errstate(invalid="ignore", over="ignore"):  # corners of invalid rows
        corners, valid = batch_project(mean)
    assert valid.shape == (len(rows),)
    for row, ok, corner in zip(mean, valid, corners):
        # the rule itself: exactly the rows a BoundingBox accepts
        assert ok == box_accepts(row[:4])
        state = KalmanState(mean=row, covariance=np.eye(8))
        if ok:
            assert tuple(corner) == project(state).to_corners()
        else:
            with pytest.raises(InvalidStateError):
                project(state)


def test_empty_table():
    mean, covariance = batch_initiate(np.zeros((0, 4)))
    assert mean.shape == (0, 8) and covariance.shape == (0, 8, 8)
    mean, covariance = batch_predict(mean, covariance)
    assert mean.shape == (0, 8) and covariance.shape == (0, 8, 8)
    mean, covariance = batch_update(mean, covariance, np.zeros((0, 4)), np.zeros(0))
    assert mean.shape == (0, 8) and covariance.shape == (0, 8, 8)
    corners, valid = batch_project(mean)
    assert corners.shape == (0, 4) and valid.shape == (0,)
