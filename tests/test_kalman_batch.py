"""Property tests of the batched filter kernels.

An N-row kernel call must agree with N calls of the scalar functions and with
the dense 8x8 matrix filter of ``_oracles``, the covariance must stay
symmetric PSD for any confidence score in [0, 1], and the projection's
validity mask must be False exactly where the scalar ``project`` raises.
The kernels hold each covariance as its four (position, rate) blocks; the
scalar functions take and return the full 8x8 matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_initiate_ref, dense_predict_ref, dense_update_ref
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
    to_blocks,
    to_dense,
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


def blocks_of(states):
    """The ``(N, 3, 4)`` block form of the states' 8x8 covariances."""
    return to_blocks(np.array([s.covariance for s in states]).reshape(-1, 8, 8))


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
    return np.array([s.mean for s in states]).reshape(-1, 8), blocks_of(states)


@PROPERTY_SETTINGS
@given(st.lists(boxes, max_size=12))
def test_batch_initiate_matches_one_row_calls(box_list):
    mean, covariance = batch_initiate(rows_of(box_list))
    singles = [initiate(b) for b in box_list]
    assert_close(mean, [s.mean for s in singles])
    assert_close(covariance, blocks_of(singles))


@PROPERTY_SETTINGS
@given(st.lists(boxes, max_size=12), st.integers(0, 3), switch_sets)
def test_batch_predict_matches_one_row_calls(box_list, steps, switches):
    states = tracked_states(box_list, steps, switches)
    mean, covariance = stack(states)
    new_mean, new_covariance = batch_predict(mean, covariance)
    singles = [predict(s) for s in states]
    assert_close(new_mean, [s.mean for s in singles])
    assert_close(new_covariance, blocks_of(singles))


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
    assert_close(new_covariance, blocks_of(singles))


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
        # the block form is symmetric by construction; PSD is checked on the 8x8 matrix
        eigenvalues = np.linalg.eigvalsh(to_dense(covariance))
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
    assert mean.shape == (0, 8) and covariance.shape == (0, 3, 4)
    mean, covariance = batch_predict(mean, covariance)
    assert mean.shape == (0, 8) and covariance.shape == (0, 3, 4)
    mean, covariance = batch_update(mean, covariance, np.zeros((0, 4)), np.zeros(0))
    assert mean.shape == (0, 8) and covariance.shape == (0, 3, 4)
    corners, valid = batch_project(mean)
    assert corners.shape == (0, 4) and valid.shape == (0,)


# entries of the 8x8 covariance outside the four (position, rate) blocks:
# state components i and j belong to one coordinate when i = j mod 4
OFF_BLOCK = np.arange(8)[:, None] % 4 != np.arange(8) % 4


def assert_matches_dense(blocks, dense):
    """The blocks expanded to 8x8 equal the oracle's matrices within TOL of
    each matrix's largest entry (Joseph-form cancellations round at that
    scale); the oracle's off-block entries are exactly 0."""
    assert not dense[:, OFF_BLOCK].any()
    scale = np.maximum(1.0, np.abs(dense).max(axis=(1, 2)))
    assert np.all(np.abs(to_dense(blocks) - dense) <= TOL * scale[:, None, None])


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(boxes, boxes, scores), min_size=1, max_size=12), st.integers(1, 4), switch_sets)
def test_block_kernels_match_the_dense_oracle(rows, steps, switches):
    starts, measured_boxes, row_scores = zip(*rows)
    mean, covariance = batch_initiate(rows_of(starts))
    oracle_mean, oracle_covariance = dense_initiate_ref(rows_of(starts))
    assert np.array_equal(mean, oracle_mean)
    assert_matches_dense(covariance, oracle_covariance)
    for k in range(steps):
        measured = rows_of(measured_boxes) + np.array([3.0 * k, -2.0 * k, 0.0, k])
        # each kernel against the oracle on the same input
        predicted = batch_predict(mean, covariance)
        expected = dense_predict_ref(mean, to_dense(covariance))
        assert_close(predicted[0], expected[0])
        assert_matches_dense(predicted[1], expected[1])
        mean, covariance = batch_update(*predicted, measured, row_scores, **switches)
        expected = dense_update_ref(predicted[0], to_dense(predicted[1]), measured, row_scores, **switches)
        assert_close(mean, expected[0])
        assert_matches_dense(covariance, expected[1])
        # and the oracle's own chain never leaves the block form
        oracle_mean, oracle_covariance = dense_update_ref(
            *dense_predict_ref(oracle_mean, oracle_covariance), measured, row_scores, **switches
        )
        assert not oracle_covariance[:, OFF_BLOCK].any()


def test_converters_round_trip_the_blocks():
    blocks = np.arange(1.0, 13.0).reshape(3, 4)
    dense = to_dense(blocks)
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(to_blocks(dense), blocks)
    assert np.array_equal(dense == 0, OFF_BLOCK)
    assert dense[0, 0] == 1.0 and dense[3, 7] == dense[7, 3] == 8.0 and dense[7, 7] == 12.0


@pytest.mark.parametrize("entry", [(0, 1), (0, 5), (3, 6)], ids=["pos_pos", "pos_rate", "h_rate_a"])
def test_one_row_calls_reject_an_off_block_covariance(entry):
    state = initiate(BoundingBox.from_tlwh(10, 20, 30, 60))
    covariance = state.covariance.copy()
    covariance[entry] = covariance[entry[::-1]] = 0.5
    off_block = KalmanState(mean=state.mean, covariance=covariance)
    for call in (predict, lambda s: update(s, Detection(BoundingBox.from_tlwh(11, 20, 30, 60), 0.8))):
        with pytest.raises(ValueError, match="outside the four"):
            call(off_block)


def test_one_row_calls_reject_an_asymmetric_or_misshapen_covariance():
    state = initiate(BoundingBox.from_tlwh(10, 20, 30, 60))
    asymmetric = state.covariance.copy()
    asymmetric[0, 4] += 1.0
    with pytest.raises(ValueError, match="symmetric"):
        predict(KalmanState(mean=state.mean, covariance=asymmetric))
    with pytest.raises(ValueError, match="8x8"):
        predict(KalmanState(mean=state.mean, covariance=np.eye(4)))
