import numpy as np
import pytest

from sctrack.geometry import BoundingBox, Detection
from sctrack.kalman import (
    InvalidStateError,
    KalmanState,
    _measurement_variances,
    initiate,
    predict,
    project,
    update,
)

from _oracles import dense_covariance_ref, stacked_update_ref

# the block rows [var(pos), cov(pos, rate), var(rate)] of the 8x8 identity
IDENTITY_BLOCKS = np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4])


def tlwh(x, y, w, h):
    return BoundingBox.from_tlwh(x, y, w, h)


def unblended_mean(state, detection):
    """The posterior mean with confidence-scaled noise and no velocity blend."""
    box = detection.box
    mean, _ = stacked_update_ref(
        state.mean[None], state.covariance[None], np.array([[box.x, box.y, box.a, box.h]]),
        [detection.score], use_velocity_blend=False,
    )
    return mean[0]


def noise(state, score, use_confidence=True):
    return _measurement_variances(state.mean[None, 3], np.array([score]), use_confidence)


def assert_symmetric_psd(blocks, tol=1e-9):
    cov = dense_covariance_ref(blocks)
    assert np.max(np.abs(cov - cov.T)) <= tol
    assert np.linalg.eigvalsh(cov).min() >= -tol


class TestInitiate:
    def test_mean_layout(self):
        state = initiate(tlwh(0, 0, 10, 20))
        assert np.array_equal(state.mean, [0, 0, 0.5, 20, 0, 0, 0, 0])

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            box = tlwh(*rng.uniform(1, 100, size=2), *rng.uniform(5, 200, size=2))
            assert_symmetric_psd(initiate(box).covariance)

    def test_deterministic(self):
        box = tlwh(3, 4, 30, 60)
        s1, s2 = initiate(box), initiate(box)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.covariance, s2.covariance)


class TestPredict:
    def test_zero_velocity_keeps_position(self):
        state = KalmanState(
            mean=np.array([0.0, 0, 1, 10, 0, 0, 0, 0]), covariance=IDENTITY_BLOCKS
        )
        out = predict(state)
        assert np.array_equal(out.mean[:4], [0, 0, 1, 10])

    def test_velocity_moves_position_one_step(self):
        state = KalmanState(
            mean=np.array([0.0, 0, 1, 10, 2, 3, 0, 0]), covariance=IDENTITY_BLOCKS
        )
        out = predict(state)
        assert np.array_equal(out.mean[:4], [2, 3, 1, 10])
        assert np.array_equal(out.mean[4:], [2, 3, 0, 0])

    def test_covariance_trace_strictly_increases(self):
        state = initiate(tlwh(5, 5, 40, 80))
        for _ in range(20):
            new = predict(state)
            assert np.trace(dense_covariance_ref(new.covariance)) > np.trace(dense_covariance_ref(state.covariance))
            state = new

    def test_input_state_untouched(self):
        state = initiate(tlwh(0, 0, 10, 20))
        mean_before = state.mean.copy()
        predict(state)
        assert np.array_equal(state.mean, mean_before)


class TestUpdateConfidence:
    def setup_method(self):
        self.state = predict(initiate(tlwh(100, 100, 50, 120)))
        self.meas = tlwh(104, 101, 52, 118)

    def test_score_zero_keeps_noise_and_velocity(self):
        assert np.array_equal(noise(self.state, 0.0), noise(self.state, 0.0, use_confidence=False))
        out = update(self.state, Detection(self.meas, 0.0))
        assert np.array_equal(out.mean[4:], self.state.mean[4:])

    def test_score_one_zeroes_noise_and_keeps_standard_update(self):
        assert np.array_equal(noise(self.state, 1.0), np.zeros((1, 4)))
        blended = update(self.state, Detection(self.meas, 1.0))
        assert np.array_equal(blended.mean, unblended_mean(self.state, Detection(self.meas, 1.0)))
        # zero measurement noise pins the measured components exactly
        z = np.array([self.meas.x, self.meas.y, self.meas.a, self.meas.h])
        assert np.allclose(blended.mean[:4], z, atol=1e-9)

    def test_score_half_velocity_is_midpoint(self):
        out = update(self.state, Detection(self.meas, 0.5))
        plain = unblended_mean(self.state, Detection(self.meas, 0.5))
        midpoint = 0.5 * plain[4:] + 0.5 * self.state.mean[4:]
        assert np.array_equal(out.mean[4:], midpoint)

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError):
            Detection(self.meas, 1.5)
        with pytest.raises(ValueError):
            Detection(self.meas, -0.01)

    def test_higher_score_pulls_position_closer(self):
        z = np.array([self.meas.x, self.meas.y, self.meas.a, self.meas.h])
        prev_err = None
        for score in (0.0, 0.3, 0.6, 0.9, 1.0):
            out = update(self.state, Detection(self.meas, score))
            err = np.abs(out.mean[:4] - z)
            if prev_err is not None:
                assert np.all(err <= prev_err + 1e-12)
            prev_err = err

    def test_posterior_stays_symmetric_psd(self):
        for score in (0.0, 0.25, 0.5, 0.99, 1.0):
            out = update(self.state, Detection(self.meas, score))
            assert_symmetric_psd(out.covariance)


class TestFilterBehaviour:
    def test_constant_velocity_convergence(self):
        state = initiate(tlwh(0, 0, 50, 100))
        for k in range(1, 11):
            state = predict(state)
            state = update(state, Detection(tlwh(5.0 * k, 3.0 * k, 50, 100), 1.0))
        box = project(state)
        assert abs(box.x - 50.0) < 1e-6
        assert abs(box.y - 30.0) < 1e-6

    def test_posterior_position_variance_non_increasing(self):
        target = tlwh(10, 10, 60, 120)
        state = initiate(target)
        prev = None
        for _ in range(50):
            state = predict(state)
            state = update(state, Detection(target, 0.9), use_confidence=False)
            var = tuple(state.covariance[0, :2])  # var(x), var(y)
            if prev is not None:
                assert var[0] <= prev[0] + 1e-12
                assert var[1] <= prev[1] + 1e-12
            prev = var

    def test_long_random_sequence_preserves_covariance_invariants(self):
        rng = np.random.default_rng(42)
        state = initiate(tlwh(500, 500, 60, 130))
        for step in range(1000):
            if rng.random() < 0.5:
                state = predict(state)
            else:
                box = project_or_none(state)
                if box is None:
                    break
                jitter = rng.normal(0, 3.0, size=4)
                meas = BoundingBox.from_tlwh(
                    box.x + jitter[0],
                    box.y + jitter[1],
                    max(box.w + jitter[2], 1.0),
                    max(box.h + jitter[3], 1.0),
                )
                state = update(state, Detection(meas, float(rng.uniform(0, 1))))
            assert_symmetric_psd(state.covariance)
        else:
            return
        pytest.fail("state degenerated during the random walk")


def project_or_none(state):
    try:
        return project(state)
    except InvalidStateError:
        return None


class TestProject:
    def test_reads_box_from_mean(self):
        state = KalmanState(
            mean=np.array([1.0, 2, 0.5, 20, 0, 0, 0, 0]), covariance=IDENTITY_BLOCKS
        )
        box = project(state)
        assert box.to_tlwh() == (1, 2, 10, 20)

    def test_round_trips_initiation(self):
        box = tlwh(7, 8, 42, 84)
        assert project(initiate(box)) == box

    def test_rejects_degenerate_height(self):
        state = KalmanState(
            mean=np.array([0.0, 0, 0.5, -1, 0, 0, 0, 0]), covariance=IDENTITY_BLOCKS
        )
        with pytest.raises(InvalidStateError):
            project(state)

    def test_rejects_degenerate_aspect(self):
        state = KalmanState(
            mean=np.array([0.0, 0, -0.5, 10, 0, 0, 0, 0]), covariance=IDENTITY_BLOCKS
        )
        with pytest.raises(InvalidStateError):
            project(state)
