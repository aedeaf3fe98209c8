"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (with the measured numbers where
relevant) once its assertions hold, so a `pytest -s tests/test_acceptance.py`
run reads as a checklist.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from sctrack.ablation import COMPONENT_ARMS, arm_config, evaluate_run
from sctrack.assignment import solve
from sctrack.geometry import (
    BoundingBox,
    Detection,
    iou,
    shape_iou_distance,
)
from sctrack.kalman import _measurement_variances, initiate, predict, project, update
from sctrack.metrics import evaluate
from sctrack.motio import ParseError, read_detections, read_results, write_results
from sctrack.synth import builtin_scenario, generate
from sctrack.tracker import FrameResult, SCTracker, TrackerConfig

from _oracles import best_matching_ref, clear_events_ref, shape_distance_ref, stacked_update_ref
from test_metrics import random_scenario
from test_motio import random_results


def report(line: str) -> None:
    print(f"\n{line}")


def random_box(rng):
    return BoundingBox.from_tlwh(
        float(rng.uniform(-50, 1800)),
        float(rng.uniform(-50, 1000)),
        float(rng.uniform(0.5, 300)),
        float(rng.uniform(0.5, 300)),
    )


def test_criterion_01_geometry_against_direct_evaluation():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(10_000):
        b1, b2 = random_box(rng), random_box(rng)
        d = shape_iou_distance(b1, b2)
        expected = shape_distance_ref(b1.to_tlwh(), b2.to_tlwh())
        assert abs(d - expected) <= 1e-12
        assert abs(d - shape_iou_distance(b2, b1)) <= 1e-12
        assert 0.0 <= d <= 3.0
        assert shape_iou_distance(b1, b2, use_height_term=False, use_area_term=False) == 1.0 - iou(b1, b2)
    for _ in range(100):
        b = random_box(rng)
        assert shape_iou_distance(b, b) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"PASS criterion 1: 10,000 random pairs match the direct evaluation to 1e-12 in {elapsed:.2f}s")


def test_criterion_02_equal_iou_discrimination():
    reference = BoundingBox.from_tlwh(0, 0, 4, 4)
    same_shape = BoundingBox.from_tlwh(2, 0, 4, 4)
    other_shape = BoundingBox.from_tlwh(2, 0, 2, 8)
    assert abs(iou(reference, same_shape) - 1.0 / 3.0) <= 1e-12
    assert abs(iou(reference, other_shape) - 1.0 / 3.0) <= 1e-12
    d_same = shape_iou_distance(reference, same_shape)
    d_other = shape_iou_distance(reference, other_shape)
    assert abs(d_same - 0.6666666666666667) <= 1e-6
    assert abs(d_other - 0.9166666666666667) <= 1e-6
    assert d_same < d_other
    report(
        f"PASS criterion 2: equal IoU (1/3) but distances {d_same:.7f} < {d_other:.7f}"
    )


def test_criterion_03_assignment_matches_exhaustive_optimum():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for _ in range(1_000):
        m, n = rng.integers(1, 8, size=2)
        costs = rng.uniform(0.0, 3.0, size=(m, n))
        gate = float(rng.uniform(0.2, 3.0))
        result = solve(costs, gate)
        count, best_total = best_matching_ref(costs.tolist(), gate)
        total = sum(costs[r, c] for r, c in result.matches)
        assert len(result.matches) == count
        assert total == pytest.approx(best_total, abs=1e-9)
        assert all(costs[r, c] <= gate for r, c in result.matches)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"PASS criterion 3: 1,000 random gated problems at the exhaustive optimum in {elapsed:.2f}s")


def test_criterion_04_confidence_update_boundary_identities():
    state = predict(initiate(BoundingBox.from_tlwh(100, 100, 50, 120)))
    meas = BoundingBox.from_tlwh(104, 101, 52, 118)

    height = state.mean[None, 3]

    def noise(score, use_confidence=True):
        return _measurement_variances(height, np.array([score]), use_confidence)

    def unblended(score):
        # the update with confidence-scaled noise and no velocity blend
        args = (state.mean[None], state.covariance[None], np.array([[meas.x, meas.y, meas.a, meas.h]]))
        return stacked_update_ref(*args, [score], use_velocity_blend=False)[0][0]

    assert np.array_equal(noise(0.0), noise(0.0, use_confidence=False))
    at_zero = update(state, Detection(meas, 0.0))
    assert np.array_equal(at_zero.mean[4:], state.mean[4:])

    assert np.array_equal(noise(1.0), np.zeros((1, 4)))
    at_one = update(state, Detection(meas, 1.0))
    assert np.array_equal(at_one.mean, unblended(1.0))

    at_half = update(state, Detection(meas, 0.5))
    midpoint = 0.5 * unblended(0.5)[4:] + 0.5 * state.mean[4:]
    assert np.array_equal(at_half.mean[4:], midpoint)
    report("PASS criterion 4: score 0 / 0.5 / 1 noise and velocity identities hold exactly")


def test_criterion_05_constant_velocity_convergence():
    state = initiate(BoundingBox.from_tlwh(0, 0, 50, 100))
    for k in range(1, 11):
        state = predict(state)
        state = update(state, Detection(BoundingBox.from_tlwh(5.0 * k, 3.0 * k, 50, 100), 1.0))
    box = project(state)
    err = max(abs(box.x - 50.0), abs(box.y - 30.0))
    assert err < 1e-6
    report(f"PASS criterion 5: position error {err:.2e} px after 10 predict/update cycles")


def test_criterion_06_clean_scenario_is_tracked_perfectly():
    gt, dets = generate(builtin_scenario("straight_clean"))
    result = evaluate_run(gt, dets, TrackerConfig())
    assert result.mota == 1.0
    assert result.idf1 == 1.0
    assert result.idsw == 0 and result.fp == 0 and result.fn == 0
    report("PASS criterion 6: straight_clean gives MOTA 100%, IDF1 100%, IDSW 0 exactly")


def test_criterion_07_ablation_reproduces_the_reported_direction():
    seeds = range(1, 11)
    idsw = {arm.label: 0 for arm in COMPONENT_ARMS}
    for name in ("crossing_distinct_shape", "occlusion_lowconf"):
        for seed in seeds:
            gt, dets = generate(builtin_scenario(name, seed=seed))
            for arm in COMPONENT_ARMS:
                config = arm_config(TrackerConfig(), arm)
                idsw[arm.label] += evaluate_run(gt, dets, config).idsw
    assert idsw["shape"] <= idsw["baseline"]
    assert idsw["shape+conf"] <= idsw["baseline"]
    report(
        "PASS criterion 7: summed IDSW baseline={baseline}, shape={shape}, "
        "conf={conf}, shape+conf={shape+conf}".format(**idsw)
    )


def test_criterion_08_metrics_match_brute_force_scorer():
    rng = np.random.default_rng(108)
    for _ in range(100):
        gt, results = random_scenario(rng)
        mine = evaluate(gt, results)
        ref = clear_events_ref(
            {f: [(i, b.to_tlwh()) for i, b in rows] for f, rows in gt.items()},
            {f: [(i, b.to_tlwh()) for i, b in rows] for f, rows in results.items()},
        )
        assert mine.fp == ref["fp"]
        assert mine.fn == ref["fn"]
        assert mine.idsw == ref["idsw"]
        recomputed = 1.0 - (mine.fn + mine.fp + mine.idsw) / mine.gt_count
        assert mine.mota == pytest.approx(recomputed, abs=1e-12)
    report("PASS criterion 8: 100 random scenarios agree with the brute-force event scorer exactly")


def test_criterion_09_io_round_trips_and_fuzz(tmp_path):
    rng = np.random.default_rng(109)
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_results(first, random_results(rng, 500, frames=2000))
    write_results(second, [FrameResult(f, boxes) for f, boxes in read_results(first).items()])
    assert first.read_bytes() == second.read_bytes()

    fuzz = tmp_path / "fuzz.txt"
    for _ in range(300):
        fuzz.write_bytes(bytes(rng.integers(0, 256, size=int(rng.integers(0, 300)))))
        try:
            read_detections(fuzz)
        except ParseError:
            pass
    report("PASS criterion 9: write-read-write byte identical; 300 fuzzed files produced only structured errors")


def test_criterion_10_association_latency_budget():
    rng = np.random.default_rng(110)
    centers = rng.uniform([100, 100], [1800, 900], size=(50, 2))
    sizes = rng.uniform([40, 80], [100, 200], size=(50, 2))
    velocities = rng.uniform(-4, 4, size=(50, 2))
    jitter = rng.normal(0, 1.5, size=(120, 50, 2))

    def detections(t):
        out = []
        for i in range(50):
            x, y = centers[i] + velocities[i] * t + jitter[t - 1, i]
            w, h = sizes[i]
            out.append(
                Detection(
                    BoundingBox.from_tlwh(float(x), float(y), float(w), float(h)),
                    float(0.8 + 0.19 * np.sin(i + t)),
                )
            )
        return out

    tracker = SCTracker(TrackerConfig())
    times = []
    for t in range(1, 121):
        dets = detections(t)
        start = time.perf_counter()
        tracker.step(t, dets)
        times.append((time.perf_counter() - start) * 1000.0)
    median = float(np.median(times[10:]))
    assert len(tracker.tracks) >= 50
    assert median < 12.0
    report(f"PASS criterion 10: 50x50 association step median {median:.2f} ms (< 12 ms)")
