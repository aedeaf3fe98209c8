import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sctrack.frames import FrameBoxes
from sctrack.geometry import BoundingBox
from sctrack.metrics import MetricsReport, evaluate

from _oracles import clear_events_ref, identity_f1_ref


def box(x, y, w=50.0, h=100.0):
    return BoundingBox.from_tlwh(x, y, w, h)


def single_object_gt(frames, step=5.0):
    return {f: [(1, box(100 + step * f, 200))] for f in range(1, frames + 1)}


def as_tlwh_maps(gt, results):
    to_ref = lambda m: {
        f: [(i, b.to_tlwh()) for i, b in rows] for f, rows in m.items()
    }
    return to_ref(gt), to_ref(results)


class TestPerfectTracking:
    def test_gt_as_results_is_perfect(self):
        gt = single_object_gt(20)
        gt[3].append((2, box(600, 400)))
        report = evaluate(gt, gt)
        assert report.mota == 1.0
        assert report.idf1 == 1.0
        assert report.idsw == 0 and report.fp == 0 and report.fn == 0
        assert report.gt_count == 21

    def test_random_gt_as_results_is_perfect(self):
        rng = np.random.default_rng(0)
        gt = {
            f: [
                (i + 1, box(float(rng.uniform(0, 1500)), float(rng.uniform(0, 900))))
                for i in range(4)
            ]
            for f in range(1, 15)
        }
        report = evaluate(gt, gt)
        assert report.mota == 1.0 and report.idf1 == 1.0


class TestEventCounting:
    def test_id_change_counts_one_switch(self):
        gt = {1: [(1, box(100, 100))], 2: [(1, box(100, 100))]}
        results = {1: [(7, box(100, 100))], 2: [(8, box(100, 100))]}
        report = evaluate(gt, results)
        assert report.idsw == 1
        assert report.fp == 0 and report.fn == 0
        assert report.mota == pytest.approx(0.5)
        assert report.idf1 == pytest.approx(0.5)

    def test_empty_results_all_misses(self):
        gt = single_object_gt(10)
        report = evaluate(gt, {})
        assert report.fn == 10 and report.fp == 0 and report.idsw == 0
        assert report.mota == 0.0
        assert report.idf1 == 0.0

    def test_spurious_hypotheses_are_false_positives(self):
        gt = single_object_gt(5)
        results = {
            f: [(i, b) for i, b in rows] + [(99, box(1200, 800))] for f, rows in gt.items()
        }
        report = evaluate(gt, results)
        assert report.fp == 5 and report.fn == 0 and report.idsw == 0

    def test_low_overlap_does_not_match(self):
        gt = {1: [(1, box(100, 100))]}
        results = {1: [(1, box(140, 100))]}  # IoU well below 0.5
        report = evaluate(gt, results)
        assert report.fn == 1 and report.fp == 1

    def test_match_persistence_keeps_previous_pairing(self):
        # two hypotheses hover around one object; the one matched first
        # keeps the object while it stays above the overlap threshold
        gt = {f: [(1, box(100, 100))] for f in (1, 2)}
        results = {
            1: [(7, box(100, 100)), (8, box(110, 100))],
            2: [(7, box(108, 100)), (8, box(100, 100))],
        }
        report = evaluate(gt, results)
        # frame 2 keeps (1, 7) despite 8 now overlapping better: no switch
        assert report.idsw == 0
        assert report.fp == 2

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            evaluate({}, {1: [(1, box(0, 0))]})
        with pytest.raises(ValueError):
            evaluate({1: []}, {1: [(1, box(0, 0))]})

    def test_switch_counted_across_gaps(self):
        gt = {1: [(1, box(100, 100))], 2: [(1, box(100, 100))], 3: [(1, box(100, 100))]}
        results = {1: [(7, box(100, 100))], 3: [(8, box(100, 100))]}
        report = evaluate(gt, results)
        assert report.idsw == 1 and report.fn == 1


class TestDuplicateIds:
    # one id at two boxes in a frame is ambiguous; it used to be scored
    # silently (as matches=3, fp=1, fn=1 on this input)
    def test_repeated_result_id_is_rejected_with_frame_and_id(self):
        b1, b2 = box(0, 0), box(300, 0)
        gt = {f: [(1, b1), (2, b2)] for f in (1, 2)}
        results = {f: [(7, b1), (7, b2)] for f in (1, 2)}
        with pytest.raises(ValueError, match=r"results frame 1 repeats id 7"):
            evaluate(gt, results)

    def test_repeated_ground_truth_id_is_rejected(self):
        gt = {1: [(1, box(0, 0))], 4: [(1, box(0, 0)), (1, box(300, 0))]}
        with pytest.raises(ValueError, match=r"ground truth frame 4 repeats id 1"):
            evaluate(gt, {1: [(5, box(0, 0))]})

    def test_same_id_in_different_frames_is_fine(self):
        gt = {f: [(1, box(10 * f, 0))] for f in (1, 2)}
        assert evaluate(gt, gt).mota == 1.0

    def test_the_first_repeating_frame_in_map_order_is_named(self):
        b1, b2 = box(0, 0), box(300, 0)
        results = {5: [(7, b1), (7, b2)], 2: [(8, b1), (8, b2)]}
        with pytest.raises(ValueError, match=r"results frame 5 repeats id 7"):
            evaluate({2: [(1, b1)]}, results)


def test_boxes_whose_overlap_is_undefined_are_an_error():
    # the corner-form width overflows to inf, so the IoU is inf / inf
    huge = FrameBoxes(np.array([1]), np.array([[0.0, 0.0, 1e10, 1e300]]), np.ones(1))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="frame 3: the IoU .* is not a number"):
        evaluate({3: huge}, {3: huge})


class TestBadBoxes:
    # a box no BoundingBox could hold fails by name, on either side, rather
    # than scoring silently or failing inside numpy
    @pytest.mark.parametrize(
        "row",
        [[np.nan, 0.0, 0.5, 10.0], [0.0, np.inf, 0.5, 10.0], [0.0, 0.0, -0.5, 10.0], [0.0, 0.0, 0.5, 0.0]],
        ids=["nan-x", "inf-y", "negative-a", "zero-h"],
    )
    @pytest.mark.parametrize("side", ["ground truth", "results"])
    def test_bad_row_names_side_frame_and_id(self, side, row):
        good = {f: FrameBoxes.of([1, 2], [box(0, 0), box(300, 0)]) for f in (1, 2, 3)}
        bad = dict(good)
        bad[2] = FrameBoxes(np.array([1, 9]), np.array([[300.0, 0.0, 0.5, 100.0], row]), np.ones(2))
        gt, results = (bad, good) if side == "ground truth" else (good, bad)
        with pytest.raises(ValueError, match=rf"^{side} frame 2 id 9: box .* needs finite fields, a > 0 and h > 0$"):
            evaluate(gt, results)

    def test_first_bad_row_in_frame_order_is_named(self):
        bad = np.array([[0.0, 0.0, 0.5, -1.0]])
        results = {4: FrameBoxes(np.array([3]), bad, np.ones(1)), 2: FrameBoxes(np.array([5]), bad, np.ones(1))}
        with pytest.raises(ValueError, match="^results frame 2 id 5:"):
            evaluate(single_object_gt(4), results)


class TestIouThreshold:
    @pytest.mark.parametrize("thresh", [float("nan"), -0.2, 0.0, 1.5])
    def test_out_of_range_threshold_is_named(self, thresh):
        gt = single_object_gt(3)
        with pytest.raises(ValueError, match=f"iou_match_thresh .*got {thresh}"):
            evaluate(gt, gt, iou_match_thresh=thresh)

    def test_threshold_one_is_allowed(self):
        gt = single_object_gt(3)
        assert evaluate(gt, gt, iou_match_thresh=1.0).mota == 1.0


class TestInvariants:
    def test_mota_identity_recomputed(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            gt, results = random_scenario(rng)
            report = evaluate(gt, results)
            expected = 1.0 - (report.fn + report.fp + report.idsw) / report.gt_count
            assert report.mota == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= report.idf1 <= 1.0

    def test_deleting_correct_hypothesis_never_raises_mota(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gt, _ = random_scenario(rng, id_flip_prob=0.0, drop_prob=0.0, fp_rate=0.0)
            results = {f: list(rows) for f, rows in gt.items()}
            base = evaluate(gt, results).mota
            frame = int(rng.choice(list(results)))
            victims = results[frame]
            idx = int(rng.integers(0, len(victims)))
            pruned = {
                f: [r for k, r in enumerate(rows) if f != frame or k != idx]
                for f, rows in results.items()
            }
            assert evaluate(gt, pruned).mota <= base + 1e-12

    def test_matches_brute_force_scorer(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            gt, results = random_scenario(rng)
            report = evaluate(gt, results)
            ref = clear_events_ref(*as_tlwh_maps(gt, results))
            assert report.fp == ref["fp"]
            assert report.fn == ref["fn"]
            assert report.idsw == ref["idsw"]
            assert report.matches == ref["matches"]
            assert report.gt_count == ref["gt_count"]


# integer corners on a coarse grid: overlaps are common, IoU is exact in both
# the library and the oracle, and some pairs sit exactly on a threshold
grid_boxes = st.builds(
    BoundingBox.from_tlwh,
    st.sampled_from([0.0, 10.0, 20.0, 30.0]),
    st.sampled_from([0.0, 10.0]),
    st.sampled_from([10.0, 20.0]),
    st.sampled_from([10.0, 20.0]),
)
id_frames = st.lists(st.dictionaries(st.integers(1, 4), grid_boxes, max_size=4), min_size=1, max_size=4)


@given(id_frames, id_frames, st.sampled_from([0.3, 0.5, 0.7]))
def test_idf1_matches_exhaustive_id_assignment(gt_frames, hyp_frames, thresh):
    gt = {f: list(rows.items()) for f, rows in enumerate(gt_frames, start=1) if rows}
    results = {f: list(rows.items()) for f, rows in enumerate(hyp_frames, start=1) if rows}
    if not gt:
        gt = {1: [(1, box(0, 0))]}
    report = evaluate(gt, results, iou_match_thresh=thresh)
    assert report.idf1 == identity_f1_ref(*as_tlwh_maps(gt, results), thresh=thresh)


def random_scenario(rng, objects=5, frames=20, id_flip_prob=0.1, drop_prob=0.15, fp_rate=0.5):
    """Random gt tracks plus corrupted results (jitter, drops, id flips, clutter)."""
    starts = rng.uniform([0, 0], [1400, 800], size=(objects, 2))
    vels = rng.uniform(-8, 8, size=(objects, 2))
    sizes = rng.uniform([30, 60], [90, 180], size=(objects, 2))
    gt = {}
    results = {}
    id_map = {i: i + 1 for i in range(objects)}
    next_free = 100
    for f in range(1, frames + 1):
        gt_rows = []
        res_rows = []
        for i in range(objects):
            x, y = starts[i] + vels[i] * (f - 1)
            w, h = sizes[i]
            gt_rows.append((i + 1, BoundingBox.from_tlwh(x, y, w, h)))
            if rng.random() < drop_prob:
                continue
            if rng.random() < id_flip_prob:
                id_map[i] = next_free
                next_free += 1
            jitter = rng.normal(0, 4, size=2)
            res_rows.append(
                (id_map[i], BoundingBox.from_tlwh(x + jitter[0], y + jitter[1], w, h))
            )
        for _ in range(rng.poisson(fp_rate)):
            res_rows.append(
                (
                    next_free,
                    BoundingBox.from_tlwh(
                        float(rng.uniform(0, 1500)),
                        float(rng.uniform(0, 900)),
                        float(rng.uniform(30, 90)),
                        float(rng.uniform(60, 180)),
                    ),
                )
            )
            next_free += 1
        gt[f] = gt_rows
        if res_rows:
            results[f] = res_rows
    return gt, results


class TestReportSerialization:
    def test_csv_round_trip(self):
        report = MetricsReport(
            mota=0.8125, idf1=0.9, idsw=3, fp=10, fn=5, gt_count=96, matches=88
        )
        (row,) = csv.DictReader(io.StringIO(report.to_csv()))
        assert row.keys() == set(MetricsReport.CSV_HEADER.split(","))
        parsed = MetricsReport(**{k: (float if k in ("mota", "idf1") else int)(v) for k, v in row.items()})
        assert parsed == report

    def test_text_block_shows_percentages(self):
        report = MetricsReport(
            mota=1.0, idf1=1.0, idsw=0, fp=0, fn=0, gt_count=10, matches=10
        )
        text = report.to_text()
        assert "100.00%" in text
        assert "IDSW" in text
