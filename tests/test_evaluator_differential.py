"""Differential tests: the candidate-pair evaluator against the per-frame one.

``_oracles.dense_evaluate_ref`` is the evaluator as it was before the
candidate sweep: a dense IoU matrix per frame, the persistence rule applied
to every frame and a dense ``assignment.solve`` of the rest.  On boxes
without cost ties the two must give the same ``MetricsReport``.  On the
integer grid, where ties are common, the solvers may pick different ones
among equally good matchings, so only what no tie can change is compared.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sctrack.frames import FrameBoxes
from sctrack.geometry import BoundingBox
from sctrack.metrics import evaluate

from _oracles import dense_evaluate_ref
from test_metrics import id_frames


def box(x, y=0.0, w=100.0, h=100.0):
    return BoundingBox.from_tlwh(x, y, w, h)


def jittered_scenario(seed, objects, frames, one_sided, as_blocks):
    """Moving gt boxes and results that jitter them, with dropped and
    clutter boxes, id flips, frames missing from one side or both, and
    objects that leave and come back (id gaps)."""
    rng = np.random.default_rng(seed)
    start = rng.uniform([0, 0], [600, 300], (objects, 2))
    velocity = rng.uniform(-15, 15, (objects, 2))
    size = rng.uniform([30, 60], [90, 180], (objects, 2))
    hyp_id = np.arange(1, objects + 1) * 10
    next_id = 1000
    gt, results = {}, {}
    for frame in range(1, frames + 1):
        gt_rows, hyp_rows = [], []
        for k in range(objects):
            if rng.random() < 0.15:  # out of view: a gap in this id
                continue
            x, y = start[k] + velocity[k] * frame
            gt_rows.append((k + 1, BoundingBox.from_tlwh(x, y, *size[k])))
            if rng.random() < 0.15:
                continue
            if rng.random() < 0.1:
                hyp_id[k], next_id = next_id, next_id + 1
            # an exact copy now and then, so that a threshold of 1 matches
            jitter = np.zeros(2) if rng.random() < 0.3 else rng.normal(0, 6, 2)
            moved = BoundingBox.from_tlwh(x + jitter[0], y + jitter[1], *size[k])
            hyp_rows.append((int(hyp_id[k]), moved))
        for _ in range(rng.poisson(1.0)):
            # clutter, often near an object, where it contests the match
            k = rng.integers(objects)
            near = start[k] + velocity[k] * frame + rng.normal(0, 20, 2)
            hyp_rows.append((next_id, BoundingBox.from_tlwh(*near, *rng.uniform([30, 60], [90, 180]))))
            next_id += 1
        side = rng.random() if one_sided else 1.0
        if side > 0.1 and gt_rows:
            gt[frame] = gt_rows
        if (side < 0.1 or side > 0.2) and hyp_rows:
            results[frame] = hyp_rows
    if not gt:
        gt[1] = [(1, box(0.0))]
    if as_blocks:
        gt = {f: FrameBoxes.of([i for i, _ in rows], [b for _, b in rows]) for f, rows in gt.items()}
    return gt, results


def reshuffled(by_frame, rng):
    """The map with its frames re-inserted in random order, among empty
    frames (``[]`` and an empty ``FrameBoxes``) before, between and after them."""
    last = max(by_frame, default=0) + 2
    empty = [f for f in range(-1, last + 1) if f not in by_frame and rng.random() < 0.5]
    frames = list(by_frame) + empty
    return {
        f: by_frame[f] if f in by_frame else ([] if rng.random() < 0.5 else FrameBoxes.of([], []))
        for f in rng.permutation(frames).tolist()
    }


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    objects=st.integers(1, 8),
    frames=st.integers(1, 15),
    one_sided=st.booleans(),
    as_blocks=st.booleans(),
    no_results=st.booleans(),
    thresh=st.sampled_from([0.3, 0.5, 1.0]),
    shuffled=st.booleans(),
)
@example(seed=1, objects=6, frames=12, one_sided=True, as_blocks=False, no_results=True, thresh=0.5, shuffled=False)
@example(seed=2, objects=8, frames=15, one_sided=True, as_blocks=True, no_results=False, thresh=1.0, shuffled=False)
def test_reports_equal_the_per_frame_evaluator(
    seed, objects, frames, one_sided, as_blocks, no_results, thresh, shuffled
):
    gt, results = jittered_scenario(seed, objects, frames, one_sided, as_blocks)
    if no_results:
        results = {}
    if shuffled:
        rng = np.random.default_rng([seed, 1])
        gt, results = reshuffled(gt, rng), reshuffled(results, rng)
    assert evaluate(gt, results, thresh) == dense_evaluate_ref(gt, results, thresh)


@settings(max_examples=300, deadline=None)
@given(id_frames, id_frames, st.sampled_from([0.3, 0.5, 0.7, 1.0]))
def test_tie_proof_fields_equal_the_per_frame_evaluator_on_the_grid(gt_frames, hyp_frames, thresh):
    gt = {f: list(rows.items()) for f, rows in enumerate(gt_frames, start=1) if rows}
    results = {f: list(rows.items()) for f, rows in enumerate(hyp_frames, start=1) if rows}
    if not gt:
        gt = {1: [(1, box(0.0, w=10.0, h=10.0))]}
    report, ref = evaluate(gt, results, thresh), dense_evaluate_ref(gt, results, thresh)
    if len(set(gt) | set(results)) == 1:
        # no history: the matching's size is that of every optimum, and
        # nothing can switch
        assert report == ref
    else:
        # which of tied matchings a frame takes can change what the next
        # frame keeps, and so its event counts; the hits cannot change
        assert (report.gt_count, report.idf1) == (ref.gt_count, ref.idf1)


# one gt box, and two hypotheses on it: h1 at IoU 0.6, h2 at IoU 0.905; a
# fresh match takes h2, persistence keeps h1
GT = [(1, box(0.0))]
H1 = (1, box(25.0))
H2 = (2, box(-5.0))
FAR = (3, box(900.0))


def scored(gt, results):
    report = evaluate(gt, results)
    assert report == dense_evaluate_ref(gt, results)
    return report


def test_a_frame_absent_from_both_sides_keeps_the_match():
    report = scored({1: GT, 3: GT}, {1: [H1], 3: [H1, H2]})
    assert (report.idsw, report.matches, report.fp) == (0, 2, 1)


def test_a_results_only_frame_clears_the_match():
    report = scored({1: GT, 3: GT}, {1: [H1], 2: [FAR], 3: [H1, H2]})
    assert (report.idsw, report.matches, report.fp) == (1, 2, 2)


def test_a_ground_truth_only_frame_clears_the_match():
    report = scored({1: GT, 2: [(2, box(900.0))], 3: GT}, {1: [H1], 3: [H1, H2]})
    assert (report.idsw, report.matches, report.fn) == (1, 2, 1)


def test_a_contested_frame_after_a_kept_pair_keeps_it():
    # frame 2 keeps h1 against h2, and frame 3 keeps the kept pair again
    report = scored({1: GT, 2: GT, 3: GT}, {1: [H1], 2: [H1, H2], 3: [H1, H2]})
    assert (report.idsw, report.matches, report.fp) == (0, 3, 2)


def test_boxes_that_do_not_overlap_never_match():
    # at a threshold this small, 1 - thresh rounds to 1; only overlapping
    # boxes are candidates, so the IoU of a match is always positive
    report = evaluate({1: GT}, {1: [FAR]}, iou_match_thresh=1e-17)
    assert (report.matches, report.fp, report.fn) == (0, 1, 1)
