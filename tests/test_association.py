"""Differential tests: the frame association against the dense stages.

``tracker.associate`` lists candidate (track, detection) pairs, costs them
once and runs the three stages on them through the pair solver.
``dense_associate_ref`` costs and solves each stage's dense matrix.  On
frames without ties in the assignment (continuous random boxes) they must
give the same matches and the same births, whether the candidates come from
the overlap sweep (every gate below 1) or are all pairs.  On tie-heavy frames
stage 1 must still take a matching of the dense optimum's size and cost.
The candidate kernel, unkeyed and keyed, and the pair solver are checked on
their own against ``pairwise_iou`` and ``assignment.solve``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sctrack import assignment, geometry, tracker
from sctrack.geometry import (
    overlapping_pairs,
    paired_shape_iou_distance,
    pairwise_iou,
    pairwise_shape_iou_distance,
    xyah_to_corners,
)
from sctrack.tracker import TENTATIVE, SCTracker, TrackerConfig, associate

from _oracles import dense_associate_ref

# score bands of a frame's detections, against the default thresholds
BANDS = {"mixed": (0.0, 1.0), "all_low": (0.1, 0.6), "all_high": (0.6, 1.0), "discarded": (0.0, 0.1)}

# ``SPARSE_MIN_CELLS`` values that send every frame to one candidate
# generator: the overlap sweep (when every gate is below 1), or all pairs
GENERATORS = {"sweep": 0, "all pairs": 10**9}


def random_corners(rng, n, canvas=(400.0, 250.0)):
    """``n`` boxes on a canvas small enough that they overlap and compete."""
    h = rng.uniform(20.0, 120.0, n)
    xyah = np.column_stack(
        (rng.uniform(-20.0, canvas[0], n), rng.uniform(-20.0, canvas[1], n), rng.uniform(0.25, 1.5, n), h)
    )
    return xyah_to_corners(xyah)


def frame(seed, n_tracks, n_dets, tentative_share, band, contention=None):
    """Tracks with their ``misses``, and detections of which about half
    jitter a track's box.

    ``contention`` plants pairs that compete across stages: "both_bands"
    gives confirmed track 0 a near detection in each score band, and
    "shared_high" puts confirmed track 0 and tentative track 1 on the same
    box with a high detection near both.
    """
    rng = np.random.default_rng(seed)
    tracks = random_corners(rng, n_tracks)
    dets = random_corners(rng, n_dets)
    near = rng.random(n_dets) < 0.5
    if n_tracks:
        source = rng.integers(n_tracks, size=n_dets)
        jitter = tracks[source] + rng.normal(0.0, 6.0, (n_dets, 4))
        jitter[:, 2:] = np.maximum(jitter[:, 2:], jitter[:, :2] + 1.0)
        dets[near] = jitter[near]
    lo, hi = BANDS[band]
    scores = rng.uniform(lo, hi, n_dets)
    misses = np.where(rng.random(n_tracks) < tentative_share, TENTATIVE, rng.integers(0, 4, n_tracks))
    if contention and n_tracks >= 2 and n_dets >= 2:
        misses[0] = 0
        dets[:2] = tracks[0] + rng.normal(0.0, 2.0, (2, 4))
        if contention == "both_bands":
            scores[:2] = rng.uniform(0.6, 1.0), rng.uniform(0.1, 0.6)
        else:
            misses[1] = TENTATIVE
            tracks[1] = tracks[0] + rng.normal(0.0, 2.0, 4)
            scores[:2] = rng.uniform(0.7, 1.0, 2)
    return tracks, misses, dets, scores


def as_lists(result):
    return [np.asarray(part).tolist() for part in result]


def associate_with(generator, *args):
    """``associate`` with every frame on one candidate generator."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracker, "SPARSE_MIN_CELLS", GENERATORS[generator])
        return associate(*args)


# gates of 1 or more send every frame to all pairs; the shape terms keep
# the costs of non-overlapping pairs apart (without them each costs exactly 1)
WIDE_GATES = (0.9, 1.5, 1.5)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tracks=st.integers(0, 30),
    n_dets=st.integers(0, 30),
    tentative_share=st.sampled_from([0.0, 0.3, 1.0]),
    band=st.sampled_from(sorted(BANDS)),
    gates=st.tuples(*[st.floats(0.05, 0.99)] * 3),
    shape_terms=st.booleans(),
    contention=st.sampled_from([None, "both_bands", "shared_high"]),
)
@example(seed=1, n_tracks=0, n_dets=12, tentative_share=0.0, band="mixed", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention=None)
@example(seed=2, n_tracks=12, n_dets=0, tentative_share=0.3, band="mixed", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention=None)
@example(seed=3, n_tracks=0, n_dets=0, tentative_share=0.0, band="mixed", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention=None)
@example(seed=4, n_tracks=20, n_dets=25, tentative_share=0.3, band="all_low", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention=None)
@example(seed=5, n_tracks=20, n_dets=25, tentative_share=0.3, band="discarded", gates=(0.9, 0.5, 0.7),
         shape_terms=False, contention=None)
@example(seed=6, n_tracks=8, n_dets=10, tentative_share=0.3, band="mixed", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention="both_bands")
@example(seed=7, n_tracks=8, n_dets=10, tentative_share=0.3, band="mixed", gates=(0.9, 0.5, 0.7), shape_terms=True,
         contention="shared_high")
@example(seed=8, n_tracks=20, n_dets=25, tentative_share=0.3, band="mixed", gates=WIDE_GATES, shape_terms=True,
         contention="both_bands")
@example(seed=9, n_tracks=20, n_dets=25, tentative_share=0.3, band="mixed", gates=WIDE_GATES, shape_terms=True,
         contention="shared_high")
@example(seed=10, n_tracks=12, n_dets=15, tentative_share=1.0, band="mixed", gates=WIDE_GATES, shape_terms=True,
         contention=None)
def test_sparse_association_matches_the_dense_stages(
    seed, n_tracks, n_dets, tentative_share, band, gates, shape_terms, contention
):
    config = TrackerConfig(
        match_gate_stage1=gates[0], match_gate_stage2=gates[1], match_gate_unconfirmed=gates[2],
        use_height_term=shape_terms, use_area_term=shape_terms,
    )
    args = frame(seed, n_tracks, n_dets, tentative_share, band, contention) + (config,)
    dense = as_lists(dense_associate_ref(*args))
    for generator in GENERATORS:
        assert as_lists(associate_with(generator, *args)) == dense, generator


@pytest.mark.parametrize(
    "misses, score, bad",
    [(0, 0.9, np.nan), (TENTATIVE, 0.3, np.nan), (0, 0.9, np.inf)],
    ids=["lone pair", "tentative x low pair", "infinite cost"],
)
def test_a_cost_that_is_not_finite_raises(monkeypatch, misses, score, bad):
    # a NaN fails every gate test, so without the check it would read as a
    # pair no stage admits; the tentative x low pair is in no stage at all
    costed = paired_shape_iou_distance

    def spoiled(*args, **kwargs):
        costs = costed(*args, **kwargs)
        costs[0] = bad
        return costs

    monkeypatch.setattr(geometry, "paired_shape_iou_distance", spoiled)
    box = np.array([[10.0, 10.0, 50.0, 90.0]])
    with pytest.raises(ValueError, match="finite and non-negative"):
        associate(box, np.array([misses]), box + 1.0, np.array([score]), TrackerConfig())


def grid_frame(seed, n_tracks, n_dets, copies):
    """Tracks and detections on a coarse grid, with some boxes repeated, and
    scores drawn from the three bands: a frame full of exact cost ties."""
    rng = np.random.default_rng(seed)

    def boxes(n):
        xy = rng.integers(0, 5, (n, 2)) * 40.0
        wh = rng.integers(1, 4, (n, 2)) * 40.0
        corners = np.column_stack((xy, xy + wh))
        repeat = rng.random(n) < copies
        if n:
            corners[repeat] = corners[rng.integers(n, size=int(repeat.sum()))]
        return corners

    tracks, dets = boxes(n_tracks), boxes(n_dets)
    scores = rng.choice([0.05, 0.3, 0.65, 0.8], n_dets)
    misses = np.where(rng.random(n_tracks) < 0.3, TENTATIVE, rng.integers(0, 3, n_tracks))
    return tracks, misses, dets, scores


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_tracks=st.integers(0, 25),
    n_dets=st.integers(0, 25),
    copies=st.sampled_from([0.0, 0.3, 0.7]),
    gate=st.floats(0.05, 2.5),
    shape_terms=st.booleans(),
)
def test_stage_one_on_ties_takes_a_dense_optimum(seed, n_tracks, n_dets, copies, gate, shape_terms):
    # on ties the pair solver may take another optimal matching than the
    # dense solve, but never one of another size or another total cost
    config = TrackerConfig(match_gate_stage1=gate, use_height_term=shape_terms, use_area_term=shape_terms)
    tracks, misses, dets, scores = grid_frame(seed, n_tracks, n_dets, copies)
    pool = np.flatnonzero(misses != TENTATIVE)
    high = np.flatnonzero(scores >= config.high_thresh)
    costs = pairwise_shape_iou_distance(
        tracks[pool], dets[high], use_height_term=shape_terms, use_area_term=shape_terms
    )
    expected = assignment.solve(costs, gate).matches
    expected_cost = sum(costs[r, c] for r, c in expected)
    cost_of = dict(zip(((i, j) for i in pool.tolist() for j in high.tolist()), costs.ravel().tolist()))
    for generator in GENERATORS:
        rows, cols, _ = associate_with(generator, tracks, misses, dets, scores, config)
        stage1 = [pair for pair in zip(rows.tolist(), cols.tolist()) if pair in cost_of]
        assert len(stage1) == len(expected), generator
        assert sum(cost_of[pair] for pair in stage1) == pytest.approx(expected_cost, rel=0, abs=1e-12), generator


def test_gates_from_one_take_all_pairs():
    # boxes side by side never overlap, so only all-pairs candidates can
    # match them, and a stage-1 gate above 1 + shape terms lets them
    config = TrackerConfig(match_gate_stage1=2.5)
    n = int(np.sqrt(tracker.SPARSE_MIN_CELLS)) + 1
    left = np.column_stack((np.arange(n) * 100.0, np.zeros(n), np.full(n, 0.5), np.full(n, 80.0), np.full(n, 0.9)))
    right = left + [45.0, 0.0, 0.0, 0.0, 0.0]
    trk = SCTracker(config)
    trk.step(1, left)
    assert trk.step(2, right).boxes.ids.tolist() == list(range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 40), n=st.integers(0, 40), canvas=st.floats(50.0, 2000.0))
def test_overlapping_pairs_hold_every_overlapping_pair(seed, m, n, canvas):
    rng = np.random.default_rng(seed)
    a, b = random_corners(rng, m, (canvas, canvas)), random_corners(rng, n, (canvas, canvas))
    rows, cols = overlapping_pairs(a, b)
    found = set(zip(rows.tolist(), cols.tolist()))
    assert len(found) == len(rows), "a pair is listed twice"
    overlapping = set(zip(*(idx.tolist() for idx in np.nonzero(pairwise_iou(a, b) > 0))))
    assert overlapping <= found
    assert rows.tolist() == sorted(rows.tolist())


def test_overlapping_pairs_keep_boxes_that_overlap_by_a_sliver():
    # a starts one ulp inside b's right edge, and b's width rounds down, so
    # a.x1 minus that width lands above b.x1: only the widened window keeps b
    b = np.array([[-9.914220815384828, 0.0, 7.097545355094287, 1.0]])
    a = np.array([[7.097545355094286, 0.0, 17.0, 1.0]])
    assert pairwise_iou(a, b)[0, 0] > 0 and a[0, 0] - (b[0, 2] - b[0, 0]) > b[0, 0]
    rows, cols = overlapping_pairs(a, b)
    assert (rows.tolist(), cols.tolist()) == ([0], [0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), m=st.integers(0, 40), n=st.integers(0, 40),
    key_count=st.integers(1, 6), grid=st.booleans(),
)
def test_keyed_pairs_are_the_per_key_union_of_unkeyed_pairs(seed, m, n, key_count, grid):
    rng = np.random.default_rng(seed)
    a, b = random_corners(rng, m), random_corners(rng, n)
    if grid:
        # corners on a coarse grid, so window bounds tie with box edges
        a, b = np.round(a / 20.0) * 20.0, np.round(b / 20.0) * 20.0
        a[:, 2:], b[:, 2:] = np.maximum(a[:, 2:], a[:, :2] + 20.0), np.maximum(b[:, 2:], b[:, :2] + 20.0)
    # keys need not be contiguous or shared by both sides
    keys_a, keys_b = 3 * rng.integers(key_count, size=m), 3 * rng.integers(key_count, size=n)
    rows, cols = overlapping_pairs(a, b, keys_a, keys_b)
    found = list(zip(rows.tolist(), cols.tolist()))
    assert (keys_a[rows] == keys_b[cols]).all()
    assert rows.tolist() == sorted(rows.tolist())
    expected = set()
    for key in set(keys_a.tolist()):
        in_a, in_b = np.flatnonzero(keys_a == key), np.flatnonzero(keys_b == key)
        r, c = overlapping_pairs(a[in_a], b[in_b])
        expected |= set(zip(in_a[r].tolist(), in_b[c].tolist()))
    assert len(set(found)) == len(found) and set(found) == expected


def test_keyed_pairs_keep_boxes_that_overlap_by_a_sliver():
    b = np.array([[-9.914220815384828, 0.0, 7.097545355094287, 1.0], [0.0, 0.0, 20.0, 1.0]])
    a = np.array([[7.097545355094286, 0.0, 17.0, 1.0]])
    rows, cols = overlapping_pairs(a, b, np.array([4]), np.array([4, 5]))
    assert (rows.tolist(), cols.tolist()) == ([0], [0])


@pytest.mark.parametrize("shape_terms", [True, False])
def test_paired_distance_is_bitwise_the_pairwise_entry(shape_terms):
    rng = np.random.default_rng(7)
    a, b = random_corners(rng, 30), random_corners(rng, 40)
    terms = dict(use_height_term=shape_terms, use_area_term=shape_terms)
    rows, cols = np.meshgrid(np.arange(30), np.arange(40), indexing="ij")
    paired = paired_shape_iou_distance(a[rows.ravel()], b[cols.ravel()], **terms)
    assert np.array_equal(paired, pairwise_shape_iou_distance(a, b, **terms).ravel())


def gated_pairs(costs, gate, rng):
    """The feasible entries of ``costs`` plus some infeasible ones, shuffled."""
    listed = (costs <= gate) | (rng.random(costs.shape) < 0.3)
    rows, cols = np.nonzero(listed)
    order = rng.permutation(len(rows))
    return rows[order], cols[order], costs[rows[order], cols[order]]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 12), n=st.integers(0, 12), gate=st.floats(0.0, 1.0))
def test_pair_solver_matches_the_dense_solver(seed, m, n, gate):
    rng = np.random.default_rng(seed)
    # mostly sparse feasible sets, so that both lone pairs and shared ones occur
    costs = rng.uniform(0.0, 1.0, (m, n)) + (rng.random((m, n)) < 0.7)
    rows, cols, pair_costs = gated_pairs(costs, gate, rng)
    got = sorted(zip(*(part.tolist() for part in assignment.solve_pairs(rows, cols, pair_costs, gate))))
    assert got == assignment.solve(costs, gate).matches


def test_pair_solver_rejects_bad_inputs():
    one = np.array([0])
    with pytest.raises(ValueError):
        assignment.solve_pairs(one, one, np.array([np.nan]), 0.5)
    with pytest.raises(ValueError):
        assignment.solve_pairs(one, one, np.array([-0.1]), 0.5)
    with pytest.raises(ValueError):
        assignment.solve_pairs(one, one, np.array([0.1]), -1.0)
    with pytest.raises(ValueError, match="gate must be non-negative, got nan"):
        assignment.solve_pairs(one, one, np.array([0.1]), float("nan"))
    empty = np.zeros(0, int)
    assert [part.tolist() for part in assignment.solve_pairs(empty, empty, np.zeros(0), 0.5)] == [[], []]


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=15, unique=True),
    row_shift=st.integers(0, 10**6),
    col_shift=st.integers(0, 10**6),
)
def test_lone_pairs_against_brute_force(pairs, row_shift, col_shift):
    rows = np.array([r for r, _ in pairs], np.intp) + row_shift
    cols = np.array([c for _, c in pairs], np.intp) + col_shift
    expected = [
        all(k == j or (rows[k] != rows[j] and cols[k] != cols[j]) for j in range(len(pairs)))
        for k in range(len(pairs))
    ]
    assert assignment.lone_pairs(rows, cols).tolist() == expected


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 8),
    row_shift=st.integers(0, 10**6), col_shift=st.integers(0, 10**6),
)
def test_pair_solver_is_the_same_on_shifted_indices(seed, m, n, row_shift, col_shift):
    # a slice of a long table solves as the same problem numbered from 0
    rng = np.random.default_rng(seed)
    costs = rng.choice([0.1, 0.2, 0.3, 2.0], (m, n))
    rows, cols, pair_costs = gated_pairs(costs, 0.5, rng)
    base = assignment.solve_pairs(rows, cols, pair_costs, 0.5)
    shifted = assignment.solve_pairs(rows + row_shift, cols + col_shift, pair_costs, 0.5)
    assert np.array_equal(shifted[0], base[0] + row_shift) and np.array_equal(shifted[1], base[1] + col_shift)
